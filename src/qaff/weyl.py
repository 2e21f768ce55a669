"""Finite and affine Weyl groups with exact Bruhat-order combinatorics.

Affine elements are kept in translation canonical form ``w = v * t_lambda``
with ``v`` in the finite Weyl group and ``lambda`` in the coroot lattice.
The composition rule and the action on real roots follow from
``t_lambda(k delta + beta) = (k - <beta, lambda>) delta + beta``:

* ``(v1, l1) * (v2, l2) = (v1 v2, v2^{-1}(l1) + l2)``
* ``(v, l)^{-1} = (v^{-1}, -v(l))``
* ``(v, l)(k delta + beta) = (k - <beta, l>) delta + v(beta)``

Each element carries its inversion heights, one integer per index ``b`` of the
root table, negative roots included (Shi's alcove form; J.-Y. Shi, *The
Kazhdan-Lusztig cells in certain affine Weyl groups*, LNM 1179, 1986):

    h_b(v t_l) = <roots[b], l> + [v(roots[b]) < 0],

so ``w`` sends ``level delta + roots[b]`` to a negative root exactly when
``level < h_b``, and ``h_{-beta} = 1 - h_beta``.  Lengths come from the closed form

    len(w) = sum over beta > 0 of |h_beta(w)|,

which tests cross-validate against breadth-first word enumeration; right
descents, inversion sets and the Z-property test of the Bruhat covers read
the same vector.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import add, itemgetter, mul

from .roots import (
    AffineRoot,
    AffineRootData,
    RootSystem,
    RootTable,
    Vec,
    _cartan_matrix,
    _check_lie_type,
    _degrees,
    _positive_root_closure,
    build_root_system,
)


class FinW:
    """A finite Weyl group element, stored as the permutation it makes of the roots.

    ``perm[i]`` is the index of ``w(roots[i])`` in the root system's shared
    :class:`~qaff.roots.RootTable`, so multiplication composes index tuples and
    ``w(beta) < 0`` reads as ``perm[i] >= N``.  Equality and hashing use ``perm``.
    It is the boundary form of the finite group: :class:`FiniteWeyl` runs on ids.
    """

    __slots__ = ("perm",)

    def __init__(self, perm: tuple[int, ...]):
        self.perm = perm

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinW) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __mul__(self, other: "FinW") -> "FinW":
        # a perm has at least two entries, so itemgetter returns a tuple
        return FinW(itemgetter(*other.perm)(self.perm))


def _act(table: RootTable, v: Vec, vectors: tuple[Vec, ...], image) -> Vec:
    """``sum_j v_j * vectors[image(simple_j)]``, skipping zero coefficients.

    With ``image`` a root permutation (or its ``index``, for the inverse), this
    is the linear action on root or coroot coordinates.
    """
    out = [0] * len(v)
    for c, s in zip(v, table.simple):
        if c:
            for r, x in enumerate(vectors[image(s)]):
                out[r] += c * x
    return tuple(out)


def _parse_word(text: str, lo: int, hi: int) -> list[int]:
    """The indices of ``"s0s2s1"`` (``[]`` for ``e``, ``1``, blank); the first one
    outside ``lo..hi`` is refused."""
    text = text.strip()
    if text in ("e", "", "1"):
        return []
    head, *parts = text.split("s")
    # every part non-empty and decimal, in two tests over the whole list
    if head or "" in parts or not "".join(parts).isdecimal():
        raise ValueError(f"cannot parse Weyl element {text!r}")
    word = [int(p) for p in parts]
    for i in word:
        if not lo <= i <= hi:
            raise ValueError(f"generator index {i} is not in {lo}..{hi}")
    return word


def finite_identity(rs: RootSystem) -> FinW:
    return FinW(tuple(range(len(rs.table.roots))))


def finite_reflection(rs: RootSystem, beta: Vec) -> FinW:
    """``s_beta`` for any root beta, as a :class:`FinW`."""
    table = rs.table
    return FinW(table.reflections[table.index_of(beta)])


def check_element_ids(group: AffineWeylGroup | FiniteWeyl, ids):
    """Refuse an element id ``group`` has not made, as the ``check_ids`` of both
    groups: a negative one would read the tables from the end and a large one past
    them, and in the affine group either names a different element as it grows.
    The message names the group (``str(group)``) only when an id is refused; ``ids``
    is returned as it was given."""
    size = len(group.perm)
    for w in ids:
        if w.__class__ is not int or not 0 <= w < size:
            raise ValueError(f"{w!r} is not an element id of {group}: ids run 0..{size - 1}")
    return ids


def parse_element(group: AffineWeylGroup | FiniteWeyl, text: str) -> int:
    """The id of the word ``text`` (``"s0s2s1"``, or ``"e"``), as the ``parse`` of both
    groups; words need not be reduced.  ``_parse_word`` checks each letter against
    ``group.first_letter..group.n``, so ``group._walk`` checks none again.

    The text is kept when it is ``format(w)``, the one canonical spelling of its
    element, so the memo (``group._parsed``) holds at most one text per element and
    never a refused one.  Any other spelling (``s0s0``, a blank, a non-reduced word)
    is parsed every time."""
    w = group._parsed.get(text)
    if w is None:
        w = group._walk(_parse_word(text, group.first_letter, group.n))
        if text == group.format(w):
            group._parsed[text] = w
    return w


class AffineWeylGroup:
    """Calculator for one affine Weyl group, on int ids; owns the caches.

    The group is infinite, so elements are numbered as they are met: every
    element is made by :meth:`_intern`, which gives each new ``(perm, t)`` the
    next id.  ``perm[w]`` is the root permutation of w's finite part,
    ``trans[w]`` its translation, and ``index`` maps ``(perm, t)`` back to the
    id.  The identity is ``0``.  :meth:`rmul` keeps each product ``w s_i``.

    Each element's inversion heights (:meth:`heights`, the ``h_b`` of the module
    docstring) are kept, one tuple of ``2 |Phi+|`` ints per id: :meth:`rmul`
    derives the product's from its factor's, and any other element computes its
    own on first read.  The length ``sum over b < |Phi+| of |h_b|``, the right
    descents (``level_i < h_{b_i}`` for ``alpha_i = level_i delta + roots[b_i]``)
    and the inversion set are read off them; lengths and descents are kept.

    >>> from qaff.roots import affinize
    >>> W = AffineWeylGroup(affinize("A", 1))
    >>> W.length(W.from_word([0, 1, 0]))
    3
    """

    def __init__(self, ard: AffineRootData):
        self.ard = ard
        self.rs = ard.rs
        self.table = ard.rs.table
        self.n = ard.rs.rank
        self.perm: list[tuple[int, ...]] = []
        self.trans: list[Vec] = []
        self.index: dict[tuple[tuple[int, ...], Vec], int] = {}
        self._heights: list[tuple[int, ...] | None] = []  # None until first read
        self._length: list[int] = []  # -1 until first read
        self._descents: list[tuple[int, ...] | None] = []  # None until first read
        self._rmul: list[list[int] | None] = []  # per id, w s_i by i, -1 until made
        self.identity = self._intern(finite_identity(self.rs).perm, (0,) * self.n)
        self._simple_affine = [ard.simple_root(i) for i in range(self.n + 1)]
        self._simple = [self.reflection(ai) for ai in self._simple_affine]
        # each affine simple root as (level, index of its finite part)
        self._simple_roots = [(ai.level, self.table.index[ai.finite])
                              for ai in self._simple_affine]
        self._simple_perms = [itemgetter(*self.table.reflections[b])
                              for _, b in self._simple_roots]
        # level * <roots[b], beta^vee> per table index b, for alpha_i = level delta + beta:
        # what rmul adds to the permuted heights, so None but for s_0
        self._height_shifts = [
            tuple(level * sum(map(mul, pv, self.table.coroots[b])) for pv in self.table.pairings)
            if level else None for level, b in self._simple_roots]
        self._bruhat_memo: dict[tuple[int, int], bool] = {}
        self._covers_memo: dict[int, list[tuple[int, AffineRoot]]] = {}
        # s_i(gamma) per root gamma met by bruhat_covers_up, one dict per i
        self._reflected: list[dict[AffineRoot, AffineRoot]] = [{} for _ in range(self.n + 1)]
        self._word_memo: dict[int, tuple[int, ...]] = {}
        self._parsed: dict[str, int] = {}  # format(w) -> w, once parsed
        # the elements of each length met so far by enumerate_up_to, and their union
        self._layers: list[list[int]] = [[self.identity]]
        self._layer_seen: set[int] = {self.identity}

    def _intern(self, p: tuple[int, ...], t: Vec) -> int:
        """The id of the element with root permutation ``p`` and translation ``t``."""
        key = (p, t)
        w = self.index.get(key)
        if w is None:
            w = self.index[key] = len(self.perm)
            self.perm.append(p)
            self.trans.append(t)
            self._heights.append(None)
            self._length.append(-1)
            self._descents.append(None)
            self._rmul.append(None)
        return w

    check_ids = check_element_ids

    def __str__(self) -> str:
        return f"affine {self.rs.lie_type}"

    # -- group structure -----------------------------------------------------

    def simple(self, i: int) -> int:
        return self._simple[self.ard.affine_index(i)]

    def multiply(self, a: int, b: int) -> int:
        """``(v1, l1) (v2, l2) = (v1 v2, v2^{-1}(l1) + l2)``."""
        pb = self.perm[b]
        lam = self.trans[b]
        ta = self.trans[a]
        if any(ta):
            lam = tuple(map(add, _act(self.table, ta, self.table.coroots, pb.index), lam))
        # a perm has at least two entries, so itemgetter returns a tuple
        return self._intern(itemgetter(*pb)(self.perm[a]), lam)

    def rmul(self, w: int, i: int) -> int:
        """The id of ``w s_i``, computed once per ``(w, i)``.

        ``alpha_i = k delta + beta`` makes ``s_i = (s_beta, k beta^vee)``, so
        ``(v, l) s_i = (v s_beta, l - (<beta, l> - k) beta^vee)``, with ``<beta, l>``
        read off ``h(w)``.  ``s_i`` sends ``level delta + roots[b]`` to ``(level - k
        <roots[b], beta^vee>) delta + s_beta(roots[b])``, so ``h_b(w s_i) =
        h_{r(b)}(w) + k <roots[b], beta^vee>`` with ``r`` the permutation ``s_beta``
        makes of the table: the permutation that gives ``v s_beta``, and for ``s_0``
        a shift fixed per group.  A product met before keeps the heights it has.
        """
        row = self._rmul[w]
        if row is None:
            row = self._rmul[w] = [-1] * (self.n + 1)
        u = row[i]
        if u < 0:
            level, b = self._simple_roots[i]
            h, p, t = self.heights(w), self.perm[w], self.trans[w]
            k = h[b] - (p[b] >= self.rs.num_positive) - level
            if k:
                t = tuple([x - k * c for x, c in zip(t, self.table.coroots[b])])
            r = self._simple_perms[i]
            u = row[i] = self._intern(r(p), t)
            if self._heights[u] is None:
                h = r(h)
                shift = self._height_shifts[i]
                self._heights[u] = h if shift is None else tuple(map(add, h, shift))
            back = self._rmul[u]
            if back is None:
                back = self._rmul[u] = [-1] * (self.n + 1)
            back[i] = w
        return u

    def reflection(self, alpha: AffineRoot) -> int:
        """``s_alpha`` for a real affine root ``alpha = k delta + beta``."""
        if not alpha.is_real():
            raise ValueError("no reflection for imaginary roots")
        table = self.table
        b = table.index_of(alpha.finite)
        return self._intern(table.reflections[b],
                            tuple(alpha.level * x for x in table.coroots[b]))

    # -- length and words ------------------------------------------------------

    def heights(self, w: int) -> tuple[int, ...]:
        """``h(w)``: ``h_b = <roots[b], l> + [v(roots[b]) < 0]`` for every table index
        ``b``, so ``w = v t_l`` sends ``level delta + roots[b]`` negative exactly when
        ``level < h_b``.  Kept per id; computed here for an element :meth:`rmul` did
        not make, the negative half as ``h_{-beta} = 1 - h_beta``."""
        h = self._heights[w]
        if h is None:
            npos, t, p = self.rs.num_positive, self.trans[w], self.perm[w]
            half = [sum(map(mul, pv, t)) + (image >= npos)
                    for pv, image in zip(self.table.pairings, p[:npos])]
            h = self._heights[w] = tuple(half + [1 - x for x in half])
        return h

    def length(self, w: int) -> int:
        """The closed form ``sum over beta > 0 of |h_beta(w)|``, on first read."""
        ell = self._length[w]
        if ell < 0:
            ell = self._length[w] = sum(map(abs, self.heights(w)[:self.rs.num_positive]))
        return ell

    def inversion_set(self, w: int) -> list[tuple[int, int]]:
        """``N(w)``, the positive real roots ``level delta + roots[b]`` that w sends
        negative, as ``(level, b)`` pairs by ``b``, then level; there are ``len(w)`` of
        them.  For each ``b`` they are the levels from 0 (1 for a negative ``roots[b]``)
        below ``h_b(w)``."""
        npos = self.rs.num_positive
        return [(level, b) for b, top in enumerate(self.heights(w))
                for level in range(b >= npos, top)]

    def right_descents(self, w: int) -> tuple[int, ...]:
        """The i with ``w(alpha_i) < 0``, that is ``level_i < h_{b_i}(w)``, on first read."""
        out = self._descents[w]
        if out is None:
            h = self.heights(w)
            out = self._descents[w] = tuple(
                i for i, (level, b) in enumerate(self._simple_roots) if level < h[b])
        return out

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """The word read off by stripping the first right descent until ``e``."""
        memo = self._word_memo
        word = memo.get(w)
        if word is None:
            out: list[int] = []
            cur = w
            # stop at e or at the first element whose word is already known
            while cur != self.identity and (word := memo.get(cur)) is None:
                ds = self.right_descents(cur)
                if not ds:
                    raise AssertionError("non-identity element with no descent")
                out.append(ds[0])
                cur = self.rmul(cur, ds[0])
            word = memo[w] = (word or ()) + tuple(reversed(out))
        return word

    def from_word(self, word: list[int] | tuple[int, ...]) -> int:
        return self._walk(map(self.ard.affine_index, word))

    def _walk(self, word) -> int:
        """``e s_{i1} s_{i2} ...`` along ``word``, whose letters are already checked."""
        w = self.identity
        for i in word:
            w = self.rmul(w, i)
        return w

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, u: int, w: int) -> bool:
        if u == w:
            return True
        key = (u, w)
        hit = self._bruhat_memo.get(key)
        if hit is not None:
            return hit
        lu, lw = self.length(u), self.length(w)
        if lu >= lw:
            res = False
        else:
            i = self.right_descents(w)[0]
            ws = self.rmul(w, i)
            us = self.rmul(u, i)
            if self.length(us) < lu:
                res = self.bruhat_leq(us, ws)
            else:
                res = self.bruhat_leq(u, ws)
        self._bruhat_memo[key] = res
        return res

    def bruhat_covers_up(self, w: int) -> list[tuple[int, AffineRoot]]:
        """All ``(w s_alpha, alpha)``, alpha > 0 real, with ``len(w s_alpha) = len(w) + 1``,
        sorted by alpha's ``(level, finite)``; computed once per element and kept.

        With ``D(x)`` the right descents of x and ``Cov(x)`` its covers,
        ``Cov(w) = {w s_j : j not in D(w)} u {y s_i : i in D(w), (y, gamma) in
        Cov(w s_i), i not in D(y)}``, and ``y s_i`` has root ``s_i(gamma)``.
        Proof (lifting property and Deodhar's Z-property; Bjorner-Brenti,
        *Combinatorics of Coxeter Groups*, section 2.2):

        * Let x cover w, x not some ``w s_j``.  An s in ``D(x)`` but not in
          ``D(w)`` would give ``w <= x s`` by lifting, so ``x = w s``.  Hence
          ``D(x)`` is a nonempty subset of ``D(w)``.
        * For i in ``D(x)``, the Z-property gives ``w s_i <= x s_i``: ``y = x s_i``
          covers ``w s_i``, and i is not in ``D(y)``.
        * Conversely such a y gives ``w <= y s_i`` by lifting, one length up, and
          ``y = w s_i s_gamma`` makes ``y s_i = w s_{s_i(gamma)}``; ``gamma =
          alpha_i`` would give ``y = w``, so ``s_i(gamma) > 0``.

        ``w s_alpha`` determines alpha, so a cover met twice is kept once.  Each
        ``s_i(gamma)`` is computed once per ``(i, gamma)`` and kept (``_reflected``,
        at most ``n + 1`` entries per distinct root of the covers met), so every
        cover's root is one dict read once its reflection is known.
        Cost: one call per element of the lower weak interval ``{x <=_R w}``
        whose covers are not memoized; a stack walk finds them and they are
        filled shortest first.  :mod:`qaff.affine` refuses support of length
        ``L`` (the ``AffineCoh`` truncation) or more, which caps the interval;
        far past the default ``L`` it outgrows the reflections of length at
        most ``2 len(w) + 1`` that a scan would try.
        """
        memo = self._covers_memo
        hit = memo.get(w)
        if hit is not None:
            return hit
        descents = self.right_descents(w)
        below = [self.rmul(w, i) for i in descents]
        if any(u not in memo for u in below):
            # an element's covers are memoized only after those of its weak interval
            todo = {u for u in below if u not in memo}
            stack = list(todo)
            while stack:
                x = stack.pop()
                for i in self.right_descents(x):
                    u = self.rmul(x, i)
                    if u not in memo and u not in todo:
                        todo.add(u)
                        stack.append(u)
            for x in sorted(todo, key=self.length):
                self.bruhat_covers_up(x)
        table = self.table
        found = {self.rmul(w, j): self._simple_affine[j]
                 for j in range(self.n + 1) if j not in descents}
        for i, wi in zip(descents, below):
            level, b = self._simple_roots[i]
            reflected = self._reflected[i]
            for y, gamma in memo[wi]:
                if level >= self.heights(y)[b]:  # y(alpha_i) > 0
                    u = self.rmul(y, i)
                    if u not in found:
                        root = reflected.get(gamma)
                        if root is None:
                            # s_i(gamma) = gamma - <gamma, alpha_i^vee> alpha_i
                            m = table.index[gamma.finite]
                            k = sum(map(mul, table.pairings[m], table.coroots[b]))
                            root = reflected[gamma] = AffineRoot(
                                gamma.level - k * level, table.roots[table.reflections[b][m]])
                        found[u] = root
        out = memo[w] = sorted(found.items(), key=itemgetter(1))
        return out

    def hecke_product(self, u: int, v: int) -> int:
        """Demazure (0-Hecke) product, via any reduced word of v."""
        cur = u
        lcur = self.length(cur)
        for i in self.reduced_word(v):
            nxt = self.rmul(cur, i)
            lnxt = self.length(nxt)
            if lnxt > lcur:
                cur, lcur = nxt, lnxt
        return cur

    def enumerate_up_to(self, L: int) -> dict[int, list[int]]:
        """Elements grouped by length, for lengths 0..L, by right-multiplication BFS.

        Layers are cached and extended on demand, so repeated calls are cheap.
        """
        layers = self._layers
        for ell in range(len(layers) - 1, L):
            nxt: list[int] = []
            for w in layers[ell]:
                for i in range(self.n + 1):
                    u = self.rmul(w, i)
                    if u not in self._layer_seen:
                        if self.length(u) != ell + 1:
                            raise AssertionError("length formula vs BFS depth")
                        self._layer_seen.add(u)
                        nxt.append(u)
            layers.append(nxt)
        return {ell: layers[ell] for ell in range(L + 1)}

    # -- formatting --------------------------------------------------------------

    first_letter = 0
    parse = parse_element

    def format(self, w: int) -> str:
        word = self.reduced_word(w)
        return "".join(f"s{i}" for i in word) if word else "e"


@lru_cache(maxsize=None, typed=True)
def affine_weyl(letter: str, rank: int) -> AffineWeylGroup:
    from .roots import affinize

    return AffineWeylGroup(affinize(letter, rank))


class FiniteWeyl:
    """The finite Weyl group of a root system, its elements numbered ``0..|W|-1``.

    Elements are ints (ids), in breadth-first order from the identity ``0``
    along right multiplication by ``s_1, ..., s_n``, so ids grow with length, and
    within one length with ``word``, the least reduced word in lexicographic order:
    id order is the printing order of a class.
    Every Schubert-basis dict of :mod:`qaff.bgg` and :mod:`qaff.quantum` is
    keyed by them, and arithmetic on them is table lookup:

    * ``rmul[i][w]`` is the id of ``w s_{i+1}``;
    * ``length[w]`` and ``word[w]`` (0-indexed letters) are indexed by id;
    * ``covers(w)`` lists the Bruhat covers ``w s_beta``, once per element.

    :class:`FinW` is the boundary form: ``perm[w]`` is element w's permutation
    of the roots and ``index`` maps a permutation back to its id, which
    :meth:`element` and :meth:`id_of` use.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.n = rs.rank
        table = rs.table
        npos = rs.num_positive
        e = tuple(range(len(table.roots)))
        self.perm: list[tuple[int, ...]] = [e]
        self.index: dict[tuple[int, ...], int] = {e: 0}
        self.length: list[int] = [0]
        # a dict, not a list, so that readers may call word.get
        self.word: dict[int, tuple[int, ...]] = {0: ()}
        self.rmul: list[list[int]] = [[] for _ in range(self.n)]
        gens = [itemgetter(*table.reflections[s]) for s in table.simple]
        # ids are handed out in discovery order, so scanning them in order is the BFS
        w = 0
        while w < len(self.perm):
            p, lw, word = self.perm[w], self.length[w] + 1, self.word[w]
            for i, (g, row) in enumerate(zip(gens, self.rmul)):
                q = g(p)
                u = self.index.get(q)
                if u is None:
                    u = self.index[q] = len(self.perm)
                    self.perm.append(q)
                    self.length.append(lw)
                    self.word[u] = word + (i,)
                row.append(u)
            w += 1
        self.elements = range(len(self.perm))
        self.identity = 0
        self.gens = [row[0] for row in self.rmul]
        self.w0 = max(self.elements, key=self.length.__getitem__)
        self.by_length: dict[int, list[int]] = {}
        for w in self.elements:
            self.by_length.setdefault(self.length[w], []).append(w)
        self._refl = [itemgetter(*r) for r in table.reflections[:npos]]
        self._covers: list[list[tuple[int, int]] | None] = [None] * len(self.perm)
        self._parsed: dict[str, int] = {}  # format(w) -> w, once parsed

    def __len__(self) -> int:
        return len(self.perm)

    check_ids = check_element_ids

    def __str__(self) -> str:
        return self.rs.lie_type

    def element(self, w: int) -> FinW:
        return FinW(self.perm[w])

    def id_of(self, x: FinW) -> int:
        return self.index[x.perm]

    def covers(self, w: int) -> list[tuple[int, int]]:
        """``[(u, b)]`` with ``u = w s_beta`` and ``len(u) = len(w) + 1``, where
        ``beta`` is the positive root of table index ``b``; in ``b`` order.

        ``len(w s_beta) > len(w)`` exactly when ``w(beta) > 0``, so only those
        roots are tried.  Each row is built on first use and kept.
        """
        row = self._covers[w]
        if row is None:
            p, npos = self.perm[w], self.rs.num_positive
            lw = self.length[w] + 1
            row = []
            for b, refl in enumerate(self._refl):
                if p[b] < npos:
                    u = self.index[refl(p)]
                    if self.length[u] == lw:
                        row.append((u, b))
            self._covers[w] = row
        return row

    def covered(self, w: int) -> list[int]:
        """The ``v = w s_beta`` with ``len(v) = len(w) - 1``, in id order: ``w(beta) < 0``
        for those, as in :meth:`covers`.  Not kept."""
        p, npos, lv = self.perm[w], self.rs.num_positive, self.length[w] - 1
        out = []
        for b, refl in enumerate(self._refl):
            if p[b] >= npos and self.length[v := self.index[refl(p)]] == lv:
                out.append(v)
        return sorted(out)

    def format(self, w: int) -> str:
        word = self.word[w]
        return "".join(f"s{i + 1}" for i in word) if word else "e"

    first_letter = 1
    parse = parse_element

    def _walk(self, word) -> int:
        """``e s_{i1} s_{i2} ...`` along ``word``, whose letters are already checked."""
        w = self.identity
        for i in word:
            w = self.rmul[i - 1][w]
        return w


@lru_cache(maxsize=None, typed=True)
def finite_weyl(letter: str, rank: int) -> FiniteWeyl:
    return FiniteWeyl(build_root_system(letter, rank))


def weyl_order(letter: str, rank: int) -> int:
    """|W| without enumerating the group: in closed form for A-D, whose rank is
    unbounded, and as the product of the fundamental degrees for E, F and G, read
    from the positive roots alone, with no :class:`~qaff.roots.RootTable`."""
    _check_lie_type(letter, rank)
    if letter == "A":
        return factorial(rank + 1)
    if letter in "BCD":
        return 2 ** (rank - (letter == "D")) * factorial(rank)
    return prod(_degrees(_positive_root_closure(_cartan_matrix(letter, rank))))

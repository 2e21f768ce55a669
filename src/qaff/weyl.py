"""Finite and affine Weyl groups with exact Bruhat-order combinatorics.

Affine elements are kept in translation canonical form ``w = v * t_lambda``
with ``v`` in the finite Weyl group and ``lambda`` in the coroot lattice.
The composition rule and the action on real roots follow from
``t_lambda(k delta + beta) = (k - <beta, lambda>) delta + beta``:

* ``(v1, l1) * (v2, l2) = (v1 v2, v2^{-1}(l1) + l2)``
* ``(v, l)^{-1} = (v^{-1}, -v(l))``
* ``(v, l)(k delta + beta) = (k - <beta, l>) delta + v(beta)``

Lengths come from the closed form

    len(v t_l) = sum over beta > 0 of  |<beta,l>| + s(beta)
    where s(beta) = +[v beta < 0] if <beta,l> >= 0, else -[v beta < 0],

equivalently the sum of ``|<beta,l> + [v beta < 0]|``, which tests
cross-validate against breadth-first word enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import add, itemgetter, mul
from typing import NamedTuple

from .roots import AffineRoot, AffineRootData, RootSystem, RootTable, Vec


class FinW:
    """A finite Weyl group element, stored as the permutation it makes of the roots.

    ``perm[i]`` is the index of ``w(roots[i])`` in the root system's shared
    :class:`~qaff.roots.RootTable`, so multiplication composes index tuples and
    ``w(beta) < 0`` reads as ``perm[i] >= N``.  The actions on lattice vectors
    are linear, so they come from the images of the simple roots, and the
    inverse actions from their preimages.  Equality and hashing use ``perm``.
    It is the boundary form of both groups: the finite side runs on the ids of
    :class:`FiniteWeyl`, the affine side on those of :class:`AffineWeylGroup`.
    """

    __slots__ = ("perm", "table")

    def __init__(self, perm: tuple[int, ...], table: RootTable):
        self.perm = perm
        self.table = table

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinW) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __mul__(self, other: "FinW") -> "FinW":
        # a perm has at least two entries, so itemgetter returns a tuple
        return FinW(itemgetter(*other.perm)(self.perm), self.table)

    def inv(self) -> "FinW":
        return FinW(_inverse(self.perm), self.table)

    def root(self, v: Vec) -> Vec:
        return _act(self.table, v, self.table.roots, self.perm.__getitem__)

    def coroot(self, v: Vec) -> Vec:
        return _act(self.table, v, self.table.coroots, self.perm.__getitem__)

    def inv_coroot(self, v: Vec) -> Vec:
        """``w^{-1}(v)`` on coroot coordinates, from the preimages of the simple roots."""
        return _act(self.table, v, self.table.coroots, self.perm.index)


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


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


def _parse_word(text: str) -> list[int]:
    """The indices of ``"s0s2s1"`` (``[]`` for ``e``, ``1``, blank); the range is the caller's."""
    text = text.strip()
    if text in ("e", "", "1"):
        return []
    head, *parts = text.split("s")
    if head or not parts or not all(p.isdecimal() for p in parts):
        raise ValueError(f"cannot parse Weyl element {text!r}")
    return [int(p) for p in parts]


def finite_identity(rs: RootSystem) -> FinW:
    return FinW(tuple(range(len(rs.table.roots))), rs.table)


def finite_reflection(rs: RootSystem, beta: Vec) -> FinW:
    """``s_beta`` for any root beta, as a :class:`FinW`."""
    table = rs.table
    return FinW(table.reflections[table.index_of(beta)], table)


class AffW(NamedTuple):
    """Affine Weyl element ``v * t_lambda`` (lambda in finite coroot coordinates).

    The boundary form of an element of :class:`AffineWeylGroup`, which works
    on int ids; see :meth:`AffineWeylGroup.element` and
    :meth:`AffineWeylGroup.id_of`.
    """

    v: FinW
    t: Vec


class AffineWeylGroup:
    """Calculator for one affine Weyl group, on int ids; owns the caches.

    The group is infinite, so elements are numbered as they are met: every
    element is made by :meth:`_intern`, which gives each new ``(perm, t)`` the
    next id.  ``perm[w]`` is the root permutation of w's finite part,
    ``trans[w]`` its translation, and ``index`` maps ``(perm, t)`` back to the
    id.  The identity is ``0``.  Lengths and right descents are computed on
    first read and kept, and :meth:`rmul` keeps each product ``w s_i``.
    :class:`AffW` is the boundary form (:meth:`element`, :meth:`id_of`).

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
        self._bruhat_memo: dict[tuple[int, int], bool] = {}
        self._covers_memo: dict[int, list[tuple[int, AffineRoot]]] = {}
        self._word_memo: dict[int, tuple[int, ...]] = {}
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
            self._length.append(-1)
            self._descents.append(None)
            self._rmul.append(None)
        return w

    def element(self, w: int) -> AffW:
        return AffW(FinW(self.perm[w], self.table), self.trans[w])

    def id_of(self, x: AffW) -> int:
        return self._intern(x.v.perm, tuple(x.t))

    # -- group structure -----------------------------------------------------

    def simple(self, i: int) -> int:
        return self._simple[i]

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
        ``(v, l) s_i = (v s_beta, l - (<beta, l> - k) beta^vee)``.
        """
        row = self._rmul[w]
        if row is None:
            row = self._rmul[w] = [-1] * (self.n + 1)
        u = row[i]
        if u < 0:
            level, b = self._simple_roots[i]
            t = self.trans[w]
            k = sum(map(mul, self.table.pairings[b], t)) - level
            if k:
                t = tuple([x - k * c for x, c in zip(t, self.table.coroots[b])])
            u = row[i] = self._intern(self._simple_perms[i](self.perm[w]), t)
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

    def length(self, w: int) -> int:
        """The closed form ``sum over beta > 0 of |<beta,l> + [v beta < 0]|``, on first read."""
        ell = self._length[w]
        if ell < 0:
            npos = self.rs.num_positive
            t = self.trans[w]
            ell = 0
            for pv, image in zip(self.table.pairings, self.perm[w][:npos]):
                ell += abs(sum(map(mul, pv, t)) + (image >= npos))
            self._length[w] = ell
        return ell

    def inverts(self, w: int, level: int, b: int) -> bool:
        """Whether ``w = v t_l`` sends ``level delta + roots[b]`` to a negative root:
        ``level - <roots[b], l>`` is negative, or zero with ``v(roots[b]) < 0``."""
        level -= sum(map(mul, self.table.pairings[b], self.trans[w]))
        return level < 0 or (level == 0 and self.perm[w][b] >= self.rs.num_positive)

    def right_descents(self, w: int) -> tuple[int, ...]:
        """The i with ``w(alpha_i) < 0``, by the rule of :meth:`inverts`, on first read."""
        out = self._descents[w]
        if out is None:
            out = self._descents[w] = tuple(
                i for i, (level, b) in enumerate(self._simple_roots) if self.inverts(w, level, b))
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

        ``w s_alpha`` determines alpha, so a cover met twice is kept once.
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
            for y, gamma in memo[wi]:
                if not self.inverts(y, level, b):
                    u = self.rmul(y, i)
                    if u not in found:
                        # s_i(gamma) = gamma - <gamma, alpha_i^vee> alpha_i
                        m = table.index[gamma.finite]
                        k = sum(map(mul, table.pairings[m], table.coroots[b]))
                        found[u] = AffineRoot(gamma.level - k * level,
                                              table.roots[table.reflections[b][m]])
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

    def parse(self, text: str) -> int:
        """Parse ``"s0s2s1"`` (or ``"e"``) into an element; words need not be reduced."""
        word = _parse_word(text)
        bad = [i for i in word if not 0 <= i <= self.n]
        if bad:
            raise ValueError(f"generator index out of range {bad} for rank {self.n}")
        return self.from_word(word)

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
    along right multiplication by ``s_1, ..., s_n``, so ids grow with length.
    Every Schubert-basis dict of :mod:`qaff.bgg` and :mod:`qaff.quantum` is
    keyed by them, and arithmetic on them is table lookup:

    * ``rmul[i][w]`` is the id of ``w s_{i+1}``;
    * ``length[w]`` and ``word[w]`` (0-indexed letters) are indexed by id;
    * ``covers(w)`` lists the Bruhat covers ``w s_beta``, once per element.

    :class:`FinW` is the boundary form: ``perm[w]`` is element w's permutation
    of the roots and ``index`` maps a permutation back to its id, which
    :meth:`element`, :meth:`id_of` and the general product :meth:`mul` use.
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

    def __len__(self) -> int:
        return len(self.perm)

    def element(self, w: int) -> FinW:
        return FinW(self.perm[w], self.rs.table)

    def id_of(self, x: FinW) -> int:
        return self.index[x.perm]

    def mul(self, u: int, v: int) -> int:
        """The id of ``u v``, by composing permutations; for cold paths."""
        return self.index[itemgetter(*self.perm[v])(self.perm[u])]

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

    def format(self, w: int) -> str:
        word = self.word[w]
        return "".join(f"s{i + 1}" for i in word) if word else "e"

    def parse(self, text: str) -> int:
        w = self.identity
        for i in _parse_word(text):
            if not 1 <= i <= self.n:
                raise ValueError(f"generator index {i} out of range")
            w = self.rmul[i - 1][w]
        return w


@lru_cache(maxsize=None, typed=True)
def finite_weyl(letter: str, rank: int) -> FiniteWeyl:
    from .roots import build_root_system

    return FiniteWeyl(build_root_system(letter, rank))


_EXCEPTIONAL_ORDER = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                      ("F", 4): 1152, ("G", 2): 12}


def weyl_order(letter: str, rank: int) -> int:
    """|W| in closed form, without enumerating the group."""
    if letter == "A":
        return factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _EXCEPTIONAL_ORDER[(letter, rank)]

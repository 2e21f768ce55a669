"""Schubert calculus on the (truncated) cohomology of the affine flag manifold.

Classes are finitely supported maps from affine Weyl elements (the int ids of
:class:`~qaff.weyl.AffineWeylGroup`) to polynomials in the quantum parameters
``q_0..q_n``.  The coefficients are exact, so the
truncation bound L is an interface guard, not a numerical watermark: asking an
operator to produce support above length L raises :class:`TruncationOverflow`
naming the bound that would suffice; support at length L itself is allowed.

The operators:

* ``chevalley(i, a)`` — affine cup product with the divisor ``eps_i``, summed
  over Bruhat covers with coefficients ``<lambda_i, alpha^vee>``;
* ``D_word`` — the nil-BGG operators, ``D_i(eps_v) = eps_{v s_i}`` on right
  descents and 0 otherwise;
* ``lambda_op(i, a)`` — the quantum Chevalley operator: cup part plus
  ``<lambda_i, alpha^vee> q^{alpha^vee}`` terms over the distinguished roots
  that meet the quantum-cover length condition, tested by inversion sets;
* ``modified_lambda(i, a)`` — ``(Lambda_i - m_i Lambda_0)(a)``, the family
  that commutes exactly;
* ``divisor_pullback(i, a)`` — the cup product with ``eps_i - m_i eps_0``, the
  image of the finite divisor ``sigma_i``.

The paper's first ring, the divisor subring with its ``#``-product and the
``e1`` pullback, is :mod:`qaff.divisor_ring`; the second route to
``Lambda_i``, ``q^{alpha^vee} D_{s_alpha}`` along the roots' words, is the
cross-check ``lambda_op_by_words`` of :mod:`qaff.verify`.  Neither is loaded
by ``import qaff``.

``chevalley``, ``lambda_op``, ``modified_lambda`` and ``divisor_pullback`` are
one sum over the cover rows of the support, with the weight ``<lambda_i, alpha^vee>``
or ``<lambda_i - m_i lambda_0, alpha^vee>`` on a cover and with or without the
quantum covers.  :class:`AffineCoh` builds the rows of an element once, from its
Bruhat covers and the per-type Chevalley roots, and keeps them (``_rows``, one
entry per element met).  A Chevalley root alpha has ``len(s_alpha) = 2
ht(alpha^vee) - 1``, so alpha is a quantum cover of ``w`` exactly when
``len(w) = len(w s_alpha) + len(s_alpha)``; by the inversion-set lemma
``len(xy) = len(x) + len(y)`` iff ``N(y)`` lies in ``N(xy)``, where ``N(x)`` is
the set of positive roots x sends negative (Bjorner-Brenti, *Combinatorics of
Coxeter Groups*, 2005), that is ``N(s_alpha)`` lying in ``N(w)``.  The rows test
that containment on ``w``'s root tables and multiply only the members that pass.
Each row carries its cover's weights, one tuple per distinct root (``_weights``,
bounded by the roots of the covers met, read with one lookup), so the sum reads a
weight by index: entry ``i`` for ``lambda_i``, read through
:meth:`~qaff.roots.AffineRootData.affine_index`, and entry ``n + i`` for
``lambda_i - m_i lambda_0``, through :meth:`~qaff.roots.RootSystem.finite_index`.

The sum runs on packed ``int`` keys, in the key layout of
:meth:`~qaff.polynomials.QModule._packing` with 16 bits per exponent entry: a
term ``c q^e eps_w`` is ``(w << S | e, c)``, and a row holds the key ``u << S``
of a Bruhat cover ``u = w s_alpha``, plus the packed ``alpha^vee`` for a quantum
cover, so the term lands at ``key + e``: one ``int`` addition, into one table.
Every operator, ``D_word`` included, answers with a
:class:`~qaff.polynomials.RowClass` of its table's row; its ``Poly`` terms are
built only when read, and its JSON record sorts the row by the length and
reduced word of each id, since the ids are numbered as elements are met.  An
answer of this ring is read back as its row, and any other class is packed
once.  An input exponent entry must lie in ``0..2^15 - 1``: a negative one
(a Laurent exponent) or one past the cap is refused with ``ValueError``, before
any memo changes.  One operator adds at most a coroot entry, so an answer never
reaches ``2^16``: an answer with an entry past the cap is exact, and the next
operator refuses it rather than wrap.

Each public method that reads a class first asks the ring whether the class is
its own (:meth:`~qaff.polynomials.QModule.check_classes`, run by ``_guard`` and
``D_word``): a class of a ring on another group, even one of the same type, or
with another number of q-variables is refused, and so is an element id the
group has not made.  An id is an index into lists that grow as elements are
met, so ``-1`` would name whichever element came last, and an id of another
group names another element.  Both checks, and the truncation guard, read the
ids of a row from its keys, so no check builds the terms; ``check_classes``
returns the ids it checked, and the guard takes the longest of those same ids,
so an operator reads a class's ids once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .chevalley import enumerate_chevalley_roots
from .polynomials import QClass, QModule, RowClass
from .roots import AffineRoot
from .weyl import AffineWeylGroup, affine_weyl

# B, the bits of one packed q-exponent entry; an input entry is below 2^(B-1)
_WIDTH = 16


class TruncationOverflow(RuntimeError):
    """An operation needs support beyond the configured truncation."""

    def __init__(self, needed: int, configured: int):
        super().__init__(
            f"result needs truncation L >= {needed}, configured L = {configured}; "
            f"rerun with --trunc {needed} or higher"
        )
        self.needed = needed
        self.configured = configured


def default_truncation(rank: int) -> int:
    return 8 if rank <= 2 else 6


class AffineCoh(QModule):
    """Operator calculator over one affine type."""

    def __init__(self, W: AffineWeylGroup, L: int | None = None):
        super().__init__(W.length, W.reduced_word, W, W.n + 1)
        self.W = W
        self.ard = W.ard
        self.n = W.n
        self.L = default_truncation(self.n) if L is None else L
        # an input entry is at most 2^15 - 1 and one operator adds at most a coroot
        # entry, itself packed, so a sum stays below 2^16; the top bit of an entry is
        # set in a key (``_over``) exactly when that entry is past the cap
        self._packing((1 << (_WIDTH - 1)) - 1, _WIDTH, f"2^{_WIDTH - 1} - 1")
        self._over = sum(1 << (_WIDTH * j + _WIDTH - 1) for j in range(self.nq))
        self._chev = enumerate_chevalley_roots(W)
        self._weights: dict[AffineRoot, tuple[int, ...]] = {}
        # each member as (level, table index of its finite part, s_alpha, packed alpha^vee,
        # weights), for the rule of W.inverts; its N(s_alpha) is read on first use
        self._members = [(cr.root.level, W.table.index[cr.root.finite], W.reflection(cr.root),
                          self._keys[cr.coroot], self._weight_row(cr.root)) for cr in self._chev]
        self._inversions: list[list[tuple[int, int]] | None] = [None] * len(self._members)
        self._rows: dict[int, tuple[list, list]] = {}

    def _row_of(self, a: QClass) -> list:
        """The packed row of a checked class.  A class of this ring held as a row is read
        as it is, once no entry of its exponents is past the cap, so a chained row that
        could carry at the next step is refused; any other class is packed once
        (``_keys``), which refuses an entry outside ``0..2^15 - 1``."""
        if a.__class__ is RowClass and a.ring is self:
            over = self._over
            for k, _ in a.row:
                if k & over:
                    self._pack(self._unpack(k & self._mask))  # refuses the entry past the cap
            return a.row
        keys, S = self._keys, self._shift
        return [(w << S | keys[e], c) for w, p in a.terms.items() for e, c in p.terms.items()]

    def _guard(self, a: QClass) -> list:
        """The packed row of ``a`` (:meth:`_row_of`), once the ring took it as its own
        (:meth:`~qaff.polynomials.QModule.check_classes`) and its support is below length
        ``L``: the lengths are read off the ids that the check returns, so the ids are
        read once."""
        (ids,) = self.check_classes(a)
        top = max(map(self.length, ids), default=0) + 1
        if top > self.L:
            raise TruncationOverflow(top, self.L)
        return self._row_of(a)

    # -- cup and BGG operators ---------------------------------------------------

    def _weight_row(self, alpha: AffineRoot) -> tuple[int, ...]:
        """The weights of a cover with root ``alpha``, once per distinct root: entry
        ``i`` is ``<lambda_i, alpha^vee>`` for ``i = 0..n`` (the coroot itself) and entry
        ``n + i`` is ``<lambda_i - m_i lambda_0, alpha^vee>`` for ``i = 1..n``."""
        row = self._weights.get(alpha)
        if row is None:
            coroot, pair = self.ard.coroot(alpha), self.ard.level_zero_weight_pairing
            row = self._weights[alpha] = coroot + tuple(
                pair(i, coroot) for i in range(1, self.n + 1))
        return row

    def _cover_rows(self, w: int) -> tuple[list, list]:
        """The covers out of ``w``, computed once per element and kept.

        Each row is ``(key, weights)``, with the weights of :meth:`_weight_row`: the
        key of the Bruhat cover ``w s_alpha`` is ``w s_alpha << S``, and that of a
        quantum cover adds its packed ``alpha^vee``, so a term ``q^e`` of ``w`` lands
        at ``key + e``.  The first list holds the Bruhat covers, in
        :meth:`~qaff.weyl.AffineWeylGroup.bruhat_covers_up` order; the second
        holds the Chevalley roots alpha with ``len(w s_alpha) = len(w) + 1 - 2
        ht(alpha^vee)``, in set order.  A member has ``len(s_alpha) = 2 ht(alpha^vee)
        - 1``, so that is ``len(w) = len(w s_alpha) + len(s_alpha)``, which holds
        exactly when ``N(s_alpha)``, the positive roots ``s_alpha`` sends negative, lies
        in ``N(w)`` (``len(xy) = len(x) + len(y)`` iff ``N(y)`` lies in ``N(xy)``;
        Bjorner-Brenti, *Combinatorics of Coxeter Groups*, 2005).  The test reads
        ``w``'s translation pairings and permutation: first on alpha, and if ``w(alpha)
        < 0``, on every root of ``N(s_alpha)`` (``_inversions``, read the first time a
        member gets that far), stopping at the first root ``w`` keeps positive.  Only
        a member that passes is multiplied, so ``w s_alpha`` is made exactly once per
        quantum cover and for no other member.
        """
        rows = self._rows.get(w)
        if rows is None:
            W, S, weight_row = self.W, self._shift, self._weight_row
            classical = [(u << S, weight_row(alpha)) for u, alpha in W.bruhat_covers_up(w)]
            # <roots[b], t> for every table index b, read once for w = v t; w sends
            # level delta + roots[b] negative by the rule of W.inverts
            t, p, npos = W.trans[w], W.perm[w], W.rs.num_positive
            pairs = [sum(map(mul, pv, t)) for pv in W.table.pairings[:npos]]
            pairs += [-x for x in pairs]
            quantum, inversions = [], self._inversions
            for j, (level, b, s, packed, weights) in enumerate(self._members):
                level -= pairs[b]
                if level < 0 or (level == 0 and p[b] >= npos):
                    inv = inversions[j]
                    if inv is None:
                        inv = inversions[j] = W.inversion_set(s)
                    for level, b in inv:
                        level -= pairs[b]
                        if level > 0 or (level == 0 and p[b] < npos):
                            break
                    else:
                        quantum.append((W.multiply(w, s) << S | packed, weights))
            rows = self._rows[w] = (classical, quantum)
        return rows

    def _cover_sum(self, a: QClass, col: int, quantum: bool) -> RowClass:
        """``sum weights[col] c q^e eps_{w s_alpha}`` over the terms ``c q^e eps_w`` of
        ``a`` and the Bruhat covers of ``w`` and, if ``quantum``, its quantum covers,
        whose keys carry ``q^{alpha^vee}``: one int addition per term, into one table."""
        row = self._guard(a)
        acc: dict = {}
        get, S, mask = acc.get, self._shift, self._mask
        for key, c in row:
            classical, quantum_rows = self._cover_rows(key >> S)
            e = key & mask
            for covers in (classical, quantum_rows) if quantum else (classical,):
                for k2, weights in covers:
                    k = weights[col]
                    if k:
                        k2 += e
                        acc[k2] = get(k2, 0) + k * c
        return RowClass(self, [(k, c) for k, c in acc.items() if c])

    def chevalley(self, i: int, a: QClass) -> RowClass:
        """Affine divisor multiplication ``eps_i . a``."""
        return self._cover_sum(a, self.ard.affine_index(i), False)

    def D_word(self, word: tuple[int, ...], a: QClass) -> RowClass:
        """``D_{i_1} ... D_{i_k}(a)``, rightmost letter first; the letters and the
        support are checked once, and every later support is made by the group."""
        self.check_classes(a)
        W, S, mask = self.W, self._shift, self._mask
        letters = [self.ard.affine_index(j) for j in word]
        row = self._row_of(a)
        for i in reversed(letters):
            if not row:
                break
            out = []
            for k, c in row:
                w = k >> S
                u = W.rmul(w, i)
                if W.length(u) < W.length(w):  # w -> w s_i is injective, so no two terms meet
                    out.append((u << S | (k & mask), c))
            row = out
        return RowClass(self, row)

    # -- quantum Chevalley operators ------------------------------------------------

    def lambda_op(self, i: int, a: QClass) -> RowClass:
        """The affine quantum Chevalley operator ``Lambda_i``.

        Cup part plus ``<lambda_i, alpha^vee> q^{alpha^vee} eps_{w s_alpha}``
        for each distinguished root alpha and each ``w`` in the support with
        ``l(w s_alpha) = l(w) + 1 - 2 ht(alpha^vee)``, the quantum-cover length
        condition.
        """
        return self._cover_sum(a, self.ard.affine_index(i), True)

    def modified_lambda(self, i: int, a: QClass) -> RowClass:
        """``(Lambda_i - m_i Lambda_0)(a)`` for a finite index i >= 1."""
        return self._cover_sum(a, self.n + self.ard.rs.finite_index(i), True)

    # -- pullback along evaluation at the base point ---------------------------------

    def divisor_pullback(self, i: int, a: QClass) -> RowClass:
        """Multiply by ``eps_i - m_i eps_0``, the image of the finite divisor."""
        return self._cover_sum(a, self.n + self.ard.rs.finite_index(i), False)

    # -- formatting --------------------------------------------------------------

    def format_class(self, a: QClass) -> str:
        self.check_classes(a)
        return a.format([f"q{i}" for i in range(self.nq)],
                        lambda w: f"e[{self.W.format(w)}]", always_coeff=True)


@lru_cache(maxsize=None, typed=True)
def affine_coh(letter: str, rank: int, L: int | None = None) -> AffineCoh:
    return AffineCoh(affine_weyl(letter, rank), L)

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
  ``<lambda_i, alpha^vee> q^{alpha^vee}`` terms over the distinguished roots,
  found by the quantum-cover length condition;
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
entry per element met).  Each row carries its cover's weights, one tuple per
distinct coroot (``_weights``, bounded by the coroots of the covers met), so the
sum reads a weight by index: entry ``i`` for ``lambda_i``, read through
:meth:`~qaff.roots.AffineRootData.affine_index`, and entry ``n + i`` for
``lambda_i - m_i lambda_0``, through :meth:`~qaff.roots.RootSystem.finite_index`.

Each public method that reads a class first asks the ring whether the class is
its own (:meth:`~qaff.polynomials.QModule.check_classes`, run by ``_guard`` and
``D_word``): a class of a ring on another group, even one of the same type, or
with another number of q-variables is refused, and so is an element id the
group has not made.  An id is an index into lists that grow as elements are
met, so ``-1`` would name whichever element came last, and an id of another
group names another element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .chevalley import enumerate_chevalley_roots
from .polynomials import Poly, QClass, QModule
from .roots import CorootVec
from .weyl import AffineWeylGroup, affine_weyl


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
        self._chev = enumerate_chevalley_roots(W)
        self._weights: dict[CorootVec, tuple[int, ...]] = {}
        # each member as (level, table index of its finite part, s_alpha, coroot height,
        # alpha^vee, weights), for the rule of W.inverts
        self._members = [(cr.root.level, W.table.index[cr.root.finite], W.reflection(cr.root),
                          cr.coroot_height, cr.coroot, self._weight_row(cr.coroot))
                         for cr in self._chev]
        self._rows: dict[int, tuple[list, list]] = {}

    def _guard(self, a: QClass) -> None:
        """Refuse a class that is not this ring's
        (:meth:`~qaff.polynomials.QModule.check_classes`), or with support at length
        ``L`` or more."""
        self.check_classes(a)
        top = a.max_length() + 1
        if top > self.L:
            raise TruncationOverflow(top, self.L)

    # -- cup and BGG operators ---------------------------------------------------

    def _weight_row(self, coroot: CorootVec) -> tuple[int, ...]:
        """The weights of a cover with coroot ``alpha^vee``, once per distinct coroot:
        entry ``i`` is ``<lambda_i, alpha^vee>`` for ``i = 0..n`` (the coroot itself)
        and entry ``n + i`` is ``<lambda_i - m_i lambda_0, alpha^vee>`` for ``i = 1..n``."""
        row = self._weights.get(coroot)
        if row is None:
            pair = self.ard.level_zero_weight_pairing
            row = self._weights[coroot] = coroot + tuple(
                pair(i, coroot) for i in range(1, self.n + 1))
        return row

    def _cover_rows(self, w: int) -> tuple[list, list]:
        """The covers out of ``w``, computed once per element and kept.

        Each row is ``(w s_alpha, alpha^vee, weights)``, with the weights of
        :meth:`_weight_row`.  The first list holds the Bruhat covers, in
        :meth:`~qaff.weyl.AffineWeylGroup.bruhat_covers_up` order; the second
        holds the Chevalley roots alpha with ``len(w s_alpha) = len(w) + 1 - 2
        ht(alpha^vee)``, in set order.  That length is below ``len(w)``, which
        happens only when ``w(alpha) < 0``, so no other member is multiplied.
        """
        rows = self._rows.get(w)
        if rows is None:
            W, ard = self.W, self.ard
            lw = W.length(w)
            classical = []
            for u, alpha in W.bruhat_covers_up(w):
                coroot = ard.coroot(alpha)
                classical.append((u, coroot, self._weight_row(coroot)))
            # <roots[b], t> for every table index b, read once for w = v t
            t, p, npos = W.trans[w], W.perm[w], W.rs.num_positive
            pairs = [sum(map(mul, pv, t)) for pv in W.table.pairings[:npos]]
            pairs += [-x for x in pairs]
            quantum = []
            for level, b, s, height, coroot, weights in self._members:
                level -= pairs[b]
                if level < 0 or (level == 0 and p[b] >= npos):
                    u = W.multiply(w, s)
                    if W.length(u) == lw + 1 - 2 * height:
                        quantum.append((u, coroot, weights))
            rows = self._rows[w] = (classical, quantum)
        return rows

    def _cover_sum(self, a: QClass, col: int, quantum: bool) -> QClass:
        """``sum weights[col] c_w eps_{w s_alpha}`` over the Bruhat covers of the
        support and, if ``quantum``, its quantum covers with ``q^{alpha^vee}``."""
        self._guard(a)
        acc: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
        for w, c in a.terms.items():
            classical, quantum_rows = self._cover_rows(w)
            for u, _, weights in classical:
                k = weights[col]
                if k:
                    d = acc.setdefault(u, {})
                    for e, v in c.terms.items():
                        d[e] = d.get(e, 0) + k * v
            if quantum:
                for u, coroot, weights in quantum_rows:
                    k = weights[col]
                    if k:
                        d = acc.setdefault(u, {})
                        for e, v in c.terms.items():
                            qe = tuple(map(add, e, coroot))
                            d[qe] = d.get(qe, 0) + k * v
        return self.from_table(acc)

    def chevalley(self, i: int, a: QClass) -> QClass:
        """Affine divisor multiplication ``eps_i . a``."""
        return self._cover_sum(a, self.ard.affine_index(i), False)

    def D_word(self, word: tuple[int, ...], a: QClass) -> QClass:
        """``D_{i_1} ... D_{i_k}(a)``, rightmost letter first; the letters and the
        support are checked once, and every later support is made by the group."""
        self.check_classes(a)
        W = self.W
        letters = [self.ard.affine_index(j) for j in word]
        for i in reversed(letters):
            if a.is_zero():
                break
            out: dict[int, Poly] = {}
            for w, c in a.terms.items():
                u = W.rmul(w, i)
                if W.length(u) < W.length(w):
                    out[u] = c  # w -> w s_i is injective, so no two terms meet
            a = self._make(out)
        return a

    # -- quantum Chevalley operators ------------------------------------------------

    def lambda_op(self, i: int, a: QClass) -> QClass:
        """The affine quantum Chevalley operator ``Lambda_i``.

        Cup part plus ``<lambda_i, alpha^vee> q^{alpha^vee} eps_{w s_alpha}``
        for each distinguished root alpha and each ``w`` in the support with
        ``l(w s_alpha) = l(w) + 1 - 2 ht(alpha^vee)``, the quantum-cover length
        condition.
        """
        return self._cover_sum(a, self.ard.affine_index(i), True)

    def modified_lambda(self, i: int, a: QClass) -> QClass:
        """``(Lambda_i - m_i Lambda_0)(a)`` for a finite index i >= 1."""
        return self._cover_sum(a, self.n + self.ard.rs.finite_index(i), True)

    # -- pullback along evaluation at the base point ---------------------------------

    def divisor_pullback(self, i: int, a: QClass) -> QClass:
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

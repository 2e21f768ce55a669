"""Schubert calculus on the (truncated) cohomology of the affine flag manifold.

Classes are finitely supported maps from affine Weyl elements (the int ids of
:class:`~qaff.weyl.AffineWeylGroup`) to polynomials in the quantum parameters
``q_0..q_n``.  The coefficients are exact, so the
truncation bound L is an interface guard, not a numerical watermark: asking an
operator to produce support at length >= L raises :class:`TruncationOverflow`
naming the bound that would suffice.

The operators:

* ``chevalley(i, a)`` — affine cup product with the divisor ``eps_i``, summed
  over Bruhat covers with coefficients ``<lambda_i, alpha^vee>``;
* ``D_word`` — the nil-BGG operators, ``D_i(eps_v) = eps_{v s_i}`` on right
  descents and 0 otherwise;
* ``lambda_op(i, a)`` — the quantum Chevalley operator: cup part plus
  ``<lambda_i, alpha^vee> q^{alpha^vee}`` terms over the distinguished roots,
  found by the quantum-cover length condition; ``lambda_op_by_words`` computes
  the same operator as ``q^{alpha^vee} D_{s_alpha}`` along the roots' words,
  and ``verify`` and the tests check the two against each other;
* ``modified_lambda(i, a)`` — ``(Lambda_i - m_i Lambda_0)(a)``, the family
  that commutes exactly;
* ``e1_pullback`` — the ring map determined by ``sigma_i -> eps_i - m_i eps_0``,
  built by the Monk step: ``sigma_w = sum c sigma_i . sigma_v`` pulls back to
  ``sum c (eps_i - m_i eps_0) . e1(sigma_v)``;
* ``qsharp_product`` — ``a * b := Lambda_a Lambda_b (1)`` reduced modulo the
  principal ideal generated by ``q^c``.

``chevalley``, ``lambda_op``, ``modified_lambda`` and ``divisor_pullback`` are
one sum over the cover rows of the support, with the weight ``<lambda_i, alpha^vee>``
or ``<lambda_i - m_i lambda_0, alpha^vee>`` on a cover and with or without the
quantum covers.  :class:`AffineCoh` builds the rows of an element once, from its
Bruhat covers and the per-type Chevalley roots, and keeps them (``_rows``, one
entry per element met).  Each row carries its cover's weights, one tuple per
distinct coroot (``_weights``, bounded by the coroots of the covers met), so the
sum reads a weight by index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, mul

from .bgg import FinCohClass, FiniteSchubert, finite_schubert
from .chevalley import enumerate_chevalley_roots
from .polynomials import Poly, QClass, QModule, solve_exact
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
        super().__init__(W.length, W.reduced_word, W.identity, W.n + 1)
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
        self._e1_cache: dict[int, QClass] = {}
        self._mono_cache: dict[tuple[int, ...], QClass] = {(): self.unit()}

    @property
    def fs(self) -> FiniteSchubert:
        """The cached finite Schubert calculator of this type, read by :meth:`e1_pullback`."""
        return finite_schubert(self.W.rs.letter, self.W.rs.rank)

    def q_monomial(self, e: CorootVec, num=1) -> Poly:
        return Poly.monomial(self.nq, tuple(e), num)

    def _guard(self, a: QClass) -> None:
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

    def _column(self, i: int) -> int:
        """The weight-row entry of ``lambda_i``, for an affine index i."""
        if not 0 <= i <= self.n:
            raise ValueError(f"operator needs an affine index in 0..{self.n}")
        return i

    def _level_zero_column(self, i: int) -> int:
        """The weight-row entry of ``lambda_i - m_i lambda_0``, for a finite index i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"modified operator needs a finite index in 1..{self.n}")
        return self.n + i

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
        return self._cover_sum(a, self._column(i), False)

    def D_letter(self, i: int, a: QClass) -> QClass:
        out: dict[int, Poly] = {}
        W = self.W
        for w, c in a.terms.items():
            u = W.rmul(w, i)
            if W.length(u) < W.length(w):
                out[u] = c  # w -> w s_i is injective, so no two terms meet
        return self._make(out)

    def D_word(self, word: tuple[int, ...], a: QClass) -> QClass:
        for i in reversed(word):
            if a.is_zero():
                break
            a = self.D_letter(i, a)
        return a

    # -- quantum Chevalley operators ------------------------------------------------

    def lambda_op(self, i: int, a: QClass) -> QClass:
        """The affine quantum Chevalley operator ``Lambda_i``.

        Cup part plus ``<lambda_i, alpha^vee> q^{alpha^vee} eps_{w s_alpha}``
        for each distinguished root alpha and each ``w`` in the support with
        ``l(w s_alpha) = l(w) + 1 - 2 ht(alpha^vee)``, the quantum-cover length
        condition.
        """
        return self._cover_sum(a, self._column(i), True)

    def lambda_op_by_words(self, i: int, a: QClass) -> QClass:
        """``Lambda_i`` as cup plus ``<lambda_i, alpha^vee> q^{alpha^vee} D_{s_alpha}``.

        The letters of each distinguished root's palindromic word are applied
        one by one.  This is the oracle that ``verify`` and the tests compare
        :meth:`lambda_op` against.
        """
        out = self.chevalley(i, a)
        for cr in self._chev:
            k = cr.coroot[i]
            if k:
                out = out + self.D_word(cr.word, a).scale(self.q_monomial(cr.coroot, k))
        return out

    def modified_lambda(self, i: int, a: QClass) -> QClass:
        """``(Lambda_i - m_i Lambda_0)(a)`` for a finite index i >= 1."""
        return self._cover_sum(a, self._level_zero_column(i), True)

    # -- pullback along evaluation at the base point ---------------------------------

    def divisor_pullback(self, i: int, a: QClass) -> QClass:
        """Multiply by ``eps_i - m_i eps_0``, the image of the finite divisor."""
        return self._cover_sum(a, self._level_zero_column(i), False)

    def e1_pullback(self, a: FinCohClass) -> QClass:
        """The ring map ``sigma_i -> eps_i - m_i eps_0`` on a finite class."""
        out = self.zero()
        for w, c in a.items():
            out = out + self._e1_basis(w).scale(c)
        return out

    def _e1_basis(self, w: int) -> QClass:
        """``e1(sigma_w)`` by the Monk step of ``chevalley_expression``, memoized per w."""
        img = self._e1_cache.get(w)
        if img is None:
            if w == self.fs.W.identity:
                img = self.unit()
            else:
                img = self.zero()
                for c, i, v in self.fs.chevalley_expression(w):
                    img = img + self.divisor_pullback(i, self._e1_basis(v)).scale(c)
            self._e1_cache[w] = img
        return img

    # -- the divisor subring and its product ------------------------------------------

    def divisor_monomial_class(self, mono: tuple[int, ...]) -> QClass:
        """Cup product ``eps_{i_1} ... eps_{i_k}`` (affine indices, may repeat), memoized
        by suffix: one Chevalley step per new monomial."""
        cls = self._mono_cache.get(mono)
        if cls is None:
            cls = self._mono_cache[mono] = self.chevalley(
                mono[0], self.divisor_monomial_class(mono[1:]))
        return cls

    def express_in_divisor_monomials(
        self, a: QClass
    ) -> list[tuple[tuple[int, ...], Fraction, tuple[int, ...]]]:
        """Write ``a`` as sum of ``q^e * coeff * eps-monomial``; graded elimination.

        Raises ValueError when some layer lies outside the divisor span.
        """
        # split into (q-exponent, length) layers of plain rational classes
        layers: dict[tuple[tuple[int, ...], int], dict[int, Fraction]] = {}
        for w, poly in a.terms.items():
            lw = self.W.length(w)
            for e, c in poly.terms.items():
                layers.setdefault((e, lw), {})[w] = c
        out: list[tuple[tuple[int, ...], Fraction, tuple[int, ...]]] = []
        for (e, lw), layer in sorted(layers.items()):
            monos = list(combinations_with_replacement(range(self.n + 1), lw))
            cols = [
                {w: p.constant_term for w, p in self.divisor_monomial_class(m).terms.items()}
                for m in monos
            ]
            sol = solve_exact(cols, layer)
            if sol is None:
                raise ValueError(
                    "class lies outside the subring generated by divisor classes"
                )
            out.extend((e, c, m) for c, m in zip(sol, monos) if c)
        return out

    def _apply_lambda_expr(self, expr, target: QClass) -> QClass:
        out = self.zero()
        for e, c, mono in expr:
            cls = target
            for i in reversed(mono):
                cls = self.lambda_op(i, cls)
            out = out + cls.scale(self.q_monomial(e, c))
        return out

    def reduce_mod_qc(self, a: QClass) -> QClass:
        """Kill every coefficient monomial divisible by ``q^c``."""
        c = self.ard.c
        return self.from_table({
            w: {e: v for e, v in poly.terms.items() if not all(x >= y for x, y in zip(e, c))}
            for w, poly in a.terms.items()
        })

    def qsharp_product(self, a: QClass, b: QClass) -> QClass:
        """``a * b = Lambda_a Lambda_b (1)`` modulo ``q^c``."""
        expr_a = self.express_in_divisor_monomials(a)
        expr_b = self.express_in_divisor_monomials(b)
        inner = self._apply_lambda_expr(expr_b, self.unit())
        outer = self._apply_lambda_expr(expr_a, inner)
        return self.reduce_mod_qc(outer)

    # -- formatting --------------------------------------------------------------

    def format_class(self, a: QClass) -> str:
        return a.format([f"q{i}" for i in range(self.nq)],
                        lambda w: f"e[{self.W.format(w)}]", always_coeff=True)


@lru_cache(maxsize=None, typed=True)
def affine_coh(letter: str, rank: int, L: int | None = None) -> AffineCoh:
    return AffineCoh(affine_weyl(letter, rank), L)

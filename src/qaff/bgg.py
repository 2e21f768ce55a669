"""BGG calculus on the rational cohomology of the finite flag variety.

Polynomials live in the fundamental-weight variables ``omega_1..omega_n`` over
the rationals; the coinvariant presentation never appears explicitly because
every class is reduced to the Schubert basis through divided differences:

    partial_beta(f) = (f - s_beta f) / beta,
    coefficient of sigma_w in [f]  =  constant term of partial_w(f).

Representatives are normalized by ``rep(w_0) = (1/|W|) * prod(positive roots)``
and pushed down with ``rep(w s_i) = partial_i rep(w)``; this pins the Poincare
pairing to ``<sigma_u, sigma_v> = delta(v = w_0 u)``, which the tests verify
against the polynomial-level integral rather than assuming.

The nil-Coxeter letters ``D_i`` of the affine Weyl group act here through

    pi(D_i) = partial_i (1 <= i <= n),     pi(D_0) = partial_{-theta} = -partial_theta,

with words applied rightmost letter first.  ``partial_theta`` comes from the
nil-Hecke calculus (Bernstein-Gelfand-Gelfand 1973, Kostant-Kumar 1986) on the
Schubert basis, with no polynomials:

    partial_j sigma_w = sigma_{w s_j} if len(w s_j) < len(w), else 0,
    lambda . sigma_w = sum over beta > 0 with len(w s_beta) = len(w) + 1
                       of <lambda, beta^vee> sigma_{w s_beta}      (Chevalley),
    s_j = 1 - alpha_j . partial_j,
    partial_theta = u partial_i u^{-1}   where theta = u(alpha_i).

The polynomial layer (``rep``, ``divided_difference``, ``expand_in_schubert``,
``cup_product``, ``poincare_pairing``) stays as the independent oracle that
``verify`` and the tests check the combinatorial rules against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable

from .polynomials import Poly, exact_div_linear, solve_exact
from .roots import RootSystem, Vec
from .weyl import FinW, finite_reflection, finite_weyl

FinCohClass = dict  # FinW -> coefficient (int, Fraction, or any Fraction-module element)


class FiniteSchubert:
    """Calculator bound to one finite root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.n = rs.rank
        self.W = finite_weyl(rs.letter, rs.rank)
        self.w0 = self.W.w0
        # simple roots as linear polynomials in the omega variables
        self._alpha = [
            Poly(
                self.n,
                {
                    tuple(1 if r == i else 0 for r in range(self.n)): Fraction(
                        rs.cartan[i][j]
                    )
                    for i in range(self.n)
                    if rs.cartan[i][j]
                },
            )
            for j in range(self.n)
        ]
        # (s_beta, beta^vee) for every positive root, read by the Chevalley rule
        chevalley = [
            (finite_reflection(rs, beta), rs.coroot(beta)) for beta in rs.positive_roots
        ]

        def terms(weight: list[int]) -> list[tuple[FinW, int]]:
            """Nonzero (s_beta, <lambda, beta^vee>) for lambda = sum weight[r] omega_r."""
            pairs = [(s, sum(x * b for x, b in zip(weight, bco))) for s, bco in chevalley]
            return [(s, k) for s, k in pairs if k]

        # lambda = omega_i, and lambda = alpha_j = sum_r cartan[r][j] omega_r
        self._omega_terms = [terms([int(r == i) for r in range(self.n)]) for i in range(self.n)]
        self._alpha_terms = [terms([rs.cartan[r][j] for r in range(self.n)])
                             for j in range(self.n)]
        self._reps: dict[FinW, Poly] | None = None
        self._walk = self._theta_walk()
        self._theta_rows: dict[FinW, dict[FinW, int]] = {}
        self._reflect_rows: list[dict[FinW, dict[FinW, int]]] = [{} for _ in range(self.n)]
        self._divisor_expr: dict[FinW, list[tuple[Fraction, tuple[int, ...]]]] = {}
        self._mono_class: dict[tuple[int, ...], FinCohClass] = {(): {self.W.identity: 1}}
        self._layer_cols: dict[int, tuple[list[tuple[int, FinW]], list[FinCohClass]]] = {}
        self._chevalley_expr: dict[FinW, list[tuple[Fraction, int, FinW]]] = {}

    # -- polynomial-level operators -----------------------------------------

    def root_poly(self, beta: Vec) -> Poly:
        out = Poly.zero(self.n)
        for j, b in enumerate(beta):
            if b:
                out = out + b * self._alpha[j]
        return out

    def reflect_poly(self, beta: Vec, f: Poly) -> Poly:
        bco = self.rs.coroot(beta)
        bpoly = self.root_poly(beta)
        images = [
            Poly.variable(self.n, i) - bco[i] * bpoly for i in range(self.n)
        ]
        return f.substitute(images)

    def divided_difference(self, beta: Vec, f: Poly) -> Poly:
        """``(f - s_beta f) / beta`` — exact by construction."""
        num = f - self.reflect_poly(beta, f)
        if num.is_zero():
            return Poly.zero(self.n)
        return exact_div_linear(num, self.root_poly(beta))

    def dd_simple(self, j: int, f: Poly) -> Poly:
        """Divided difference along alpha_j, 0-indexed."""
        return self.divided_difference(self.rs.simple_root(j + 1), f)

    def dd_word(self, word: tuple[int, ...], f: Poly) -> Poly:
        """``partial_{i_1} ... partial_{i_k}`` applied rightmost first (0-indexed)."""
        for j in reversed(word):
            f = self.dd_simple(j, f)
            if f.is_zero():
                break
        return f

    # -- Schubert representatives --------------------------------------------

    def rep(self, w: FinW) -> Poly:
        if self._reps is None:
            top = Poly.one(self.n)
            for beta in self.rs.positive_roots:
                top = top * self.root_poly(beta)
            top = top * Fraction(1, len(self.W))
            reps = {self.w0: top}
            order = sorted(self.W.elements, key=lambda x: -self.W.length[x])
            for v in order:
                for j in range(self.n):
                    u = v * self.W.gens[j]
                    if self.W.length[u] < self.W.length[v] and u not in reps:
                        reps[u] = self.dd_simple(j, reps[v])
                reps.setdefault(v, reps.get(v))
            self._reps = reps
        return self._reps[w]

    def expand_in_schubert(self, f: Poly) -> FinCohClass:
        """Decompose the class of f; degrees above len(w_0) vanish in H*.

        The coefficient of sigma_w is the constant term of ``partial_w`` applied
        to the degree-``len(w)`` component.  Reduced words of one length share
        suffixes, so ``partial`` of each suffix is computed once per component.
        """
        out: FinCohClass = {}
        for deg, comp in f.homogeneous_components().items():
            memo: dict[tuple[int, ...], Poly] = {(): comp}

            def dd_suffix(word: tuple[int, ...]) -> Poly:
                g = memo.get(word)
                if g is None:
                    rest = dd_suffix(word[1:])
                    g = memo[word] = self.dd_simple(word[0], rest) if rest else rest
                return g

            for w in self.W.by_length.get(deg, []):
                c = dd_suffix(self.W.word[w]).constant_term
                if c:
                    out[w] = c
        return out

    def class_poly(self, a: FinCohClass) -> Poly:
        out = Poly.zero(self.n)
        for w, c in a.items():
            out = out + c * self.rep(w)
        return out

    # -- ring structure ---------------------------------------------------------

    def cup_product(self, a: FinCohClass, b: FinCohClass) -> FinCohClass:
        return self.expand_in_schubert(self.class_poly(a) * self.class_poly(b))

    def _chevalley_rule(self, terms: list[tuple[FinW, int]], a: FinCohClass) -> FinCohClass:
        """``lambda . a``: sigma_w goes to the sum of k sigma_{w s_beta} over the
        (s_beta, k) in ``terms`` with len(w s_beta) = len(w) + 1."""
        length = self.W.length
        out: FinCohClass = {}
        for w, c in a.items():
            lw = length[w] + 1
            for s_beta, k in terms:
                u = w * s_beta
                if length[u] == lw:
                    out[u] = out.get(u, 0) + k * c
        return {w: c for w, c in out.items() if c}

    def chevalley_cup(self, i: int, a: FinCohClass) -> FinCohClass:
        """``sigma_i . a`` by the classical Chevalley rule (i is 1-indexed).

        sigma_i . sigma_w = sum over positive roots alpha with
        len(w s_alpha) = len(w) + 1 of <omega_i, alpha^vee> sigma_{w s_alpha},
        and <omega_i, alpha^vee> is the i-th coordinate of alpha^vee.
        """
        return self._chevalley_rule(self._omega_terms[i - 1], a)

    def poincare_pairing(self, a: FinCohClass, b: FinCohClass) -> Fraction:
        """Integral over G/B, computed at polynomial level via partial_{w_0}."""
        prod = self.class_poly(a) * self.class_poly(b)
        top = prod.homogeneous_components().get(self.W.length[self.w0])
        if top is None:
            return Fraction(0)
        return self.dd_word(self.W.word[self.w0], top).constant_term

    # -- the pi map on nil-Coxeter words -----------------------------------------

    def theta_matrix(self, support: Iterable[FinW] | None = None) -> dict[FinW, dict[FinW, int]]:
        """Rows ``w -> partial_theta sigma_w`` for ``w`` in ``support`` (default: all).

        With ``theta = u(alpha_i)`` and ``u = s_{j_1} ... s_{j_k}``, a row is
        ``s_{j_1} ... s_{j_k} partial_i s_{j_k} ... s_{j_1} sigma_w``, where
        ``s_j = 1 - alpha_j . partial_j``.  The operators are integral on the
        Schubert basis, so rows are built over int.  Each row is built the first
        time it is asked for and memoized, so ``pi_letter(0)`` builds only the
        rows it reads.
        """
        i, walk = self._walk
        rows = self._theta_rows
        out = {}
        for w in self.W.elements if support is None else support:
            row = rows.get(w)
            if row is None:
                row = {w: 1}
                for j in walk:
                    row = self._reflect(j, row)
                row = self.pi_letter(i + 1, row)
                for j in reversed(walk):
                    row = self._reflect(j, row)
                rows[w] = row
            out[w] = row
        return out

    def _reflect(self, j: int, a: dict[FinW, int]) -> dict[FinW, int]:
        """``s_j a = a - alpha_j . partial_j a`` over int, with memoized basis rows."""
        W, rows = self.W, self._reflect_rows[j]
        out: dict[FinW, int] = {}
        for w, c in a.items():
            row = rows.get(w)
            if row is None:
                row = rows[w] = {w: 1}
                v = w * W.gens[j]
                if W.length[v] < W.length[w]:
                    for u, k in self._chevalley_rule(self._alpha_terms[j], {v: 1}).items():
                        row[u] = row.get(u, 0) - k
            for u, k in row.items():
                out[u] = out.get(u, 0) + k * c
        return {u: c for u, c in out.items() if c}

    def _theta_walk(self) -> tuple[int, tuple[int, ...]]:
        """``(i, (j_1, ..., j_k))`` with ``theta = s_{j_1} ... s_{j_k}(alpha_i)``, 0-indexed.

        Each step reflects by a simple root that pairs positively with the
        current root, which lowers its height, until a simple root is reached.
        """
        table = self.rs.table
        k = table.index_of(self.rs.theta)
        walk = []
        while k not in table.simple:
            j = next(j for j, p in enumerate(table.pairings[k]) if p > 0)
            walk.append(j)
            k = table.reflections[table.simple[j]][k]
        return table.simple.index(k), tuple(walk)

    def pi_letter(self, i: int, a: FinCohClass) -> FinCohClass:
        """Apply pi(D_i) for one affine letter i (0 = -partial_theta)."""
        out: FinCohClass = {}
        if i == 0:
            for w, row in self.theta_matrix(a).items():
                c = a[w]
                for u, k in row.items():
                    s = out.get(u, 0) + (-k) * c
                    if s:
                        out[u] = s
                    else:
                        out.pop(u, None)
            return out
        j = i - 1
        for w, c in a.items():
            u = w * self.W.gens[j]
            if self.W.length[u] < self.W.length[w]:
                s = out.get(u, 0) + c
                if s:
                    out[u] = s
                else:
                    out.pop(u, None)
        return out

    def pi_word(self, word: tuple[int, ...], a: FinCohClass) -> FinCohClass:
        """pi(D_{i_1} ... D_{i_k}) applied rightmost letter first."""
        for i in reversed(word):
            if not a:
                break
            a = self.pi_letter(i, a)
        return a

    # -- divisor monomial expressions ---------------------------------------------

    def divisor_monomials(self, degree: int) -> list[tuple[int, ...]]:
        return list(combinations_with_replacement(range(1, self.n + 1), degree))

    def monomial_class(self, mono: tuple[int, ...]) -> FinCohClass:
        """``sigma_{i_1} ... sigma_{i_k}``, memoized by suffix: one Chevalley step
        per new monomial.  The returned dict is shared; do not mutate it."""
        cls = self._mono_class.get(mono)
        if cls is None:
            cls = self._mono_class[mono] = self.chevalley_cup(
                mono[0], self.monomial_class(mono[1:]))
        return cls

    def express_in_divisors(self, w: FinW) -> list[tuple[Fraction, tuple[int, ...]]]:
        """Write sigma_w as a rational combination of divisor monomials.

        Possible for every w because divisor classes generate H*(G/B; Q).
        """
        if w in self._divisor_expr:
            return self._divisor_expr[w]
        monos = self.divisor_monomials(self.W.length[w])
        sol = solve_exact([self.monomial_class(m) for m in monos], {w: 1})
        if sol is None:
            raise AssertionError("divisor monomials failed to span")
        expr = [(c, m) for c, m in zip(sol, monos) if c]
        self._divisor_expr[w] = expr
        return expr

    # -- the classical Monk step ----------------------------------------------------

    def chevalley_expression(self, w: FinW) -> list[tuple[Fraction, int, FinW]]:
        """``[(a, i, v)]`` with ``sigma_w = sum a sigma_i . sigma_v`` and len(v) = len(w) - 1.

        One exact solve per w over the columns ``chevalley_cup(i, {v})`` of the
        layer below, which are built once per length.  Columns ``(i, v)`` with v
        covered by w come first, so the pivots favour a short answer.  Such a
        combination exists for every w other than the identity because the
        divisor classes generate H*(G/B; Q) and each is a cup of a divisor with
        a class one degree lower.
        """
        expr = self._chevalley_expr.get(w)
        if expr is not None:
            return expr
        lw = self.W.length[w]
        if lw == 0:
            raise ValueError("the identity has no Chevalley expression")
        if lw not in self._layer_cols:
            keys = [(i, v) for v in self.W.by_length[lw - 1] for i in range(1, self.n + 1)]
            self._layer_cols[lw] = keys, [self.chevalley_cup(i, {v: 1}) for i, v in keys]
        keys, cols = self._layer_cols[lw]
        order = sorted(range(len(keys)), key=lambda k: w not in cols[k])
        sol = solve_exact([cols[k] for k in order], {w: 1})
        if sol is None:
            raise AssertionError(f"no Chevalley expression for {self.W.format(w)}")
        expr = [(c, *keys[k]) for c, k in zip(sol, order) if c]
        self._chevalley_expr[w] = expr
        return expr


@lru_cache(maxsize=None)
def finite_schubert(letter: str, rank: int) -> FiniteSchubert:
    from .roots import build_root_system

    return FiniteSchubert(build_root_system(letter, rank))

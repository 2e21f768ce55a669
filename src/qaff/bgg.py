"""Schubert calculus on the rational cohomology of the finite flag variety.

Classes are dicts on the Schubert basis ``sigma_w`` of ``H*(G/B; Q)``; no
polynomial representative is ever built.  Cup products by divisors come from
the Chevalley rule, divisor monomials are repeated Chevalley steps
(``monomial_class``), and each ``sigma_w`` is solved for in them
(``express_in_divisors``, ``chevalley_expression``).

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

The polynomial BGG route these rules replace (Schubert polynomials and
divided differences ``(f - s_beta f) / beta``) is a test-side oracle,
``tests/bgg_oracle.py``, that the tests check the rules against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from typing import Iterable

from .polynomials import solve_exact
from .roots import RootSystem, affinize
from .weyl import finite_weyl

FinCohClass = dict  # element id -> coefficient (int, Fraction, or any Fraction-module element)


class FiniteSchubert:
    """Calculator bound to one finite root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.n = rs.rank
        self.ard = affinize(rs.letter, rs.rank)  # the owner of the letters 0..n
        self.W = finite_weyl(rs.letter, rs.rank)
        self.w0 = self.W.w0
        coroots = rs.table.coroots[:rs.num_positive]
        # <lambda, beta^vee> per positive root (table order), read by the Chevalley
        # rule: lambda = omega_i, and lambda = alpha_j = sum_r cartan[r][j] omega_r
        self._omega_coeffs = [[bco[i] for bco in coroots] for i in range(self.n)]
        self._alpha_coeffs = [
            [sum(rs.cartan[r][j] * bco[r] for r in range(self.n)) for bco in coroots]
            for j in range(self.n)
        ]
        self._walk = self._theta_walk()
        self._theta_rows: dict[int, dict[int, int]] = {}
        self._reflect_rows: list[dict[int, dict[int, int]]] = [{} for _ in range(self.n)]
        self._divisor_expr: dict[int, list[tuple[Fraction, tuple[int, ...]]]] = {}
        self._mono_class: dict[tuple[int, ...], FinCohClass] = {(): {self.W.identity: 1}}
        self._layer_cols: dict[int, tuple[list[tuple[int, int]], list[FinCohClass]]] = {}
        self._chevalley_expr: dict[int, tuple[int, list[tuple[int, int, int]]]] = {}

    # -- ring structure ---------------------------------------------------------

    def _chevalley_rule(self, coeffs: list[int], a: FinCohClass) -> FinCohClass:
        """``lambda . a``: sigma_w goes to the sum of k sigma_u over the covers
        ``(u, b)`` of w (:meth:`~qaff.weyl.FiniteWeyl.covers`), k = ``coeffs[b]``."""
        covers = self.W.covers
        out: FinCohClass = {}
        for w, c in a.items():
            for u, b in covers(w):
                k = coeffs[b]
                if k:
                    out[u] = out.get(u, 0) + k * c
        return {w: c for w, c in out.items() if c}

    def chevalley_cup(self, i: int, a: FinCohClass) -> FinCohClass:
        """``sigma_i . a`` by the classical Chevalley rule (i is 1-indexed).

        sigma_i . sigma_w = sum over positive roots alpha with
        len(w s_alpha) = len(w) + 1 of <omega_i, alpha^vee> sigma_{w s_alpha},
        and <omega_i, alpha^vee> is the i-th coordinate of alpha^vee.  ``i`` and
        the ids of ``a`` are checked; :meth:`_cup` is the rule on checked input.
        """
        i = self.rs.finite_index(i)
        self.W.check_ids(a)
        return self._cup(i, a)

    def _cup(self, i: int, a: FinCohClass) -> FinCohClass:
        return self._chevalley_rule(self._omega_coeffs[i - 1], a)

    # -- the pi map on nil-Coxeter words -----------------------------------------

    def theta_matrix(self, support: Iterable[int]) -> dict[int, dict[int, int]]:
        """Rows ``w -> partial_theta sigma_w`` for ``w`` in ``support``.

        With ``theta = u(alpha_i)`` and ``u = s_{j_1} ... s_{j_k}``, a row is
        ``s_{j_1} ... s_{j_k} partial_i s_{j_k} ... s_{j_1} sigma_w``, where
        ``s_j = 1 - alpha_j . partial_j``.  The operators are integral on the
        Schubert basis, so rows are built over int.  Each row is built the first
        time it is asked for and memoized, so a letter 0 builds only the rows it
        reads.  Every id of ``support`` is checked before any row is built.
        """
        support = list(support)
        self.W.check_ids(support)
        i, walk = self._walk
        rows = self._theta_rows
        out = {}
        for w in support:
            row = rows.get(w)
            if row is None:
                row = {w: 1}
                for j in walk:
                    row = self._reflect(j, row)
                row = self._pi_letter(i + 1, row)
                for j in reversed(walk):
                    row = self._reflect(j, row)
                rows[w] = row
            out[w] = row
        return out

    def _reflect(self, j: int, a: dict[int, int]) -> dict[int, int]:
        """``s_j a = a - alpha_j . partial_j a`` over int, with memoized basis rows."""
        length, rows = self.W.length, self._reflect_rows[j]
        out: dict[int, int] = {}
        for w, c in a.items():
            row = rows.get(w)
            if row is None:
                row = rows[w] = {w: 1}
                v = self.W.rmul[j][w]
                if length[v] < length[w]:
                    for u, k in self._chevalley_rule(self._alpha_coeffs[j], {v: 1}).items():
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

    def _pi_letter(self, i: int, a: FinCohClass) -> FinCohClass:
        """Apply pi(D_i) for one affine letter i (0 = -partial_theta), unchecked."""
        out: FinCohClass = {}
        if i == 0:
            rows = self._theta_rows
            missing = [w for w in a if w not in rows]
            if missing:
                self.theta_matrix(missing)  # builds and keeps the rows it lacks
            for w, c in a.items():
                for u, k in rows[w].items():
                    s = out.get(u, 0) + (-k) * c
                    if s:
                        out[u] = s
                    else:
                        out.pop(u, None)
            return out
        col, length = self.W.rmul[i - 1], self.W.length
        for w, c in a.items():
            u = col[w]
            if c and length[u] < length[w]:
                out[u] = c  # w -> w s_i is injective, so no two terms meet
        return out

    def pi_word(self, word: tuple[int, ...], a: FinCohClass) -> FinCohClass:
        """pi(D_{i_1} ... D_{i_k}) applied rightmost letter first; every letter and
        the ids of ``a`` are checked before any is applied."""
        for i in word:
            self.ard.affine_index(i)
        self.W.check_ids(a)
        return self._pi_word(word, a)

    def _pi_word(self, word: tuple[int, ...], a: FinCohClass) -> FinCohClass:
        for i in reversed(word):
            if not a:
                break
            a = self._pi_letter(i, a)
        return a

    # -- divisor monomial expressions ---------------------------------------------

    def divisor_monomials(self, degree: int) -> list[tuple[int, ...]]:
        return list(combinations_with_replacement(range(1, self.n + 1), degree))

    def monomial_class(self, mono: tuple[int, ...]) -> FinCohClass:
        """``sigma_{i_1} ... sigma_{i_k}``, memoized by suffix: one Chevalley step
        per new monomial.  Every letter is checked before the memo is read.  The
        returned dict is shared; do not mutate it."""
        for i in mono:
            self.rs.finite_index(i)
        cls = self._mono_class.get(mono)
        if cls is None:
            cls = self._mono_class[mono] = self._cup(
                mono[0], self.monomial_class(mono[1:]))
        return cls

    def express_in_divisors(self, w: int) -> list[tuple[Fraction, tuple[int, ...]]]:
        """Write sigma_w as a rational combination of divisor monomials.

        Possible for every w because divisor classes generate H*(G/B; Q).  The id
        is checked before the memo is read.
        """
        self.W.check_ids((w,))
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

    def chevalley_expression(self, w: int) -> tuple[int, list[tuple[int, int, int]]]:
        """``(den, [(k, i, v)])`` with ``sigma_w = (1/den) sum k sigma_i . sigma_v``, all
        integers, and len(v) = len(w) - 1; ``den`` is the least common denominator.

        The answer is an exact solve over the columns ``sigma_i . sigma_v`` of the
        layer below, which are built once per length.  The columns that meet
        ``sigma_w`` come first, and within each group the ones with the fewest
        nonzeros, ties in ``(v, i)`` order; the pivots are the leftmost columns,
        so the step favours few terms, each of them cheap to lift.  Such a
        combination exists for every w other than the identity because the
        divisor classes generate H*(G/B; Q) and each is a cup of a divisor with
        a class one degree lower.

        When some column is ``k sigma_w`` alone, it is the first column of that
        order, so the solve would answer ``(k, [(1, i, v)])`` for the first such
        ``(v, i)``.  That column is read off the cover rows of the ``v`` that
        ``w`` covers (most steps, 549 of 719 on A5), and only the other steps
        build the layer and solve.  The id is checked before the memo is read.
        """
        self.W.check_ids((w,))
        expr = self._chevalley_expr.get(w)
        if expr is not None:
            return expr
        lw = self.W.length[w]
        if lw == 0:
            raise ValueError("the identity has no Chevalley expression")
        for v in self.W.covered(w):
            row = self.W.covers(v)
            b = next(b for u, b in row if u == w)
            for i, coeffs in enumerate(self._omega_coeffs, 1):
                if coeffs[b] and not any(coeffs[c] for u, c in row if u != w):
                    expr = self._chevalley_expr[w] = (coeffs[b], [(1, i, v)])
                    return expr
        if lw not in self._layer_cols:
            keys = [(i, v) for v in self.W.by_length[lw - 1] for i in range(1, self.n + 1)]
            self._layer_cols[lw] = keys, [self._cup(i, {v: 1}) for i, v in keys]
        keys, cols = self._layer_cols[lw]
        order = sorted(range(len(keys)), key=lambda k: (w not in cols[k], len(cols[k])))
        sol = solve_exact([cols[k] for k in order], {w: 1})
        if sol is None:
            raise AssertionError(f"no Chevalley expression for {self.W.format(w)}")
        den = lcm(*(a.denominator for a in sol))
        expr = self._chevalley_expr[w] = (den, [
            (a.numerator * (den // a.denominator), *keys[k]) for a, k in zip(sol, order) if a])
        return expr


@lru_cache(maxsize=None, typed=True)
def finite_schubert(letter: str, rank: int) -> FiniteSchubert:
    from .roots import build_root_system

    return FiniteSchubert(build_root_system(letter, rank))

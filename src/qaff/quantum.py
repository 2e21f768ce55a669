"""The ring QH*_aff(G/B) on the finite Schubert basis, and its q0 = 0 shadow.

Two engines live here, deliberately kept apart:

* :class:`QuantumAff` — the affine quantum product.  The operators
  ``lambda_bar(i)`` act on ``H*(G/B) ⊗ Q[q_0..q_n]`` by classical divisor cup
  plus ``<lambda_i - m_i lambda_0, alpha^vee> q^{alpha^vee} pi(D_{s_alpha})``
  summed over the distinguished affine roots.  Every ``sigma_w`` is lifted to
  an operator polynomial in the ``lambda_bar`` by a graded Nakayama recursion,
  and ``star(a, b)`` evaluates the lift of ``a`` on ``b``.

* :class:`OrdinaryQH` — ordinary quantum cohomology of G/B from the
  finite-root quantum Chevalley rule, written against the root tables alone
  (no shared Schubert-calculus plumbing), so the ``q0 := 0`` comparison is a
  genuine cross-check rather than the same code evaluated twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .bgg import FinCohClass, finite_schubert
from .chevalley import enumerate_chevalley_roots
from .polynomials import Poly, solve_exact
from .roots import build_root_system, coroot_ht
from .weyl import FinW, affine_weyl, finite_reflection, finite_weyl


@dataclass
class FinQClass:
    """Finitely supported class on the finite Weyl group over Q[q-vars]."""

    FW: object = field(repr=False)
    nq: int
    terms: dict[FinW, Poly]

    def __post_init__(self):
        self.terms = {w: c for w, c in self.terms.items() if not c.is_zero()}

    def __add__(self, other: "FinQClass") -> "FinQClass":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return FinQClass(self.FW, self.nq, out)

    def __sub__(self, other: "FinQClass") -> "FinQClass":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "FinQClass":
        if isinstance(c, (int, Fraction)):
            c = Poly.const(self.nq, c)
        return FinQClass(self.FW, self.nq, {w: c * v for w, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinQClass) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: FinW) -> Poly:
        return self.terms.get(w, Poly.zero(self.nq))

    def homogeneous_degree(self) -> int | None:
        degs = {
            self.FW.length[w] + 2 * sum(e)
            for w, c in self.terms.items()
            for e in c.terms
        }
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def to_json_obj(self) -> list[dict]:
        out = []
        for w in sorted(self.terms, key=lambda w: (self.FW.length[w], self.FW.word[w])):
            for e, c in sorted(self.terms[w].terms.items()):
                out.append(
                    {
                        "w": list(self.FW.word[w]),
                        "coeff": {"q": list(e), "num": c.numerator, "den": c.denominator},
                    }
                )
        return out


class QuantumAff:
    """star-product calculator for one simple type (q-variables q0..qn)."""

    def __init__(self, letter: str, rank: int):
        self.rs = build_root_system(letter, rank)
        self.n = rank
        self.nq = rank + 1
        self.fs = finite_schubert(letter, rank)
        self.FW = finite_weyl(letter, rank)
        W_aff = affine_weyl(letter, rank)
        self.ard = W_aff.ard
        self._chev = enumerate_chevalley_roots(W_aff)
        self._lambda_img: dict[tuple[int, FinW], FinQClass] = {}
        self._lift_img: dict[tuple[FinW, FinW], FinQClass] = {}
        self._express: dict[FinW, list] = {}

    # -- constructors ------------------------------------------------------------

    def zero(self) -> FinQClass:
        return FinQClass(self.FW, self.nq, {})

    def unit(self) -> FinQClass:
        return self.basis(self.FW.identity)

    def basis(self, w: FinW, coeff=1) -> FinQClass:
        c = coeff if isinstance(coeff, Poly) else Poly.const(self.nq, coeff)
        return FinQClass(self.FW, self.nq, {w: c})

    def from_finite(self, a: FinCohClass) -> FinQClass:
        return FinQClass(
            self.FW, self.nq, {w: Poly.const(self.nq, c) for w, c in a.items()}
        )

    def parse_class(self, text: str) -> FinQClass:
        return self.basis(self.FW.parse(text))

    # -- the Chevalley operators ---------------------------------------------------

    def _lambda_basis(self, i: int, w: FinW) -> FinQClass:
        key = (i, w)
        if key not in self._lambda_img:
            cup = self.fs.chevalley_cup(i, {w: Fraction(1)})
            out = self.from_finite(cup)
            for cr in self._chev:
                k = self.ard.level_zero_weight_pairing(i, cr.coroot)
                if not k:
                    continue
                moved = self.fs.pi_word(cr.word, {w: Fraction(1)})
                if moved:
                    q = Poly.monomial(self.nq, tuple(cr.coroot), k)
                    out = out + FinQClass(
                        self.FW, self.nq, {v: q * c for v, c in moved.items()}
                    )
            self._lambda_img[key] = out
        return self._lambda_img[key]

    def lambda_bar(self, i: int, a: FinQClass) -> FinQClass:
        """Quantum Chevalley operator for the finite index i (1..n)."""
        if not 1 <= i <= self.n:
            raise ValueError("lambda_bar takes a finite index 1..n")
        out = self.zero()
        for w, c in a.terms.items():
            out = out + self._lambda_basis(i, w).scale(c)
        return out

    def lambda_word(self, word: tuple[int, ...], a: FinQClass) -> FinQClass:
        for i in reversed(word):
            a = self.lambda_bar(i, a)
        return a

    # -- operator lifting (graded Nakayama recursion) ----------------------------------

    def lift_expression(self, w: FinW) -> list[tuple[Poly, tuple[int, ...]]]:
        """``L_w`` flattened to ``[(q-coefficient, lambda_bar-monomial)]``.

        The recursion ``L_w = T_w - sum c q^d L_v`` is expanded all the way
        down, so the result is one operator polynomial in the ``lambda_bar``
        with Q[q] coefficients whose value at 1 is exactly ``sigma_w``.
        """
        flat: list[tuple[Poly, tuple[int, ...]]] = []

        def emit(scale: Poly, v: FinW) -> None:
            for coef, mono in self.fs.express_in_divisors(v):
                flat.append((scale * coef, mono))
            t1 = self._T_apply(v, self.unit())
            for u, poly in (t1 - self.basis(v)).terms.items():
                if self.FW.length[u] >= self.FW.length[v]:
                    raise AssertionError("lift correction grew")
                emit(scale * poly * Fraction(-1), u)

        emit(Poly.one(self.nq), w)
        return flat

    def _T_apply(self, w: FinW, b: FinQClass) -> FinQClass:
        """The bare classical-expression operator ``T_w`` applied to ``b``."""
        out = self.zero()
        for coef, mono in self.fs.express_in_divisors(w):
            out = out + self.lambda_word(mono, b).scale(coef)
        return out

    def _lift_apply_basis(self, w: FinW, v: FinW) -> FinQClass:
        key = (w, v)
        if key not in self._lift_img:
            t = self._T_apply(w, self.basis(v))
            t1 = self._T_apply(w, self.unit())
            for u, poly in (t1 - self.basis(w)).terms.items():
                if self.FW.length[u] >= self.FW.length[w]:
                    raise AssertionError("lift correction grew")
                t = t - self._lift_apply_basis(u, v).scale(poly)
            self._lift_img[key] = t
        return self._lift_img[key]

    def lift_apply(self, w: FinW, b: FinQClass) -> FinQClass:
        """``L_w(b)``; by construction ``L_w(1) = sigma_w`` exactly."""
        out = self.zero()
        for v, c in b.terms.items():
            out = out + self._lift_apply_basis(w, v).scale(c)
        return out

    # -- the product -------------------------------------------------------------

    def star(self, a: FinQClass, b: FinQClass) -> FinQClass:
        out = self.zero()
        for u, c in a.terms.items():
            out = out + self.lift_apply(u, b).scale(c)
        return out

    def poincare_pairing(self, a: FinQClass, b: FinQClass) -> Poly:
        """Q[q]-extension of the Schubert duality pairing <s_u, s_{w0 u}> = 1."""
        total = Poly.zero(self.nq)
        w0 = self.FW.w0
        for u, c in a.terms.items():
            d = b.terms.get(w0 * u)
            if d is not None:
                total = total + c * d
        return total

    def multiplication_table(self, cap: int = 48) -> dict[tuple[FinW, FinW], FinQClass]:
        """All ordered products; computed on unordered pairs and mirrored."""
        if len(self.FW.elements) > cap:
            raise ValueError(
                f"|W| = {len(self.FW.elements)} exceeds the table cap {cap}"
            )
        elts = sorted(self.FW.elements, key=lambda w: (self.FW.length[w], self.FW.word[w]))
        table = {}
        for i, u in enumerate(elts):
            for v in elts[i:]:
                prod = self.star(self.basis(u), self.basis(v))
                table[(u, v)] = prod
                table[(v, u)] = prod
        return table

    def quadratic_relation_holds(self) -> bool:
        """Sum (a_i^vee|a_j^vee) s_i * s_j = (th^vee|th^vee) q0 + sum_i (a_i^vee|a_i^vee) q_i."""
        n, rs = self.n, self.rs
        lhs = self.zero()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                k = rs.killing_coroots[i - 1][j - 1]
                if k:
                    lhs = lhs + self.star(self.basis_simple(i), self.basis_simple(j)).scale(k)
        tc = rs.coroot(rs.theta)
        rhs_poly = Poly.monomial(self.nq, (1,) + (0,) * n, rs.inner_coroots(tc, tc))
        for i in range(1, n + 1):
            e = tuple(1 if k == i else 0 for k in range(n + 1))
            rhs_poly = rhs_poly + Poly.monomial(
                self.nq, e, rs.killing_coroots[i - 1][i - 1]
            )
        return lhs == self.basis(self.FW.identity, rhs_poly)

    def basis_simple(self, i: int) -> FinQClass:
        return self.basis(self.FW.gens[i - 1])

    # -- q0 := 0 and the ordinary-quantum cross-check ---------------------------------

    def specialize_q0(self, a: FinQClass) -> FinQClass:
        """Kill q0 and re-index the remaining variables to q1..qn."""
        out: dict[FinW, Poly] = {}
        for w, poly in a.terms.items():
            kept = {e[1:]: c for e, c in poly.terms.items() if e[0] == 0}
            if kept:
                out[w] = Poly(self.n, kept)
        return FinQClass(self.FW, self.n, out)

    def verify_fw_chevalley(self) -> dict:
        """Compare lambda_bar at q0=0 with the finite-root quantum Chevalley rule."""
        ord_ring = ordinary_qh(self.rs.letter, self.rs.rank)
        checked = mismatches = 0
        for i in range(1, self.n + 1):
            for w in self.FW.elements:
                lhs = self.specialize_q0(self._lambda_basis(i, w))
                rhs = ord_ring.chevalley(i, ord_ring.basis(w))
                checked += 1
                if lhs.terms != rhs.terms:
                    mismatches += 1
        return {
            "type": self.rs.lie_type,
            "checked": checked,
            "mismatches": mismatches,
            "ok": mismatches == 0,
        }

    # -- formatting --------------------------------------------------------------

    def format_class(self, a: FinQClass) -> str:
        return format_fin_class(self.FW, a, q_offset=0)


class OrdinaryQH:
    """Ordinary QH*(G/B) from the finite-root quantum Chevalley rule.

    Built directly on the root tables: the classical terms are the Bruhat
    covers weighted by ``<omega_i, alpha^vee>`` and the quantum terms run over
    finite positive roots with ``l(s_alpha) = 2 ht(alpha^vee) - 1`` and length
    drop ``2 ht(alpha^vee) - 1``.  Divisor expressions and lifting are redone
    here from the q = 0 part of this rule, so nothing quantum is shared with
    :class:`QuantumAff`.
    """

    def __init__(self, letter: str, rank: int):
        self.rs = build_root_system(letter, rank)
        self.n = rank
        self.nq = rank
        self.FW = finite_weyl(letter, rank)
        self._refl = {
            beta: finite_reflection(self.rs, beta) for beta in self.rs.positive_roots
        }
        self._quantum_roots = [
            beta
            for beta in self.rs.positive_roots
            if self.FW.length[self._refl[beta]] == 2 * coroot_ht(self.rs.coroot(beta)) - 1
        ]
        self._express: dict[FinW, list[tuple[Fraction, tuple[int, ...]]]] = {}
        self._lift_img: dict[tuple[FinW, FinW], FinQClass] = {}

    def zero(self) -> FinQClass:
        return FinQClass(self.FW, self.nq, {})

    def unit(self) -> FinQClass:
        return self.basis(self.FW.identity)

    def basis(self, w: FinW, coeff=1) -> FinQClass:
        c = coeff if isinstance(coeff, Poly) else Poly.const(self.nq, coeff)
        return FinQClass(self.FW, self.nq, {w: c})

    def chevalley(self, i: int, a: FinQClass) -> FinQClass:
        """Full quantum Chevalley multiplication by sigma_i."""
        out: dict[FinW, Poly] = {}

        def add(w, poly):
            s = out.get(w)
            s = poly if s is None else s + poly
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s

        for w, c in a.terms.items():
            lw = self.FW.length[w]
            for beta in self.rs.positive_roots:
                k = self.rs.coroot(beta)[i - 1]
                if not k:
                    continue
                u = w * self._refl[beta]
                if self.FW.length[u] == lw + 1:
                    add(u, k * c)
            for beta in self._quantum_roots:
                k = self.rs.coroot(beta)[i - 1]
                if not k:
                    continue
                ht = coroot_ht(self.rs.coroot(beta))
                u = w * self._refl[beta]
                if self.FW.length[u] == lw + 1 - 2 * ht:
                    e = tuple(self.rs.coroot(beta))
                    add(u, Poly.monomial(self.nq, e, k) * c)
        return FinQClass(self.FW, self.nq, out)

    def chevalley_classical(self, i: int, a: FinQClass) -> FinQClass:
        out: dict[FinW, Poly] = {}
        for w, c in a.terms.items():
            lw = self.FW.length[w]
            for beta in self.rs.positive_roots:
                k = self.rs.coroot(beta)[i - 1]
                if not k:
                    continue
                u = w * self._refl[beta]
                if self.FW.length[u] == lw + 1:
                    s = out.get(u)
                    s = k * c if s is None else s + k * c
                    if s.is_zero():
                        out.pop(u, None)
                    else:
                        out[u] = s
        return FinQClass(self.FW, self.nq, out)

    def _monomial_classical(self, mono: tuple[int, ...]) -> FinQClass:
        cls = self.unit()
        for i in reversed(mono):
            cls = self.chevalley_classical(i, cls)
        return cls

    def express_in_divisors(self, w: FinW) -> list[tuple[Fraction, tuple[int, ...]]]:
        if w not in self._express:
            lw = self.FW.length[w]
            monos = list(combinations_with_replacement(range(1, self.n + 1), lw))
            cols = [self._monomial_classical(m) for m in monos]
            support = sorted(
                {v for col in cols for v in col.terms} | {w},
                key=lambda v: self.FW.word[v],
            )
            rows = [[col.coefficient(v).constant_term for col in cols] for v in support]
            rhs = [Fraction(1) if v == w else Fraction(0) for v in support]
            sol = solve_exact(rows, rhs)
            if sol is None:
                raise AssertionError("divisor monomials must span classically")
            self._express[w] = [(c, m) for c, m in zip(sol, monos) if c]
        return self._express[w]

    def _T_apply(self, w: FinW, b: FinQClass) -> FinQClass:
        out = self.zero()
        for coef, mono in self.express_in_divisors(w):
            cls = b
            for i in reversed(mono):
                cls = self.chevalley(i, cls)
            out = out + cls.scale(coef)
        return out

    def _lift_apply_basis(self, w: FinW, v: FinW) -> FinQClass:
        key = (w, v)
        if key not in self._lift_img:
            t = self._T_apply(w, self.basis(v))
            t1 = self._T_apply(w, self.unit())
            for u, poly in (t1 - self.basis(w)).terms.items():
                if self.FW.length[u] >= self.FW.length[w]:
                    raise AssertionError("lift correction grew")
                t = t - self._lift_apply_basis(u, v).scale(poly)
            self._lift_img[key] = t
        return self._lift_img[key]

    def star(self, a: FinQClass, b: FinQClass) -> FinQClass:
        out = self.zero()
        for u, c in a.terms.items():
            for v, d in b.terms.items():
                out = out + self._lift_apply_basis(u, v).scale(c * d)
        return out

    def multiplication_table(self, cap: int = 48) -> dict[tuple[FinW, FinW], FinQClass]:
        if len(self.FW.elements) > cap:
            raise ValueError(
                f"|W| = {len(self.FW.elements)} exceeds the table cap {cap}"
            )
        elts = sorted(self.FW.elements, key=lambda w: (self.FW.length[w], self.FW.word[w]))
        table = {}
        for i, u in enumerate(elts):
            for v in elts[i:]:
                prod = self.star(self.basis(u), self.basis(v))
                table[(u, v)] = prod
                table[(v, u)] = prod
        return table

    def format_class(self, a: FinQClass) -> str:
        return format_fin_class(self.FW, a, q_offset=1)


def format_fin_class(FW, a: FinQClass, q_offset: int = 0) -> str:
    if a.is_zero():
        return "0"
    qnames = [f"q{i + q_offset}" for i in range(a.nq)]
    bits = []
    for w in sorted(a.terms, key=lambda w: (FW.length[w], FW.word[w])):
        c = a.terms[w].format(qnames)
        label = f"s[{FW.format(w)}]"
        if FW.length[w] == 0:
            bits.append(c if not ("+" in c or "-" in c[1:]) else f"({c})")
        elif c == "1":
            bits.append(label)
        elif c == "-1":
            bits.append(f"-{label}")
        elif "+" in c or "-" in c[1:]:
            bits.append(f"({c})*{label}")
        else:
            bits.append(f"{c}*{label}")
    return " + ".join(bits)


@lru_cache(maxsize=None)
def quantum_aff(letter: str, rank: int) -> QuantumAff:
    return QuantumAff(letter, rank)


@lru_cache(maxsize=None)
def ordinary_qh(letter: str, rank: int) -> OrdinaryQH:
    return OrdinaryQH(letter, rank)

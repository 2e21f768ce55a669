"""Conserved quantities of the dual periodic Toda lattice, and ring presentations.

A relation lives in ``Q[q_0..q_n, x_1..x_n]`` graded by ``deg q = 2``,
``deg x = 1``.  The evaluation map ``Phi`` sends ``x_i`` to the Schubert
divisor ``sigma_i`` and multiplies out monomials with the affine quantum
product; a polynomial is a relation of QH*_aff(G/B) exactly when ``Phi``
kills it.  Every check reads that one class: its ``q^0`` part is the classical
part, the q-free terms evaluated in H*(G/B).

Constructive sources:

* type A (Fl(n)) — the tridiagonal-with-corners Lax matrix; the conserved
  quantities are the z-free coefficients of its characteristic polynomial;
* B2 — the two generators, quadratic and quartic, written out in full;
* every type — the quadratic relation
  ``sum (a_i^vee|a_j^vee) x_i x_j - (th^vee|th^vee) q_0 - sum (a_i^vee|a_i^vee) q_i``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import NamedTuple

from .bgg import FinCohClass
from .polynomials import Poly, QClass, matrix_rank
from .quantum import QuantumAff, quantum_aff
from .roots import build_root_system

Vec = tuple[int, ...]


class RelationPoly(NamedTuple):
    """A candidate relation for one type: a polynomial in q_0..q_n, x_1..x_n."""

    letter: str
    rank: int
    poly: Poly
    name: str = "R"

    def weights(self) -> tuple[int, ...]:
        return (2,) * (self.rank + 1) + (1,) * self.rank

    def is_homogeneous(self) -> bool:
        return self.poly.is_homogeneous(self.weights())

    def degree(self) -> int:
        return self.poly.weighted_degree(self.weights())

    def format(self) -> str:
        names = [f"q{i}" for i in range(self.rank + 1)] + [
            f"x{i}" for i in range(1, self.rank + 1)
        ]
        return self.poly.format(names)


def _qx_monomial(rank: int, q_exps: Vec, x_exps: Vec, coeff=1) -> Poly:
    return Poly.monomial(2 * rank + 1, tuple(q_exps) + tuple(x_exps), coeff)


# -- type A: the Lax matrix with spectral parameter ------------------------------------


def _det(mat: list[list[Poly]]) -> Poly:
    """Cofactor expansion along the first column (entries are sparse polys)."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    nv = mat[0][0].nvars
    total = Poly.zero(nv)
    for r in range(size):
        entry = mat[r][0]
        if entry.is_zero():
            continue
        minor = [row[1:] for k, row in enumerate(mat) if k != r]
        cof = _det(minor)
        total = total + (entry * cof if r % 2 == 0 else entry * cof * Fraction(-1))
    return total


def lax_matrix(n: int) -> list[list[Poly]]:
    """The n x n matrix A(q; x) over Q[q_0..q_{n-1}, x_1..x_{n-1}, z, 1/z, lam].

    Variable layout: q_0..q_{n-1}, x_1..x_{n-1}, then z (Laurent), then lam.
    """
    rank = n - 1
    nv = 2 * rank + 1 + 2
    zvar = nv - 2

    def q(i, k=1, zexp=0):
        e = [0] * nv
        e[i] = 1
        e[zvar] = zexp
        return Poly.monomial(nv, tuple(e), k)

    def x(i, k=1):
        e = [0] * nv
        e[rank + i] = 1  # q-block has rank+1 slots; x_i sits at rank + i
        return Poly.monomial(nv, tuple(e), k)

    def const_z(k, zexp):
        e = [0] * nv
        e[zvar] = zexp
        return Poly.monomial(nv, tuple(e), k)

    mat = [[Poly.zero(nv) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        if r == 0:
            mat[r][r] = x(1)
        elif r == n - 1:
            mat[r][r] = x(rank, -1)
        else:
            mat[r][r] = x(r + 1) + x(r, -1)
    for r in range(n - 1):
        mat[r][r + 1] = mat[r][r + 1] + q(r + 1)
        mat[r + 1][r] = mat[r + 1][r] + const_z(-1, 0)
    mat[0][n - 1] = mat[0][n - 1] + const_z(-1, -1)
    mat[n - 1][0] = mat[n - 1][0] + q(0, 1, 1)
    return mat


def typeA_relations(n: int) -> list[RelationPoly]:
    """H_1..H_{n-1} for Fl(n): z-free charpoly coefficients of the Lax matrix."""
    if n < 2:
        raise ValueError("need n >= 2 flags")
    rank = n - 1
    nv = 2 * rank + 1 + 2
    zvar, lvar = nv - 2, nv - 1
    mat = lax_matrix(n)
    lam = Poly.variable(nv, lvar)
    for r in range(n):
        mat[r][r] = mat[r][r] + lam
    char = _det(mat)
    zfree = char.coefficient_of(zvar, 0)
    out = []
    for k in range(1, n):
        hk = zfree.coefficient_of(lvar, n - k - 1)
        # still has two trailing all-zero exponents; strip them
        terms = {e[:-2]: c for e, c in hk.terms.items()}
        if not all(e[zvar] == 0 and e[lvar] == 0 for e in hk.terms):
            raise AssertionError(f"H{k} still carries z or lambda")
        out.append(RelationPoly("A", rank, Poly(2 * rank + 1, terms), name=f"H{k}"))
    for rel in out:
        if not rel.is_homogeneous():
            raise AssertionError(rel.name)
    return out


# -- B2: the quadratic and quartic generators, written out --------------------------------


def b2_relations() -> list[RelationPoly]:
    rank = 2

    def m(q0, q1, q2, x1, x2, k):
        return _qx_monomial(rank, (q0, q1, q2), (x1, x2), k)

    h1 = (
        m(0, 0, 0, 2, 0, 4)
        + m(0, 0, 0, 1, 1, -4)
        + m(0, 0, 0, 0, 2, 2)
        + m(1, 0, 0, 0, 0, -2)
        + m(0, 1, 0, 0, 0, -4)
        + m(0, 0, 1, 0, 0, -2)
    )
    h2 = (
        m(0, 0, 0, 2, 2, 4)
        + m(0, 0, 0, 1, 3, -4)
        + m(1, 0, 0, 1, 1, -4)
        + m(0, 0, 1, 1, 1, 4)
        + m(0, 0, 0, 0, 4, 1)
        + m(1, 0, 0, 0, 2, 2)
        + m(0, 1, 0, 0, 2, -4)
        + m(0, 0, 1, 0, 2, -2)
        + m(2, 0, 0, 0, 0, 1)
        + m(1, 0, 1, 0, 0, -2)
        + m(0, 0, 2, 0, 0, 1)
    )
    return [
        RelationPoly("B", rank, h1, name="H1"),
        RelationPoly("B", rank, h2, name="H2"),
    ]


# -- every type: the quadratic relation ---------------------------------------------


def quadratic_relation(letter: str, rank: int) -> RelationPoly:
    rs = build_root_system(letter, rank)
    nv = 2 * rank + 1
    total = Poly.zero(nv)
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            k = rs.killing_coroots[i - 1][j - 1]
            if k:
                e = [0] * nv
                e[rank + i] += 1
                e[rank + j] += 1
                total = total + Poly.monomial(nv, tuple(e), k)
    tc = rs.coroot(rs.theta)
    e = [0] * nv
    e[0] = 1
    total = total + Poly.monomial(nv, tuple(e), -rs.inner_coroots(tc, tc))
    for i in range(1, rank + 1):
        e = [0] * nv
        e[i] = 1
        total = total + Poly.monomial(nv, tuple(e), -rs.killing_coroots[i - 1][i - 1])
    return RelationPoly(letter, rank, total, name="Hquad")


# -- evaluation into the quantum ring ----------------------------------------------


def phi_evaluate(rel: RelationPoly, ring: QuantumAff | None = None) -> QClass:
    """Substitute x_i -> sigma_i, products via the affine quantum product: the
    images of the x-monomials, as words in the ``lambda_bar`` applied to 1, are
    summed in one table."""
    if ring is None:
        ring = quantum_aff(rel.letter, rel.rank)
    rank = rel.rank
    return ring.lambda_eval(
        (e[: rank + 1], c, tuple(i + 1 for i, a in enumerate(e[rank + 1 :]) for _ in range(a)))
        for e, c in rel.poly.terms.items())


def verify_relation(rel: RelationPoly, ring: QuantumAff | None = None) -> bool:
    return relation_checks(rel, ring)[0]


def relation_checks(rel: RelationPoly, ring: QuantumAff | None) -> tuple[bool, bool]:
    """``(Phi(rel) = 0, the classical part of rel vanishes)`` from one evaluation of Phi."""
    if not rel.is_homogeneous():
        raise ValueError(f"{rel.name} is not homogeneous for deg x=1, deg q=2")
    img = phi_evaluate(rel, ring)
    return img.is_zero(), not _q0_part(img)


# -- classical sanity: q := 0 lands on Borel invariants ----------------------------------


def _q0_part(img: QClass) -> FinCohClass:
    """The ``q^0`` coefficients of a class of the quantum ring."""
    zero = (0,) * img.nq
    return {w: c for w, p in img.terms.items() if (c := p.terms.get(zero))}


def classical_part(rel: RelationPoly) -> FinCohClass:
    """The class in H*(G/B) of the q-free part, with ``x_i -> sigma_i``: the ``q^0``
    part of ``Phi(rel)``, since a quantum correction always carries a positive power
    of q and every other term of ``rel`` is a multiple of some ``q_j``."""
    return _q0_part(phi_evaluate(rel))


def classical_part_vanishes(rel: RelationPoly) -> bool:
    """At q = 0 a relation must be a positive-degree W-invariant: zero in H*(G/B)."""
    return not classical_part(rel)


# -- the presentation record --------------------------------------------------------


def relations_for(letter: str, rank: int) -> tuple[list[RelationPoly], str]:
    """Return (relations, status): the full generating set where constructible."""
    if letter == "A":
        return typeA_relations(rank + 1), "full"
    if letter == "B" and rank == 2:
        return b2_relations(), "full"
    return [quadratic_relation(letter, rank)], "partial"


def present_ring(letter: str, rank: int, rels: list[RelationPoly], status: str) -> dict:
    """The presentation record of ``(rels, status) = relations_for(letter, rank)``."""
    ring = quantum_aff(letter, rank)
    entries = []
    for rel in rels:
        phi_zero, classical_invariant = relation_checks(rel, ring)
        entries.append({"name": rel.name, "degree": rel.degree(), "poly": rel.format(),
                        "phi_zero": phi_zero, "classical_invariant": classical_invariant})
    record = {
        "schema_version": 1,
        "type": f"{letter}{rank}",
        "generators": [f"x{i}" for i in range(1, rank + 1)],
        "coefficients": [f"q{i}" for i in range(rank + 1)],
        "relations": entries,
        "status": status,
    }
    if status == "partial":
        record["gap"] = (
            "only the quadratic conserved quantity is constructed for this type; "
            "the higher integrals of motion are not generated"
        )
    return record


# -- graded dimension cross-check (type A) ---------------------------------------------


def _weighted_monomials(nv: int, weights: tuple[int, ...], degree: int) -> list[Vec]:
    out: list[Vec] = []

    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == nv:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = weights[pos]
        for a in range(remaining // w + 1):
            rec(pos + 1, remaining - a * w, acc + [a])

    rec(0, degree, [])
    return out


def quotient_dimension(rels: list[RelationPoly], degree: int) -> int:
    """dim of the degree-d slice of Q[q,x]/<rels>, by exact rank computation."""
    rank = rels[0].rank
    nv = 2 * rank + 1
    weights = rels[0].weights()
    rows = [
        {tuple(map(add, e, shift)): c for e, c in rel.poly.terms.items()}
        for rel in rels
        for shift in _weighted_monomials(nv, weights, degree - rel.degree())
    ]
    return len(_weighted_monomials(nv, weights, degree)) - matrix_rank(rows)


def schubert_module_dimension(letter: str, rank: int, degree: int) -> int:
    """dim of the degree-d slice of the free Q[q_0..q_n]-module on Schubert classes."""
    from math import comb

    from .weyl import finite_weyl

    FW = finite_weyl(letter, rank)
    total = 0
    for w in FW.elements:
        rem = degree - FW.length[w]
        if rem >= 0 and rem % 2 == 0:
            total += comb(rem // 2 + rank, rank)
    return total

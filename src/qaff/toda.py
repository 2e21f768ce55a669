"""Conserved quantities of the dual periodic Toda lattice, the relations of the ring.

A relation lives in ``Q[q_0..q_n, x_1..x_n]`` graded by ``deg q = 2``,
``deg x = 1``.  The evaluation map ``Phi`` sends ``x_i`` to the Schubert
divisor ``sigma_i`` and multiplies out monomials with the affine quantum
product; a polynomial is a relation of QH*_aff(G/B) exactly when ``Phi``
kills it.  Every check reads that one class: its ``q^0`` part is the classical
part, the q-free terms evaluated in H*(G/B).

Constructive sources:

* type A (Fl(n)) — the conserved quantities are the z-free coefficients of
  ``det(lam + A(z))`` for the periodic Jacobi matrix ``A(z)``: diagonal
  ``a_0 = x_1``, ``a_r = x_{r+1} - x_r``, ``a_{n-1} = -x_{n-1}``; ``q_r`` above
  and ``-1`` below the diagonal between ``r-1`` and ``r``; ``q_0 z`` and
  ``-1/z`` in the corners.  A term of the determinant matches some neighbouring
  pairs of the cycle ``0..n-1`` and takes ``lam + a_r`` on every other index,
  or else winds once round the whole cycle.  A matched pair gives
  ``-(above)(below) = q_r``, the corner too (``-(q_0 z)(-1/z) = q_0``), while
  the two windings carry ``z`` and ``1/z``.  (For n = 2 the two pairs are
  parallel, and their cross terms are the windings.)  So the z-free part is the
  continuant ``K(0..n-1) + q_0 K(1..n-2)`` of the chain: the matchings that
  leave the corner free, plus those that take it.  Here
  ``K_r = (lam + a_r) K_{r-1} + q_r K_{r-2}`` and an empty chain is 1, so no
  matrix, determinant, ``z`` or ``lam`` variable is ever built;
* B2 — the two generators, quadratic and quartic, written out in full; C2
  takes the same pair, since it has the same Cartan matrix as B2 here;
* every type — the quadratic relation
  ``sum (a_i^vee|a_j^vee) x_i x_j - (th^vee|th^vee) q_0 - sum (a_i^vee|a_i^vee) q_i``.

The presentation record that ``present`` prints, ``present_ring``, is built in
:mod:`qaff.cli` from :func:`relations_for` and :func:`relation_checks`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bgg import FinCohClass
from .polynomials import Poly, QClass
from .quantum import QuantumAff, quantum_aff
from .roots import _check_lie_type, build_root_system

Vec = tuple[int, ...]


class RelationPoly(NamedTuple):
    """A candidate relation for one type: a polynomial in q_0..q_n, x_1..x_n."""

    letter: str
    rank: int
    poly: Poly
    name: str = "R"

    def degrees(self) -> set[int]:
        """The degrees of the terms, with deg q = 2 and deg x = 1."""
        nq = self.rank + 1
        return {2 * sum(e[:nq]) + sum(e[nq:]) for e in self.poly.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """The top degree of the terms (0 for the zero polynomial)."""
        return max(self.degrees(), default=0)

    def format(self) -> str:
        names = [f"q{i}" for i in range(self.rank + 1)] + [
            f"x{i}" for i in range(1, self.rank + 1)
        ]
        return self.poly.format(names)


def _qx_monomial(rank: int, q_exps: Vec, x_exps: Vec, coeff=1) -> Poly:
    return Poly.monomial(2 * rank + 1, tuple(q_exps) + tuple(x_exps), coeff)


# -- type A: the continuant of the periodic chain ------------------------------------


def _continuant(diag: list[Poly], bonds: list[Poly], nv: int) -> list[Poly]:
    """``K`` of the chain ``0..m`` as its lam-coefficients (``K[j]`` goes with
    ``lam^j``): ``K_r = (lam + diag[r]) K_{r-1} + bonds[r-1] K_{r-2}``, where
    ``bonds[r-1]`` joins ``r-1`` and ``r`` and an empty chain is 1."""
    zero = Poly.zero(nv)
    older: list[Poly] = []
    old = [Poly.one(nv)]
    for r, a in enumerate(diag):
        new = [s + a * c for s, c in zip([zero] + old, old + [zero])]
        for j, c in enumerate(older):
            new[j] = new[j] + bonds[r - 1] * c
        older, old = old, new
    return old


def typeA_relations(n: int) -> list[RelationPoly]:
    """H_1..H_{n-1} for Fl(n): the ``lam^{n-1-k}`` coefficients of the z-free part
    ``K(0..n-1) + q_0 K(1..n-2)`` of ``det(lam + A(z))``."""
    if n < 2:
        raise ValueError("need n >= 2 flags")
    rank = n - 1
    nv = 2 * rank + 1
    q = [Poly.variable(nv, i) for i in range(n)]
    x = [Poly.variable(nv, rank + i) for i in range(1, n)]  # x[i] is x_{i+1}
    diag = [x[0]] + [x[r] - x[r - 1] for r in range(1, rank)] + [-x[-1]]
    chain = _continuant(diag, q[1:], nv)
    inner = _continuant(diag[1:rank], q[2:rank], nv)
    return [RelationPoly("A", rank, chain[rank - k] + q[0] * inner[rank - k], name=f"H{k}")
            for k in range(1, n)]


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
    # (theta^vee|theta^vee) = 2: theta is long, (theta|theta) = 2
    e = [0] * nv
    e[0] = 1
    total = total + Poly.monomial(nv, tuple(e), -2)
    for i in range(1, rank + 1):
        e = [0] * nv
        e[i] = 1
        total = total + Poly.monomial(nv, tuple(e), -rs.killing_coroots[i - 1][i - 1])
    return RelationPoly(letter, rank, total, name="Hquad")


# -- evaluation into the quantum ring ----------------------------------------------


def phi_evaluate(rel: RelationPoly, ring: QuantumAff | None = None) -> QClass:
    """Phi(rel), by :meth:`QuantumAff.evaluate`; a ring of another type is refused."""
    if ring is None:
        ring = quantum_aff(rel.letter, rel.rank)
    elif (ring.rs.letter, ring.n) != (rel.letter, rel.rank):
        raise ValueError(f"a relation of {rel.letter}{rel.rank} in the ring of {ring.rs.lie_type}")
    return ring.evaluate(rel.poly)


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
    """The ``q^0`` coefficients of a class of the quantum ring.  Of ``Phi(rel)`` that
    is the class in H*(G/B) of the q-free part of ``rel`` (a quantum correction always
    carries a positive power of q); for a relation it must vanish."""
    zero = (0,) * img.ring.nq
    return {w: c for w, p in img.terms.items() if (c := p.terms.get(zero))}


# -- the relation set of a type ------------------------------------------------------


def relations_for(letter: str, rank: int) -> tuple[list[RelationPoly], str]:
    """Return (relations, status): the full generating set where constructible, as
    a fresh list on every call; a pair that names no type is refused."""
    rels, status = _relation_set(letter, rank)
    return list(rels), status


@lru_cache(maxsize=None, typed=True)
def _relation_set(letter: str, rank: int) -> tuple[tuple[RelationPoly, ...], str]:
    """The relations of one type, built once per process; the label is checked on a
    miss, so the cache holds only types, and typed, so ``2.0`` or ``True`` is a miss."""
    _check_lie_type(letter, rank)
    if letter == "A":
        return tuple(typeA_relations(rank + 1)), "full"
    if letter in ("B", "C") and rank == 2:  # one Cartan matrix, symmetrizers and theta
        return tuple(rel._replace(letter=letter) for rel in b2_relations()), "full"
    return (quadratic_relation(letter, rank),), "partial"

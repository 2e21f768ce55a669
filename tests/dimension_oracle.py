"""Graded dimensions of a presentation: the count a full relation set must meet.

The degree-d slice of ``Q[q, x] / <rels>`` (``deg q = 2``, ``deg x = 1``) has
the dimension of the degree-d slice of the free ``Q[q_0..q_n]``-module on the
Schubert classes exactly when the relations cut out ``QH*_aff(G/B)`` in that
degree.  The quotient side is an exact rank over the rationals, by the
package's integer elimination.
"""

from math import comb
from operator import add

from qaff.polynomials import _echelon
from qaff.weyl import finite_weyl


def matrix_rank(rows) -> int:
    """Rank over the rationals of sparse rows ``col -> Scalar`` (comparable keys)."""
    return len(_echelon(rows))


def weights(rel) -> tuple[int, ...]:
    """The degree of each variable of ``rel``: 2 for ``q_0..q_n``, 1 for ``x_1..x_n``."""
    return (2,) * (rel.rank + 1) + (1,) * rel.rank


def _weighted_monomials(nv: int, weights: tuple[int, ...], degree: int) -> list:
    out = []

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


def quotient_dimension(rels, degree: int) -> int:
    """dim of the degree-d slice of Q[q,x]/<rels>, by exact rank computation."""
    nv = 2 * rels[0].rank + 1
    wts = weights(rels[0])
    rows = [
        {tuple(map(add, e, shift)): c for e, c in rel.poly.terms.items()}
        for rel in rels
        for shift in _weighted_monomials(nv, wts, degree - rel.degree())
    ]
    return len(_weighted_monomials(nv, wts, degree)) - matrix_rank(rows)


def schubert_module_dimension(letter: str, rank: int, degree: int) -> int:
    """dim of the degree-d slice of the free Q[q_0..q_n]-module on Schubert classes."""
    FW = finite_weyl(letter, rank)
    total = 0
    for w in FW.elements:
        rem = degree - FW.length[w]
        if rem >= 0 and rem % 2 == 0:
            total += comb(rem // 2 + rank, rank)
    return total

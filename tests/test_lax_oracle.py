"""The continuant of the periodic chain against the Lax determinant it replaced.

``qaff.toda.typeA_relations`` reads the type-A Toda integrals off the continuant
``K(0..n-1) + q_0 K(1..n-2)``; ``lax_oracle`` expands ``det(lam + A(z))`` and cuts
out its z-free coefficients.  The two must agree term for term.
"""

import pytest

from lax_oracle import coefficient_of, lax_matrix, typeA_relations_by_lax
from qaff.polynomials import Poly
from qaff.toda import typeA_relations


@pytest.mark.parametrize("n", range(2, 10), ids=[f"A{n - 1}" for n in range(2, 10)])
def test_continuant_matches_lax_determinant(n):
    got, want = typeA_relations(n), typeA_relations_by_lax(n)
    assert [(r.name, r.rank, r.poly) for r in got] == [(r.name, r.rank, r.poly) for r in want]


class TestLaxMatrix:
    def test_shape_and_corners(self):
        mat = lax_matrix(3)
        assert len(mat) == 3 and all(len(row) == 3 for row in mat)
        # the corner entries carry the spectral parameter
        assert mat[0][2]
        assert mat[2][0]
        assert mat[0][1].terms  # superdiagonal carries q


def test_coefficient_of_collects():
    # (x^2 + x)y + 3x  -> coefficient of y^1 is x^2 + x
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    f = (x * x + x) * y + 3 * x
    assert coefficient_of(f, 1, 1) == x * x + x
    assert coefficient_of(f, 1, 0) == 3 * x

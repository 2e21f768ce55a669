from fractions import Fraction

import pytest
from dimension_oracle import matrix_rank
from hypothesis import given, settings
from hypothesis import strategies as st

from qaff.polynomials import Poly, exact_div_linear, solve_exact
from qaff.toda import RelationPoly


def P(nvars, terms):
    return Poly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


class TestArithmetic:
    def test_zero_and_one(self):
        z = Poly.zero(2)
        o = Poly.one(2)
        assert not z and o
        assert o + z == o
        assert o * z == z

    def test_ring_identities(self):
        x = Poly.variable(3, 0)
        y = Poly.variable(3, 1)
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y

    def test_scalar_mixing(self):
        x = Poly.variable(1, 0)
        assert 3 * x == x * 3 == x * Fraction(3)
        assert (x + Fraction(1, 2)) * 2 == 2 * x + 1

    def test_power(self):
        x = Poly.variable(1, 0)
        assert x ** 0 == Poly.one(1)
        assert (1 + x) ** 4 == P(1, {(0,): 1, (1,): 4, (2,): 6, (3,): 4, (4,): 1})

    @pytest.mark.parametrize("op", [
        lambda x: x * 0.5, lambda x: x + 0.5, lambda x: x - 0.5,
        lambda x: 0.5 * x, lambda x: 0.5 + x,
    ])
    def test_float_operand_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(Poly.variable(2, 0))

    def test_laurent_exponents(self):
        zinv = Poly.monomial(1, (-1,), 1)
        z = Poly.variable(1, 0)
        assert z * zinv == Poly.one(1)


class TestQueries:
    def test_homogeneous_split(self):
        # rank 1: variables (q0, q1, x1), graded by deg q = 2, deg x = 1
        q0, x1 = Poly.variable(3, 0), Poly.variable(3, 2)
        assert RelationPoly("A", 1, x1 * x1 + q0).is_homogeneous()  # both degree 2
        assert not RelationPoly("A", 1, x1 + q0).is_homogeneous()
        assert RelationPoly("A", 1, x1 * x1 + q0).degree() == 2
        assert RelationPoly("A", 1, x1 + q0).degree() == 2
        assert RelationPoly("A", 1, Poly.zero(3)).degree() == 0

    def test_substitute_is_ring_hom(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        u, v = Poly.variable(2, 0), Poly.variable(2, 1)
        images = [u + v, u - v]
        f = x * y + y
        g = x + 2
        lhs = (f * g).substitute(images)
        rhs = f.substitute(images) * g.substitute(images)
        assert lhs == rhs

    def test_format(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        s = (2 * x * x - y + Fraction(1, 3)).format(["a", "b"])
        assert "a^2" in s and "b" in s and "1/3" in s


coeffs = st.integers(min_value=-6, max_value=6)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw, nvars=2, max_terms=5):
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return Poly(nvars, {e: Fraction(c) for e, c in terms.items() if c})


@st.composite
def linear_forms(draw, nvars=2):
    cs = draw(st.lists(coeffs, min_size=nvars, max_size=nvars).filter(lambda v: any(v)))
    total = Poly.zero(nvars)
    for i, c in enumerate(cs):
        if c:
            total = total + c * Poly.variable(nvars, i)
    return total


@given(polys(), polys())
@settings(max_examples=60)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(polys(), polys(), polys())
@settings(max_examples=40)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polys(), linear_forms())
@settings(max_examples=60)
def test_exact_division_roundtrip(f, lin):
    assert exact_div_linear(f * lin, lin) == f


@given(polys(), linear_forms())
@settings(max_examples=40)
def test_division_rejects_remainders(f, lin):
    g = f * lin + 1
    # divided differences always divide exactly, so a remainder is a broken invariant
    with pytest.raises(AssertionError, match="nonzero remainder"):
        exact_div_linear(g, lin)


class TestLinearAlgebra:
    # Systems are sparse: columns (and rows for the rank) map an index to a
    # nonzero entry.
    def test_solve_simple(self):
        cols = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
        sol = solve_exact(cols, {0: Fraction(3), 1: Fraction(1)})
        assert sol == [Fraction(2), Fraction(1)]

    def test_solve_inconsistent(self):
        cols = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(1), 1: Fraction(2)}]
        assert solve_exact(cols, {0: Fraction(1), 1: Fraction(3)}) is None

    def test_underdetermined_picks_a_solution(self):
        cols = [{0: Fraction(1)}, {0: Fraction(1)}]
        sol = solve_exact(cols, {0: Fraction(5)})
        assert sol is not None
        assert sol[0] + sol[1] == 5

    def test_rank(self):
        rows = [
            {0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {1: Fraction(1)},
        ]
        assert matrix_rank(rows) == 2

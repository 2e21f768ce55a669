"""The integer-coefficient kernel of the ``Q[q]``-module layer.

``Poly`` stores a coefficient as an ``int`` when it is integral and as a
``Fraction`` only when it is not.  Classes are summed by a chain of
``QClass.scale`` and ``+`` (``class_sums.scale_and_add``); the tests check
that chain against a coefficient-by-coefficient ``Fraction`` sum.
"""

import random
from fractions import Fraction

import pytest
from class_sums import scale_and_add
from divisor_lift import lambda_word

from qaff.affine import affine_coh
from qaff.cli import multiplication_table
from qaff.polynomials import Poly, QModule, exact_div_linear
from qaff.quantum import quantum_aff
from qaff.toda import b2_relations, phi_evaluate
from qaff.verify import lambda_op_by_words

NQ = 3
MODULE = QModule(lambda w: w, lambda w: (w,), 0, NQ)


def random_scalar(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6]))


def random_poly(rng):
    return Poly(NQ, {tuple(rng.randint(0, 2) for _ in range(NQ)): random_scalar(rng)
                     for _ in range(rng.randint(0, 3))})


def random_class(rng):
    out = MODULE.zero()
    for w in rng.sample(range(6), rng.randint(0, 4)):
        out = out + MODULE.basis(w, random_poly(rng))
    return out


def random_coefficient(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return random_scalar(rng)
    if kind == 1:
        return Poly.const(NQ, random_scalar(rng))
    return random_poly(rng)


def random_pairs(rng, k):
    return [(random_coefficient(rng), random_class(rng)) for _ in range(k)]


def fraction_sum(pairs):
    """``sum c * x`` as a table ``w -> exponent -> Fraction``, zeros dropped."""
    out = {}
    for c, x in pairs:
        cterms = c.terms if isinstance(c, Poly) else {(0,) * NQ: c}
        for w, p in x.terms.items():
            d = out.setdefault(w, {})
            for e1, c1 in cterms.items():
                for e2, c2 in p.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    d[e] = d.get(e, 0) + Fraction(c1) * c2
    out = {w: {e: v for e, v in d.items() if v} for w, d in out.items()}
    return {w: d for w, d in out.items() if d}


def table(cls):
    return {w: p.terms for w, p in cls.terms.items()}


def coefficients(cls):
    return [c for poly in cls.terms.values() for c in poly.terms.values()]


def assert_exact(values):
    """Each value is a nonzero int, or a Fraction that is not integral."""
    for c in values:
        assert c, c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


class TestCombine:
    """Sums of ``c * x`` pairs by the ``scale`` and ``+`` chain, which the
    ``e1`` route and the test oracles use: equal to a coefficient-by-coefficient
    ``Fraction`` sum, and exact, with ``int`` wherever a sum is integral."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_scale_and_add_chain(self, seed):
        rng = random.Random(seed)
        pairs = random_pairs(rng, rng.randint(0, 6))
        got = scale_and_add(MODULE, pairs)
        assert table(got) == fraction_sum(pairs)
        assert_exact(coefficients(got))

    @pytest.mark.parametrize("seed", range(10))
    def test_cancellation(self, seed):
        rng = random.Random(100 + seed)
        kept, dropped = random_pairs(rng, 3), random_pairs(rng, 3)
        negated = [(-c, x) for c, x in dropped]
        assert scale_and_add(MODULE, dropped + negated).is_zero()
        got = scale_and_add(MODULE, dropped + kept + negated)
        assert table(got) == fraction_sum(kept)
        assert_exact(coefficients(got))

    def test_halves_sum_to_an_int(self):
        x = MODULE.basis(1, Poly.variable(NQ, 0) + 3)
        got = scale_and_add(MODULE, [(Fraction(1, 2), x), (Poly.const(NQ, Fraction(1, 2)), x)])
        assert got == x
        assert all(type(c) is int for c in coefficients(got))

    def test_accepts_a_generator_and_skips_zero_coefficients(self):
        x = MODULE.basis(2)
        got = scale_and_add(MODULE, ((c, x) for c in [0, Poly.zero(NQ), 2]))
        assert got == MODULE.basis(2, 2)


class TestIntegerCoefficients:
    def test_poly_stores_integral_values_as_int(self):
        x = Poly.variable(2, 0)
        half = x * Fraction(1, 2)
        assert type((half + half).terms[(1, 0)]) is int
        assert type((half * 2).terms[(1, 0)]) is int
        assert type(Poly(1, {(0,): Fraction(4, 2)}).terms[(0,)]) is int
        assert type(Poly(1, {(0,): True}).terms[(0,)]) is int
        with pytest.raises(TypeError):
            Poly.const(1, 0.5)
        with pytest.raises(TypeError):
            Poly.monomial(2, (1, 0), 1 / 2)
        assert_exact((half * half + x).terms.values())

    def test_exact_div_linear_returns_an_exact_half(self):
        # with bare ints, c / a would make the float 0.5, which Poly refuses
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        q = exact_div_linear(x * x + x * y, 2 * x + 2 * y)
        assert q.terms == {(1, 0): Fraction(1, 2)}
        assert type(q.terms[(1, 0)]) is Fraction
        assert exact_div_linear(4 * x * y, 2 * x).terms == {(0, 1): 2}
        assert type(exact_div_linear(4 * x * y, 2 * x).terms[(0, 1)]) is int

    @pytest.mark.parametrize("lt", ["A3", "B3"])
    def test_table_coefficients_are_ints(self, lt):
        ring = quantum_aff(lt[0], int(lt[1]))
        for prod in multiplication_table(ring).values():
            assert all(type(c) is int for c in coefficients(prod))

    def test_affine_a2_lambda_images_are_ints(self):
        H = affine_coh("A", 2)
        for ws in H.W.enumerate_up_to(3).values():
            for w in ws:
                for i in range(H.n + 1):
                    for img in (H.lambda_op(i, H.basis(w)), lambda_op_by_words(H, i, H.basis(w))):
                        assert all(type(c) is int for c in coefficients(img))
                for i in range(1, H.n + 1):
                    img = H.modified_lambda(i, H.basis(w))
                    assert all(type(c) is int for c in coefficients(img))

    def test_b2_toda_relations_are_exact(self):
        ring = quantum_aff("B", 2)
        for rel in b2_relations():
            assert_exact(rel.poly.terms.values())
            for e in rel.poly.terms:
                word = tuple(i + 1 for i, a in enumerate(e[3:]) for _ in range(a))
                assert_exact(coefficients(lambda_word(ring, word, ring.unit())))
            assert phi_evaluate(rel, ring).is_zero()

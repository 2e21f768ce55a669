import importlib
from fractions import Fraction

import pytest

from qaff.roots import (
    AffineRoot,
    affinize,
    build_root_system,
    coroot_ht,
    coroot_leq,
    parse_lie_type,
)

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("E", 6), ("F", 4), ("G", 2),
]

# number of positive roots per type, from the classical count formulas
NUM_POSITIVE = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("F", 4): 24, ("G", 2): 6,
}

# dual Coxeter numbers; 1 + sum of comarks must reproduce them
DUAL_COXETER = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5,
    ("B", 2): 3, ("B", 3): 5, ("B", 4): 7,
    ("C", 2): 3, ("C", 3): 4, ("C", 4): 5,
    ("D", 4): 6, ("D", 5): 8,
    ("E", 6): 12, ("F", 4): 9, ("G", 2): 4,
}


def test_parse_lie_type():
    assert parse_lie_type("B3") == ("B", 3)
    assert parse_lie_type("g2") == ("G", 2)
    for bad in ("H3", "A0", "B1", "E9", "F5", "", "A"):
        with pytest.raises(ValueError):
            parse_lie_type(bad)


@pytest.mark.parametrize("letter,rank", [
    ("A2", 2), ("a", 2), ("", 2), (None, 2), ("H", 3),
    ("A", "2"), ("A", 2.0), ("A", True), ("B", 1), ("D", 2), ("E", 9), ("F", 5),
])
def test_build_root_system_takes_only_parsed_types(letter, rank):
    # cached first: ("A", True) and ("A", 2.0) equal these keys
    build_root_system("A", 1)
    build_root_system("A", 2)
    with pytest.raises(ValueError):
        build_root_system(letter, rank)


@pytest.mark.parametrize("rank", [1.0, True])
@pytest.mark.parametrize("module,name", [
    ("qaff.roots", "affinize"), ("qaff.weyl", "affine_weyl"), ("qaff.weyl", "finite_weyl"),
    ("qaff.bgg", "finite_schubert"), ("qaff.affine", "affine_coh"),
    ("qaff.quantum", "quantum_aff"), ("qaff.quantum", "ordinary_qh"),
    ("qaff.chevalley", "chevalley_root_set"),
])
def test_cached_factories_refuse_non_int_ranks(module, name, rank):
    factory = getattr(importlib.import_module(module), name)
    # cached first: ("A", 1.0) and ("A", True) equal this key
    factory("A", 1)
    with pytest.raises(ValueError):
        factory("A", rank)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_positive_root_counts(letter, rank):
    rs = build_root_system(letter, rank)
    assert rs.num_positive == NUM_POSITIVE[(letter, rank)]


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_cartan_recovered_from_pairings(letter, rank):
    rs = build_root_system(letter, rank)
    for i in range(rank):
        row = rs.simple_root(i + 1)
        for j in range(rank):
            assert rs.pairing(row, rs.coroot(rs.simple_root(j + 1))) == rs.cartan[j][i]


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_coroots_are_integral(letter, rank):
    rs = build_root_system(letter, rank)
    for beta in rs.positive_roots:
        cv = rs.coroot(beta)
        assert all(isinstance(c, int) for c in cv)
        assert rs.pairing(beta, cv) == 2


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_theta_dominates(letter, rank):
    rs = build_root_system(letter, rank)
    # theta is the unique root of maximal height, long, and dominant
    for beta in rs.positive_roots:
        assert all(t >= b for t, b in zip(rs.theta, beta))
    assert rs.d_root(rs.theta) == 1
    for i in range(1, rank + 1):
        assert rs.pairing(rs.simple_root(i), rs.theta_coroot) >= 0


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_comark_sum_is_dual_coxeter(letter, rank):
    rs = build_root_system(letter, rank)
    assert 1 + sum(rs.theta_coroot) == DUAL_COXETER[(letter, rank)]


def test_b2_conventions():
    rs = build_root_system("B", 2)
    # first simple root short, second long
    assert rs.cartan == ((2, -2), (-1, 2))
    assert rs.theta == (2, 1)
    assert rs.theta_coroot == (1, 1)
    assert rs.d == (Fraction(1, 2), Fraction(1))


def test_c2_is_b2():
    assert build_root_system("C", 2) is not None
    b2, c2 = build_root_system("B", 2), build_root_system("C", 2)
    assert b2.cartan == c2.cartan
    assert b2.positive_roots == c2.positive_roots


def test_g2_doctest_values():
    rs = build_root_system("G", 2)
    assert rs.theta == (3, 2)
    assert rs.theta_coroot == (1, 2)


def test_reflections_permute_roots():
    for lt in ("A3", "B2", "G2", "C3"):
        rs = build_root_system(*parse_lie_type(lt))
        roots = set(rs.all_roots())
        for i in range(1, rs.rank + 1):
            alpha = rs.simple_root(i)
            assert {rs.reflect_root(alpha, v) for v in roots} == roots


def test_norms_and_killing():
    rs = build_root_system("G", 2)
    shorts = [b for b in rs.positive_roots if rs.d_root(b) == Fraction(1, 3)]
    longs = [b for b in rs.positive_roots if rs.d_root(b) == 1]
    assert len(shorts) == 3 and len(longs) == 3
    # (alpha_i, alpha_j^vee) table is cartan over symmetrizers
    for i in range(2):
        for j in range(2):
            assert rs.killing_coroots[i][j] == Fraction(rs.cartan[i][j]) / rs.d[j]


class TestAffineLayer:
    def test_zeroth_root(self):
        ard = affinize("A", 2)
        a0 = ard.simple_root(0)
        assert a0 == AffineRoot(1, (-1, -1))
        assert ard.coroot(a0) == (1, 0, 0)

    def test_canonical_central_element(self):
        for lt in ("A1", "A2", "B2", "G2", "B3"):
            ard = affinize(*parse_lie_type(lt))
            assert ard.c[0] == 1
            assert ard.c[1:] == ard.rs.theta_coroot

    def test_coroot_order(self):
        assert coroot_leq((1, 0, 1), (1, 1, 1))
        assert not coroot_leq((2, 0, 0), (1, 1, 1))
        assert coroot_ht((1, 2, 0)) == 3

    def test_pairing_against_central(self):
        ard = affinize("B", 2)
        for i in range(ard.rs.rank + 1):
            assert ard.pairing(ard.simple_root(i), ard.c) == 0

    def test_level_zero_weight_pairing(self):
        ard = affinize("A", 2)
        m = ard.rs.theta_coroot
        # lambda_i - m_i lambda_0 kills c and sees alpha_j^vee (j >= 1) as delta_ij
        for i in (1, 2):
            assert ard.level_zero_weight_pairing(i, ard.c) == 0
            assert ard.level_zero_weight_pairing(i, (1, 0, 0)) == -m[i - 1]
            for j in (1, 2):
                expected = 1 if i == j else 0
                coroot = tuple(1 if k == j else 0 for k in range(3))
                assert ard.level_zero_weight_pairing(i, coroot) == expected

    def test_reflect_preserves_roots(self):
        ard = affinize("A", 2)
        small = [mu for mu, _ in ard.real_positive_roots_leq((2, 2, 2))]
        for alpha in (ard.simple_root(0), ard.simple_root(1)):
            for mu in small:
                image = ard.reflect(alpha, mu)
                assert image.finite in ard.rs.all_roots()

    def test_real_positive_roots_leq(self):
        ard = affinize("A", 1)
        found = [mu for mu, _ in ard.real_positive_roots_leq((1, 1))]
        # alpha1 and alpha0 = delta - alpha1; delta + alpha1 has coroot (1, 2)
        assert found == [AffineRoot(1, (-1,)), AffineRoot(0, (1,))] or set(found) == {
            AffineRoot(0, (1,)),
            AffineRoot(1, (-1,)),
        }
        assert AffineRoot(1, (1,)) not in found
        for mu in found:
            assert coroot_leq(ard.coroot(mu), (1, 1))
        bigger = [mu for mu, _ in ard.real_positive_roots_leq((1, 2))]
        assert AffineRoot(1, (1,)) in bigger


def test_affine_root_is_an_immutable_value():
    a = AffineRoot(1, (0, -1))
    assert hash(a) == hash((1, (0, -1)))
    assert a == AffineRoot(1, (0, -1)) and -a == AffineRoot(-1, (0, 1))
    assert repr(a) == "AffineRoot(level=1, finite=(0, -1))"
    with pytest.raises(AttributeError):
        a.level = 2

import importlib
import math
from fractions import Fraction

import pytest

from qaff.roots import (
    AffineRoot,
    RootSystem,
    _symmetrizers,
    affinize,
    build_root_system,
    coroot_ht,
    coroot_leq,
    parse_lie_type,
)
from qaff.weyl import weyl_order

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
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6,
}

# fundamental degrees of W (Bourbaki, Lie groups ch. V, §6, table 1): A_n has
# 2..n+1, B_n and C_n 2, 4, ..., 2n, and D_n 2, 4, ..., 2n-2 and n
DEGREES = {
    ("A", 1): (2,), ("A", 2): (2, 3), ("A", 3): (2, 3, 4), ("A", 4): (2, 3, 4, 5),
    ("A", 9): (2, 3, 4, 5, 6, 7, 8, 9, 10),
    ("B", 2): (2, 4), ("B", 3): (2, 4, 6), ("B", 4): (2, 4, 6, 8),
    ("C", 2): (2, 4), ("C", 3): (2, 4, 6), ("C", 4): (2, 4, 6, 8),
    ("D", 4): (2, 4, 4, 6), ("D", 5): (2, 4, 5, 6, 8),
    ("D", 9): (2, 4, 6, 8, 9, 10, 12, 14, 16),
    ("E", 6): (2, 5, 6, 8, 9, 12), ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30), ("F", 4): (2, 6, 8, 12), ("G", 2): (2, 6),
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


@pytest.mark.parametrize("label", ["A1_0", "A+2", " A+2", "B\u0663", "A\uff13", "A 2", "A-1", "A2.0"])
def test_rank_is_ascii_decimal_digits(label):
    # int() reads each of these ranks: A10, A2, B3, A3, A2, A-1, and "2.0" is refused either way
    with pytest.raises(ValueError, match=r"^bad Lie type .*: expected a letter A..G and an int rank$"):
        parse_lie_type(label)


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
    with pytest.raises(ValueError):
        RootSystem(letter, rank)


@pytest.mark.parametrize("label,pair", [("H3", ("H", 3)), ("A0", ("A", 0)), ("E9", ("E", 9))])
def test_label_and_pair_are_refused_by_one_check(label, pair):
    with pytest.raises(ValueError) as parsed:
        parse_lie_type(label)
    with pytest.raises(ValueError) as built:
        build_root_system(*pair)
    assert str(parsed.value).replace(repr(label), repr(pair)) == str(built.value)


def test_disconnected_diagram_is_a_broken_invariant():
    # the Cartan matrix of a checked label is connected, so this is never input
    with pytest.raises(AssertionError, match="not connected"):
        _symmetrizers([[2, 0], [0, 2]])


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


@pytest.mark.parametrize("letter,rank", list(NUM_POSITIVE))
def test_positive_root_counts(letter, rank):
    rs = build_root_system(letter, rank)
    assert rs.num_positive == NUM_POSITIVE[(letter, rank)]


@pytest.mark.parametrize("letter,rank", list(DEGREES))
def test_degrees_follow_the_root_heights(letter, rank):
    rs = build_root_system(letter, rank)
    assert rs.degrees == DEGREES[(letter, rank)]
    assert sum(d - 1 for d in rs.degrees) == rs.num_positive
    assert math.prod(rs.degrees) == weyl_order(letter, rank)


@pytest.mark.parametrize("letter,rank", list(DEGREES))
def test_positive_roots_are_closed_under_simple_reflections(letter, rank):
    rs = build_root_system(letter, rank)
    positives = set(rs.positive_roots)
    for i in range(1, rank + 1):
        alpha = rs.simple_root(i)
        assert {rs.reflect_root(alpha, b) for b in positives - {alpha}} == positives - {alpha}
    assert list(rs.positive_roots) == sorted(positives, key=lambda v: (sum(v), v))


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
    assert rs.table.d_roots[rs.table.index[rs.theta]] == 1
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
    d_roots = rs.table.d_roots[:rs.num_positive]
    shorts = [b for b, d in zip(rs.positive_roots, d_roots) if d == Fraction(1, 3)]
    longs = [b for b, d in zip(rs.positive_roots, d_roots) if d == 1]
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

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_level_zero_weight_index_out_of_range(self, i):
        # -1 once read another weight's pairing (2 here) and 3 raised IndexError
        ard = affinize("A", 2)
        with pytest.raises(ValueError, match=rf"^finite index {i} is not in 1\.\.2$"):
            ard.level_zero_weight_pairing(i, (1, 2, 3))

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

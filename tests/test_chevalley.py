import pytest

from qaff.chevalley import chevalley_root_set, enumerate_chevalley_roots, posir_reconstruct
from qaff.roots import AffineRoot, affinize, coroot_ht, coroot_leq
from qaff.weyl import AffineWeylGroup, affine_weyl

# how many roots carry a "short" reflection, for each implemented type
EXPECTED_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 5,
    ("B", 3): 13,
    ("C", 2): 5,
    ("C", 3): 9,
    ("D", 4): 24,
    ("G", 2): 7,
}


@pytest.mark.parametrize("letter,rank", sorted(EXPECTED_COUNTS))
def test_counts(letter, rank):
    crs = chevalley_root_set(letter, rank)
    assert len(crs) == EXPECTED_COUNTS[(letter, rank)]


def test_every_group_of_a_type_shares_the_set():
    # the set holds no element ids, so a fresh group gets the cached tuple
    assert enumerate_chevalley_roots(AffineWeylGroup(affinize("A", 3))) is chevalley_root_set(
        "A", 3)
    assert enumerate_chevalley_roots(affine_weyl("A", 3)) is chevalley_root_set("A", 3)


@pytest.mark.parametrize("letter,rank", sorted(EXPECTED_COUNTS))
def test_defining_length_condition(letter, rank):
    W = affine_weyl(letter, rank)
    for cr in chevalley_root_set(letter, rank):
        assert cr.reflection_length == 2 * cr.coroot_height - 1
        assert W.length(W.reflection(cr.root)) == cr.reflection_length
        assert coroot_ht(cr.coroot) == cr.coroot_height


@pytest.mark.parametrize("letter,rank", sorted(EXPECTED_COUNTS))
def test_words_are_palindromic_and_reduced(letter, rank):
    W = affine_weyl(letter, rank)
    for cr in chevalley_root_set(letter, rank):
        assert cr.word == cr.word[::-1]
        assert len(cr.word) == cr.reflection_length
        assert W.from_word(cr.word) == W.reflection(cr.root)


def test_a1_members():
    crs = chevalley_root_set("A", 1)
    roots = {cr.root for cr in crs}
    assert roots == {AffineRoot(0, (1,)), AffineRoot(1, (-1,))}
    assert {cr.coroot for cr in crs} == {(0, 1), (1, 0)}


def test_a2_members():
    crs = chevalley_root_set("A", 2)
    # three finite simple-ish roots alpha1, alpha2, alpha1+alpha2 and their
    # affine partners delta - (...)
    coroots = {cr.coroot for cr in crs}
    assert coroots == {
        (0, 1, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
    }


def test_b2_members():
    # alpha1^vee, alpha2^vee, theta^vee, alpha0^vee, and (delta - alpha2)^vee
    crs = chevalley_root_set("B", 2)
    coroots = sorted(cr.coroot for cr in crs)
    assert coroots == [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    theta = next(cr for cr in crs if cr.coroot == (0, 1, 1))
    assert theta.root.level == 0 and theta.root.finite == (2, 1)
    assert theta.reflection_length == 3


def test_g2_has_seven():
    crs = chevalley_root_set("G", 2)
    hts = sorted(cr.coroot_height for cr in crs)
    assert hts == [1, 1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_simply_laced_characterization(letter, rank):
    # in ADE the set is exactly the real positive roots with coroot < c
    W = affine_weyl(letter, rank)
    ard = W.ard
    crs = chevalley_root_set(letter, rank)
    below = {
        mu
        for mu, coroot in ard.real_positive_roots_leq(ard.c)
        if coroot_leq(coroot, ard.c) and coroot != ard.c
    }
    assert {cr.root for cr in crs} == below


def test_below_c_containment():
    # always a subset of {coroot < c}; strict in B3 (delta - alpha1 drops out),
    # while B2/C2/C3/G2 happen to coincide with the naive bound
    for lt, strict in [(("B", 2), False), (("B", 3), True), (("G", 2), False)]:
        W = affine_weyl(*lt)
        ard = W.ard
        crs = {cr.root for cr in chevalley_root_set(*lt)}
        below = {mu for mu, coroot in ard.real_positive_roots_leq(ard.c) if coroot != ard.c}
        assert crs <= below
        assert (crs < below) == strict


@pytest.mark.parametrize("letter,rank", sorted(EXPECTED_COUNTS))
def test_peeling_reconstruction_agrees(letter, rank):
    # the upward-closure rebuild finds the same roots; its words may differ
    # from the stored ones but must be reduced palindromes for the same element
    W = affine_weyl(letter, rank)
    rebuilt = posir_reconstruct(W)
    crs = chevalley_root_set(letter, rank)
    assert set(rebuilt) == {cr.root for cr in crs}
    for cr in crs:
        word = rebuilt[cr.root]
        assert word == word[::-1]
        assert len(word) == cr.reflection_length
        assert W.from_word(word) == W.reflection(cr.root)


def test_coroots_distinct_and_below_c():
    for letter, rank in sorted(EXPECTED_COUNTS):
        ard = affinize(letter, rank)
        crs = chevalley_root_set(letter, rank)
        seen = [cr.coroot for cr in crs]
        assert len(seen) == len(set(seen))
        for v in seen:
            assert coroot_leq(v, ard.c) and v != ard.c

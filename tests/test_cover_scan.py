"""The lifting-property covers, the per-element cover rows and the maxima-only filter.

Each fast route is compared with the route it replaced (``cover_oracles``),
as ordered lists: the Bruhat covers, which ``bruhat_covers_up`` builds from
the covers below it in right weak order instead of scanning reflections, the
moment-graph slice edges and ``bruhat_maximal``.  The quantum cover rows are
compared with the multiply-and-length rule they replaced and with the word
form ``q^{alpha^vee} D_{s_alpha}`` of the affine quantum Chevalley operators,
every weight a row carries with the weight pairing it stands for, and the
elements a cold cover row interns are counted.  The per-level root lists of ``AffineRootData``, which the slice
reads, are checked to hold every short reflection in root-table order, to be
built on first use and to be shared by the groups on one datum.
"""

import itertools
import random

import pytest

from cover_oracles import (
    all_pairs_maximal,
    cover_rows,
    heights_by_closed_form,
    level_bound_covers_up,
    level_bound_slice_edges,
    quantum_covers_by_length,
    short_reflections,
)
from qaff.affine import AffineCoh, affine_coh
from qaff.cli import moment_graph_slice
from qaff.neighborhoods import _reachable, bruhat_maximal
from qaff.roots import AffineRoot, AffineRootData, affinize, build_root_system
from qaff.verify import lambda_op_by_words
from qaff.weyl import AffineWeylGroup, affine_weyl

COVER_CASES = [("A", 1, 4), ("A", 2, 4), ("A", 3, 4), ("A", 4, 4), ("B", 2, 4),
               ("B", 3, 4), ("C", 3, 4), ("G", 2, 4), ("D", 4, 3), ("F", 4, 2),
               ("E", 6, 2)]


def _elements(W, top):
    return [w for ws in W.enumerate_up_to(top).values() for w in ws]


@pytest.mark.parametrize("letter,rank,top", COVER_CASES,
                         ids=[f"{x}{n}-l{t}" for x, n, t in COVER_CASES])
def test_cover_scan_matches_level_bound_scan(letter, rank, top):
    W = affine_weyl(letter, rank)
    for w in _elements(W, top):
        assert W.bruhat_covers_up(w) == level_bound_covers_up(W, w), W.format(w)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_short_reflections_are_exactly_the_short_ones(letter, rank):
    W = affine_weyl(letter, rank)
    npos = W.rs.num_positive
    for bound in (1, 3, 5, 9):
        top = (bound + npos) // 2 + 2  # two levels past the level bound
        expect = []
        for k in range(top + 1):
            for beta in W.rs.all_roots():
                if k == 0 and sum(beta) < 0:
                    continue
                alpha = AffineRoot(k, beta)
                s = W.reflection(alpha)
                if W.length(s) <= bound:
                    expect.append((alpha, s))
        assert short_reflections(W, bound) == expect


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_short_reflections_follow_the_root_table_within_a_level(letter, rank):
    W = affine_weyl(letter, rank)
    table = W.rs.table
    levels = {}
    for alpha, _ in short_reflections(W, 9):
        levels.setdefault(alpha.level, []).append(table.index_of(alpha.finite))
    assert len(levels) > 1
    assert all(idx == sorted(idx) and len(set(idx)) == len(idx) for idx in levels.values())
    # the level lists they are read from hold each level's roots in root-table order
    for k, level in enumerate(W.ard.levels(4)):
        assert all(alpha.level == k for _, _, alpha, _ in level)
        idx = [table.index_of(finite) for _, finite, _, _ in level]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)
        assert len(idx) == (len(table.roots) if k else W.rs.num_positive)


def test_reflection_table_is_built_on_first_use():
    W = AffineWeylGroup(AffineRootData(build_root_system("A", 3)))
    assert W.ard._levels == []
    short_reflections(W, 1)
    assert len(W.ard._levels) == 4  # levels k with 2k - 6 <= 1


def test_level_lists_are_shared_by_groups_on_one_datum():
    ard = AffineRootData(build_root_system("A", 3))
    first, second = AffineWeylGroup(ard), AffineWeylGroup(ard)
    assert ard._levels == []
    edges = moment_graph_slice(first, 2).edges
    built = list(ard._levels)
    assert len(built) == 6  # the levels k with 2k - 6 <= 4
    again = moment_graph_slice(second, 2).edges
    assert len(ard._levels) == 6
    assert all(a is b for a, b in zip(ard._levels, built))
    assert ([(first.format(w), first.format(u), alpha, coroot) for w, u, alpha, coroot in edges]
            == [(second.format(w), second.format(u), alpha, coroot)
                for w, u, alpha, coroot in again])


def test_covers_of_a_short_e8_element_intern_few_elements():
    W = AffineWeylGroup(affinize("E", 8))
    w = W.from_word([1, 3, 5, 1, 4])
    assert W.length(w) == 5
    before = len(W.perm)
    covers = W.bruhat_covers_up(w)
    assert all(W.length(u) == 6 for u, _ in covers)
    assert len(W.perm) - before < 1000  # scanning reflections of length <= 11 interns 15,759


@pytest.mark.parametrize("letter,rank,top", [("A", 2, 4), ("A", 3, 3), ("B", 2, 4), ("G", 2, 4),
                                             ("B", 3, 3), ("C", 3, 3), ("D", 4, 2), ("F", 4, 2)])
def test_moment_graph_slice_matches_level_bound_scan(letter, rank, top):
    W = affine_weyl(letter, rank)
    for L in range(top + 1):
        assert moment_graph_slice(W, L).edges == level_bound_slice_edges(W, L)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_classical_rows_are_the_covers_with_their_coroots(letter, rank):
    calc = affine_coh(letter, rank)
    W = calc.W
    for w in _elements(W, 3):
        expect = [(u, W.ard.coroot(alpha)) for u, alpha in level_bound_covers_up(W, w)]
        assert [(u, coroot) for u, coroot, _ in cover_rows(calc, w)[0]] == expect


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4),
                                         ("F", 4)])
def test_quantum_rows_match_word_form(letter, rank):
    calc = affine_coh(letter, rank)
    W = calc.W
    for w in _elements(W, 3):
        a = calc.basis(w)
        # D_{s_alpha} eps_w = eps_{w s_alpha} exactly on the quantum covers
        by_words = []
        for cr in calc._chev:
            image = calc.D_word(cr.word, a)
            if not image.is_zero():
                (u,) = image.terms
                by_words.append((u, cr.coroot))
        assert [(u, coroot) for u, coroot, _ in cover_rows(calc, w)[1]] == by_words, W.format(w)
        for i in range(rank + 1):
            assert calc.lambda_op(i, a) == lambda_op_by_words(calc, i, a)


# every element below the default truncation L, and E6 up to length 3
INVERSION_CASES = [("A", 1, None), ("A", 2, None), ("A", 3, None), ("B", 2, None),
                   ("B", 3, None), ("C", 3, None), ("G", 2, None), ("D", 4, None),
                   ("F", 4, None), ("E", 6, 3)]


@pytest.mark.parametrize("letter,rank,top", INVERSION_CASES,
                         ids=[f"{x}{n}" for x, n, _ in INVERSION_CASES])
def test_quantum_rows_by_inversion_sets_match_the_length_rule(letter, rank, top):
    # N(s_alpha) in N(w) is the length condition (Bjorner-Brenti), so the rows agree
    # as ordered lists, keys and weights alike
    calc = AffineCoh(AffineWeylGroup(affinize(letter, rank)))
    W = calc.W
    elements = _elements(W, calc.L - 1 if top is None else top)
    quantum = 0
    for w in elements:
        rows = calc._cover_rows(w)[1]
        assert rows == quantum_covers_by_length(calc, w), W.format(w)
        quantum += len(rows)
    assert quantum > 0


def test_inversion_sets_are_read_on_first_use():
    # a member's N(s_alpha) is read the first time some w has w(alpha) < 0, not at set-up
    calc = AffineCoh(AffineWeylGroup(affinize("B", 3)))
    W = calc.W
    assert calc._inversions == [None] * len(calc._members)
    calc._cover_rows(W.identity)  # e sends no positive root negative
    assert calc._inversions == [None] * len(calc._members)
    w = W.parse("s0s2s1")
    calc._cover_rows(w)
    for (level, b, s, _, _), inv in zip(calc._members, calc._inversions):
        assert (inv is not None) == (level < heights_by_closed_form(W, w)[b])
        assert inv is None or (inv == W.inversion_set(s) and len(inv) == W.length(s))


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_row_weights_are_the_weight_pairings(letter, rank):
    calc = affine_coh(letter, rank)
    ard = calc.ard
    rows = 0
    for w in _elements(calc.W, 4):
        classical, quantum = cover_rows(calc, w)
        for u, coroot, weights in classical + quantum:
            assert len(weights) == 2 * rank + 1
            for i in range(rank + 1):
                assert weights[i] == ard.weight_pairing(i, coroot)
            for i in range(1, rank + 1):
                assert weights[rank + i] == ard.level_zero_weight_pairing(i, coroot)
            rows += 1
    assert rows > 0


def _degrees(nq, top):
    return [d for d in itertools.product(range(top + 1), repeat=nq) if sum(d) <= top]


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_bruhat_maximal_matches_all_pairs_on_reachable_sets(letter, rank):
    W = affine_weyl(letter, rank)
    starts = [[W.identity]] + [[W.identity, W.simple(i)] for i in range(rank + 1)]
    for d in _degrees(rank + 1, 3):
        for cells in starts:
            elts = _reachable(W, cells, d)
            assert bruhat_maximal(W, elts) == all_pairs_maximal(W, elts)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_bruhat_maximal_matches_all_pairs_on_random_subsets(letter, rank):
    W = affine_weyl(letter, rank)
    pool = _elements(W, 5)
    rng = random.Random(f"bruhat-maximal/{letter}{rank}")
    for _ in range(60):
        elts = set(rng.sample(pool, rng.randint(1, 25)))
        assert bruhat_maximal(W, elts) == all_pairs_maximal(W, elts)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_each_root_is_reflected_once_per_simple_reflection(letter, rank):
    # bruhat_covers_up keeps s_i(gamma) per (i, gamma), so on a fresh group the memo
    # holds at most n + 1 entries per distinct root of the covers met
    W = AffineWeylGroup(affinize(letter, rank))
    assert W._reflected == [{} for _ in range(rank + 1)]
    for w in _elements(W, 4):
        W.bruhat_covers_up(w)
    met = {alpha for covers in W._covers_memo.values() for _, alpha in covers}
    entries = sum(map(len, W._reflected))
    assert 0 < entries <= (rank + 1) * len(met)
    for i, reflected in enumerate(W._reflected):
        for gamma, root in reflected.items():
            assert gamma in met and root in met
            assert root == W.ard.reflect(W.ard.simple_root(i), gamma)

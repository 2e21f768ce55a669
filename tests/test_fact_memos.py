"""The memos of facts that never change, each against the rule it stands for.

``AffineRootData.coroot`` keeps each root's coroot, ``real_positive_roots_leq``
filters per-level lists built once, scans only the levels a budget allows, and
returns each root with the coroot its row carries, and ``AffineWeylGroup`` keeps
each element's inversion heights (``heights``) and descents (``right_descents``).
Each is checked against a route that computes the fact afresh: the closed form
``(k / d_beta) c + beta^vee`` with ``beta^vee`` from the symmetrizers, the
per-budget enumeration the level lists replaced, and the rule the deleted
``AffineWeylGroup.inverts`` applied (``heights_by_closed_form``).  The checks are
test-side, so they also run under ``python -O``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from cover_oracles import heights_by_closed_form
from test_roots import ALL_TYPES

from qaff.neighborhoods import curve_neighborhood, neighborhood_by_search, z_components
from qaff.roots import AffineRoot, AffineRootData, build_root_system, coroot_leq
from qaff.weyl import AffineWeylGroup, affine_weyl


def closed_form_coroot(ard, alpha):
    """``(k / d_beta) c + beta^vee``, with ``beta^vee_j = beta_j d_j / d_beta`` and
    ``d_beta = (beta|beta) / 2 = sum_ij beta_i beta_j d_i cartan[i][j] / 2``."""
    rs = ard.rs
    beta = alpha.finite
    d_beta = sum(bi * bj * rs.d[i] * rs.cartan[i][j]
                 for i, bi in enumerate(beta) for j, bj in enumerate(beta)) / 2
    r = Fraction(alpha.level) / d_beta
    finite = [Fraction(b) * dj / d_beta for b, dj in zip(beta, rs.d)]
    out = [r] + [r * m + f for m, f in zip(rs.theta_coroot, finite)]
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


def positive_roots(ard, top_level):
    return [AffineRoot(k, beta) for k in range(top_level + 1) for beta in ard.rs.all_roots()
            if k or sum(beta) > 0]


@pytest.mark.parametrize("letter,rank", ALL_TYPES, ids=[f"{x}{n}" for x, n in ALL_TYPES])
def test_coroot_memo_matches_the_closed_form(letter, rank):
    ard = AffineRootData(build_root_system(letter, rank))
    roots = positive_roots(ard, 3)
    for alpha in roots:
        assert ard.coroot(alpha) == closed_form_coroot(ard, alpha), alpha
    assert len(ard._coroots) == len(roots)
    # a second read is the kept vector
    assert all(ard.coroot(alpha) is ard._coroots[alpha] for alpha in roots)
    with pytest.raises(ValueError):
        ard.coroot(AffineRoot(1, (0,) * rank))


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_right_descents_follow_the_inverts_rule(letter, rank):
    W = affine_weyl(letter, rank)
    simple = [(a.level, W.table.index[a.finite])
              for a in (W.ard.simple_root(i) for i in range(rank + 1))]
    for w in (w for layer in W.enumerate_up_to(5).values() for w in layer):
        h = heights_by_closed_form(W, w)
        expect = tuple(i for i, (level, b) in enumerate(simple) if level < h[b])
        assert W.right_descents(w) == expect, W.format(w)
        assert expect == tuple(i for i in range(rank + 1)
                               if W.length(W.rmul(w, i)) < W.length(w))
        assert W.right_descents(w) is W._descents[w]


@pytest.mark.parametrize("letter,rank", ALL_TYPES, ids=[f"{x}{n}" for x, n in ALL_TYPES])
def test_heights_match_the_closed_form(letter, rank):
    # every element of length <= 4 by each route that makes one, each in a fresh group:
    # rmul derives a product's heights from its factor's, and multiply, reflection and
    # the identity leave them to be computed on first read
    ard = AffineRootData(build_root_system(letter, rank))
    W = AffineWeylGroup(ard)
    layers = W.enumerate_up_to(4)
    words = [W.reduced_word(w) for ell in sorted(layers) for w in layers[ell]]
    short = [alpha for alpha, s in
             ((a, W.reflection(a)) for level in ard.levels(3) for _, _, a, _ in level)
             if W.length(s) <= 4]

    def check(G, w):
        assert G.heights(w) == heights_by_closed_form(G, w), G.format(w)
        assert G._heights[w] is G.heights(w)

    for w in (w for ell in sorted(layers) for w in layers[ell]):
        check(W, w)
    P = AffineWeylGroup(ard)
    for word in words:
        check(P, P.parse("".join(f"s{i}" for i in word) or "e"))
    M = AffineWeylGroup(ard)
    gens = [M.reflection(ard.simple_root(i)) for i in range(rank + 1)]
    made = []
    for word in words:
        w = M.identity
        for i in word:
            w = M.multiply(w, gens[i])
        made.append(w)
    R = AffineWeylGroup(ard)
    reflections = [R.reflection(alpha) for alpha in short]
    # every element is read before any rmul of its group, so none was derived
    for G, elements in ((M, made), (R, reflections)):
        assert all(h is None for h in G._heights)
        for w in elements:
            check(G, w)
        for w in elements:  # then products derived from heights computed afresh
            for i in range(rank + 1):
                check(G, G.rmul(w, i))
    assert len(set(made)) == len(words) and len(short) > rank


def per_budget_roots(ard, bound):
    """The enumeration ``real_positive_roots_leq`` used before its level lists:
    every root and coroot rebuilt for the budget, then one sort."""
    out = []
    for k in range(0, bound[0] + 1):
        for beta in ard.rs.all_roots():
            if k == 0 and sum(beta) < 0:
                continue
            a = AffineRoot(k, beta)
            if coroot_leq(closed_form_coroot(ard, a), bound):
                out.append(a)
    out.sort(key=lambda a: (ard.height(a), a.finite))
    return out


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 3), ("G", 2)])
def test_level_lists_match_the_per_budget_enumeration(letter, rank):
    budgets = list(itertools.product(range(4), *[range(3)] * rank))
    assert len(budgets) == 4 * 3 ** rank
    rs = build_root_system(letter, rank)
    # one datum fills its levels smallest budget first, the other largest first
    for order in (budgets, budgets[::-1]):
        ard = AffineRootData(rs)
        for b in order:
            assert [a for a, _ in ard.real_positive_roots_leq(b)] == per_budget_roots(ard, b), b
        assert len(ard._levels) == 1 + max(level_top(ard, b) for b in budgets)


def level_top(ard, bound):
    """``min(b_0, floor((b_i + H_i) / m_i))``, ``H_i`` the largest ``i``-th coordinate
    of a positive finite coroot, from the closed form: no root above it fits."""
    tops = [max(col) for col in zip(*(closed_form_coroot(ard, AffineRoot(0, beta))[1:]
                                      for beta in ard.rs.positive_roots))]
    return min(bound[0], *((b + h) // m for b, h, m in
                           zip(bound[1:], tops, ard.rs.theta_coroot)))


BOUNDED = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
           ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


@pytest.mark.parametrize("letter,rank", BOUNDED, ids=[f"{x}{n}" for x, n in BOUNDED])
def test_bounded_level_scan_matches_the_full_scan(letter, rank):
    """720 budgets in all; the full scan reads every level ``0..b_0``."""
    rng = random.Random(f"levels/{letter}{rank}")
    ard = AffineRootData(build_root_system(letter, rank))
    # skewed budgets: a large level with small finite entries is what the bound cuts
    for _ in range(60):
        b = (rng.randrange(8),) + tuple(rng.randrange(5) for _ in range(rank))
        full = sorted(row for level in ard.levels(b[0]) for row in level
                      if coroot_leq(row[3], b))
        assert ard.real_positive_roots_leq(b) == [row[2:] for row in full], b


def test_a_skewed_degree_builds_few_levels():
    W = AffineWeylGroup(AffineRootData(build_root_system("A", 1)))  # nothing built yet
    assert [W.format(z) for z in z_components(W, (1000, 0))] == ["s0"]
    assert len(W.ard._levels) <= 2


def test_a_skewed_degree_matches_the_search():
    W = affine_weyl("A", 1)
    e = W.identity
    assert curve_neighborhood(W, e, (200, 0)) == neighborhood_by_search(W, e, (200, 0))


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_pairs_carry_the_coroot_of_their_root(letter, rank):
    ard = AffineRootData(build_root_system(letter, rank))
    pairs = ard.real_positive_roots_leq((3,) + (4,) * rank)
    assert len(pairs) > 0
    for alpha, coroot in pairs:
        assert coroot == ard.coroot(alpha) == closed_form_coroot(ard, alpha), alpha
        assert coroot_leq(coroot, (3,) + (4,) * rank)


def test_level_lists_are_built_on_first_use():
    ard = AffineRootData(build_root_system("A", 3))
    assert ard._levels == []
    ard.real_positive_roots_leq((1, 1, 1, 1))
    assert [len(level) for level in ard._levels] == [6, 12]

"""The memos of facts that never change, each against the rule it stands for.

``AffineRootData.coroot`` keeps each root's coroot, ``real_positive_roots_leq``
filters per-level lists built once and returns each root with the coroot its
row carries, and ``AffineWeylGroup.right_descents``
keeps each element's descents.  Each is checked against a route that computes
the fact afresh: the closed form ``(k / d_beta) c + beta^vee`` with ``beta^vee``
from the symmetrizers, the per-budget enumeration the level lists replaced, and
the ``inverts`` rule.  The checks are test-side, so they also run under
``python -O``.
"""

import itertools
from fractions import Fraction

import pytest
from test_roots import ALL_TYPES

from qaff.roots import AffineRoot, AffineRootData, build_root_system, coroot_leq
from qaff.weyl import affine_weyl


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
        expect = tuple(i for i, (level, b) in enumerate(simple) if W.inverts(w, level, b))
        assert W.right_descents(w) == expect, W.format(w)
        assert expect == tuple(i for i in range(rank + 1)
                               if W.length(W.rmul(w, i)) < W.length(w))
        assert W.right_descents(w) is W._descents[w]


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
        assert len(ard._levels) == 4


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

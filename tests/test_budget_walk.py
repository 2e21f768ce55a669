"""The budget-indexed curve-neighborhood walk and the per-budget ``Z(b)`` memo.

The walk is compared with the route it replaced (``filter_walk``), which
filters the moves of the whole degree at every step; ``neighborhood_by_search``
runs the walk, so this keeps that oracle checked.  The Hecke route never
walks: each budget's maxima ``Z(b)`` are computed once per ``(W, b)``, while
``neighborhood_by_search`` walks every time.
"""

import itertools
import math

import pytest

from filter_walk import filter_reachable
from qaff import neighborhoods
from qaff.neighborhoods import curve_neighborhood, neighborhood_by_search, z_components
from qaff.roots import affinize
from qaff.weyl import AffineWeylGroup, affine_weyl


def _degrees(nq):
    return [d for d in itertools.product(range(3), repeat=nq) if 0 < sum(d) <= 3]


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_budget_walk_matches_filter_walk(letter, rank):
    W = affine_weyl(letter, rank)
    # the start sets of test_cover_scan: the identity, and the identity with one simple reflection
    starts = [[W.identity]] + [[W.identity, W.simple(i)] for i in range(rank + 1)]
    for d in _degrees(rank + 1):
        for cells in starts:
            assert neighborhoods._reachable(W, cells, d) == filter_reachable(W, cells, d), d


@pytest.fixture
def walks(monkeypatch):
    """A fresh A3 group, so no memo entry from another test answers for it,
    and the list of ``(starts, d)`` that ``_reachable`` is called with."""
    calls = []
    real = neighborhoods._reachable

    def counting(W, starts, d):
        calls.append((list(starts), tuple(d)))
        return real(W, starts, d)

    monkeypatch.setattr(neighborhoods, "_reachable", counting)
    return AffineWeylGroup(affinize("A", 3)), calls


def _budgets_computed():
    return neighborhoods._z_budget.cache_info().misses


def test_z_d_is_walked_once_per_degree(walks):
    # the Hecke route computes each budget b <= d once and walks nothing
    W, calls = walks
    d = (1, 1, 1, 0)
    layers = W.enumerate_up_to(1)
    elts = layers[0] + layers[1]
    assert len(elts) == 5
    before = _budgets_computed()
    comps = [curve_neighborhood(W, u, d) for u in elts]
    assert _budgets_computed() - before == math.prod(x + 1 for x in d)
    # any sequence names the same degree, and every smaller budget is kept
    assert [curve_neighborhood(W, u, list(d)) for u in elts] == comps
    assert z_components(W, (1, 0, 1, 0)) == list(neighborhoods._z_budget(W, (1, 0, 1, 0)))
    assert _budgets_computed() - before == math.prod(x + 1 for x in d)
    assert calls == []


def test_z_components_returns_a_fresh_list(walks):
    W, calls = walks
    d = (0, 1, 2, 0)
    first = z_components(W, d)
    expect = list(first)
    first.clear()
    first.append(W.simple(1))
    computed = _budgets_computed()
    again = z_components(W, d)
    assert again == expect and again is not first
    assert _budgets_computed() == computed
    assert calls == []


def test_search_oracle_walks_every_time(walks):
    W, calls = walks
    u, d = W.simple(2), (1, 0, 1, 1)
    assert neighborhood_by_search(W, u, d) == neighborhood_by_search(W, u, d)
    assert len(calls) == 2

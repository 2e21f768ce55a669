"""``z_d`` by the Hecke recursion over budgets, against the walk it replaced.

``Z(b)`` is the max of ``{e}`` and of ``s_alpha . Z(b - alpha^vee)`` over every
root with ``alpha^vee <= b`` (``qaff.neighborhoods``).  It is compared with the
maxima of the budget walk ``_reachable`` from the identity, degree by degree;
``tests/test_neighborhoods.py`` compares ``curve_neighborhood`` with the
``neighborhood_by_search`` oracle.  The recursion meets far fewer elements
than the walk, which a count bounds.
"""

import itertools

import pytest

from qaff import neighborhoods
from qaff.neighborhoods import bruhat_maximal, z_components
from qaff.roots import affinize
from qaff.weyl import AffineWeylGroup, affine_weyl

# (letter, rank, largest entry of a degree): 478 degrees in all
WALKED = [("A", 1, 3), ("B", 2, 3), ("A", 2, 3), ("G", 2, 3),
          ("C", 2, 2), ("A", 3, 2), ("B", 3, 2), ("C", 3, 2)]


@pytest.mark.parametrize("letter,rank,top", WALKED)
def test_recursion_matches_the_walk(letter, rank, top):
    W = affine_weyl(letter, rank)
    for d in itertools.product(range(top + 1), repeat=rank + 1):
        walked = neighborhoods._reachable(W, [W.identity], d)
        assert z_components(W, d) == bruhat_maximal(W, walked), d


def test_one_element_set_is_its_own_maximum():
    W = affine_weyl("A", 2)
    s0 = W.simple(0)
    elts = {s0}
    out = bruhat_maximal(W, elts)
    assert out == [s0]
    out.append(W.identity)
    assert elts == {s0}


def test_recursion_interns_few_elements():
    # a fresh group, so no memo of another test answers for it; the walk interns 6,039
    W = AffineWeylGroup(affinize("A", 3))
    z_components(W, (4, 4, 4, 4))
    assert len(W.perm) < 3000

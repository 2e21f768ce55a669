"""The layered Monk lift against the divisor-monomial lift it replaced.

``QuantumAff`` lifts ``sigma_w`` one Chevalley step at a time
(``T_w = sum a lambda_bar_i L_{w'}``); ``divisor_lift.DivisorLift`` lifts it
through the whole divisor-monomial expression of ``sigma_w``.  Any operator
polynomial in the commuting ``lambda_bar`` with value ``sigma_w`` at 1 gives
the same product, so the two must agree entry for entry.  The Monk step
itself, ``(den, [(k, i, v)])`` with ``sum k sigma_i . sigma_v = den sigma_w``,
is checked on B3 through D4 and G2, and a count bounds its terms.
"""

import itertools
import random

import pytest

from combine_lift import CombineLift
from divisor_lift import DivisorLift
from qaff.bgg import finite_schubert
from qaff.quantum import quantum_aff

TABLE_TYPES = [("A", 2), ("B", 2), ("G", 2), ("A", 3)]


def _same_products(ring, pairs):
    oracle = DivisorLift(ring)
    bad = []
    for u, v in pairs:
        a, b = ring.basis(u), ring.basis(v)
        if ring.star(a, b) != oracle.star(a, b):
            bad.append((ring.FW.format(u), ring.FW.format(v)))
    return bad


@pytest.mark.parametrize("letter,rank", TABLE_TYPES, ids=[f"{t}{r}" for t, r in TABLE_TYPES])
def test_whole_table_matches_divisor_lift(letter, rank):
    ring = quantum_aff(letter, rank)
    pairs = list(itertools.combinations_with_replacement(ring.FW.elements, 2))
    assert _same_products(ring, pairs) == []


@pytest.mark.parametrize("letter", ["B", "C"])
def test_sampled_rank3_products_match_divisor_lift(letter):
    ring = quantum_aff(letter, 3)
    pairs = list(itertools.combinations_with_replacement(ring.FW.elements, 2))
    sample = random.Random(20261018).sample(pairs, 40)
    sample.append((ring.FW.w0, ring.FW.w0))
    assert _same_products(ring, sample) == []


def test_a4_w0_times_simples_matches_divisor_lift():
    ring = quantum_aff("A", 4)
    assert _same_products(ring, [(ring.FW.w0, s) for s in ring.FW.gens]) == []


@pytest.mark.parametrize("letter,rank", TABLE_TYPES, ids=[f"{t}{r}" for t, r in TABLE_TYPES])
def test_lift_expression_evaluates_to_the_basis_class(letter, rank):
    """The lift ``L_w`` of ``sigma_w`` applied to 1 gives ``sigma_w``.  The ring reads
    that off without computing it, so the step-by-step lift is what is checked."""
    ring = quantum_aff(letter, rank)
    oracle = CombineLift(ring)
    for w in ring.FW.elements:
        assert oracle.lift_apply_basis(w, ring.FW.identity) == ring.basis(w), ring.FW.format(w)


MONK_TYPES = [("B", 3), ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("letter,rank", MONK_TYPES, ids=[f"{t}{r}" for t, r in MONK_TYPES])
def test_chevalley_expression_is_one_classical_step(letter, rank):
    fs = quantum_aff(letter, rank).fs
    with pytest.raises(ValueError):
        fs.chevalley_expression(fs.W.identity)
    for w in fs.W.elements:
        if fs.W.length[w] == 0:
            continue
        den, expr = fs.chevalley_expression(w)
        assert den > 0 and all(type(k) is int and k for k, _, _ in expr)
        total = {}
        for k, i, v in expr:
            assert fs.W.length[v] == fs.W.length[w] - 1
            for u, c in fs.chevalley_cup(i, {v: 1}).items():
                total[u] = total.get(u, 0) + k * c
        assert {u: c for u, c in total.items() if c} == {w: den}, fs.W.format(w)


# Monk terms summed over every w other than e, with leftmost pivots over the columns
# in (v, i) order these were 177, 1,060, 1,060 and 496.
MONK_TERMS = {("A", 4): 159, ("B", 4): 787, ("C", 4): 787, ("D", 4): 381}


@pytest.mark.parametrize("letter,rank", list(MONK_TERMS), ids=[f"{t}{r}" for t, r in MONK_TERMS])
def test_monk_steps_stay_sparse(letter, rank):
    fs = finite_schubert(letter, rank)
    terms = sum(len(fs.chevalley_expression(w)[1]) for w in fs.W.elements if fs.W.length[w])
    assert terms <= MONK_TERMS[(letter, rank)]

"""The BGG work skipped because it cannot contribute, against the work it replaced.

* A Monk step with a column ``sigma_i . sigma_v = k sigma_w`` alone is read off the
  cover rows; it must equal the exact solve over the whole layer below ``w``,
  ``(den, terms)`` exactly, and the solve must run once per other step.
* A ``lambda_bar`` row skips every pi word longer than ``l(w)`` and walks a word
  with no letter 0 along the generator columns; it must equal the row built by
  applying every word with the public, checked ``pi_word``, entry for entry and
  in the same order.
"""

from math import lcm

import pytest

import qaff.bgg
from qaff.bgg import FiniteSchubert
from qaff.chevalley import enumerate_chevalley_roots
from qaff.polynomials import solve_exact
from qaff.quantum import QuantumAff
from qaff.roots import build_root_system
from qaff.weyl import affine_weyl

MONK_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
              ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2)]
ROW_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2),
             ("C", 3), ("D", 4), ("G", 2)]


def ids(types):
    return [f"{t}{r}" for t, r in types]


def layer_solve(fs, w, layers):
    """The Monk step by one exact solve over every column of the layer below w:
    columns meeting sigma_w first, then fewest nonzeros, ties in ``(v, i)`` order."""
    lw = fs.W.length[w]
    if lw not in layers:
        keys = [(i, v) for v in fs.W.by_length[lw - 1] for i in range(1, fs.n + 1)]
        layers[lw] = keys, [fs.chevalley_cup(i, {v: 1}) for i, v in keys]
    keys, cols = layers[lw]
    order = sorted(range(len(keys)), key=lambda k: (w not in cols[k], len(cols[k])))
    sol = solve_exact([cols[k] for k in order], {w: 1})
    den = lcm(*(a.denominator for a in sol))
    return den, [(a.numerator * (den // a.denominator), *keys[k])
                 for a, k in zip(sol, order) if a]


@pytest.mark.parametrize("letter,rank", MONK_TYPES, ids=ids(MONK_TYPES))
def test_read_off_monk_step_equals_the_layer_solve(letter, rank):
    fs = FiniteSchubert(build_root_system(letter, rank))
    layers = {}
    for w in fs.W.elements:
        if fs.W.length[w]:
            assert fs.chevalley_expression(w) == layer_solve(fs, w, layers), fs.W.format(w)


# the Monk steps with more than one term, the only ones that solve
SOLVES = {("A", 3): 3, ("D", 4): 62}


@pytest.mark.parametrize("letter,rank", list(SOLVES), ids=ids(SOLVES))
def test_solve_runs_once_per_multi_term_step(letter, rank, monkeypatch):
    calls = []

    def counted(cols, target):
        calls.append(len(cols))
        return solve_exact(cols, target)

    monkeypatch.setattr(qaff.bgg, "solve_exact", counted)
    fs = FiniteSchubert(build_root_system(letter, rank))
    steps = [fs.chevalley_expression(w) for w in fs.W.elements if fs.W.length[w]]
    assert len(calls) == sum(len(terms) > 1 for _, terms in steps) == SOLVES[(letter, rank)]


def every_word_row(ring, i, w):
    """The row of ``lambda_bar_i(sigma_w)`` with every pi word applied."""
    S = ring._shift
    acc = {u << S: c for u, c in ring.fs.chevalley_cup(i, {w: 1}).items()}
    for cr in enumerate_chevalley_roots(affine_weyl(ring.rs.letter, ring.rs.rank)):
        k = ring.ard.level_zero_weight_pairing(i, cr.coroot)
        if k:
            e = ring._keys[tuple(cr.coroot)]
            for u, c in ring.fs.pi_word(cr.word, {w: 1}).items():
                acc[u << S | e] = acc.get(u << S | e, 0) + k * c
    return [(key, c) for key, c in acc.items() if c]


@pytest.mark.parametrize("letter,rank", ROW_TYPES, ids=ids(ROW_TYPES))
def test_lambda_rows_equal_every_word_applied(letter, rank):
    ring = QuantumAff(letter, rank)
    for i in range(1, rank + 1):
        for w in ring.FW.elements:
            assert ring._lambda_basis(i, w) == every_word_row(ring, i, w), (i, ring.FW.format(w))

"""The BGG work skipped because it cannot contribute, against the work it replaced.

* A Monk step with a column ``sigma_i . sigma_v = k sigma_w`` alone is read off the
  cover rows; it must equal the exact solve over the whole layer below ``w``,
  ``(den, terms)`` exactly, and the solve must run once per other step.
* A ``lambda_bar`` row skips every pi word longer than ``l(w)`` and applies every
  other word through ``FiniteSchubert._pi_word``; it must equal, entry for entry,
  the row built on the polynomial route of ``bgg_oracle.PolynomialBGG``, which
  shares no code with ``_pi_letter``: the cup with ``sigma_{s_i}`` as a product of
  representatives, and every pi word applied letter by letter to ``rep(w)``,
  ``D_i`` as ``partial_i`` and ``D_0`` as ``-partial_theta``, then read in the
  Schubert basis.  Where that route is too slow for the long rows (A4, D4), every row
  is also checked against the finite part of the affine operator through ``e1*``.
"""

from fractions import Fraction
from math import lcm

import pytest
from bgg_oracle import PolynomialBGG

import qaff.bgg
from qaff.affine import AffineCoh
from qaff.bgg import FiniteSchubert
from qaff.chevalley import enumerate_chevalley_roots
from qaff.divisor_ring import e1_pullback
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


def letter_images(ring, oracle, top):
    """``pi(D_j) sigma_v`` for every affine letter ``j`` and every ``v`` of length at most
    ``top``, on the polynomial route: ``D_j`` is ``partial_j`` for ``j >= 1`` and
    ``-partial_theta`` for ``j = 0``, applied to ``rep(v)`` and read in the Schubert basis."""
    theta, images = ring.rs.theta, {}
    for v in ring.FW.elements:
        if ring.FW.length[v] <= top:
            f = oracle.rep(v)
            images[0, v] = oracle.expand_in_schubert(-oracle.divided_difference(theta, f))
            for j in range(1, ring.n + 1):
                images[j, v] = oracle.expand_in_schubert(oracle.dd_simple(j - 1, f))
    return images


def every_word_row(ring, oracle, images, i, w):
    """The row of ``lambda_bar_i(sigma_w)`` with every pi word applied, letter by letter,
    through the polynomial images of the letters."""
    S = ring._shift
    cup = oracle.cup_product({w: 1}, {ring.FW.gens[i - 1]: 1})
    acc = {u << S: c for u, c in cup.items()}
    for cr in enumerate_chevalley_roots(affine_weyl(ring.rs.letter, ring.rs.rank)):
        k = ring.ard.level_zero_weight_pairing(i, cr.coroot)
        if k:
            a = {w: 1}
            for j in reversed(cr.word):  # rightmost letter first
                out = {}
                for v, c in a.items():
                    for u, d in images[j, v].items():
                        out[u] = out.get(u, 0) + c * d
                a = {u: c for u, c in out.items() if c}
            e = ring._keys[tuple(cr.coroot)]
            for u, c in a.items():
                acc[u << S | e] = acc.get(u << S | e, 0) + k * c
    return {key: c for key, c in acc.items() if c}


# every element where the polynomial route is affordable (the ten types take about 8 s on
# one core), and the elements of length at most 3 in A4 and D4, whose letter images alone
# take 11 s and 37 s over every element; every row of those two is checked through e1*
ROW_TOPS = {("A", 4): 3, ("D", 4): 3}


@pytest.mark.parametrize("letter,rank", ROW_TYPES, ids=ids(ROW_TYPES))
def test_lambda_rows_equal_every_word_applied(letter, rank):
    ring = QuantumAff(letter, rank)
    top = ROW_TOPS.get((letter, rank), ring.FW.length[ring.FW.w0])
    oracle = PolynomialBGG(ring.fs)
    images = letter_images(ring, oracle, top)
    for i in range(1, rank + 1):
        for w in ring.FW.elements:
            if ring.FW.length[w] <= top:
                row = ring._lambda_basis(i, w)
                assert len({key for key, _ in row}) == len(row)
                assert dict(row) == every_word_row(ring, oracle, images, i, w), (
                    i, ring.FW.format(w))


@pytest.mark.parametrize("letter,rank", list(ROW_TOPS), ids=ids(ROW_TOPS))
def test_lambda_rows_equal_the_finite_part_through_e1(letter, rank):
    """Every row of ``lambda_bar_i``, at every length, against the affine operators:
    ``e1*`` is a ring map for cup and ``D_w e1* = e1* pi(D_w)``, so
    ``e1*(lambda_bar_i sigma_w) = (Lambda_i - m_i Lambda_0)(e1* sigma_w)``, and as the
    finite part (translation 0) of ``e1* sigma_w`` is ``sigma_w``, ``lambda_bar_i sigma_w``
    is the finite part of ``modified_lambda(i, e1* sigma_w)``.  The route shares no code
    with ``_pi_letter``; ``L = l(w0) + 2`` keeps every image inside the truncation."""
    ring = QuantumAff(letter, rank)
    FW, W = ring.FW, affine_weyl(letter, rank)
    calc = AffineCoh(W, L=FW.length[FW.w0] + 2)
    for w in FW.elements:
        up = e1_pullback(calc, {w: Fraction(1)})
        for i in range(1, rank + 1):
            img = calc.modified_lambda(i, up)
            finite = {FW.index[W.perm[x]]: c for x, c in img.terms.items() if not any(W.trans[x])}
            assert finite == ring.lambda_bar(i, ring.basis(w)).terms, (i, FW.format(w))

"""The sparse integer kernel against the dense Gauss-Jordan reference.

``solve_exact`` fixes its answer by the leftmost pivot columns with free
variables zero, and ``matrix_rank`` is intrinsic, so both must agree with
the dense route exactly: on seeded random systems and on the matrices the
package really builds.
"""

import random
from fractions import Fraction

import pytest

import dimension_oracle
import qaff.bgg
from dense_linalg import dense_rank, dense_solve, densify_columns
from dimension_oracle import matrix_rank, quotient_dimension
from qaff.bgg import FiniteSchubert
from qaff.polynomials import solve_exact
from qaff.roots import build_root_system
from qaff.toda import typeA_relations


def _entry(rng):
    v = rng.randint(-4, 4)
    return Fraction(v, rng.randint(1, 5)) if rng.random() < 0.4 else v


def _random_system(seed):
    """Sparse columns and target with dependent rows, zero columns and odd targets."""
    rng = random.Random(seed)
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.choice([0.2, 0.5, 0.9])
    rows = [[_entry(rng) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        if len(rows) >= 2:
            a, b = rng.sample(range(len(rows)), 2)
            s, t = _entry(rng), _entry(rng)
            rows.append([s * x + t * y for x, y in zip(rows[a], rows[b])])
    zero_col = rng.randrange(n) if n and rng.random() < 0.3 else None
    labels = rng.sample(range(100), len(rows))
    cols = [
        {labels[i]: row[j] for i, row in enumerate(rows) if row[j] and j != zero_col}
        for j in range(n)
    ]
    if rng.random() < 0.5 and n:
        x = [_entry(rng) for _ in range(n)]
        target = {labels[i]: sum(c * xj for c, xj in zip(row, x)) for i, row in enumerate(rows)}
    else:
        target = {labels[i]: _entry(rng) for i in range(len(rows)) if rng.random() < 0.6}
    if rng.random() < 0.2:
        target[1000] = 1  # a row no column reaches: inconsistent
    return cols, {u: v for u, v in target.items() if v}


@pytest.mark.parametrize("block", range(8))
def test_random_systems_match_dense(block):
    outcomes = set()
    for seed in range(block * 30, block * 30 + 30):
        cols, target = _random_system(seed)
        rows, rhs = densify_columns(cols, target)
        sol = solve_exact(cols, target)
        assert sol == dense_solve(rows, rhs), seed
        sparse_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert matrix_rank(sparse_rows) == dense_rank(rows), seed
        assert matrix_rank(cols) == dense_rank(rows), seed
        outcomes.add(sol is None)
    assert outcomes == {True, False}


def _recording(monkeypatch, module, name, dense):
    """Wrap ``module.name`` so that every call is checked against ``dense``."""
    sparse = getattr(module, name)
    seen = []

    def checked(*args):
        out = sparse(*args)
        assert out == dense(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(module, name, checked)
    return seen


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_every_divisor_solve_matches_dense(monkeypatch, letter, rank):
    seen = _recording(monkeypatch, qaff.bgg, "solve_exact",
                      lambda cols, target: dense_solve(*densify_columns(cols, target)))
    fs = FiniteSchubert(build_root_system(letter, rank))
    for w in fs.W.elements:
        fs.express_in_divisors(w)
    assert len(seen) == len(fs.W.elements) and None not in seen


@pytest.mark.parametrize("n,dmax", [(2, 2), (3, 4), (4, 6)])
def test_quotient_dimension_ranks_match_dense(monkeypatch, n, dmax):
    def dense(rows):
        rows = list(rows)
        keys = sorted({k for row in rows for k in row})
        return dense_rank([[row.get(k, 0) for k in keys] for row in rows]) if keys else 0

    seen = _recording(monkeypatch, dimension_oracle, "matrix_rank", dense)
    rels = typeA_relations(n)
    for d in range(dmax + 1):
        quotient_dimension(rels, d)
    assert len(seen) == dmax + 1

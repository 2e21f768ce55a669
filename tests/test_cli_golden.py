"""Golden CLI transcript: stdout and exit code of cheap calls, byte for byte.

Each call in ``data/cli_golden.json`` was recorded before the change it
guards: the first 15 before the nil-Hecke ``theta_matrix`` replaced the
polynomial one, the next 8 before both rings moved onto one module class, and
the next 2 (the whole A3 table and the B2 relations) before ``Poly`` moved to
integer coefficients and sums of classes to one integer table, the next
2 (``w0 * s1`` on D4 and B4, with ``w0`` as its printed reduced word) before
the lift moved from divisor-monomial expressions to one classical Chevalley
step per element, the next 16 (``curve-nbhd`` in every output form,
``gw``, ``chevalley-roots`` and ``lambda --modified``) before the affine
cover scan moved to a short-reflection table and per-element cover rows, and
the next 4 (``relations`` on A5 and A6, ``present`` on A4 and A5) before the
type-A Toda integrals moved from the Lax determinant to the continuant of the
periodic chain, the next 2 (``w0 * w0`` on D4 and C4, with ``w0`` as its
printed reduced word) before the Monk step moved to its sparsest columns and
the lift to one accumulation loop, the next 3 (``relations --verify`` on
A6, ``present`` on G2 and ``verify`` of the B2 Toda and quadratic relations)
before Phi moved from one image per lambda_bar word to Horner's rule, the
next 3 (``product`` on F4 and A5, ``curve-nbhd`` on A3 at degree ``5,5,5,5``)
before single-column Monk steps were read off the cover rows, long pi words
were skipped in the lambda_bar rows and the Hecke products of ``Z(d)`` were
memoized, and the last 2 (``table`` on G2 and C3, whose Monk steps divide by
``den > 1``, which A3's never do) before the lift memos were keyed by ``int``
and the coefficient 1 of ``basis`` became one shared ``Poly``.  The three
``--format dot`` calls were recorded again when the slice's edges came to follow the root-table index instead of a hash set's
order; each kept the same lines, in a new order.  So it pins the rule that a speed-up or refactor
leaves CLI output unchanged.
After a change that is meant to alter output, record it again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qaff.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

CALLS = [
    ["product", "--type", "A2", "--u", "s1s2", "--v", "s2s1"],
    ["product", "--type", "A2", "--u", "s1s2", "--v", "s2s1", "--format", "json"],
    ["product", "--type", "A3", "--u", "s1s2s3", "--v", "s3s2s1"],
    ["product", "--type", "A3", "--u", "s1s2s3", "--v", "s3s2s1", "--format", "json"],
    ["product", "--type", "B3", "--u", "s1s2s3", "--v", "s3s2"],
    ["product", "--type", "B3", "--u", "s1s2s3", "--v", "s3s2", "--format", "json"],
    ["product", "--type", "C3", "--u", "s2s3", "--v", "s1s2"],
    ["product", "--type", "C3", "--u", "s2s3", "--v", "s1s2", "--format", "json"],
    ["product", "--type", "G2", "--u", "s1s2", "--v", "s2s1"],
    ["product", "--type", "G2", "--u", "s1s2", "--v", "s2s1", "--format", "json"],
    ["product", "--type", "A2", "--u", "s9", "--v", "e"],
    ["table", "--type", "B2", "--format", "csv"],
    ["lambda", "--type", "A2", "--i", "0", "--w", "s1s2"],
    ["relations", "--type", "A2"],
    ["present", "--type", "A2"],
    ["lambda", "--type", "A2", "--i", "0", "--w", "s1s2", "--format", "json"],
    ["lambda", "--type", "A2", "--i", "1", "--w", "s0s1", "--modified"],
    ["lambda", "--type", "A2", "--i", "0", "--w", "s0s1s2s1s0s2", "--trunc", "6"],
    ["qsharp", "--type", "A1", "--u", "s0", "--v", "s1"],
    ["qsharp", "--type", "A2", "--u", "s0", "--v", "s1", "--format", "json"],
    ["product", "--type", "A2", "--u", "s1", "--v", "s1s2", "--format", "latex"],
    ["table", "--type", "A2", "--format", "json"],
    ["table", "--type", "A2", "--format", "latex"],
    ["table", "--type", "A3", "--format", "json"],
    ["relations", "--type", "B2"],
    ["product", "--type", "D4", "--u", "s1s2s1s3s2s1s4s2s1s3s2s4", "--v", "s1"],
    ["product", "--type", "B4", "--u", "s1s2s1s3s2s1s4s3s2s1s4s3s2s4s3s4", "--v", "s1"],
    ["curve-nbhd", "--type", "A2", "--u", "s0", "--d", "1,1,1"],
    ["curve-nbhd", "--type", "A2", "--u", "s0s1", "--d", "1,1,1", "--format", "json"],
    ["curve-nbhd", "--type", "A2", "--u", "s0", "--d", "1,1,1", "--format", "dot", "--graph-l", "3"],
    ["curve-nbhd", "--type", "A2", "--u", "s1s2", "--d", "2,1,1", "--check-oracle"],
    ["curve-nbhd", "--type", "A2", "--u", "s0s1s2", "--d", "2,2,2", "--check-oracle"],
    ["curve-nbhd", "--type", "A3", "--u", "s0", "--d", "1,1,1,1"],
    ["curve-nbhd", "--type", "A3", "--u", "s0s2", "--d", "1,1,0,1", "--format", "json"],
    ["curve-nbhd", "--type", "A3", "--u", "s1", "--d", "1,1,1,1", "--format", "dot", "--graph-l", "3"],
    ["curve-nbhd", "--type", "A3", "--u", "e", "--d", "1,1,1,1", "--format", "dot", "--graph-l", "4"],
    ["curve-nbhd", "--type", "A3", "--u", "s0s1", "--d", "1,1,1,1", "--check-oracle"],
    ["curve-nbhd", "--type", "G2", "--u", "s0", "--d", "1,1,1"],
    ["gw", "--type", "A2", "--i", "1", "--u", "s0s1s0", "--w", "e", "--d", "1,1,0"],
    ["gw", "--type", "A2", "--i", "1", "--u", "s0s1s0", "--w", "s1s0", "--d", "0,1,0", "--format", "json"],
    ["chevalley-roots", "--type", "A3", "--format", "csv"],
    ["chevalley-roots", "--type", "G2", "--format", "csv"],
    ["lambda", "--type", "A3", "--i", "2", "--w", "s0s1s2", "--modified"],
    ["relations", "--type", "A6"],
    ["relations", "--type", "A5", "--verify"],
    ["present", "--type", "A4", "--format", "latex"],
    ["present", "--type", "A5"],
    ["product", "--type", "D4", "--u", "s1s2s1s3s2s1s4s2s1s3s2s4",
     "--v", "s1s2s1s3s2s1s4s2s1s3s2s4"],
    ["product", "--type", "C4", "--u", "s1s2s1s3s2s1s4s3s2s1s4s3s2s4s3s4",
     "--v", "s1s2s1s3s2s1s4s3s2s1s4s3s2s4s3s4"],
    ["relations", "--type", "A6", "--verify"],
    ["present", "--type", "G2"],
    ["verify", "--type", "B2", "--suite", "toda", "--suite", "quadratic"],
    ["product", "--type", "F4", "--u", "s1s2s3s4", "--v", "s4s3s2s1"],
    ["product", "--type", "A5", "--u", "s1s2s3s4s5s1s2s3s4", "--v", "s5s4s3s2s1"],
    ["curve-nbhd", "--type", "A3", "--u", "e", "--d", "5,5,5,5"],
    ["table", "--type", "G2", "--format", "json"],
    ["table", "--type", "C3", "--format", "csv"],
]


def run_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_call(golden):
    assert [entry["argv"] for entry in golden] == CALLS


@pytest.mark.parametrize("k", range(len(CALLS)), ids=[" ".join(c) for c in CALLS])
def test_cli_output_matches_golden(golden, k):
    assert run_call(CALLS[k]) == golden[k]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps([run_call(argv) for argv in CALLS], indent=1) + "\n", encoding="utf-8"
    )

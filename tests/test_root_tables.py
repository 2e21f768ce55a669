"""Root tables and root-permutation Weyl elements against the routes they replace.

The oracle below is the former matrix representation: every finite Weyl
element carries its integer matrices on the root lattice and on the coroot
lattice, plus both inverses, built from reflection matrices and multiplied
with ``_matmul``.  It reads only the Cartan matrix and the symmetrizers, and
computes coroots from the formula ``(2/(beta|beta)) beta``, so it shares no
table with the code under test.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from boundary_forms import coroot, element, inv_coroot, inverse, root

import qaff
from qaff.roots import AffineRoot, affinize, build_root_system, parse_lie_type
from qaff.weyl import FiniteWeyl, affine_weyl, finite_reflection, finite_weyl, weyl_order

ORACLE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
]


def _accepted(letter, rank):
    try:
        parse_lie_type(f"{letter}{rank}")
    except ValueError:
        return False
    return True


# every type the parser accepts up to rank 9, the range the README lists
ALL_TYPES = [(l, r) for l in "ABCDEFG" for r in range(1, 10) if _accepted(l, r)]


# -- the matrix oracle ----------------------------------------------------------

Matrix = tuple[tuple[int, ...], ...]


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _matvec(a: Matrix, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def formula_d_root(rs, beta) -> Fraction:
    """``(beta|beta)/2`` with ``(alpha_i|alpha_j) = d_i * cartan[i][j]``."""
    n = rs.rank
    return sum(
        (rs.d[i] * beta[i] * sum(rs.cartan[i][j] * beta[j] for j in range(n))
         for i in range(n) if beta[i]),
        Fraction(0),
    ) / 2


def formula_coroot(rs, beta):
    db = formula_d_root(rs, beta)
    out = [Fraction(b) * rs.d[j] / db for j, b in enumerate(beta)]
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


def formula_pairing(rs, beta, coroot) -> int:
    """``<beta, gamma^vee>`` straight from the Cartan matrix."""
    return sum(
        g * b * rs.cartan[i][j] for i, g in enumerate(coroot) for j, b in enumerate(beta)
    )


class MatW:
    """Oracle element: root matrix, coroot matrix and both inverses."""

    def __init__(self, mat, comat, inv_mat, inv_comat):
        self.mat, self.comat, self.inv_mat, self.inv_comat = mat, comat, inv_mat, inv_comat

    def __mul__(self, other):
        return MatW(
            _matmul(self.mat, other.mat),
            _matmul(self.comat, other.comat),
            _matmul(other.inv_mat, self.inv_mat),
            _matmul(other.inv_comat, self.inv_comat),
        )

    def inv(self):
        return MatW(self.inv_mat, self.inv_comat, self.mat, self.comat)


def oracle_identity(n: int) -> MatW:
    e = _identity_matrix(n)
    return MatW(e, e, e, e)


def oracle_reflection(rs, beta) -> MatW:
    n = rs.rank
    bco = formula_coroot(rs, beta)
    unit = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    pair_root = [formula_pairing(rs, unit[j], bco) for j in range(n)]
    pair_co = [formula_pairing(rs, beta, unit[j]) for j in range(n)]
    mat = tuple(
        tuple((1 if r == j else 0) - pair_root[j] * beta[r] for j in range(n))
        for r in range(n)
    )
    comat = tuple(
        tuple((1 if r == j else 0) - pair_co[j] * bco[r] for j in range(n))
        for r in range(n)
    )
    return MatW(mat, comat, mat, comat)


def oracle_affine_simple(rs, i: int):
    """``(v, t)`` of the affine simple reflection s_i; s_0 = s_{delta - theta}."""
    if i == 0:
        neg_theta = tuple(-x for x in rs.theta)
        return oracle_reflection(rs, neg_theta), formula_coroot(rs, neg_theta)
    return oracle_reflection(rs, rs.simple_root(i)), (0,) * rs.rank


def oracle_multiply(a, b):
    (va, ta), (vb, tb) = a, b
    lam = tuple(x + y for x, y in zip(_matvec(vb.inv_comat, ta), tb))
    return va * vb, lam


def oracle_length(rs, a) -> int:
    v, t = a
    total = 0
    for beta in rs.positive_roots:
        p = formula_pairing(rs, beta, t)
        vneg = sum(_matvec(v.mat, beta)) < 0
        total += p + vneg if p >= 0 else -p - vneg
    return total


def matrix_of(act, n: int) -> Matrix:
    """The matrix of a linear action; its columns are the images of the unit vectors."""
    cols = [act(tuple(1 if k == j else 0 for k in range(n))) for j in range(n)]
    return tuple(zip(*cols))


def root_matrix(table, w) -> Matrix:
    return matrix_of(lambda v: root(table, w, v), len(table.simple))


def coroot_matrix(table, w) -> Matrix:
    return matrix_of(lambda v: coroot(table, w, v), len(table.simple))


def _words(rng, letters, count, max_len):
    return [[rng.choice(letters) for _ in range(rng.randint(0, max_len))] for _ in range(count)]


# -- root tables against the formula --------------------------------------------


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_table_matches_coroot_formula(letter, rank):
    rs = build_root_system(letter, rank)
    table = rs.table
    npos = rs.num_positive
    assert table.roots[:npos] == rs.positive_roots
    assert rs.all_roots() == table.roots
    for i, beta in enumerate(table.roots):
        assert table.index[beta] == i
        assert table.roots[(i + npos) % (2 * npos)] == tuple(-x for x in beta)
        db = formula_d_root(rs, beta)
        assert table.coroots[i] == rs.coroot(beta) == formula_coroot(rs, beta)
        assert table.d_roots[i] == db
        assert table.inv_d[i] * db == 1
        assert table.pairings[i] == tuple(
            formula_pairing(rs, beta, rs.simple_root(k + 1)) for k in range(rank)
        )


def test_all_types_cover_readme_range():
    assert len(ALL_TYPES) == 37  # A1-A9, B2-B9, C2-C9, D3-D9, E6-E8, F4, G2
    assert ("E", 8) in ALL_TYPES


def test_non_roots_are_rejected():
    rs = build_root_system("A", 2)
    for bad in ((0, 0), (2, 0), (1, -1)):
        with pytest.raises(ValueError, match="is not a root"):
            rs.coroot(bad)
        with pytest.raises(ValueError, match="is not a root"):
            finite_reflection(rs, bad)
    with pytest.raises(ValueError, match="is not a root"):
        affinize("A", 2).coroot(AffineRoot(1, (2, 0)))


@pytest.mark.parametrize("letter,rank", [("B", 3), ("G", 2), ("F", 4), ("C", 3)])
def test_affine_coroot_is_integer_formula(letter, rank):
    ard = affinize(letter, rank)
    rs = ard.rs
    for k in range(-3, 4):
        for beta in rs.all_roots():
            ratio = Fraction(k) / formula_d_root(rs, beta)
            assert ratio.denominator == 1
            r = int(ratio)
            expected = (r,) + tuple(
                r * m + f for m, f in zip(rs.theta_coroot, formula_coroot(rs, beta))
            )
            assert ard.coroot(AffineRoot(k, beta)) == expected


# -- finite Weyl elements against the matrix oracle -------------------------------


@pytest.mark.parametrize("letter,rank", ORACLE_TYPES)
def test_reflections_match_oracle(letter, rank):
    rs = build_root_system(letter, rank)
    for beta in rs.all_roots():
        s = finite_reflection(rs, beta)
        o = oracle_reflection(rs, beta)
        assert root_matrix(rs.table, s) == o.mat
        assert coroot_matrix(rs.table, s) == o.comat


@pytest.mark.parametrize("letter,rank", ORACLE_TYPES)
def test_finite_products_actions_inverses_match_oracle(letter, rank):
    rs = build_root_system(letter, rank)
    table = rs.table
    fw = finite_weyl(letter, rank)
    rng = random.Random(f"finite/{letter}{rank}")
    gens = [oracle_reflection(rs, rs.simple_root(i + 1)) for i in range(rank)]

    def both(word):
        w, o = fw.identity, oracle_identity(rank)
        for i in word:
            w, o = fw.mul(w, fw.gens[i]), o * gens[i]
        return fw.element(w), o

    words = _words(rng, range(rank), 24, 2 * rs.num_positive)
    for wa, wb in zip(words, reversed(words)):
        (a, oa), (b, ob) = both(wa), both(wb)
        prod, oprod = a * b, oa * ob
        assert root_matrix(table, prod) == oprod.mat
        assert coroot_matrix(table, prod) == oprod.comat
        ainv = inverse(a)
        assert root_matrix(table, ainv) == oa.inv_mat
        assert coroot_matrix(table, ainv) == oa.inv_comat
        assert matrix_of(lambda v: inv_coroot(table, a, v), rank) == oa.inv_comat
        assert a * ainv == ainv * a == fw.element(fw.identity)
        for _ in range(4):
            x = tuple(rng.randint(-5, 5) for _ in range(rank))
            assert root(table, a, x) == _matvec(oa.mat, x)
            assert coroot(table, a, x) == _matvec(oa.comat, x)
            assert inv_coroot(table, a, x) == _matvec(oa.inv_comat, x)
        for beta in rs.positive_roots:
            assert root(table, a, beta) == table.roots[a.perm[table.index[beta]]]


@pytest.mark.parametrize("letter,rank", ORACLE_TYPES)
def test_affine_multiply_and_length_match_oracle(letter, rank):
    rs = build_root_system(letter, rank)
    W = affine_weyl(letter, rank)
    rng = random.Random(f"affine/{letter}{rank}")
    simples = [oracle_affine_simple(rs, i) for i in range(rank + 1)]

    def both(word):
        w, o = W.identity, (oracle_identity(rank), (0,) * rank)
        for i in word:
            w, o = W.multiply(w, W.simple(i)), oracle_multiply(o, simples[i])
        return w, o

    def same(w, o):
        x = element(W, w)
        return (root_matrix(rs.table, x.v) == o[0].mat
                and coroot_matrix(rs.table, x.v) == o[0].comat and x.t == o[1])

    words = _words(rng, range(rank + 1), 16, 12)
    for wa, wb in zip(words, reversed(words)):
        (a, oa), (b, ob) = both(wa), both(wb)
        assert same(a, oa)
        assert W.length(a) == oracle_length(rs, oa)
        prod = W.multiply(a, b)
        oprod = oracle_multiply(oa, ob)
        assert same(prod, oprod)
        assert W.length(prod) == oracle_length(rs, oprod)


def test_affine_reflection_matches_oracle():
    for letter, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = build_root_system(letter, rank)
        W = affine_weyl(letter, rank)
        for k in range(-2, 3):
            for beta in rs.all_roots():
                r = W.reflection(AffineRoot(k, beta))
                e = element(W, r)
                assert root_matrix(rs.table, e.v) == oracle_reflection(rs, beta).mat
                assert e.t == tuple(k * x for x in formula_coroot(rs, beta))
                assert W.multiply(r, r) == W.identity


# -- robustness ----------------------------------------------------------------------


def test_no_asserts_in_root_and_weyl_modules():
    # covers every module of the package, whose invariant checks guard results
    names = [info.name for info in pkgutil.iter_modules(qaff.__path__)]
    assert "roots" in names and "weyl" in names
    for name in names:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"qaff.{name}")))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], name


def _pytest_under_python_O(*files):
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=repo, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout


def test_root_and_weyl_tests_pass_under_python_O():
    _pytest_under_python_O(
        "tests/test_roots.py", "tests/test_weyl.py", "tests/test_bgg.py",
        "tests/test_quantum.py", "tests/test_affine.py", "tests/test_chevalley.py",
        "tests/test_toda.py")


def test_lift_kernel_tests_pass_under_python_O():
    # the packing range check and "lift correction grew" are raises, not asserts
    _pytest_under_python_O("tests/test_packed_lift.py")


def test_e6_enumeration_within_budget():
    # the construction finite_weyl("E", 6) caches, built here uncached so the
    # 51840 elements are freed after the test
    start = time.perf_counter()
    fw = FiniteWeyl(build_root_system("E", 6))
    elapsed = time.perf_counter() - start
    assert len(fw) == weyl_order("E", 6) == 51840
    assert fw.length[fw.w0] == 36
    assert len(fw.by_length) == 37
    assert elapsed < 20, f"E6 enumeration took {elapsed:.1f}s (budget 20s)"

"""Every reader of an operator or weight index refuses a bad one through its range's
owner, ``RootSystem.finite_index`` (``1..n``) or ``AffineRootData.affine_index``
(``0..n``), with the owner's message and before it memoizes anything.

The bad values are the index just outside each end of the range, a bool and a
float.  ``0`` (or ``-1``) is the case that matters: a reader that indexes a
0-based table with ``i - 1`` (or a tuple with ``i``) without a check reads the
entry of ``n`` instead, and answers as if it had been asked about ``n``.
"""

import pytest

from qaff.affine import AffineCoh
from qaff.bgg import FiniteSchubert
from qaff.neighborhoods import gw_invariant
from qaff.quantum import OrdinaryQH, QuantumAff
from qaff.roots import AffineRootData, build_root_system
from qaff.verify import lambda_op_by_words
from qaff.weyl import AffineWeylGroup

RANK = 2  # every reader below runs on A2
BAD = {"finite": [0, RANK + 1, True, 1.0], "affine": [-1, RANK + 1, True, 1.0]}
MESSAGE = {"finite": "finite index {!r} is not in 1..2", "affine": "affine index {!r} is not in 0..2"}


def fresh_datum():
    return AffineRootData(build_root_system("A", RANK))


def fresh_affine():
    return AffineCoh(AffineWeylGroup(fresh_datum()))


def fresh_quantum():
    return QuantumAff("A", RANK)


def fresh_ordinary():
    return OrdinaryQH("A", RANK)


def fresh_schubert():
    return FiniteSchubert(build_root_system("A", RANK))


def fresh_group():
    return AffineWeylGroup(fresh_datum())


# name -> (range, a fresh object, the call on it with index i)
READERS = {
    # the readers that had a hand-written check of their own
    "AffineCoh.chevalley": ("affine", fresh_affine, lambda H, i: H.chevalley(i, H.basis(1))),
    "AffineCoh.lambda_op": ("affine", fresh_affine, lambda H, i: H.lambda_op(i, H.basis(1))),
    "AffineCoh.lambda_op_by_words": (
        "affine", fresh_affine, lambda H, i: lambda_op_by_words(H, i, H.basis(1))),
    "AffineCoh.modified_lambda": (
        "finite", fresh_affine, lambda H, i: H.modified_lambda(i, H.basis(1))),
    "AffineCoh.divisor_pullback": (
        "finite", fresh_affine, lambda H, i: H.divisor_pullback(i, H.basis(1))),
    "QuantumAff.lambda_bar": ("finite", fresh_quantum, lambda R, i: R.lambda_bar(i, R.basis(1))),
    "gw_invariant": ("affine", fresh_group,
                     lambda W, i: gw_invariant(W, i, W.simple(0), W.identity, (1, 0, 0))),
    "AffineRootData.level_zero_weight_pairing": (
        "finite", fresh_datum, lambda ard, i: ard.level_zero_weight_pairing(i, (1, 2, 3))),
    # the readers that checked nothing: each answered for n when asked about 0 or -1
    "OrdinaryQH.chevalley_classical": (
        "finite", fresh_ordinary, lambda R, i: R.chevalley_classical(i, R.basis(1))),
    "OrdinaryQH.chevalley": ("finite", fresh_ordinary, lambda R, i: R.chevalley(i, R.basis(1))),
    "QuantumAff.basis_simple": ("finite", fresh_quantum, lambda R, i: R.basis_simple(i)),
    "FiniteSchubert.chevalley_cup": (
        "finite", fresh_schubert, lambda fs, i: fs.chevalley_cup(i, {0: 1})),
    "AffineRootData.weight_pairing": (
        "affine", fresh_datum, lambda ard, i: ard.weight_pairing(i, (1, 2, 3))),
    "AffineCoh.D_word": ("affine", fresh_affine, lambda H, i: H.D_word((i,), H.basis(1))),
    # the letters of the affine group: -1 read as n, True as 1, and n + 1 an IndexError
    "AffineWeylGroup.simple": ("affine", fresh_group, lambda W, i: W.simple(i)),
    "AffineWeylGroup.from_word": ("affine", fresh_group, lambda W, i: W.from_word([i])),
    # the letters of the pi map: -1 read as n, and n + 1 an IndexError
    "FiniteSchubert.pi_word": ("affine", fresh_schubert, lambda fs, i: fs.pi_word((i,), {fs.w0: 1})),
    "FiniteSchubert.pi_word-second-letter": (
        "affine", fresh_schubert, lambda fs, i: fs.pi_word((1, i), {fs.w0: 1})),
    # 0 read as n and -1 as 1, n + 1 an IndexError, and True the memo of 1
    "FiniteSchubert.monomial_class": ("finite", fresh_schubert, lambda fs, i: fs.monomial_class((i,))),
}


def memo_sizes(obj) -> list:
    """The size of every dict, list and set held by ``obj`` and by the group,
    Schubert calculator or datum it holds: a memo fill grows one of them."""
    parts = [obj] + [getattr(obj, name) for name in ("W", "FW", "fs", "ard") if name in vars(obj)]
    return [{k: len(v) for k, v in vars(p).items() if isinstance(v, (dict, list, set))}
            for p in parts]


CASES = [(name, bad) for name, (kind, _, _) in READERS.items() for bad in BAD[kind]]


@pytest.mark.parametrize("name,bad", CASES, ids=[f"{n}-{b!r}" for n, b in CASES])
def test_reader_refuses_through_its_owner(name, bad):
    kind, make, call = READERS[name]
    obj = make()
    before = memo_sizes(obj)
    with pytest.raises(ValueError) as exc:
        call(obj, bad)
    assert str(exc.value) == MESSAGE[kind].format(bad)
    assert memo_sizes(obj) == before


@pytest.mark.parametrize("name", READERS)
def test_reader_accepts_the_whole_range(name):
    kind, make, call = READERS[name]
    obj = make()
    for i in range(1 if kind == "finite" else 0, RANK + 1):
        call(obj, i)


def test_owners_return_the_index():
    ard = fresh_datum()
    assert [ard.affine_index(i) for i in range(RANK + 1)] == [0, 1, 2]
    assert [ard.rs.finite_index(i) for i in range(1, RANK + 1)] == [1, 2]



# name -> the call on a fresh FiniteSchubert with one element id w
ID_READERS = {
    "FiniteSchubert.chevalley_cup": lambda fs, w: fs.chevalley_cup(1, {w: 1}),
    "FiniteSchubert.pi_word": lambda fs, w: fs.pi_word((1,), {w: 1}),
    "FiniteSchubert.pi_word-letter-0": lambda fs, w: fs.pi_word((0,), {fs.w0: 1, w: 1}),
    # -1 once answered w0's row doubled and kept it, 6 was an IndexError, True a key
    "FiniteSchubert.theta_matrix": lambda fs, w: fs.theta_matrix([w]),
    "FiniteSchubert.theta_matrix-after-a-good-id": lambda fs, w: fs.theta_matrix([fs.w0, w]),
    # -1 raised StopIteration and 6 IndexError; True answered for id 1 and kept it.
    # The identity has no Monk step, so it is skipped on the good ids.
    "FiniteSchubert.chevalley_expression":
        lambda fs, w: fs.chevalley_expression(w) if w != fs.W.identity else None,
    # -1 was an internal AssertionError, and True answered for id 1
    "FiniteSchubert.express_in_divisors": lambda fs, w: fs.express_in_divisors(w),
}
BAD_IDS = [-1, 6, True, 1.0]  # |W(A2)| = 6; -1 read as w0 before the check


@pytest.mark.parametrize("name", ID_READERS)
def test_schubert_readers_refuse_an_element_id_through_its_owner(name):
    for bad in BAD_IDS:
        fs = fresh_schubert()
        before = memo_sizes(fs)
        with pytest.raises(ValueError) as exc:
            ID_READERS[name](fs, bad)
        assert str(exc.value) == f"{bad!r} is not an element id of A2: ids run 0..5"
        assert memo_sizes(fs) == before
    fs = fresh_schubert()
    for w in fs.W.elements:
        ID_READERS[name](fs, w)

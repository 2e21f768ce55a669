"""A class holds its ring, and the ring alone decides whether a class is its own.

Every operator asks its ring (``QModule.check_classes``) before it reads a class:
a class of a ring on another group, even a second group of the same type, or
with another number of q-variables is refused with one message, and nothing is
memoized.  ``+`` and ``-`` ask the same question of the two rings.  A ring on
the same group with the same ``nq`` is the same module, whichever object made
it, so its classes are accepted.  An affine operator reads a class's ids once,
and its guard refuses a foreign class, then an unmade id, then support past the
truncation, keeping no memo.
"""

import re

import pytest

from qaff.affine import AffineCoh, TruncationOverflow, affine_coh
from qaff.divisor_ring import (
    divisor_monomial_class,
    e1_pullback,
    express_in_divisor_monomials,
    qsharp_product,
    reduce_mod_qc,
)
from qaff.polynomials import Poly, QClass
from qaff.quantum import OrdinaryQH, RowClass, quantum_aff
from qaff.roots import affinize
from qaff.verify import lambda_op_by_words
from qaff.weyl import AffineWeylGroup, affine_weyl

FOREIGN = "a class on {} in {} q-variables is not a class of this ring, on {} in {}"


def refused(message, call, *args):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert str(exc.value) == message


# -- the affine ring: a second group of the same type --------------------------------


@pytest.fixture
def pair():
    """``affine_coh("A", 2)`` and a calculator on a second affine A2 group, each with
    ``sigma_{s0}`` of its own."""
    shared = affine_coh("A", 2)
    fresh = AffineCoh(AffineWeylGroup(affinize("A", 2)))
    return [(H, H.basis(H.W.parse("s0"))) for H in (shared, fresh)]


AFFINE_OPERATORS = {
    "lambda_op": lambda H, a: H.lambda_op(1, a),
    "modified_lambda": lambda H, a: H.modified_lambda(1, a),
    "chevalley": lambda H, a: H.chevalley(1, a),
    "divisor_pullback": lambda H, a: H.divisor_pullback(1, a),
    "D_word": lambda H, a: H.D_word((0,), a),
    "express_in_divisor_monomials": express_in_divisor_monomials,
    "qsharp_product-left": lambda H, a: qsharp_product(H, a, H.unit()),
    "qsharp_product-right": lambda H, a: qsharp_product(H, H.unit(), a),
    "reduce_mod_qc": reduce_mod_qc,
    "lambda_op_by_words": lambda H, a: lambda_op_by_words(H, 1, a),
}


@pytest.mark.parametrize("name", AFFINE_OPERATORS)
def test_affine_rings_on_two_groups_refuse_each_others_classes(pair, name):
    call = AFFINE_OPERATORS[name]
    for (H, _), (_, a) in (pair, pair[::-1]):
        rows = len(H._rows)
        refused(FOREIGN.format("another affine A2", 3, "affine A2", 3), call, H, a)
        assert len(H._rows) == rows
    for H, a in pair:  # and each answers on its own class
        call(H, a)


def test_lambda_op_refuses_a_second_groups_class_it_used_to_misread(pair):
    (shared, _), (fresh, _) = pair
    a = fresh.basis(fresh.W.parse("s1s0"))
    with pytest.raises(ValueError):
        shared.lambda_op(1, a)
    assert fresh.format_class(fresh.lambda_op(1, a)) == "1*e[s0s1s0] + 1*e[s2s1s0]"


def test_format_class_refuses_a_second_groups_class_it_used_to_misname():
    # two fresh A2 groups that interned their elements in different orders, so an id
    # names another element in each
    first = AffineCoh(AffineWeylGroup(affinize("A", 2)))
    for word in ("s2s1s0", "s0s2"):
        first.W.parse(word)
    second = AffineCoh(AffineWeylGroup(affinize("A", 2)))
    a = second.basis(second.W.parse("s1s0"))
    refused(FOREIGN.format("another affine A2", 3, "affine A2", 3), first.format_class, a)
    assert second.format_class(a) == "1*e[s1s0]"


def test_sum_and_difference_refuse_a_class_of_another_group(pair):
    (_, a), (_, b) = pair
    message = FOREIGN.format("another affine A2", 3, "affine A2", 3)
    refused(message, a.__add__, b)
    refused(message, a.__sub__, b)


def test_rings_on_one_group_share_their_classes():
    shared = affine_coh("A", 2)
    other = AffineCoh(affine_weyl("A", 2), L=4)
    a = other.basis(other.W.parse("s1s0"))
    got = shared.lambda_op(1, a)
    assert got.ring is shared and got == other.lambda_op(1, a)
    assert (a + shared.unit()).ring is other


# -- the affine guard: ids read once, refusals in order -----------------------------


# the operators of the ring itself
RING_OPERATORS = ["lambda_op", "modified_lambda", "chevalley", "divisor_pullback", "D_word"]


def test_an_affine_operator_reads_a_classs_ids_once(monkeypatch):
    # the ids check_classes returns are the ones the truncation bound measures
    H = AffineCoh(AffineWeylGroup(affinize("A", 2)), L=6)
    plain = H.basis(H.W.parse("s0")) + H.basis(H.W.parse("s1s0"))
    row = H.lambda_op(1, plain)
    assert type(row) is RowClass and type(plain) is QClass
    reads = []
    for cls in (QClass, RowClass):
        def counted(self, support=cls.support):
            reads.append(self)
            return support(self)
        monkeypatch.setattr(cls, "support", counted)
    for name in RING_OPERATORS:
        for a in (plain, row):
            reads.clear()
            AFFINE_OPERATORS[name](H, a)
            assert reads == [a], name


def _guard_memos(H):
    W = H.W
    return (dict(H._rows), dict(H._keys), dict(H._exps), list(H._inversions), dict(H._weights),
            dict(W._covers_memo), [dict(d) for d in W._reflected], len(W.perm))


def test_the_affine_guard_refuses_in_order_and_keeps_no_memo():
    # a foreign ring first, then an id the group has not made, then the truncation
    H = AffineCoh(AffineWeylGroup(affinize("A", 2)), L=3)
    other = AffineCoh(AffineWeylGroup(affinize("A", 2)), L=3)
    W, one, S = H.W, Poly.one(H.nq), H._shift
    top = W.parse("s0s1s2")  # length 3 = L: its covers need L >= 4
    H.lambda_op(1, H.basis(W.parse("s0")))
    memos = _guard_memos(H)
    bad = 10**6
    foreign = FOREIGN.format("another affine A2", 3, "affine A2", 3)
    unmade = rf"^{bad} is not an element id of affine A2: ids run 0\.\.\d+$"
    cases = [(QClass(other, {bad: one, top: one}), ValueError, f"^{re.escape(foreign)}$"),
             (RowClass(other, [(bad << S, 1), (top << S, 1)]), ValueError,
              f"^{re.escape(foreign)}$"),
             (QClass(H, {top: one, bad: one}), ValueError, unmade),
             (RowClass(H, [(top << S, 1), (bad << S, 1)]), ValueError, unmade),
             (QClass(H, {top: one}), TruncationOverflow, None),
             (RowClass(H, [(top << S, 1)]), TruncationOverflow, None)]
    for a, error, message in cases:
        for name in RING_OPERATORS:
            if name == "D_word" and error is TruncationOverflow:
                continue  # D_i only lowers length, so D_word has no truncation bound
            with pytest.raises(error, match=message) as exc:
                AFFINE_OPERATORS[name](H, a)
            if error is TruncationOverflow:
                assert (exc.value.needed, exc.value.configured) == (4, 3)
            assert _guard_memos(H) == memos, name


# -- the finite rings: another type, another nq ----------------------------------------


def test_b3_refuses_a_c3_class():
    B, C = quantum_aff("B", 3), quantum_aff("C", 3)
    a = C.basis(C.FW.parse("s1s2"))
    message = FOREIGN.format("C3", 4, "B3", 4)
    rows = (len(B._lambda_img), len(B._lift_img))
    refused(message, B.star, a, B.basis(1))
    refused(message, B.star, B.basis(1), a)
    refused(message, B.lambda_bar, 1, a)
    refused(message, B.lift_apply, 1, a)
    refused(message, B.specialize_q0, a)
    refused(message, B.basis(1).__add__, a)
    assert (len(B._lambda_img), len(B._lift_img)) == rows


def test_format_class_refuses_a_foreign_class_and_a_bad_id():
    B, C = quantum_aff("B", 3), quantum_aff("C", 3)
    refused(FOREIGN.format("C3", 4, "B3", 4), B.format_class, C.basis(C.FW.parse("s1s2")))
    refused("99 is not an element id of B3: ids run 0..47", B.format_class, B.basis(99))
    assert B.format_class(B.basis(B.FW.parse("s1s2"))) == "s[s1s2]"


def test_quantum_and_ordinary_rings_refuse_each_others_classes():
    R, O = quantum_aff("A", 2), OrdinaryQH("A", 2)
    w = R.FW.parse("s1s2")
    mine, theirs = R.basis(w), O.basis(w)
    into_r = FOREIGN.format("A2", 2, "A2", 3)
    into_o = FOREIGN.format("A2", 3, "A2", 2)
    refused(into_r, R.star, theirs, mine)
    refused(into_r, R.lambda_bar, 1, theirs)
    refused(into_r, R.lift_apply, w, theirs)
    refused(into_r, R.specialize_q0, theirs)
    refused(into_o, O.star, O.unit(), mine)
    refused(into_o, O.chevalley, 1, mine)
    refused(into_o, O.chevalley_classical, 1, mine)
    refused(into_r, mine.__add__, theirs)
    refused(into_o, theirs.__sub__, mine)


def test_every_answer_lives_in_the_ring_that_made_it():
    R = quantum_aff("A", 2)
    a, b = R.basis_simple(1), R.basis(R.FW.parse("s1s2"), Poly.variable(3, 0))
    answers = [R.star(a, a), R.star(a, b), R.lambda_bar(2, b), R.lift_apply(1, a),
               R.evaluate(Poly.variable(5, 3)), R.from_finite({0: 1}), R.zero(), R.unit(),
               a + b, a - b, a.scale(2)]
    assert all(x.ring is R for x in answers)
    assert isinstance(answers[0], RowClass) and isinstance(answers[1], RowClass)
    down = R.specialize_q0(R.star(a, b))
    assert down.ring.nq == R.n and down.ring.group is R.FW
    assert down.ring is R.specialize_q0(a).ring  # one QH*(G/B) ring per QuantumAff
    assert R.format_class(R.star(a, a)) == "(q1 + q0) + s[s2s1]"
    assert down.ring.format_class(R.specialize_q0(R.star(a, a))) == "q1 + s[s2s1]"

    O = OrdinaryQH("A", 2)  # QH*(G/B) on the same group: specialize_q0 lands in it
    assert O.star(down, O.unit()) == down
    s1 = O.basis(O.FW.gens[0])
    assert all(x.ring is O for x in (O.star(s1, s1), O.chevalley(1, s1),
                                     O.chevalley_classical(2, s1)))

    H = affine_coh("A", 2)
    c = H.basis(H.W.parse("s0"))
    answers = [H.chevalley(0, c), H.lambda_op(1, c), H.modified_lambda(2, c),
               H.divisor_pullback(1, c), H.D_word((0,), c), e1_pullback(H, {1: 1}),
               divisor_monomial_class(H, (1, 2)), qsharp_product(H, c, c),
               reduce_mod_qc(H, c), lambda_op_by_words(H, 1, c)]
    assert all(x.ring is H for x in answers)


def test_a_class_holds_only_its_ring_and_terms():
    R = quantum_aff("A", 1)
    assert QClass.__slots__ == ("ring", "terms")
    assert RowClass.__slots__ == ("row", "_terms")
    assert not hasattr(R.basis(0), "__dict__")
    for name in ("length", "word", "nq"):
        assert not hasattr(R.basis(0), name) and not hasattr(R.star(R.unit(), R.unit()), name)

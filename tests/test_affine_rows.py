"""The packed rows of ``AffineCoh``: the exponent bound, and properties of the row path.

``AffineCoh`` packs ``q^e`` into 16 bits per entry and runs its operators on
``(u << S | e, c)`` rows, so an exponent entry must stay below ``2^16``.  An
input entry is refused outside ``0..2^15 - 1`` (``_cap``), and one operator
adds at most a coroot entry, so an answer never carries.  An answer that went
past the cap is exact, and as the input of a further operator it is refused,
not wrapped.  A refusal names the bound and keeps nothing in ``_rows``,
``_keys`` or ``_exps``.

The properties run on classes of several terms, with nonzero q-exponents and
``Fraction`` coefficients, which the benchmark never sends: each operator is
``Q[q]``-linear, the modified operators commute, and an operator answers the
same on a row as on the class rebuilt eagerly from it.
"""

from fractions import Fraction

import pytest
from class_sums import scale_and_add
from hypothesis import given, settings
from hypothesis import strategies as st

from qaff.affine import AffineCoh, affine_coh
from qaff.polynomials import Poly, QClass, RowClass
from qaff.roots import affinize
from qaff.weyl import AffineWeylGroup, affine_weyl

BOUND = r"in 0\.\.32767 = 2\^15 - 1"


def _operators(calc):
    """Every operator of ``calc`` at one index each, as ``name -> call``."""
    return {
        "chevalley": lambda a: calc.chevalley(0, a),
        "lambda_op": lambda a: calc.lambda_op(0, a),
        "modified_lambda": lambda a: calc.modified_lambda(1, a),
        "divisor_pullback": lambda a: calc.divisor_pullback(1, a),
        "D_word": lambda a: calc.D_word((0,), a),
    }


def _memos(calc):
    return dict(calc._rows), dict(calc._keys), dict(calc._exps)


def _eager(calc, row):
    """A plain class on the terms of ``row``, each key split here."""
    S, mask, terms = calc._shift, calc._mask, {}
    for k, c in row:
        terms.setdefault(k >> S, {})[calc._unpack(k & mask)] = c
    return QClass(calc, {u: Poly(calc.nq, d) for u, d in terms.items()})


# -- the exponent bound ----------------------------------------------------------------


@pytest.mark.parametrize("exp", [(-1, 0, 0), (0, 1 << 15, 0), (0, 0, 1 << 16)],
                         ids=["laurent", "past-the-cap", "past-the-width"])
def test_refuses_an_entry_outside_the_cap_twice_and_keeps_no_memo(exp):
    calc = AffineCoh(AffineWeylGroup(affinize("A", 2)))  # a fresh ring, so its memos are its own
    w = calc.W.parse("s0")
    assert not calc.lambda_op(0, calc.basis(w)).is_zero()
    memos = _memos(calc)
    bad = calc.basis(w, Poly.monomial(calc.nq, exp, 1))
    for name, op in _operators(calc).items():
        for _ in range(2):  # a refused exponent is never kept, so it is refused again
            with pytest.raises(ValueError, match=rf"q-exponent \({exp[0]}, .* {BOUND}"):
                op(bad)
            assert _memos(calc) == memos, name
    assert exp not in calc._keys


def test_entries_at_the_cap_go_through_one_operator_exactly():
    calc = affine_coh("A", 2)
    cap = calc._cap
    assert cap == (1 << 15) - 1
    q = Poly.monomial(calc.nq, (cap,) * calc.nq, 1)
    for w in [w for layer in calc.W.enumerate_up_to(3).values() for w in layer]:
        for name, op in _operators(calc).items():
            # a carry would change an exponent entry or the element id of a key
            assert op(calc.basis(w, q)) == op(calc.basis(w)).scale(q), name


def test_a_chained_row_past_the_cap_is_refused_not_wrapped():
    calc = AffineCoh(AffineWeylGroup(affinize("A", 2)))  # a fresh ring, so its memos are its own
    cap, w = calc._cap, calc.W.parse("s0")
    q = Poly.monomial(calc.nq, (cap,) * calc.nq, 1)
    near = calc.lambda_op(0, calc.basis(w, q))  # its q0 terms gained alpha_0^vee = (1, 0, 0)
    assert type(near) is RowClass
    assert near == calc.lambda_op(0, calc.basis(w)).scale(q)
    top = max(max(e) for p in near.terms.values() for e in p.terms)
    assert top == cap + 1
    memos = _memos(calc)
    for name, op in _operators(calc).items():
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"q-exponent \({cap + 1}, .* {BOUND}"):
                op(near)
            assert _memos(calc) == memos, name
    # a chained row whose entries sit at the cap is read as it is, and goes through
    at_cap = calc.chevalley(1, calc.basis(w, q))
    assert calc.lambda_op(0, at_cap) == calc.lambda_op(
        0, calc.chevalley(1, calc.basis(w))).scale(q)


def test_a_row_of_another_ring_on_the_group_is_repacked():
    shared = affine_coh("A", 2)
    other = AffineCoh(affine_weyl("A", 2), L=6)
    a = other.lambda_op(1, other.basis(other.W.parse("s1s0"), Poly.variable(3, 2)))
    assert type(a) is RowClass and a.ring is other
    got = shared.modified_lambda(2, a)
    assert got.ring is shared and got == other.modified_lambda(2, a)


# -- properties of the row path --------------------------------------------------------

COEFS = st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(-1, 2), Fraction(2, 3)])
PROPERTY_TYPES = [("A", 2, 4), ("A", 3, 3)]  # (type, rank, the longest support element)


def _polys(nq, size):
    """``Q[q]`` polynomials of at most ``size`` terms, each entry at most 2."""
    exp = st.tuples(*[st.integers(0, 2)] * nq)
    return st.lists(st.tuples(exp, COEFS), min_size=1, max_size=size).map(
        lambda ts: Poly(nq, {e: c for e, c in ts}))


def _classes(calc, top):
    """Classes of several terms on the elements of length at most ``top``."""
    elements = [w for layer in calc.W.enumerate_up_to(top).values() for w in layer]
    term = st.tuples(st.sampled_from(elements), _polys(calc.nq, 3))
    return st.lists(term, min_size=1, max_size=5).map(
        lambda ts: scale_and_add(calc, [(p, calc.basis(w)) for w, p in ts]))


def _all_operators(calc):
    n = calc.n
    ops = [lambda a, i=i: calc.chevalley(i, a) for i in range(n + 1)]
    ops += [lambda a, i=i: calc.lambda_op(i, a) for i in range(n + 1)]
    ops += [lambda a, i=i: calc.modified_lambda(i, a) for i in range(1, n + 1)]
    ops += [lambda a, i=i: calc.divisor_pullback(i, a) for i in range(1, n + 1)]
    ops += [lambda a, i=i: calc.D_word((i, (i + 1) % (n + 1)), a) for i in range(n + 1)]
    return ops


@pytest.mark.parametrize("letter,rank,top", PROPERTY_TYPES, ids=["A2", "A3"])
@settings(max_examples=25, deadline=2000)
@given(data=st.data())
def test_operators_are_linear_over_q(letter, rank, top, data):
    calc = affine_coh(letter, rank)
    a, b = data.draw(_classes(calc, top)), data.draw(_classes(calc, top))
    p, r = data.draw(_polys(calc.nq, 2)), data.draw(_polys(calc.nq, 2))
    for op in _all_operators(calc):
        assert op(a.scale(p) + b.scale(r)) == op(a).scale(p) + op(b).scale(r)


@pytest.mark.parametrize("letter,rank,top", PROPERTY_TYPES, ids=["A2", "A3"])
@settings(max_examples=25, deadline=2000)
@given(data=st.data())
def test_modified_operators_commute(letter, rank, top, data):
    calc = affine_coh(letter, rank)
    a = data.draw(_classes(calc, top))
    M = calc.modified_lambda
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            assert M(i, M(j, a)) == M(j, M(i, a))


@pytest.mark.parametrize("letter,rank,top", PROPERTY_TYPES, ids=["A2", "A3"])
@settings(max_examples=25, deadline=2000)
@given(data=st.data())
def test_a_row_and_its_eager_class_give_equal_answers(letter, rank, top, data):
    calc = affine_coh(letter, rank)
    a = data.draw(_classes(calc, top))
    i = data.draw(st.integers(0, rank))
    row = calc.lambda_op(i, a)
    eager = _eager(calc, row.row)
    for op in _all_operators(calc):
        got, want = op(row), op(eager)
        assert type(got) is RowClass and got.to_json_obj() == want.to_json_obj()
        assert got == want

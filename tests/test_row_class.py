"""The classes both rings return, held as the packed rows they were read from.

``star``, ``lambda_bar``, ``lift_apply`` and ``evaluate`` of ``QuantumAff``, and
``chevalley``, ``lambda_op``, ``modified_lambda``, ``divisor_pullback`` and
``D_word`` of ``AffineCoh``, return a ``RowClass``: the ring and a row of
``(u << S | e, c)`` terms, most often a memo's own list.  Its ``terms`` are
built on first read, and its JSON record is read off the row with no ``Poly``
built: sorted as it stands for ``QuantumAff``, whose ids ascend in printing
order, and by length and reduced word for ``AffineCoh``, which numbers its
elements as they are met.  Each answer of the small types is checked against a
plain ``QClass`` built eagerly from the same row, by a key split of this file's
own (``ring._unpack`` and the ``Poly`` constructor), in every form the CLI and
the benchmark read.
"""

from fractions import Fraction
from itertools import product

import pytest

import qaff.polynomials
from qaff.affine import affine_coh
from qaff.cli import multiplication_table
from qaff.polynomials import Poly, QClass
from qaff.quantum import QuantumAff, RowClass, quantum_aff

ROW_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]
AFFINE_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def _eager(ring, row):
    """A plain class on the terms of ``row``, each key split here."""
    S, mask, terms = ring._shift, ring._mask, {}
    for k, c in row:
        terms.setdefault(k >> S, {})[ring._unpack(k & mask)] = c
    return QClass(ring, {u: Poly(ring.nq, d) for u, d in terms.items()})


def _assert_reads_like(ring, got, want):
    # the JSON record first, so it is read before anything builds the terms
    assert got.to_json_obj() == want.to_json_obj()
    assert got.terms == want.terms
    assert got == want and want == got
    assert ring.format_class(got) == ring.format_class(want)
    assert got.homogeneous_degree() == want.homogeneous_degree()
    if isinstance(ring, QuantumAff):
        assert ring.specialize_q0(got) == ring.specialize_q0(want)
    assert got.is_zero() == want.is_zero()


def test_one_row_class_serves_both_rings():
    assert RowClass is qaff.polynomials.RowClass
    H, R = affine_coh("A", 2), quantum_aff("A", 2)
    assert type(H.lambda_op(1, H.unit())) is type(R.lambda_bar(1, R.unit())) is RowClass


@pytest.mark.parametrize("letter,rank", ROW_TYPES, ids=[f"{t}{r}" for t, r in ROW_TYPES])
def test_every_product_reads_like_the_eager_class(letter, rank):
    ring = quantum_aff(letter, rank)
    for u, v in product(ring.FW.elements, repeat=2):
        got = ring.star(ring.basis(u), ring.basis(v))
        assert type(got) is RowClass and got.row is ring._pair_row(u, v)
        _assert_reads_like(ring, got, _eager(ring, got.row))


def test_every_operator_returns_its_row():
    ring = quantum_aff("B", 2)
    for w in ring.FW.elements:
        for got in (ring.lambda_bar(1, ring.basis(w)), ring.lift_apply(ring.FW.w0, ring.basis(w)),
                    ring.star(ring.basis(w, 3), ring.basis(ring.FW.gens[1]))):
            assert type(got) is RowClass
            _assert_reads_like(ring, got, _eager(ring, got.row))
    got = ring.evaluate(Poly.monomial(2 * ring.n + 1, (1, 0, 0, 1, 1), Fraction(1, 3)))
    assert type(got) is RowClass and not got.is_zero()
    _assert_reads_like(ring, got, _eager(ring, got.row))


def test_fraction_coefficients_are_normalized():
    ring = quantum_aff("A", 2)
    for u, v in product(ring.FW.elements, repeat=2):
        half = ring.star(ring.basis(u, Fraction(1, 2)), ring.basis(v))
        assert half == ring.star(ring.basis(u), ring.basis(v)).scale(Fraction(1, 2))
        _assert_reads_like(ring, half, _eager(ring, half.row))
        # 3/2 times 2/3 is an integral Fraction in the row and an int in the class
        one = ring.star(ring.basis(u, Fraction(3, 2)), ring.basis(v, Fraction(2, 3)))
        assert one == ring.star(ring.basis(u), ring.basis(v))
        assert all(c.__class__ is int for p in one.terms.values() for c in p.terms.values())
        assert one.to_json_obj() == ring.star(ring.basis(u), ring.basis(v)).to_json_obj()


def test_products_of_products_associate():
    ring = quantum_aff("A", 2)
    basis = [ring.basis(w) for w in ring.FW.elements]
    for a, b, c in product(basis, repeat=3):
        assert ring.star(ring.star(a, b), c) == ring.star(a, ring.star(b, c))


def test_reading_a_class_changes_no_memo_row():
    ring = QuantumAff("A", 3)  # a fresh ring, so its memos are its own
    table = multiplication_table(ring)
    memos = [{k: list(row) for k, row in memo.items()}
             for memo in (ring._lift_img, ring._lambda_img)]
    for prod in table.values():
        prod.to_json_obj()
        assert prod.terms is prod.terms  # built once, then kept
        ring.format_class(prod)
    assert [{k: list(row) for k, row in memo.items()}
            for memo in (ring._lift_img, ring._lambda_img)] == memos


def _affine_operators(calc):
    """Every operator of ``calc`` at every index, as ``(name, call)``."""
    n = calc.n
    ops = [(f"{name}({i})", lambda a, op=getattr(calc, name), i=i: op(i, a))
           for name in ("chevalley", "lambda_op") for i in range(n + 1)]
    ops += [(f"{name}({i})", lambda a, op=getattr(calc, name), i=i: op(i, a))
            for name in ("modified_lambda", "divisor_pullback") for i in range(1, n + 1)]
    ops += [(f"D_word(({i},))", lambda a, i=i: calc.D_word((i,), a)) for i in range(n + 1)]
    return ops


@pytest.mark.parametrize("letter,rank", AFFINE_TYPES, ids=[f"{t}{r}" for t, r in AFFINE_TYPES])
def test_every_affine_operator_reads_like_the_eager_class(letter, rank):
    calc = affine_coh(letter, rank)
    ops = _affine_operators(calc)
    elements = [w for layer in calc.W.enumerate_up_to(calc.L - 1).values() for w in layer]
    nonzero = unsorted = 0
    for w in elements:
        a = calc.basis(w)
        for name, op in ops:
            got = op(a)
            assert type(got) is RowClass and got.ring is calc, name
            want = _eager(calc, got.row)
            _assert_reads_like(calc, got, want)
            nonzero += not got.is_zero()
            # the rows the sorted-row shortcut of QuantumAff would print out of order
            unsorted += list(calc._split(sorted(got.row))) != list(want._ordered_terms())
    assert nonzero > len(elements)
    assert unsorted > 0 or rank == 1


@pytest.mark.parametrize("letter,rank", AFFINE_TYPES, ids=[f"{t}{r}" for t, r in AFFINE_TYPES])
def test_affine_rows_of_several_terms_print_in_length_and_word_order(letter, rank):
    # a row in the order the sum met its keys is printed by length, then reduced word,
    # then exponent: the ids of an affine group are numbered as elements are met
    calc = affine_coh(letter, rank)
    elements = [w for layer in calc.W.enumerate_up_to(3).values() for w in layer]
    terms = {w: Poly(calc.nq, {(k % 2,) + (0,) * rank: k + 1, (0,) * calc.nq: Fraction(1, 2)})
             for k, w in enumerate(elements)}
    a = calc._make(terms)
    for i in range(rank + 1):
        got = calc.lambda_op(i, a)
        _assert_reads_like(calc, got, _eager(calc, got.row))
        again = calc.lambda_op(i, got)  # a row read as it is, not rebuilt
        _assert_reads_like(calc, again, _eager(calc, again.row))
        assert again == calc.lambda_op(i, _eager(calc, got.row))

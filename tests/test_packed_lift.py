"""Packed q-exponents in ``QuantumAff``, and the routes around them.

Inside the lift every ``q^e`` is one int, ``sum e_j << B(n - j)`` with ``q0``
most significant, and a term ``c q^e sigma_u`` is the key ``u << S | e``
(``S = nq B``) with ``c``, so adding an exponent to a key adds exponents and
int order is tuple order.  The tests pin the packing on every term the A3
and B3 tables meet, the refusal of exponents it cannot hold, ``star`` lifting its
shorter factor against the first-factor route ``lift_apply(u, sigma_v)``, the
unpacked route of a lone ``sigma_w`` against the packed one,
and ``phi_evaluate`` against the per-monomial route: one ``lambda_bar`` chain
from the unit per monomial, summed class by class.  ``phi_evaluate`` runs
Horner's rule over the smallest x-letter on packed rows, with no word and no
memo of its own, and refuses up front an x-degree above ``2 l(w0)`` or a
polynomial of another arity.
"""

from fractions import Fraction

import pytest
from class_sums import scale_and_add
from divisor_lift import lambda_word
from hypothesis import given, settings
from hypothesis import strategies as st

from qaff.cli import multiplication_table
from qaff.polynomials import Poly
from qaff.quantum import QuantumAff, quantum_aff
from qaff.toda import RelationPoly, phi_evaluate, quadratic_relation, relations_for

LIFT_TYPES = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
# every relation set of A1-A6, B2, C2, B3 and G2; D4, B4, C4 and F4 have the quadratic one
PHI_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3),
             ("C", 2), ("G", 2), ("D", 4), ("B", 4), ("C", 4), ("F", 4)]


def _ids(types):
    return [f"{t}{r}" for t, r in types]


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3)])
def test_pack_round_trip_and_order(letter, rank):
    ring = quantum_aff(letter, rank)
    table = multiplication_table(ring)
    exps = {e for cls in table.values() for p in cls.terms.values() for e in p.terms}
    mask = (1 << ring._shift) - 1
    terms = {(k >> ring._shift, k & mask) for row in ring._lift_img.values() for k, _ in row}
    keys = {e for _, e in terms}
    assert len(exps) > 1 and len(keys) > 1
    assert all(u in ring.FW.elements for u, _ in terms)
    for e in exps:
        assert ring._unpack(ring._pack(e)) == e
    for k in keys:
        assert ring._pack(ring._unpack(k)) == k
    assert sorted(exps) == sorted(exps, key=ring._pack)
    assert sorted(keys) == sorted(keys, key=ring._unpack)


def test_largest_input_exponents_do_not_carry():
    ring = quantum_aff("B", 3)
    cap = ring.FW.length[ring.FW.w0]
    q = Poly.monomial(ring.nq, (cap,) * ring.nq, 1)
    w0 = ring.FW.w0
    for u in ring.FW.elements:  # a carry would corrupt the element id of a key
        got = ring.star(ring.basis(u, q), ring.basis(w0, q))
        assert got == ring.star(ring.basis(u), ring.basis(w0)).scale(q * q)


@pytest.mark.parametrize("exp", [(-1, 0, 0, 0), (0, 7, 0, 0), (0, 0, 0)],
                         ids=["negative", "oversized", "wrong-arity"])
def test_refuses_an_exponent_the_packing_cannot_hold(exp):
    ring = quantum_aff("A", 3)  # l(w0) = 6
    s1 = ring.basis_simple(1)
    for w in (ring.FW.identity, ring.FW.gens[1], ring.FW.w0):
        # a single term with coefficient q^e, not 1, takes the checked path; the class is
        # built past ``basis``, which refuses the wrong arity itself, so the packing sees it
        bad = ring._make({w: Poly.monomial(len(exp), exp, 1)})
        calls = [lambda: ring.star(bad, s1), lambda: ring.star(s1, bad),
                 lambda: ring.lift_apply(ring.FW.gens[0], bad), lambda: ring.lambda_bar(1, bad)]
        for call in calls:
            with pytest.raises(ValueError, match="q-exponent"):
                call()


def test_refuses_a_bad_exponent_after_a_good_one_was_packed():
    ring = QuantumAff("A", 3)  # a fresh ring, so its exponent memo starts empty
    s1 = ring.basis_simple(1)
    good = ring.basis(ring.FW.identity, Poly.monomial(4, (0, 6, 0, 0), 1))
    assert not ring.star(good, s1).is_zero()
    assert (0, 6, 0, 0) in ring._keys
    for exp in [(0, 7, 0, 0), (-1, 6, 0, 0)]:
        bad = ring.basis(ring.FW.identity, Poly.monomial(4, exp, 1))
        for _ in range(2):  # a refused exponent is never kept, so it is refused again
            with pytest.raises(ValueError, match="q-exponent"):
                ring.star(bad, s1)
        assert exp not in ring._keys


def test_refuses_a_word_longer_than_twice_the_top_length():
    # the x-degree of a monomial is the length of its lambda_bar word
    ring = QuantumAff("A", 1)  # l(w0) = 1, and a fresh ring, so its memos are its own
    square = RelationPoly("A", 1, Poly.monomial(3, (0, 0, 2), 1), "X")
    assert not phi_evaluate(square, ring).is_zero()
    memos = (dict(ring._keys), dict(ring._lambda_img))
    assert (1, 1) not in ring._keys
    # each carries a q-exponent the ring has not packed yet: a refusal packs nothing
    cube = Poly(3, {(0, 0, 3): 1, (1, 1, 0): 1})
    wide = Poly(4, {(1, 1, 0, 0): 1})
    for bad, match in [(cube, "x-degree 3 is above 2 l"), (wide, "are 3 variables, not 4")]:
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                ring.evaluate(bad)
            assert (dict(ring._keys), dict(ring._lambda_img)) == memos
    with pytest.raises(ValueError, match="x-degree"):
        phi_evaluate(RelationPoly("A", 1, cube, "X"), ring)
    assert (dict(ring._keys), dict(ring._lambda_img)) == memos


@pytest.mark.parametrize("letter,rank", LIFT_TYPES, ids=_ids(LIFT_TYPES))
def test_star_matches_the_first_factor_lift(letter, rank):
    ring = quantum_aff(letter, rank)
    elts = ring.FW.elements
    bad = [(ring.FW.format(u), ring.FW.format(v)) for u in elts for v in elts
           if ring.star(ring.basis(u), ring.basis(v)) != ring.lift_apply(u, ring.basis(v))]
    assert bad == []


@pytest.mark.parametrize("letter,rank", LIFT_TYPES, ids=_ids(LIFT_TYPES))
def test_basis_products_match_the_general_path(letter, rank):
    # sigma_u * sigma_v and L_u(sigma_v) read their row as it is; a factor 2 sigma_v
    # sends the same product through the packed, scaled and summed path
    ring = quantum_aff(letter, rank)
    elts = ring.FW.elements
    one = {w: ring.basis(w) for w in elts}
    two = {w: ring.basis(w, 2) for w in elts}
    half = Fraction(1, 2)
    bad = [(ring.FW.format(u), ring.FW.format(v)) for u in elts for v in elts
           if ring.star(one[u], one[v]) != ring.star(one[u], two[v]).scale(half)
           or ring.star(one[u], one[v]) != ring.star(two[u], one[v]).scale(half)
           or ring.lift_apply(u, one[v]) != ring.lift_apply(u, two[v]).scale(half)]
    assert bad == []


def test_basis_inputs_are_never_packed(monkeypatch):
    ring = quantum_aff("B", 3)
    elts = ring.FW.elements
    want = [ring.star(ring.basis(u), ring.basis(v)) for u in elts for v in elts[::7]]

    def refused(*args):
        raise AssertionError("a basis input was packed")

    monkeypatch.setattr(QuantumAff, "_packed", refused)
    monkeypatch.setattr(QuantumAff, "_sum_rows", refused)
    assert [ring.star(ring.basis(u), ring.basis(v)) for u in elts for v in elts[::7]] == want
    for w in elts[::5]:
        ring.lift_apply(w, ring.basis(elts[-1]))
        ring.lambda_bar(2, ring.basis(w))
    with pytest.raises(AssertionError, match="packed"):
        ring.star(ring.basis(elts[1], 2), ring.basis(elts[2]))


def test_star_lifts_the_shorter_factor():
    ring = QuantumAff("A", 3)
    FW = ring.FW
    w0, s1 = FW.w0, FW.gens[0]
    size = len(FW)  # the row of L_w(sigma_v) is keyed w * |W| + v
    ring.star(ring.basis(w0), ring.basis(s1))
    assert s1 * size + w0 in ring._lift_img
    assert all(key // size != w0 for key in ring._lift_img)
    u, v = FW.parse("s1s2"), FW.parse("s2s3")  # a tie keeps the first factor
    ring.star(ring.basis(u), ring.basis(v))
    assert u * size + v in ring._lift_img and v * size + u not in ring._lift_img


def _per_monomial_phi(rel, ring):
    """The route ``phi_evaluate`` took before: one ``lambda_bar`` chain from the
    unit per monomial, summed class by class."""
    rank = rel.rank
    pairs = []
    for e, c in rel.poly.terms.items():
        word = tuple(i + 1 for i, a in enumerate(e[rank + 1:]) for _ in range(a))
        pairs.append((Poly.monomial(rank + 1, e[: rank + 1], c),
                      lambda_word(ring, word, ring.unit())))
    return scale_and_add(ring, pairs)


@pytest.mark.parametrize("letter,rank", PHI_TYPES, ids=_ids(PHI_TYPES))
def test_phi_matches_the_per_monomial_route(letter, rank):
    ring = quantum_aff(letter, rank)
    rels = [quadratic_relation(letter, rank)] + relations_for(letter, rank)[0]
    # each relation vanishes; its single terms and its q-free part do not
    pieces = list(rels)
    for rel in rels:
        nv = rel.poly.nvars
        pieces += [RelationPoly(letter, rank, Poly(nv, {e: c}), "term")
                   for e, c in rel.poly.terms.items()]
        free = {e: c for e, c in rel.poly.terms.items() if not any(e[: rank + 1])}
        pieces.append(RelationPoly(letter, rank, Poly(nv, free), "q-free"))
    attrs = set(vars(ring))
    nonzero = 0
    for rel in pieces:
        got = phi_evaluate(rel, ring)
        assert got == _per_monomial_phi(rel, ring), rel.format()
        nonzero += not got.is_zero()
    assert all(phi_evaluate(rel, ring).is_zero() for rel in rels)
    assert nonzero > 0
    assert set(vars(ring)) == attrs  # Phi keeps nothing on the ring


def _relations(letter, rank):
    """Polynomials of at most 6 terms in ``q_0..q_n, x_1..x_n``: x-degree at most 4,
    q-degree at most 2.  A monomial is drawn as its multiset of variables."""
    nq = rank + 1

    def monomial(n, top):
        return st.lists(st.integers(0, n - 1), max_size=top).map(
            lambda vs: [vs.count(v) for v in range(n)])

    coef = st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(-1, 2), Fraction(2, 3)])
    term = st.tuples(monomial(nq, 2), monomial(rank, 4), coef)
    return st.lists(term, max_size=6).map(
        lambda ts: RelationPoly(letter, rank, Poly(nq + rank, {tuple(q + x): c for q, x, c in ts})))


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2)], ids=["A2", "B2", "G2"])
@settings(max_examples=40, deadline=2000)
@given(data=st.data())
def test_phi_of_any_polynomial_matches_the_per_monomial_route(letter, rank, data):
    ring = quantum_aff(letter, rank)
    rel = data.draw(_relations(letter, rank))
    assert phi_evaluate(rel, ring) == _per_monomial_phi(rel, ring)

"""The weighted cover sum behind the affine Chevalley operators, against the
compositions it replaced.

``AffineCoh`` computes ``chevalley``, ``lambda_op``, ``modified_lambda`` and
``divisor_pullback`` as one sum over the cover rows, and ``QuantumAff`` adds
the cup and ``pi(D_{s_alpha})`` images of ``lambda_bar_i(sigma_w)`` into one
table.  The oracles here are the earlier forms: ``Lambda_i - m_i Lambda_0`` as
a sum of two ``lambda_op`` images, ``eps_i - m_i eps_0`` as a sum of two
``chevalley`` images, the cup and quantum sums built one ``Poly`` per term,
and ``lambda_bar_i(sigma_w)`` as a sum of ``from_finite`` classes with the
quantum terms rebuilt from the Chevalley roots.  The sums are
``class_sums.scale_and_add`` chains.  The four operators are also compared with
the cover sum they replaced, whose weight is a ``partial`` of
``ard.weight_pairing`` or ``ard.level_zero_weight_pairing`` called once per term.  A second test pins the design: with
``Poly`` arithmetic and ``QClass.__add__`` made to raise, the four operators
still return.
"""

from functools import partial
from operator import add

import pytest
from class_sums import scale_and_add

from qaff.affine import AffineCoh, affine_coh
from qaff.chevalley import enumerate_chevalley_roots
from qaff.polynomials import Poly, QClass
from qaff.quantum import quantum_aff
from qaff.roots import affinize
from qaff.weyl import AffineWeylGroup, affine_weyl

AFFINE_TYPES = [("A", 2), ("B", 2), ("C", 3), ("G", 2)]
QUANTUM_TYPES = [("A", 3), ("B", 3), ("G", 2)]


def short_elements(calc, top=3):
    return [w for layer in calc.W.enumerate_up_to(top).values() for w in layer]


def old_chevalley(calc, i, a):
    """``eps_i . a`` summed one ``Poly`` per Bruhat cover."""
    out = {}
    for w, c in a.terms.items():
        for u, coroot, _ in calc._cover_rows(w)[0]:
            if coroot[i]:
                out[u] = out.get(u, Poly.zero(calc.nq)) + coroot[i] * c
    return calc._make(out)


def old_lambda_op(calc, i, a):
    """``Lambda_i(a)``: the cup plus one ``q^{alpha^vee}`` monomial per quantum cover."""
    out = dict(old_chevalley(calc, i, a).terms)
    for w, c in a.terms.items():
        for u, coroot, _ in calc._cover_rows(w)[1]:
            if coroot[i]:
                term = calc.q_monomial(coroot, coroot[i]) * c
                out[u] = out.get(u, Poly.zero(calc.nq)) + term
    return calc._make(out)


def partial_weight_cover_sum(calc, a, weight, quantum):
    """The cover sum with its weight a function of the coroot, called once per
    term, as the operators computed it before the rows carried their weights."""
    acc = {}
    for w, c in a.terms.items():
        classical, quantum_rows = calc._cover_rows(w)
        for u, coroot, _ in classical:
            k = weight(coroot)
            if k:
                d = acc.setdefault(u, {})
                for e, v in c.terms.items():
                    d[e] = d.get(e, 0) + k * v
        if quantum:
            for u, coroot, _ in quantum_rows:
                k = weight(coroot)
                if k:
                    d = acc.setdefault(u, {})
                    for e, v in c.terms.items():
                        qe = tuple(map(add, e, coroot))
                        d[qe] = d.get(qe, 0) + k * v
    return calc._make({w: Poly(calc.nq, d) for w, d in acc.items()})


def old_lambda_basis(ring, i, w):
    """``lambda_bar_i(sigma_w)`` as a sum of ``from_finite`` classes."""
    pairs = [(1, ring.from_finite(ring.fs.chevalley_cup(i, {w: 1})))]
    for cr in enumerate_chevalley_roots(affine_weyl(ring.rs.letter, ring.rs.rank)):
        k = ring.ard.level_zero_weight_pairing(i, cr.coroot)
        if k:
            q = Poly.monomial(ring.nq, tuple(cr.coroot), k)
            pairs.append((q, ring.from_finite(ring.fs.pi_word(cr.word, {w: 1}))))
    return scale_and_add(ring, pairs)


def mixed_class(calc, elements):
    """A class with several support elements and non-constant q-coefficients."""
    pairs = []
    for k, w in enumerate(elements):
        e = [0] * calc.nq
        e[k % calc.nq] = k % 3
        pairs.append((Poly(calc.nq, {tuple(e): k + 1, (0,) * calc.nq: -1}), calc.basis(w)))
    return scale_and_add(calc, pairs)


@pytest.mark.parametrize("letter,rank", AFFINE_TYPES)
def test_operators_match_their_compositions(letter, rank):
    calc = affine_coh(letter, rank)
    marks = calc.ard.rs.theta_coroot
    elements = short_elements(calc)
    classes = [calc.basis(w) for w in elements] + [mixed_class(calc, elements[:12])]
    for b in classes:
        for i in range(rank + 1):
            assert calc.chevalley(i, b) == old_chevalley(calc, i, b)
            assert calc.lambda_op(i, b) == old_lambda_op(calc, i, b)
        for i in range(1, rank + 1):
            m_i = marks[i - 1]
            assert calc.modified_lambda(i, b) == scale_and_add(
                calc, [(1, calc.lambda_op(i, b)), (-m_i, calc.lambda_op(0, b))])
            assert calc.divisor_pullback(i, b) == scale_and_add(
                calc, [(1, calc.chevalley(i, b)), (-m_i, calc.chevalley(0, b))])


@pytest.mark.parametrize("letter,rank", AFFINE_TYPES + [("A", 3), ("B", 3)])
def test_operators_match_the_partial_weight_sum(letter, rank):
    calc = affine_coh(letter, rank)
    ard = calc.ard
    elements = short_elements(calc)
    classes = [calc.basis(w) for w in elements] + [mixed_class(calc, elements[:12])]
    for b in classes:
        for i in range(rank + 1):
            weight = partial(ard.weight_pairing, i)
            assert calc.chevalley(i, b) == partial_weight_cover_sum(calc, b, weight, False)
            assert calc.lambda_op(i, b) == partial_weight_cover_sum(calc, b, weight, True)
        for i in range(1, rank + 1):
            weight = partial(ard.level_zero_weight_pairing, i)
            assert calc.modified_lambda(i, b) == partial_weight_cover_sum(calc, b, weight, True)
            assert calc.divisor_pullback(i, b) == partial_weight_cover_sum(
                calc, b, weight, False)


@pytest.mark.parametrize("op", ["modified_lambda", "divisor_pullback"])
def test_level_zero_operators_refuse_an_affine_index(op):
    calc = affine_coh("A", 2)
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match="finite index in 1..2"):
            getattr(calc, op)(i, calc.unit())


@pytest.mark.parametrize("op", ["chevalley", "lambda_op", "lambda_op_by_words"])
def test_affine_operators_refuse_an_index_out_of_range(op):
    # a weight row has 2n + 1 entries, so i = -1, n + 1 or 2n would read another operator's
    calc = affine_coh("A", 2)
    for i in (-1, 3, 4):
        with pytest.raises(ValueError, match="affine index in 0..2"):
            getattr(calc, op)(i, calc.unit())


@pytest.mark.parametrize("letter,rank", QUANTUM_TYPES)
def test_lambda_basis_matches_the_combine_form(letter, rank):
    ring = quantum_aff(letter, rank)
    for i in range(1, rank + 1):
        for w in ring.FW.elements:
            assert ring.lambda_bar(i, ring.basis(w)) == old_lambda_basis(ring, i, w)


class ArithmeticReached(RuntimeError):
    pass


def _refuse(*args, **kwargs):
    raise ArithmeticReached("per-term arithmetic reached")


def test_operators_need_no_per_term_arithmetic(monkeypatch):
    ref = affine_coh("A", 3)
    names = [ref.W.format(w) for w in short_elements(ref, 2)]

    def classes(H):
        # the mixed class has support elements with common covers, so sums meet
        elts = [H.W.parse(name) for name in names]
        return [H.basis(w) for w in elts] + [mixed_class(H, elts)]

    def images(H, bs):
        ops = [(H.chevalley, 0), (H.lambda_op, 0), (H.modified_lambda, 1),
               (H.divisor_pullback, 1)]
        return [op(i, b).to_json_obj() for op, lo in ops for i in range(lo, 4) for b in bs]

    want = images(ref, classes(ref))
    # a fresh group, so every cover row is also built under the patch
    calc = AffineCoh(AffineWeylGroup(affinize("A", 3)))
    bs = classes(calc)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(Poly, name, _refuse)
    monkeypatch.setattr(QClass, "__add__", _refuse)
    with pytest.raises(ArithmeticReached):
        Poly.one(calc.nq) + Poly.one(calc.nq)
    got = images(calc, bs)
    monkeypatch.undo()
    assert got == want

"""The one-table lift against the class-by-class route it replaced.

``QuantumAff._lift_apply_basis`` adds ``a lambda_bar_i L_{w'}(sigma_v)`` and
``-c q^d L_u(sigma_v)`` into one integer table over a common denominator,
keyed by packed q-exponents; ``combine_lift.CombineLift`` builds every step
as a class and sums them with ``scale`` and ``+``.  They must agree on every
``(w, v)``.  B2, G2, B3 and C3 reach both denominator branches (a fractional
Monk coefficient ``a`` and a fractional correction); A2 and A3 reach
neither.  A second test pins the design: with ``Poly`` arithmetic and
``QClass.__add__`` made to raise, ``lift_apply``, ``star``, ``lambda_bar``
and ``phi_evaluate`` still return the same classes.
"""

import pytest

from combine_lift import CombineLift
from qaff.polynomials import Poly, QClass
from qaff.quantum import QuantumAff, quantum_aff
from qaff.toda import phi_evaluate, relations_for

TYPES = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
FRACTIONAL = {("B", 2), ("G", 2), ("B", 3), ("C", 3)}


@pytest.mark.parametrize("letter,rank", TYPES, ids=[f"{t}{r}" for t, r in TYPES])
def test_lift_matches_the_combine_route(letter, rank):
    ring = quantum_aff(letter, rank)
    oracle = CombineLift(ring)
    bad = [(ring.FW.format(w), ring.FW.format(v))
           for w in ring.FW.elements for v in ring.FW.elements
           if ring.lift_apply(w, ring.basis(v)) != oracle.lift_apply_basis(w, v)]
    assert bad == []
    fractional = (letter, rank) in FRACTIONAL
    assert (oracle.fractional_a > 0) == fractional
    assert (oracle.fractional_correction > 0) == fractional


class ArithmeticReached(RuntimeError):
    pass


def _refuse(*args, **kwargs):
    raise ArithmeticReached("per-term arithmetic reached")


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3)])
def test_lift_needs_no_per_term_arithmetic(monkeypatch, letter, rank):
    ref = quantum_aff(letter, rank)
    elts = ref.FW.elements
    pairs = [(w, v) for w in elts for v in elts]
    rels = relations_for(letter, rank)[0]

    def images(ring):
        b = {w: ring.basis(w) for w in elts}
        return ([ring.lift_apply(w, b[v]).to_json_obj() for w, v in pairs]
                + [ring.star(b[u], b[v]).to_json_obj() for u, v in pairs]
                + [ring.lambda_bar(i, b[w]).to_json_obj()
                   for i in range(1, rank + 1) for w in elts]
                # classes with q-coefficients as inputs
                + [ring.star(ring.star(b[u], b[v]), b[v]).to_json_obj() for u, v in pairs[::5]]
                + [phi_evaluate(rel, ring).to_json_obj() for rel in rels])

    want = images(ref)
    # a fresh ring, so every lift and lambda_bar image is built under the patch
    ring = QuantumAff(letter, rank)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(Poly, name, _refuse)
    monkeypatch.setattr(QClass, "__add__", _refuse)
    with pytest.raises(ArithmeticReached):
        Poly.one(ring.nq) + Poly.one(ring.nq)
    got = images(ring)
    monkeypatch.undo()
    assert got == want

"""The one-table lift against the ``combine`` route it replaced.

``QuantumAff._lift_apply_basis`` adds ``a lambda_bar_i L_{w'}(sigma_v)`` and
``-c q^d L_u(sigma_v)`` into one integer table over a common denominator;
``combine_lift.CombineLift`` builds every step as a class and sums them with
``combine``.  They must agree on every ``(w, v)``.  B2, G2, B3 and C3 reach
both denominator branches (a fractional Monk coefficient ``a`` and a
fractional correction); A2 and A3 reach neither.  A second test pins the
design: with ``Poly`` arithmetic and ``QModule.combine`` made to raise, the
lift still returns the same images.
"""

import pytest

from combine_lift import CombineLift
from qaff.polynomials import Poly, QClass, QModule
from qaff.quantum import QuantumAff, quantum_aff

TYPES = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
FRACTIONAL = {("B", 2), ("G", 2), ("B", 3), ("C", 3)}


@pytest.mark.parametrize("letter,rank", TYPES, ids=[f"{t}{r}" for t, r in TYPES])
def test_lift_matches_the_combine_route(letter, rank):
    ring = quantum_aff(letter, rank)
    oracle = CombineLift(ring)
    bad = [(ring.FW.format(w), ring.FW.format(v))
           for w in ring.FW.elements for v in ring.FW.elements
           if ring._lift_apply_basis(w, v) != oracle.lift_apply_basis(w, v)]
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
    pairs = [(w, v) for w in ref.FW.elements for v in ref.FW.elements]
    want = [ref._lift_apply_basis(w, v).to_json_obj() for w, v in pairs]
    # a fresh ring, so every lift and lambda_bar image is built under the patch
    ring = QuantumAff(letter, rank)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(Poly, name, _refuse)
    monkeypatch.setattr(QClass, "__add__", _refuse)
    monkeypatch.setattr(QModule, "combine", _refuse)
    with pytest.raises(ArithmeticReached):
        Poly.one(ring.nq) + Poly.one(ring.nq)
    got = [ring._lift_apply_basis(w, v).to_json_obj() for w, v in pairs]
    monkeypatch.undo()
    assert got == want

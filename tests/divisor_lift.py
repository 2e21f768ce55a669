"""Divisor-monomial routes: the references for the Monk-step lift and ``e1``.

``DivisorLift`` is the route ``qaff.quantum.QuantumAff`` used before its lift
moved to one classical Chevalley step per element.  ``T_w`` is the whole
classical expression of ``sigma_w`` in divisor monomials
(``fs.express_in_divisors``), each monomial applied as a word in the
``lambda_bar``, and the lift is

    L_w = T_w - sum c q^d L_u     over the terms of T_w(1) - sigma_w.

The tests compare products through this lift against ``QuantumAff.star``.

``e1_by_divisors`` is the route ``divisor_ring.e1_pullback`` used before it
moved to the Monk step: each divisor monomial ``sigma_{i_1} ... sigma_{i_k}``
of ``sigma_w`` goes to the chain of ``divisor_pullback`` images from the unit.

Only the rings' operators and constructors are shared; classes are summed by
``class_sums.scale_and_add``.
"""

from class_sums import scale_and_add

from qaff.divisor_ring import fs


def lambda_word(ring, word, b):
    """``lambda_bar_{word}(b)``, one ``lambda_bar`` class per letter, last letter first."""
    for i in reversed(word):
        b = ring.lambda_bar(i, b)
    return b


def e1_by_divisors(calc, a):
    """``e1(a)`` for a finite class ``a`` of an ``AffineCoh`` calculator ``calc``."""
    pairs = []
    for w, c in a.items():
        for coef, mono in fs(calc).express_in_divisors(w):
            cls = calc.unit()
            for i in reversed(mono):
                cls = calc.divisor_pullback(i, cls)
            pairs.append((c * coef, cls))
    return scale_and_add(calc, pairs)


class DivisorLift:
    """Products of one :class:`~qaff.quantum.QuantumAff` ring by the old lift."""

    def __init__(self, ring):
        self.ring = ring
        self._correction = {}
        self._img = {}

    def T_apply(self, w, b):
        R = self.ring
        return scale_and_add(R, ((coef, lambda_word(R, mono, b))
                                 for coef, mono in R.fs.express_in_divisors(w)))

    def correction(self, w):
        if w not in self._correction:
            R = self.ring
            corr = self.T_apply(w, R.unit()) - R.basis(w)
            if any(R.FW.length[u] >= R.FW.length[w] for u in corr.terms):
                raise AssertionError("lift correction grew")
            self._correction[w] = corr
        return self._correction[w]

    def lift_apply_basis(self, w, v):
        key = (w, v)
        if key not in self._img:
            R = self.ring
            pairs = [(1, self.T_apply(w, R.basis(v)))]
            for u, poly in self.correction(w).terms.items():
                pairs.append((-poly, self.lift_apply_basis(u, v)))
            self._img[key] = scale_and_add(R, pairs)
        return self._img[key]

    def star(self, a, b):
        R = self.ring
        return scale_and_add(R, ((c * d, self.lift_apply_basis(u, v))
                                 for u, c in a.terms.items() for v, d in b.terms.items()))

"""The lift summed class by class: the reference for the one-table lift.

This is the route ``qaff.quantum.QuantumAff`` took before its lift images
were summed in one table.  Each step is a class of its own, added up by
``class_sums.scale_and_add``:

    T_w(b)       = sum of a lambda_bar_i(L_{w'}(b))  over the Monk step of w,
                   a = k / den for its (den, [(k, i, w')])
    L_w(sigma_v) = T_w(sigma_v) - sum of c q^d L_u(sigma_v)

over the terms ``c q^d sigma_u`` of ``T_w(1) - sigma_w``.  Only the ring's
``lambda_bar``, constructors and Chevalley expressions are shared.  The
counters record how often a Monk coefficient ``a`` and a correction
coefficient were not integers, so a test can show that both denominator
branches of the one-table kernel were reached.
"""

from fractions import Fraction

from class_sums import scale_and_add


def _fractional(c):
    return Fraction(c).denominator != 1


class CombineLift:
    """Lift images of one :class:`~qaff.quantum.QuantumAff` ring, step by step."""

    def __init__(self, ring):
        self.ring = ring
        self._correction = {}
        self._img = {}
        self.fractional_a = 0
        self.fractional_correction = 0

    def T_apply(self, w, b):
        R = self.ring
        if w == R.FW.identity:
            return b
        den, expr = R.fs.chevalley_expression(w)
        pairs = []
        for k, i, v in expr:
            a = Fraction(k, den)
            self.fractional_a += _fractional(a)
            pairs.append((a, R.lambda_bar(i, self.lift_apply(v, b))))
        return scale_and_add(R, pairs)

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
                self.fractional_correction += any(map(_fractional, poly.terms.values()))
                pairs.append((-poly, self.lift_apply_basis(u, v)))
            self._img[key] = scale_and_add(R, pairs)
        return self._img[key]

    def lift_apply(self, w, b):
        R = self.ring
        return scale_and_add(R, ((c, self.lift_apply_basis(w, v)) for v, c in b.terms.items()))

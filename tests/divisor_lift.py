"""The divisor-monomial lift: the reference for the layered Monk lift.

This is the route ``qaff.quantum.QuantumAff`` used before its lift moved to
one classical Chevalley step per element.  ``T_w`` is the whole classical
expression of ``sigma_w`` in divisor monomials (``fs.express_in_divisors``),
each monomial applied as a word in the ``lambda_bar``, and the lift is

    L_w = T_w - sum c q^d L_u     over the terms of T_w(1) - sigma_w.

The tests compare products through this lift against ``QuantumAff.star``.
Only the ring's ``lambda_bar``, ``combine`` and constructors are shared.
"""


def lambda_word(ring, word, b):
    """``lambda_bar_{word}(b)``, one ``lambda_bar`` class per letter, last letter first."""
    for i in reversed(word):
        b = ring.lambda_bar(i, b)
    return b


class DivisorLift:
    """Products of one :class:`~qaff.quantum.QuantumAff` ring by the old lift."""

    def __init__(self, ring):
        self.ring = ring
        self._correction = {}
        self._img = {}

    def T_apply(self, w, b):
        R = self.ring
        return R.combine((coef, lambda_word(R, mono, b))
                         for coef, mono in R.fs.express_in_divisors(w))

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
            self._img[key] = R.combine(pairs)
        return self._img[key]

    def star(self, a, b):
        R = self.ring
        return R.combine((c * d, self.lift_apply_basis(u, v))
                         for u, c in a.terms.items() for v, d in b.terms.items())

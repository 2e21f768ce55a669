"""Frozen multiplication table of the rank-two type A affine quantum ring.

Keys are unordered pairs of reduced words; values map basis elements to
q-polynomials given as {(e0, e1, e2): coefficient}.  The identity row is
implicit (unit law).  Entries were derived by hand from the divisor law and
repeated lifting, then cross-checked three independent ways: associativity
of the full table, the Frobenius property, and the q0 = 0 collapse onto the
ordinary quantum Chevalley structure.
"""

ZERO3 = (0, 0, 0)

FL3_TABLE = {
    ("s1", "s1"): {"s2s1": {ZERO3: 1}, "e": {(1, 0, 0): 1, (0, 1, 0): 1}},
    ("s1", "s2"): {"s1s2": {ZERO3: 1}, "s2s1": {ZERO3: 1}, "e": {(1, 0, 0): 1}},
    ("s2", "s2"): {"s1s2": {ZERO3: 1}, "e": {(1, 0, 0): 1, (0, 0, 1): 1}},
    ("s1", "s1s2"): {
        "s1s2s1": {ZERO3: 1},
        "s2": {(1, 0, 0): 1},
        "s1": {(1, 0, 0): -1},
    },
    ("s2", "s1s2"): {"s1": {(0, 0, 1): 1, (1, 0, 0): -1}, "s2": {(1, 0, 0): 1}},
    ("s1", "s2s1"): {"s1": {(1, 0, 0): 1}, "s2": {(0, 1, 0): 1, (1, 0, 0): -1}},
    ("s2", "s2s1"): {
        "s1s2s1": {ZERO3: 1},
        "s1": {(1, 0, 0): 1},
        "s2": {(1, 0, 0): -1},
    },
    ("s1s2", "s1s2"): {
        "s2s1": {(0, 0, 1): 1, (1, 0, 0): -1},
        "s1s2": {(1, 0, 0): -1},
        "e": {(1, 0, 1): 2},
    },
    ("s2s1", "s2s1"): {
        "s1s2": {(0, 1, 0): 1, (1, 0, 0): -1},
        "s2s1": {(1, 0, 0): -1},
        "e": {(1, 1, 0): 2},
    },
    ("s1s2", "s2s1"): {
        "s1s2": {(1, 0, 0): 1},
        "s2s1": {(1, 0, 0): 1},
        "e": {(0, 1, 1): 1, (1, 1, 0): -1, (1, 0, 1): -1},
    },
    ("s1", "s1s2s1"): {
        "s1s2": {(1, 0, 0): 1, (0, 1, 0): 1},
        "s2s1": {(1, 0, 0): 1},
        "e": {(0, 1, 1): 1, (1, 0, 1): -1},
    },
    ("s2", "s1s2s1"): {
        "s1s2": {(1, 0, 0): 1},
        "s2s1": {(1, 0, 0): 1, (0, 0, 1): 1},
        "e": {(0, 1, 1): 1, (1, 1, 0): -1},
    },
    ("s1s2", "s1s2s1"): {
        "s1": {(1, 0, 1): 2},
        "s2": {(0, 1, 1): 1, (1, 1, 0): -1, (1, 0, 1): -1},
    },
    ("s2s1", "s1s2s1"): {
        "s1": {(0, 1, 1): 1, (1, 0, 1): -1, (1, 1, 0): -1},
        "s2": {(1, 1, 0): 2},
    },
    ("s1s2s1", "s1s2s1"): {
        "s1s2": {(0, 1, 1): 1, (1, 0, 1): -1},
        "s2s1": {(0, 1, 1): 1, (1, 1, 0): -1},
        "e": {(1, 1, 1): 3},
    },
}


def build_class(ring, spec):
    """Materialize a {name: {exps: coeff}} table entry in the given ring."""
    from fractions import Fraction

    from qaff.polynomials import Poly

    out = ring.zero()
    for name, coeffs in spec.items():
        w = ring.FW.parse(name)
        poly = Poly(ring.nq, {tuple(e): Fraction(c) for e, c in coeffs.items()})
        out = out + ring.basis(w, poly)
    return out


def all_21_products(ring):
    """The full list of unordered basis pairs with their expected products."""
    pairs = []
    names = ["e", "s1", "s2", "s1s2", "s2s1", "s1s2s1"]
    for i, u in enumerate(names):
        for v in names[i:]:
            if u == "e":
                expected = build_class(ring, {v: {ZERO3: 1}})
            else:
                expected = build_class(ring, FL3_TABLE[(u, v)])
            pairs.append((u, v, expected))
    assert len(pairs) == 21
    return pairs

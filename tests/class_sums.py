"""``sum c * x`` over ``(c, x)`` pairs by a chain of ``QClass.scale`` and ``+``.

The test oracles sum their classes with this chain, one class at a time, so
they share no summation kernel with the library's one-table sums.  ``c`` is a
``Poly``, an ``int`` or a ``Fraction``.
"""


def scale_and_add(module, pairs):
    """``sum c * x`` over ``pairs``, starting from ``module.zero()``."""
    out = module.zero()
    for c, x in pairs:
        out = out + x.scale(c)
    return out

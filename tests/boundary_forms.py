"""Weyl group elements as values: the reference the numbered groups are checked against.

A finite element is a :class:`~qaff.weyl.FinW`, its permutation of the
root-table indices.  Its actions on root and coroot coordinates are linear, so
they come from the images of the simple roots, and the inverse action from
their preimages.  An affine element ``v t_l`` of an
:class:`~qaff.weyl.AffineWeylGroup` is the pair ``AffW(v, l)`` read off
``W.perm`` and ``W.trans``, and ``W.index`` maps it back to its id.
"""

from typing import NamedTuple

from qaff.weyl import FinW, _act


def root(table, x: FinW, v):
    return _act(table, v, table.roots, x.perm.__getitem__)


def coroot(table, x: FinW, v):
    return _act(table, v, table.coroots, x.perm.__getitem__)


def inv_coroot(table, x: FinW, v):
    """``x^{-1}(v)`` on coroot coordinates, from the preimages of the simple roots."""
    return _act(table, v, table.coroots, x.perm.index)


def inverse(x: FinW) -> FinW:
    out = [0] * len(x.perm)
    for i, j in enumerate(x.perm):
        out[j] = i
    return FinW(tuple(out))


class AffW(NamedTuple):
    """Affine Weyl element ``v * t_lambda`` (lambda in finite coroot coordinates)."""

    v: FinW
    t: tuple[int, ...]


def element(W, w: int) -> AffW:
    return AffW(FinW(W.perm[w]), W.trans[w])


def id_of(W, x: AffW) -> int:
    return W.index[(x.v.perm, tuple(x.t))]

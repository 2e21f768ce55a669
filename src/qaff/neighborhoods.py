"""Curve neighborhoods on the moment graph of the affine flag manifold.

Vertices are affine Weyl elements (the int ids of
:class:`~qaff.weyl.AffineWeylGroup`); there is an edge between ``w`` and
``w s_alpha`` for every real positive root alpha, and the T-stable curve it
names has degree ``alpha^vee``.  The degree-d neighborhood of ``X(u)`` is the
set of vertices a walk starting at a cell of ``X(u)`` can reach while the
componentwise degree budget lasts; only its Bruhat-maximal elements, the
components, are asked for.  The slice of the moment graph that ``curve-nbhd
--format dot`` draws is built in :mod:`qaff.cli`, the one place that reads it.

``curve_neighborhood`` computes the components through the Hecke-product
shortcut of Buch-Mihalcea ("Curve neighborhoods of Schubert varieties",
J. Differential Geom. 99, 2015): they are the maxima of ``u . z`` over ``z``
in ``Z(d)``, the components of the neighborhood of a point.
``neighborhood_by_search`` is the literal walk over the whole Schubert
variety, kept as an independent oracle.  ``Z(d)`` depends on ``d`` alone and
comes from a recursion over the budgets ``b <= d``:

    Z(b) = max({e} u {s_alpha . z : alpha^vee <= b, z in Z(b - alpha^vee)})

with ``.`` the Hecke product and ``max`` ``bruhat_maximal``.  It is exact: a
chain from ``e`` of degree at most ``b`` is empty or starts with an edge
``e -> s_alpha`` of degree ``alpha^vee <= b``.  The rest of the chain lies in
the degree-``(b - alpha^vee)`` neighborhood of ``X(s_alpha)``, whose maxima
are, by the shortcut, those of ``s_alpha . Z(b - alpha^vee)``, and each of
those is reached.  Every root with ``alpha^vee <= b`` is used: recursing
through the maximal coroots alone drops components.  Each ``Z(b)`` is
computed once per ``(W, b)`` and kept, the moves of each budget are built
once per ``(W, b)``, and each Hecke product ``s_alpha . z`` once per pair.
Every simple coroot is a unit vector, so a degree ``d`` fills exactly the
``prod(d_i + 1)`` budgets ``b <= d``; they are filled in lexicographic order,
which puts every ``b - alpha^vee`` before ``b`` and keeps the recursion one
call deep.  Every entry point refuses a degree that is not
``n + 1`` non-negative ints, and an element id the group has not made
(:meth:`~qaff.weyl.AffineWeylGroup.check_ids`).

``bruhat_maximal``, which both routes end in, takes the elements by
decreasing length and tests each only against the maxima found so far.  That
is exact: an element below some other element of the set lies, by
transitivity, below a maximal one, which is strictly longer and so already
found; a maximal element lies below none of them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import sub

from .roots import CorootVec, coroot_ht, coroot_leq
from .weyl import AffineWeylGroup


@lru_cache(maxsize=None)
def _moves(W: AffineWeylGroup, b: CorootVec) -> tuple[tuple[int, CorootVec], ...]:
    """``(s_alpha, alpha^vee)`` for every real positive root with ``alpha^vee <= b``."""
    return tuple((W.reflection(a), c) for a, c in W.ard.real_positive_roots_leq(b))


def _reachable(W: AffineWeylGroup, starts: list[int], d: CorootVec) -> set[int]:
    """Vertices reachable from ``starts`` by walks of componentwise degree <= d."""
    budgets: dict[int, list[CorootVec]] = {}
    stack: list[tuple[int, CorootVec]] = [(w, tuple(d)) for w in starts]

    def record(w: int, b: CorootVec) -> bool:
        kept = budgets.setdefault(w, [])
        if any(coroot_leq(b, old) for old in kept):
            return False
        kept[:] = [old for old in kept if not coroot_leq(old, b)]
        kept.append(b)
        return True

    for w, b in stack:
        record(w, b)
    while stack:
        w, b = stack.pop()
        for s, cost in _moves(W, b):
            w2 = W.multiply(w, s)
            b2 = tuple(x - y for x, y in zip(b, cost))
            if record(w2, b2):
                stack.append((w2, b2))
    return set(budgets)


def bruhat_maximal(W: AffineWeylGroup, elts: set[int]) -> list[int]:
    """The Bruhat-maximal elements of ``elts``, by length, then reduced word.

    Elements are taken by decreasing length and each is tested only against
    the maxima found so far (see the module docstring).
    """
    if len(elts) == 1:
        return list(elts)
    out: list[int] = []
    for w in sorted(elts, key=W.length, reverse=True):
        if not any(W.bruhat_leq(w, m) for m in out):
            out.append(w)
    out.sort(key=lambda w: (W.length(w), W.reduced_word(w)))
    return out


def _degree(W: AffineWeylGroup, d) -> CorootVec:
    """``d`` as a tuple, refused unless it is ``n + 1`` non-negative ints."""
    d = tuple(d)
    if len(d) != W.n + 1 or not all(type(x) is int and x >= 0 for x in d):
        raise ValueError(f"a degree is {W.n + 1} non-negative ints (d0..d{W.n}), got {d}")
    return d


@lru_cache(maxsize=None)
def _hecke(W: AffineWeylGroup, s: int, z: int) -> int:
    """``s . z``, once per ``(W, s, z)``: the budgets below one degree meet the same
    pairs again and again (29,128 products of 7,240 pairs for A3 ``(5, 5, 5, 5)``)."""
    return W.hecke_product(s, z)


@lru_cache(maxsize=None)
def _z_budget(W: AffineWeylGroup, b: CorootVec) -> tuple[int, ...]:
    """``Z(b)`` by the recursion of the module docstring, once per ``(W, b)``."""
    hits = {W.identity}
    for s, c in _moves(W, b):
        hits.update(_hecke(W, s, z) for z in _z_budget(W, tuple(map(sub, b, c))))
    return tuple(bruhat_maximal(W, hits))


@lru_cache(maxsize=None, typed=True)
def _z(W: AffineWeylGroup, *d: int) -> tuple[int, ...]:
    """``z_d``, the neighborhood of a point.  The degree is checked on a miss; the
    cache is typed per coordinate, so a ``1.0`` or ``True`` never reaches the
    answer kept for ``1``."""
    d = _degree(W, d)
    for b in product(*(range(x + 1) for x in d)):  # each b - alpha^vee comes before b
        _z_budget(W, b)
    return _z_budget(W, d)


def z_components(W: AffineWeylGroup, d: CorootVec) -> list[int]:
    """Bruhat-maximal elements reachable from the identity within budget d, as a
    fresh list."""
    return list(_z(W, *d))


def curve_neighborhood(W: AffineWeylGroup, u: int, d: CorootVec) -> list[int]:
    """Components of the degree-d neighborhood of X(u), via Hecke products."""
    W.check_ids((u,))
    hits = {W.hecke_product(u, z) for z in z_components(W, d)}
    return bruhat_maximal(W, hits)


def neighborhood_by_search(W: AffineWeylGroup, u: int, d: CorootVec) -> list[int]:
    """Independent oracle: walk from every cell of X(u), then take maxima."""
    W.check_ids((u,))
    d = _degree(W, d)
    lu = W.length(u)
    layers = W.enumerate_up_to(lu)
    cells = [v for ell in layers for v in layers[ell] if W.bruhat_leq(v, u)]
    return bruhat_maximal(W, _reachable(W, cells, d))


def gw_invariant(W: AffineWeylGroup, i: int, u: int, w: int, d: CorootVec) -> int:
    """Coefficient-level Gromov-Witten number: nonzero only on degree match.

    This is the coefficient of ``q^d eps_w`` in the quantum part of
    ``Lambda_i(eps_u)``: zero unless ``len(u) + 1 = len(w) + 2 ht(d)``, and
    otherwise ``<lambda_i, d>`` times the indicator that u is a component of
    the degree-d neighborhood of X(w).
    """
    d = _degree(W, d)
    k = W.ard.weight_pairing(i, d)
    W.check_ids((u, w))
    if not k or W.length(u) + 1 != W.length(w) + 2 * coroot_ht(d):
        return 0
    return k if u in curve_neighborhood(W, w, d) else 0

"""Curve neighborhoods on the moment graph of the affine flag manifold.

Vertices are affine Weyl elements (the int ids of
:class:`~qaff.weyl.AffineWeylGroup`); there is an edge between ``w`` and
``w s_alpha`` for every real positive root alpha, and the T-stable curve it
names has degree ``alpha^vee``.  A degree-d neighborhood question is a
budget-bounded walk problem: which vertices can a walk starting at the
Schubert cell(s) reach while the componentwise degree budget lasts.

``curve_neighborhood`` computes the Bruhat-maximal reachable set through the
Hecke-product shortcut (neighborhood of a point, then one Hecke product per
component); ``neighborhood_by_search`` is the literal walk over the whole
Schubert variety, kept as an independent oracle.  The neighborhood of a
point, ``z_d``, depends on ``d`` alone and is computed once per ``(W, d)``.
The walk indexes its moves by the remaining budget: a vertex reached with
budget ``b`` takes exactly the moves of coroot ``<= b``, built once per
``(W, b)``.  Every entry point refuses a degree that is not ``n + 1``
non-negative ints.

``bruhat_maximal``, which both routes end in, takes the elements by
decreasing length and tests each only against the maxima found so far.  That
is exact: an element below some other element of the set lies, by
transitivity, below a maximal one, which is strictly longer and so already
found; a maximal element lies below none of them.
"""

from __future__ import annotations

from functools import lru_cache

from .roots import AffineRoot, CorootVec, coroot_ht, coroot_leq
from .weyl import AffineWeylGroup


class MomentGraphSlice:
    __slots__ = ("W", "vertices", "edges")

    def __init__(
        self,
        W: AffineWeylGroup,
        vertices: list[int],
        edges: list[tuple[int, int, AffineRoot, CorootVec]],
    ):
        self.W = W
        self.vertices = vertices
        self.edges = edges

    def to_dot(self) -> str:
        fmt = self.W.format
        lines = ["graph moment_slice {"]
        for w in self.vertices:
            lines.append(f'  "{fmt(w)}" [len={self.W.length(w)}];')
        for u, v, _, deg in self.edges:
            lines.append(
                f'  "{fmt(u)}" -- "{fmt(v)}" [label="{list(deg)}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def moment_graph_slice(W: AffineWeylGroup, L: int) -> MomentGraphSlice:
    """All vertices of length <= L and the edges staying inside the slice."""
    layers = W.enumerate_up_to(L)
    vertices = [w for ell in sorted(layers) for w in layers[ell]]
    index = set(vertices)
    # a reflection moving within the slice has len(s_alpha) <= 2L, and one at level k
    # has len(s_alpha) >= 2k - #(positive roots)
    top = (2 * L + W.rs.num_positive) // 2
    refs = [(s, alpha, coroot) for level in W.ard.levels(top) for _, _, alpha, coroot in level
            if W.length(s := W.reflection(alpha)) <= 2 * L]
    edges = []
    for w in vertices:
        lw = W.length(w)
        for s, alpha, coroot in refs:
            u = W.multiply(w, s)
            if u in index and W.length(u) > lw:
                edges.append((w, u, alpha, coroot))
    return MomentGraphSlice(W, vertices, edges)


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


@lru_cache(maxsize=None, typed=True)
def _z(W: AffineWeylGroup, *d: int) -> tuple[int, ...]:
    """``z_d``, the neighborhood of a point, once per ``(W, d)`` like ``_moves``.  The
    degree is checked on a miss; the cache is typed per coordinate, so a ``1.0``
    or ``True`` never reaches the answer kept for ``1``."""
    return tuple(bruhat_maximal(W, _reachable(W, [W.identity], _degree(W, d))))


def z_components(W: AffineWeylGroup, d: CorootVec) -> list[int]:
    """Bruhat-maximal elements reachable from the identity within budget d."""
    return list(_z(W, *d))


def curve_neighborhood(W: AffineWeylGroup, u: int, d: CorootVec) -> list[int]:
    """Components of the degree-d neighborhood of X(u), via Hecke products."""
    hits = {W.hecke_product(u, z) for z in z_components(W, d)}
    return bruhat_maximal(W, hits)


def neighborhood_by_search(W: AffineWeylGroup, u: int, d: CorootVec) -> list[int]:
    """Independent oracle: walk from every cell of X(u), then take maxima."""
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
    if not 0 <= i <= W.n:
        raise ValueError(f"weight index {i} is not in 0..{W.n}")
    if W.length(u) + 1 != W.length(w) + 2 * coroot_ht(d):
        return 0
    comps = curve_neighborhood(W, w, d)
    if u not in comps:
        return 0
    return W.ard.weight_pairing(i, d)

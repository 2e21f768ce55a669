"""The level-bound cover scans and the all-pairs maxima: references for the fast routes.

``AffineWeylGroup.bruhat_covers_up`` and ``moment_graph_slice`` used to try
every positive real root up to a level bound, since a reflection at level k
has length at least ``2k - #(positive roots)``.  ``moment_graph_slice`` now
reads the roots of those levels from ``AffineRootData.levels`` with their
coroots and keeps only the reflections whose exact length passes the bound,
and ``bruhat_covers_up`` scans no reflection: it builds the covers of ``w``
from those of ``w s_i`` by the lifting property.  ``bruhat_maximal`` used to
compare every pair of elements; it now tests each element only against the
maxima found so far.  The routes below are the old ones, kept verbatim apart
from the memo, so the tests can compare the two as ordered lists.
``short_reflections`` reads the level lists the way the slice does, for the
tests that need the short reflections themselves.
"""

from qaff.roots import AffineRoot


def _level_bound_roots(W, bound):
    """Every positive real root at the levels k with ``2k - #pos <= bound``."""
    npos = W.rs.num_positive
    out = []
    k = 0
    while 2 * k - npos <= bound:
        for beta in W.rs.all_roots():
            if k == 0 and sum(beta) < 0:
                continue
            out.append(AffineRoot(k, beta))
        k += 1
    return out


def short_reflections(W, bound):
    """Every ``(alpha, s_alpha)``, alpha real positive, with ``len(s_alpha) <= bound``:
    by level, and in ``all_roots()`` order within a level."""
    top = (bound + W.rs.num_positive) // 2
    return [(alpha, s) for level in W.ard.levels(top) for _, _, alpha, _ in level
            if W.length(s := W.reflection(alpha)) <= bound]


def level_bound_covers_up(W, w):
    """All ``(w s_alpha, alpha)`` with ``len(w s_alpha) = len(w) + 1``, by level bound."""
    lw = W.length(w)
    out = []
    for alpha in _level_bound_roots(W, 2 * lw + 1):
        u = W.multiply(w, W.reflection(alpha))
        if W.length(u) == lw + 1:
            out.append((u, alpha))
    out.sort(key=lambda pair: (pair[1].level, pair[1].finite))
    return out


def level_bound_slice_edges(W, L):
    """The edges of the moment-graph slice of length <= L, by level bound."""
    layers = W.enumerate_up_to(L)
    vertices = [w for ell in sorted(layers) for w in layers[ell]]
    index = set(vertices)
    refs = _level_bound_roots(W, 2 * L)
    edges = []
    for w in vertices:
        for alpha in refs:
            u = W.multiply(w, W.reflection(alpha))
            if u in index and W.length(u) > W.length(w):
                edges.append((w, u, alpha, W.ard.coroot(alpha)))
    return edges


def all_pairs_maximal(W, elts):
    """The Bruhat-maximal elements of ``elts`` by comparing every pair."""
    out = []
    for w in elts:
        if not any(v != w and W.bruhat_leq(w, v) for v in elts):
            out.append(w)
    out.sort(key=lambda w: (W.length(w), W.reduced_word(w)))
    return out

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
tests that need the short reflections themselves.  ``cover_rows`` reads
``AffineCoh._cover_rows`` back as ``(u, alpha^vee, weights)`` triples.
``AffineCoh._cover_rows`` finds its quantum covers by inversion sets, multiplying
only the members that pass; ``quantum_covers_by_length`` is the rule it replaced,
which multiplies every member with ``w(alpha) < 0`` and compares lengths.
``AffineWeylGroup.heights`` derives an element's inversion heights from its
factor's; ``heights_by_closed_form`` computes them from the element's
permutation and translation by the rule ``AffineWeylGroup.inverts`` used to
apply one root at a time, each half of the table on its own.
"""

from operator import mul

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


def heights_by_closed_form(W, w):
    """``h_b = <roots[b], l> + [v(roots[b]) < 0]`` for every table index ``b``, from
    ``w = v t_l`` as ``(W.perm[w], W.trans[w])``.  It is the threshold of the rule
    "``level - <roots[b], l>`` is negative, or zero with ``v(roots[b]) < 0``" for
    ``w`` sending ``level delta + roots[b]`` negative: that holds iff ``level < h_b``."""
    t, p, npos = W.trans[w], W.perm[w], W.rs.num_positive
    return tuple(sum(map(mul, pv, t)) + (p[b] >= npos) for b, pv in enumerate(W.table.pairings))


def cover_rows(calc, w):
    """``calc._cover_rows(w)`` as two lists of ``(u, alpha^vee, weights)``: ``u`` is the
    id of a row's key ``u << S | e``, and ``alpha^vee`` is the first ``n + 1`` weights of
    a Bruhat cover, whose ``e`` is 0, and the packed ``e`` of a quantum cover."""
    S, mask, n = calc._shift, calc._mask, calc.n
    classical, quantum = calc._cover_rows(w)
    assert all(k & mask == 0 for k, _ in classical)
    return ([(k >> S, weights[:n + 1], weights) for k, weights in classical],
            [(k >> S, calc._unpack(k & mask), weights) for k, weights in quantum])


def quantum_covers_by_length(calc, w):
    """The quantum rows of ``calc._cover_rows(w)`` by the length condition
    ``len(w s_alpha) = len(w) + 1 - 2 ht(alpha^vee)``, tried on every member with
    ``w(alpha) < 0``: the multiply-and-length rule, verbatim apart from reading the
    members from ``calc._chev`` and ``w(alpha) < 0`` from ``heights_by_closed_form``."""
    W, S = calc.W, calc._shift
    lw = W.length(w)
    h = heights_by_closed_form(W, w)
    quantum = []
    for cr in calc._chev:
        level, b, s = cr.root.level, W.table.index[cr.root.finite], W.reflection(cr.root)
        if level < h[b]:
            u = W.multiply(w, s)
            if W.length(u) == lw + 1 - 2 * cr.coroot_height:
                quantum.append((u << S | calc._keys[cr.coroot], calc._weight_row(cr.root)))
    return quantum

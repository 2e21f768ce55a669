"""The curve-neighborhood walk with one move list per degree: the reference for the budget-indexed walk.

``neighborhoods._reachable`` used to build the moves of the whole degree
``d`` once and test every one of them with ``coroot_leq`` against the budget
left at each popped vertex; it now reads the moves of exactly that budget.
The route below is the old one, kept verbatim apart from building its own
move list, so the tests can compare the two reachable sets.
"""

from qaff.roots import coroot_leq


def filter_reachable(W, starts, d):
    """Vertices reachable from ``starts`` by walks of componentwise degree <= d."""
    ard = W.ard
    moves = [(W.reflection(a), ard.coroot(a)) for a in ard.real_positive_roots_leq(tuple(d))]
    budgets = {}
    stack = [(w, d) for w in starts]

    def record(w, b):
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
        for s, cost in moves:
            if coroot_leq(cost, b):
                w2 = W.multiply(w, s)
                b2 = tuple(x - y for x, y in zip(b, cost))
                if record(w2, b2):
                    stack.append((w2, b2))
    return set(budgets)

"""Dense Gauss-Jordan over ``Fraction``: the reference for the sparse kernel.

These are the routines ``qaff.polynomials`` used before its sparse integer
elimination; the tests compare that kernel against them.  Rows are dense
lists of ``int`` or ``Fraction``.
"""

from fractions import Fraction


def dense_solve(rows, rhs):
    """Solve ``rows @ x == rhs``; ``None`` when inconsistent, free variables zero."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    n = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, m) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return x


def dense_rank(rows):
    """Rank over the rationals by Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    rank = 0
    for col in range(n):
        sel = next((i for i in range(rank, m) if work[i][col]), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for i in range(rank + 1, m):
            if work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def densify_columns(cols, target):
    """Dense ``rows, rhs`` for sparse ``cols`` and ``target``, over their joint support.

    An empty support gives one zero row, so the column count survives.
    """
    support = list(dict.fromkeys([u for col in cols for u in col] + list(target))) or [None]
    rows = [[col.get(u, 0) for col in cols] for u in support]
    rhs = [target.get(u, 0) for u in support]
    return rows, rhs

"""The type-A Toda integrals by the Lax determinant: the reference for the continuant.

This is the route ``qaff.toda.typeA_relations`` took before it read the integrals
off the continuant of the periodic chain.  It builds the periodic Jacobi matrix
``A(z)`` over Laurent polynomials in ``q_0..q_{n-1}, x_1..x_{n-1}, z, lam``,
expands ``det(lam + A(z))`` by cofactors and cuts out the ``z^0 lam^{n-1-k}``
coefficient as ``H_k``.
"""

from qaff.polynomials import Poly
from qaff.toda import RelationPoly


def coefficient_of(p, var, power):
    """The coefficient of ``x_var^power`` in ``p`` (exponent of ``var`` zeroed out)."""
    out = {}
    for e, c in p.terms.items():
        if e[var] == power:
            out[e[:var] + (0,) + e[var + 1:]] = c
    return Poly(p.nvars, out)


def det(mat):
    """Cofactor expansion along the first column (entries are sparse polys)."""
    if len(mat) == 1:
        return mat[0][0]
    total = Poly.zero(mat[0][0].nvars)
    for r, row in enumerate(mat):
        if not row[0]:
            continue
        cof = det([other[1:] for k, other in enumerate(mat) if k != r])
        total = total + (row[0] * cof if r % 2 == 0 else -(row[0] * cof))
    return total


def lax_matrix(n):
    """The n x n matrix A(q; x) over Q[q_0..q_{n-1}, x_1..x_{n-1}, z, 1/z, lam].

    Variable layout: q_0..q_{n-1}, x_1..x_{n-1}, then z (Laurent), then lam.
    """
    rank = n - 1
    nv = 2 * rank + 3
    zvar = nv - 2

    def q(i, zexp=0):
        e = [0] * nv
        e[i] = 1
        e[zvar] = zexp
        return Poly.monomial(nv, tuple(e), 1)

    def x(i, k=1):
        return Poly.monomial(nv, tuple(int(v == rank + i) for v in range(nv)), k)

    def const_z(k, zexp):
        return Poly.monomial(nv, tuple(zexp if v == zvar else 0 for v in range(nv)), k)

    mat = [[Poly.zero(nv) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        if r == 0:
            mat[r][r] = x(1)
        elif r == n - 1:
            mat[r][r] = x(rank, -1)
        else:
            mat[r][r] = x(r + 1) + x(r, -1)
    for r in range(n - 1):
        mat[r][r + 1] = mat[r][r + 1] + q(r + 1)
        mat[r + 1][r] = mat[r + 1][r] + const_z(-1, 0)
    mat[0][n - 1] = mat[0][n - 1] + const_z(-1, -1)
    mat[n - 1][0] = mat[n - 1][0] + q(0, 1)
    return mat


def typeA_relations_by_lax(n):
    """H_1..H_{n-1} for Fl(n): the z-free charpoly coefficients of the Lax matrix."""
    rank = n - 1
    nv = 2 * rank + 3
    zvar, lvar = nv - 2, nv - 1
    mat = lax_matrix(n)
    lam = Poly.variable(nv, lvar)
    for r in range(n):
        mat[r][r] = mat[r][r] + lam
    zfree = coefficient_of(det(mat), zvar, 0)
    out = []
    for k in range(1, n):
        hk = coefficient_of(zfree, lvar, n - k - 1)
        if any(e[zvar] or e[lvar] for e in hk.terms):
            raise AssertionError(f"H{k} still carries z or lambda")
        terms = {e[:-2]: c for e, c in hk.terms.items()}
        out.append(RelationPoly("A", rank, Poly(2 * rank + 1, terms), name=f"H{k}"))
    return out

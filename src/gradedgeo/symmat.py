"""Small helpers for matrices of expressions (lists of lists of Expr).

Sizes here are tiny (n <= 6), so Laplace expansions and explicit
Gram-Schmidt recursions are fine; constant folding in the expression layer
keeps the trees compact.  Matrix products (``emat_mul``) and matrix-vector
products (``ematvec``) are one ``exprs.dot`` per entry, so they build the
same nodes as the left fold of ``add`` over the products.
"""

from __future__ import annotations

from .exprs import Expr, call, const, div, dot, mul, sub

__all__ = [
    "ezeros",
    "eidentity",
    "emat_mul",
    "ematvec",
    "etranspose",
    "edet",
    "eadjugate",
    "einverse",
    "upper_triangular_inverse",
    "gram_schmidt_from_gram",
]

ZERO = const(0.0)
ONE = const(1.0)


def ezeros(r: int, c: int) -> list[list[Expr]]:
    return [[ZERO for _ in range(c)] for _ in range(r)]


def eidentity(n: int) -> list[list[Expr]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def etranspose(A):
    return [list(col) for col in zip(*A)]


def emat_mul(A, B):
    out = []
    for row in A:
        ks = [k for k, aik in enumerate(row) if aik is not ZERO]
        out.append([dot([row[k] for k in ks], [B[k][j] for k in ks]) for j in range(len(B[0]))])
    return out


def ematvec(A, x) -> list[Expr]:
    return [dot(row, x) for row in A]


def edet(A) -> Expr:
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return sub(mul(A[0][0], A[1][1]), mul(A[0][1], A[1][0]))
    total = ZERO
    for j in range(n):
        a = A[0][j]
        if a is ZERO:
            continue
        sub_rows = [[row[k] for k in range(n) if k != j] for row in A[1:]]
        term = a * edet(sub_rows)
        total = total + term if j % 2 == 0 else total - term
    return total


def eadjugate(A):
    n = len(A)
    if n == 1:
        return [[ONE]]
    cof = ezeros(n, n)
    for i in range(n):
        for j in range(n):
            sub_rows = [
                [A[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            d = edet(sub_rows)
            cof[j][i] = d if (i + j) % 2 == 0 else -d
    return cof


def einverse(A):
    """Inverse via adjugate / determinant."""
    d = edet(A)
    adj = eadjugate(A)
    return [[div(adj[i][j], d) for j in range(len(A))] for i in range(len(A))]


def upper_triangular_inverse(U):
    """Inverse of an upper-triangular expression matrix by back substitution."""
    n = len(U)
    inv = ezeros(n, n)
    for j in range(n - 1, -1, -1):
        inv[j][j] = div(ONE, U[j][j])
        for i in range(j - 1, -1, -1):
            acc = dot(U[i][i + 1 : j + 1], [inv[k][j] for k in range(i + 1, j + 1)])
            inv[i][j] = div(-acc, U[i][i])
    return inv


def gram_schmidt_from_gram(gram) -> list[list[Expr]]:
    """Upper-triangular change R with (v . R) orthonormal, from the Gram matrix.

    Entirely symbolic: works with inner products only, never coordinates.
    Column j of R holds the expansion of the j-th orthonormal vector in the
    original ones.  Assumes the input vectors are independent wherever the
    result is evaluated.
    """
    q = len(gram)
    R = ezeros(q, q)
    # coeffs[j] = expansion of the j-th *orthonormalized* vector
    coeffs: list[list[Expr]] = []

    def inner(u, v):
        total = ZERO
        for a in range(q):
            if u[a] is ZERO:
                continue
            for b in range(q):
                if v[b] is ZERO:
                    continue
                total = total + u[a] * v[b] * gram[a][b]
        return total

    for j in range(q):
        w = [ONE if a == j else ZERO for a in range(q)]
        for prev in coeffs:
            proj = inner(w, prev)
            w = [w[a] - proj * prev[a] for a in range(q)]
        nrm = call("sqrt", inner(w, w))
        unit = [div(w[a], nrm) for a in range(q)]
        coeffs.append(unit)
        for a in range(q):
            R[a][j] = unit[a]
    return R

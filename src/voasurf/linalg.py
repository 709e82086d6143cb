"""Exact rational linear algebra on small dense matrices.

Matrices are lists of row lists of Fractions.  Pivoting is
deterministic (first nonzero entry in column order) so that ranks,
kernels and echelon forms are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction


def row_echelon(matrix):
    """Return (echelon form, pivot column list, rank)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots, len(pivots)


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return row_echelon(matrix)[2]


def kernel_basis(matrix):
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    cols = len(matrix[0])
    ech, pivots, _ = row_echelon(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -ech[r][f]
        basis.append(vec)
    return basis


def inverse(matrix):
    """Exact inverse of a square matrix."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    ech, pivots, r = row_echelon(aug)
    if r < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in ech[:n]]


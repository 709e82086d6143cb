"""Exact linear algebra: sparse integer ranks and dense Fraction RREF.

``rank`` takes sparse columns, dicts ``{row_key: rational}``, and
eliminates fraction-free over the integers without densifying: every
step is an integer operation invertible over Q, so the rank is exact.
``row_echelon``, ``kernel_basis`` and ``inverse`` work on dense
matrices, lists of row lists of Fractions.  Pivoting is deterministic
everywhere (the first candidate in column order), so ranks, kernels
and echelon forms are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def _primitive(vec: dict) -> dict:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec.values())
    return {k: x // g for k, x in vec.items()} if g > 1 else vec


def rank(columns) -> int:
    """Exact rank of sparse rational columns ``{row_key: value}``.

    Each column is scaled by the lcm of its denominators (the rank does
    not change).  Row keys are taken in sorted order; at each key the
    first remaining vector holding it is the pivot, and every other
    holder r becomes (p/g)*r - (a/g)*pivot with g = gcd(p, a), divided
    by the gcd of its entries.
    """
    vectors = []
    for col in columns:
        den = lcm(*(x.denominator for x in col.values()))
        vec = {k: x.numerator * (den // x.denominator)
               for k, x in col.items() if x}
        if vec:
            vectors.append(_primitive(vec))
    count = 0
    for key in sorted(set().union(*vectors)):
        pivot = next((v for v in vectors if key in v), None)
        if pivot is None:
            continue
        count += 1
        p = pivot[key]
        rest = []
        for vec in vectors:
            if vec is pivot:
                continue
            a = vec.get(key)
            if a is not None:
                g = gcd(p, a)
                s, t = p // g, a // g
                vec = {k: s * x for k, x in vec.items()}
                for k, y in pivot.items():
                    x = vec.get(k, 0) - t * y
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
                if not vec:
                    continue
                vec = _primitive(vec)
            rest.append(vec)
        vectors = rest
    return count


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


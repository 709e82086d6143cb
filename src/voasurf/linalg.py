"""Exact linear algebra: one sparse fraction-free elimination.

``rank`` and ``kernel_basis`` take sparse columns, dicts
``{row_key: rational}``, scale each to integers by the lcm of its
denominators and share one elimination over the integers,
``_eliminate``: every step is invertible over Q, so ranks and kernels
are exact.  Pivoting is deterministic (row keys in sorted order, the
first holder of a key as the pivot), so results are reproducible.

``row_echelon`` and ``inverse``, dense Fraction Gauss-Jordan, have no
caller in the package; the tests keep them as independent oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# the key of a kernel tag entry, (_TAG, column index); never a row key
_TAG = object()


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


def _scaled(col: dict) -> tuple:
    """(den, den * col) for den the lcm of the column's denominators,
    the scaled column as ints with its zeros dropped."""
    den = lcm(*(x.denominator for x in col.values()))
    return den, {k: x.numerator * (den // x.denominator)
                 for k, x in col.items() if x}


def _eliminate(vectors, keys) -> tuple:
    """Fraction-free elimination of primitive integer vectors on
    ``keys``, taken in order.

    At each key the first remaining vector holding it is the pivot,
    and every other holder r becomes (p/g)*r - (a/g)*pivot with
    g = gcd(p, a), divided by the gcd of its entries; a vector that
    reaches zero is dropped.  Entries under keys outside ``keys`` are
    carried along.  Returns (pivot count, leftover vectors): the
    leftovers vanish on every key of ``keys``.
    """
    count = 0
    for key in keys:
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
    return count, vectors


def rank(columns) -> int:
    """Exact rank of sparse rational columns ``{row_key: value}``."""
    vectors = [_primitive(vec) for _, vec in map(_scaled, columns) if vec]
    return _eliminate(vectors, sorted(set().union(*vectors)))[0]


def kernel_basis(columns) -> list:
    """Basis of the rational relations among sparse columns, as tuples
    of ints aligned with the columns, each primitive.

    Column j enters tagged with den_j under (_TAG, j), den_j the scale
    that makes it integral, so every vector is sum_j c_j * column_j on
    its row keys and c_j on its tags.  The vectors left once every row
    key is eliminated are zero on the rows: their tags are the kernel,
    one vector per column that did not pivot.
    """
    vectors = []
    for j, col in enumerate(columns):
        den, vec = _scaled(col)
        vec[_TAG, j] = den
        vectors.append(_primitive(vec))
    _, rest = _eliminate(vectors, sorted(set().union(*columns)))
    return [tuple(vec.get((_TAG, j), 0) for j in range(len(columns)))
            for vec in rest]


def inverse(matrix):
    """Exact inverse of a square matrix."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    ech, pivots, r = row_echelon(aug)
    if r < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in ech[:n]]

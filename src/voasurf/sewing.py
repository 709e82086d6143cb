"""The sewing-matrix layer shared by genus two and Schottky genus g.

Both sewn surfaces reach their reduction kernels as row . (1 - M)^-1 .
column, with M a moment matrix (Lambda_a at genus two, R for Schottky
handles) truncated at a matrix cutoff.  The row is dressed by the
Neumann sum row + row . M + row . M^2 + ..., one vector-matrix product
per term; the full inverse is formed only when no rows are given.
Matrices are sparse: a flat ``{(row, col): MultiSeries}`` dict over an
ordered index set of opaque hashables (``int`` at genus two,
``(handle, order)`` for Schottky); an absent entry is zero.

The entries carry half-integer powers of the sewing parameters, so each
parameter is tracked through its square root, named by a mapping to the
parameter: ``{"se": "eps"}`` (se^2 = eps), ``{"sr1": "rho1", ...}``
(sr_a^2 = rho_a).  Each module supplies a callable built on ``clip``:
``clip(a)`` clips one series, and ``clip(a, b)`` forms a * b as one
capped product, never building a term above the cut.  Intermediate
rows and matrices may carry odd half-powers; exported quantities must
land on nonnegative integer powers of the parameters and are renamed
to them.

A product may also stop at its consumer's reach.  The reach of a row
entry at index i, in a variable, is the output cap minus the least
order that any continuation from i adds there: the declared window lo
of the factor that entry i meets next, every later factor adding order
0 or more.  Whatever lies above the reach lands above the output cap
and would be dropped there, so a term above it is never built.  The
result keeps its window too: an entry cut at reach r, times a factor
of lo cap - r or more, still has a natural horizon at or above the cap,
as the uncut entry had, so the cut leaves the product's window as it
was.  ``caps`` arguments carry a reach as ``{var: cap}``, each
tightening the clip's own cut, and a ``reach`` maps an index to the
caps of the row entries there.  Both surfaces pass one: genus two for
its row Q(p; x), Schottky for its dressed rows.
"""

from typing import NamedTuple

from .series import MultiSeries


class SeriesMatrix(NamedTuple):
    """A truncated matrix of series over an ordered index set; absent
    entries are zero."""

    indices: tuple
    entries: dict

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.entries.values())


def _rows(M: SeriesMatrix) -> dict:
    """row -> [(col, entry)], so a product reads each row once."""
    rows = {}
    for (i, j), e in M.entries.items():
        rows.setdefault(i, []).append((j, e))
    return rows


def _same_indices(A: SeriesMatrix, B: SeriesMatrix):
    if A.indices != B.indices:
        raise ValueError("index set mismatch")


def identity(indices) -> SeriesMatrix:
    one = MultiSeries.constant(1)
    indices = tuple(indices)
    return SeriesMatrix(indices, {(i, i): one for i in indices})


def add(A: SeriesMatrix, B: SeriesMatrix) -> SeriesMatrix:
    _same_indices(A, B)
    entries = dict(A.entries)
    for key, e in B.entries.items():
        entries[key] = entries[key] + e if key in entries else e
    return SeriesMatrix(A.indices, entries)


def mul(A: SeriesMatrix, B: SeriesMatrix, clip, reach=None) -> SeriesMatrix:
    """A B, each row of A times B by ``row_times_matrix``, the entries
    of column j cut at ``reach[j]``."""
    _same_indices(A, B)
    return SeriesMatrix(A.indices, {
        (i, j): e for i, row in _rows(A).items()
        for j, e in row_times_matrix(dict(row), B, clip, reach).items()})


def neumann_inverse(M: SeriesMatrix, names: dict, order: int,
                    product, rows: SeriesMatrix = None,
                    reach: dict = None) -> SeriesMatrix:
    """rows . (1 - M)^-1 as the terminating geometric sum of the terms
    rows . M^k; ``rows`` None is the identity, giving the full inverse.

    Every term of every entry of M must have positive total order in
    the half-power variables ``names``, otherwise the series would not
    terminate inside the window.  ``product(A, B, reach=...)`` is the
    module's matrix product, each entry product capped at ``order`` in
    each of those variables and column j of the result at ``reach[j]``.
    Each term is formed as (rows . M^k) . M, so dressing a few rows
    takes vector-matrix products only; the columns of ``rows`` are M's
    indices and its row keys are free.  For rows at nonnegative orders,
    as every caller's are, the term k has total order k or more, so it
    vanishes once k exceeds len(names) * order.

    A ``reach`` (index -> caps, see the module docstring) cuts the
    start rows and every term at their consumer's reach; a start row
    the cut empties stays, with its window.  The entries at index i go
    on to M's row i as well as to the consumer, so both must add at
    least cap - reach[i] in each variable it caps.
    """
    for key, e in M.entries.items():
        half = [i for i, v in enumerate(e.vars) if v in names]
        for exps, c in e.c.items():
            if c and sum(exps[i] for i in half) < 1:
                raise ValueError(
                    f"matrix entry {key} has a term free of the half-power "
                    "variables; the Neumann series would not terminate")
    out = power = identity(M.indices) if rows is None else rows
    if reach is not None:
        out = power = SeriesMatrix(power.indices, {
            key: _capped(e, reach[key[1]])
            for key, e in power.entries.items()})
    for _ in range(len(names) * order + 1):
        power = product(power, M, reach=reach)
        if power.is_zero():
            break
        out = add(out, power)
    return out


def _capped(ms: MultiSeries, caps: dict) -> MultiSeries:
    """ms with each variable of ``caps`` cut at its cap."""
    ms = ms.extended_to(caps)
    for v, cap in caps.items():
        ms = ms.clip(v, ms.window[v][0], cap)
    return ms


def row_times_matrix(row: dict, M: SeriesMatrix, clip, reach=None) -> dict:
    """The row vector ``row`` (index -> series) times M, clipped, the
    entry at j cut at ``reach[j]``."""
    rows = _rows(M)
    out = {}
    for i, r in row.items():
        for j, e in rows.get(i, ()):
            prod = clip(r, e, None if reach is None else reach[j])
            if prod.is_zero():
                continue
            out[j] = out[j] + prod if j in out else prod
    return out


def row_dot_column(row: dict, col: dict, clip, total=None,
                   caps=None) -> MultiSeries:
    """``total`` (zero if not given) plus the clipped products of the
    matching row and column entries, added on in row order, each
    product cut at ``caps`` too."""
    if total is None:
        total = MultiSeries.constant(0)
    for i, r in row.items():
        c = col.get(i)
        if c is not None:
            total = total + clip(r, c, caps)
    return total


def clip(ms: MultiSeries, factor: MultiSeries = None, caps=None, *, base,
         names: dict, hi) -> MultiSeries:
    """ms over the variables ``base``, each half-power variable of
    ``names`` cut to [its own lo, hi]; ``hi`` None cuts nothing.  Given
    a ``factor``, the product ms * factor clipped the same way and at
    ``caps``, formed as one capped product so that no term above a cut
    is built."""
    if factor is not None:
        cut = {v: hi if v in names else None for v in base}
        for v, cap in (caps or {}).items():
            cut[v] = cap if cut.get(v) is None else min(cut[v], cap)
        return ms.__mul__(factor, cut)
    out = ms.extended_to(base)
    for v in names:
        out = out.clip(v, out.window[v][0], hi)
    return out


def require_integer(ms: MultiSeries, names: dict) -> MultiSeries:
    """Exported data must carry every sewing parameter to nonnegative
    integer powers only: even, nonnegative half-power exponents."""
    for i, v in enumerate(ms.vars):
        if v not in names:
            continue
        for key, c in ms.c.items():
            if not c:
                continue
            if key[i] % 2:
                raise AssertionError(
                    f"half-integer {names[v]} power {v}^{key[i]} survived "
                    "to an exported quantity")
            if key[i] < 0:
                raise AssertionError(
                    f"negative {names[v]} power {v}^{key[i]} survived to "
                    "an exported quantity")
    return ms


def renamed(ms: MultiSeries, names: dict) -> MultiSeries:
    """Rewrite an exported half-power series over the parameters:
    each variable of ``names`` becomes its parameter, with exponents
    and windows halved."""
    require_integer(ms, names)
    ms = ms.extended_to(tuple(names))
    variables = tuple(names.get(v, v) for v in ms.vars)
    window = {}
    for v in ms.vars:
        lo, hi = ms.window[v]
        if v in names:
            window[names[v]] = (max(0, lo) // 2,
                                None if hi is None else hi // 2)
        else:
            window[v] = (lo, hi)
    order = sorted(range(len(variables)), key=lambda i: variables[i])
    out = MultiSeries(variables, window)
    for key, c in ms.c.items():
        if c:
            out.c[tuple(key[i] // 2 if ms.vars[i] in names else key[i]
                        for i in order)] = c
    return out

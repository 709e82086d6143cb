"""Genus-g handle kernels in the Schottky-style parameterization.

A genus-g surface is described by 2g marked points w_{-a}, w_a on the
sphere (one excised-disc pair per handle) and one gluing amplitude
rho_a per handle.  The marked points are exact rational numbers here;
the amplitudes stay formal.  Partition and n-point functions are sums
of genus-zero correlation values over a dual basis flowing through
every handle, weighted by rho_a^(weight), so their rho-expansion is
the weight decomposition of the states in the channel.

The kernel layer (the moment matrix R, its Neumann inverse, the psi
and theta functions) carries half-integer rho-weights, tracked through
the variables "sr1", "sr2", ... with sr_a^2 = rho_a
(``SchottkyData.half_powers``).  The matrix arithmetic, the Neumann
sum, the sr-clip of every product and the integer-rho check on
assembled public quantities live in the sewing module, shared with
genus two.  The ptilde rows are dressed by (1 - R Delta)^-1 through
vector-matrix products, one per Neumann term; the full inverse is only
the no-rows case of ``neumann_inverse``.  Intermediate rows, columns
and the theta components may carry odd or negative half-powers, and
their windows do the bookkeeping: every monomial is built with a sharp
lower bound, so the product horizons stay tight enough to certify
results through rho_order without ever expanding past the matrix
cutoff.

Seed derivative rows and columns have one builder each, ``p_row`` and
``q_column``, at a rational point or at a formal one, ``Formal(var,
cut)``.  A formal x is expanded for |x| above every handle point and
viewed down to x^cut; a formal y is expanded for |y| below them and
known through y^cut.  The formal kernel ``psi_full(p, data)`` builds
its row at ``Formal("x", -6)`` (``_X_LO``) and its column at
``Formal("y", 4)`` (``_Y_HI``).  The y horizon must cover the seed's
f-part, which reaches y^(2p - 2), so p is at most 3 there (``_P_MAX``).

Genus-zero values are computed by pairing free-field legs: the vertex
operator of a basis monomial is a normally ordered product of
derivative currents, so a vacuum correlation value is a sum over
complete cross-point matchings of derivative propagators.  That closed
form is what lets handle sums be evaluated at rational points instead
of in yet another formal variable.

The matching sums run in ints.  For one points tuple, with d the
points' common denominator, n_i = d w_i and L = lcm |n_i - n_j|, a pair
of legs (i, k), (j, k') weighs an integer times (L / (n_i - n_j))^(k +
k'), so a complete matching weighs (d / L)^K times an integer, K the
sum of every leg's k, and the integer sum is scaled once.  Memoized for
the life of the process: the int table and d / L of each points tuple
together with one dict of matching sums keyed on the legs alone
(``_wick``), the pair weights and the dual bases of the channels.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial, lcm, prod
from typing import NamedTuple

from . import sewing
from .series import MultiSeries, rat
from .sewing import SeriesMatrix, require_integer, row_dot_column, \
    row_times_matrix
from .voa import VACUUM, dual_basis, gbinom, vertex_mode, virasoro


# -- genus-zero values at rational points ---------------------------------


def _rational(x) -> Fraction:
    """A point through ``rat``, kept a Fraction for negative powers."""
    return Fraction(rat(x))


@lru_cache(maxsize=None)
def _pair_weight(k: int, kp: int) -> int:
    """Contraction of the (k-1)-th and (kp-1)-th normalized current
    derivatives, without the (z - w)^-(k+kp) factor: an integer."""
    return ((-1) ** (k - 1) * factorial(k + kp - 1)
            // (factorial(k - 1) * factorial(kp - 1)))


class _Wick(NamedTuple):
    """The integer form of one points tuple: with d the points' common
    denominator, n_i = d w_i and L = lcm |n_i - n_j|, the table
    ``t[i][j]`` = L / (n_i - n_j), the scale d / L, and the matching
    memo keyed on the legs alone."""

    t: tuple
    scale: Fraction
    memo: dict


@lru_cache(maxsize=None)
def _wick(points: tuple) -> _Wick:
    d = lcm(*(w.denominator for w in points))
    n = [int(w * d) for w in points]
    L = lcm(*(a - b for a in n for b in n if a != b))
    return _Wick(tuple(tuple(L // (a - b) if a != b else 0 for b in n)
                       for a in n), Fraction(d, L), {(): 1})


def _matchings(legs: tuple, wick: _Wick) -> int:
    """The sum over complete matchings of the legs (point, derivative)
    that pair distinct points, each pair (i, k), (j, kp) weighing
    ``_pair_weight(k, kp)`` t[i][j]^(k + kp): an integer, memoized in
    ``wick.memo``, since the same leftover legs recur across the
    matchings of one monomial and across the channels of a handle
    sum."""
    total = wick.memo.get(legs)
    if total is not None:
        return total
    i, k = legs[0]
    row = wick.t[i]
    total = 0
    for s in range(1, len(legs)):
        j, kp = legs[s]
        if j != i:
            total += (_pair_weight(k, kp) * row[j] ** (k + kp)
                      * _matchings(legs[1:s] + legs[s + 1:], wick))
    wick.memo[legs] = total
    return total


def _monomial_value(monomials: tuple, wick: _Wick):
    """The matching sum of one basis monomial per point: each matching
    weighs (d / L)^K times its integer weight, K the sum of every leg's
    derivative order, so the integer sum is scaled once."""
    legs = tuple((i, k) for i, parts in enumerate(monomials) for k in parts)
    if len(legs) % 2:
        return 0
    total = _matchings(legs, wick)
    K = sum(k for _, k in legs)
    return total * wick.scale ** K if K else total


def genus0_rational_value(states, points):
    """The genus-zero correlation value of Fock states at distinct
    rational points.

    This is the rational function that the ordered formal expansions
    of the reduction module converge to, evaluated off the diagonals,
    which is exactly the form the handle sums need.
    """
    pts = tuple(map(_rational, points))
    if len(set(pts)) != len(pts):
        raise ValueError("insertion points must be pairwise distinct")
    if len(pts) != len(states):
        raise ValueError("one point per state")
    wick = _wick(pts)
    total = 0
    for combo in product(*(tuple(s.t.items()) for s in states)):
        coeff = prod(c for _, c in combo)
        if coeff:
            total += coeff * _monomial_value(tuple(st for st, _ in combo),
                                             wick)
    return total


# -- surface data ----------------------------------------------------------


def _clean_f(f_choice) -> tuple:
    """Canonical form of the f_l data: one sorted (exponent, coeff)
    tuple per component, zero coefficients dropped."""
    cleaned = []
    for f in f_choice:
        items = f.items() if isinstance(f, dict) else f
        poly = {}
        for e, c in items:
            poly[int(e)] = poly.get(int(e), 0) + rat(c)
        cleaned.append(tuple(sorted((e, c) for e, c in poly.items() if c)))
    return tuple(cleaned)


class _HandleFields(NamedTuple):
    genus: int
    coordinates: tuple
    rho_order: int
    matrix_cutoff: int
    f_choice: tuple = ()


class SchottkyData(_HandleFields):
    """Handle data: 2g rational coordinates in the order
    (w_{-1}, w_1, w_{-2}, w_2, ...), the amplitude truncation, the
    moment matrix cutoff, and an optional tuple of Laurent polynomials
    f_l (index l = 0, 1, ...) deforming the degree-p kernel seed.
    Construction checks the data and stores the coordinates as
    Fractions and ``f_choice`` in the canonical form of ``_clean_f``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.genus < 1:
            raise ValueError("genus must be at least 1")
        if self.rho_order < 1:
            raise ValueError("rho_order must be at least 1")
        coords = tuple(map(_rational, self.coordinates))
        if len(coords) != 2 * self.genus:
            raise ValueError("need exactly 2*genus coordinates")
        if len(set(coords)) != len(coords):
            raise ValueError("handle coordinates must be pairwise distinct")
        if 0 in coords:
            raise ValueError("handle coordinates must be nonzero; the "
                             "pole expansions are around each coordinate")
        if self.matrix_cutoff < 2 * self.rho_order:
            raise ValueError(
                "matrix_cutoff must be at least 2 * rho_order; row m of the "
                "moment matrix carries amplitude order (m + 1)/2 and the "
                "Neumann sums must reach the full window")
        return self._replace(coordinates=coords,
                             f_choice=_clean_f(self.f_choice))

    @property
    def index_set(self) -> tuple:
        """Handle labels (1, -1, 2, -2, ...); -a marks the paired point."""
        out = []
        for a in range(1, self.genus + 1):
            out.extend((a, -a))
        return tuple(out)

    @property
    def sr_vars(self) -> tuple:
        return tuple(self.half_powers)

    @property
    def half_powers(self) -> dict:
        """sr_a -> rho_a for every handle."""
        return _half_powers(self.genus)

    def sr_var(self, a: int) -> str:
        return f"sr{abs(a)}"

    def w(self, a: int) -> Fraction:
        if a == 0 or abs(a) > self.genus:
            raise ValueError(f"no handle point {a}")
        return self.coordinates[2 * (abs(a) - 1) + (1 if a > 0 else 0)]

    def f_poly(self, ell: int) -> dict:
        if 0 <= ell < len(self.f_choice):
            return dict(self.f_choice[ell])
        return {}


def _sr_monomial(data: SchottkyData, exps: dict, coeff) -> MultiSeries:
    """An exact amplitude monomial, keyed by signed handle labels; the
    window lo is sharp so product horizons stay tight."""
    coeff = rat(coeff)
    if coeff == 0:
        return MultiSeries.constant(0)
    merged = {}
    for a, e in exps.items():
        v = data.sr_var(a)
        merged[v] = merged.get(v, 0) + e
    return MultiSeries.monomial(merged, coeff)


def _half_powers(genus: int) -> dict:
    return {f"sr{a}": f"rho{a}" for a in range(1, genus + 1)}


def _clip(half_powers: dict, hi: int):
    """The clip of every handle product: over the sr variables, each
    cut at sr-order hi."""
    return partial(sewing.clip, base=tuple(half_powers), names=half_powers,
                   hi=hi)


# -- the kernel seed and its derivatives -----------------------------------

# the fixed window of the formal kernel psi_full: the x cut of its pole
# expansion, and the y horizon, which caps p at _P_MAX
_X_LO = -6
_Y_HI = 4
_P_MAX = _Y_HI // 2 + 1


class Formal(NamedTuple):
    """A formal point.  As x it is expanded for |x| above every handle
    point and viewed down to x^cut; as y, for |y| below them and known
    through y^cut."""

    var: str
    cut: int


def _point(z, data: SchottkyData):
    """A formal point as it is, or a rational one off the handle
    points."""
    if isinstance(z, Formal):
        return z
    z = _rational(z)
    if z in data.coordinates:
        raise ValueError("evaluation point collides with a handle point")
    return z


def _f_deriv(poly: dict, m: int, x: Fraction):
    """Normalized m-th derivative of a Laurent polynomial at x."""
    total = 0
    for e, c in poly.items():
        b = gbinom(e, m)
        if b:
            total += c * b * x ** (e - m)
    return total


def _f_part(p: int, data: SchottkyData, m: int, n: int, x, y):
    """The f-part sum_l f_l^(m)(x) C(l, n) y^(l-n) of the normalized
    mixed seed derivative, l from n (the binomial vanishes below) to
    2p - 2.  At x = y it is what survives of the seed between a point
    and its own partner, where the pole term must not be counted.  At a
    formal y each y^(l-n) is a monomial known through y^cut.  x is
    formal only in ptilde entries, n >= 2p - 1, where the sum is
    empty."""
    total = 0
    for ell in range(n, 2 * p - 1):
        e = ell - n
        power = y ** e if not isinstance(y, Formal) else MultiSeries(
            (y.var,), {y.var: (0, y.cut)}, {(e,): 1} if e <= y.cut else {})
        total += _f_deriv(data.f_poly(ell), m, x) * gbinom(ell, n) * power
    return total


def _pole(x, y, k: int):
    """(x - y)^k: exact at two rational points, expanded for |x| > |y|
    down to x^cut at a formal x, and for |y| < |x| through y^cut at a
    formal y."""
    if isinstance(x, Formal):
        return MultiSeries((x.var,), {x.var: (x.cut, None)}, {
            (k - t,): gbinom(k, t) * (-y) ** t
            for t in range(k - x.cut + 1)})
    if isinstance(y, Formal):
        return MultiSeries((y.var,), {y.var: (0, y.cut)}, {
            (t,): gbinom(k, t) * x ** (k - t) * (-1) ** t
            for t in range(y.cut + 1)})
    return (x - y) ** k


def _psi0_deriv(p: int, data: SchottkyData, m: int, n: int, x, y):
    """Normalized mixed derivative of the kernel seed off the diagonal:
    a rational at two rational points, a series in the formal one."""
    pole = _pole(x, y, -1 - m - n) * ((-1) ** m * gbinom(m + n, m))
    return pole + _f_part(p, data, m, n, x, y)


def psi0(p: int, f_choice, window) -> MultiSeries:
    """The genus-zero kernel seed 1/(x - y) + sum_l f_l(x) y^l,
    expanded in |x| > |y| over the given two-variable window."""
    if p < 1:
        raise ValueError("kernel degree p must be at least 1")
    fs = _clean_f(f_choice)
    if len(fs) > 2 * p - 1:
        raise ValueError("f_choice may have at most 2p - 1 components")
    x_lo, x_hi = window["x"]
    y_lo, y_hi = window["y"]
    if y_hi is None:
        raise ValueError("the y window needs a finite horizon")
    coeffs = {}
    for k in range(max(0, y_lo), y_hi + 1):
        e = -1 - k
        if e < x_lo:
            break
        if x_hi is not None and e > x_hi:
            continue
        coeffs[(e, k)] = 1
    for ell, poly in enumerate(fs):
        if not y_lo <= ell <= y_hi:
            continue
        for e, c in poly:
            if e < x_lo or (x_hi is not None and e > x_hi):
                continue
            key = (e, ell)
            coeffs[key] = coeffs.get(key, 0) + c
    return MultiSeries(("x", "y"), {"x": (x_lo, x_hi), "y": (y_lo, y_hi)},
                       coeffs)


# -- the moment matrix and its Neumann inverse ------------------------------


def handle_indices(data: SchottkyData) -> tuple:
    return tuple((a, m) for a in data.index_set
                 for m in range(data.matrix_cutoff))


def _matrix_half_powers(M: SeriesMatrix) -> dict:
    """The half-power variables of a handle matrix: its index set runs
    over every handle."""
    return _half_powers(max(a for a, _ in M.indices))


def handle_mul(A: SeriesMatrix, B: SeriesMatrix, hi: int,
               reach=None) -> SeriesMatrix:
    """Matrix product with every entry clipped to sr-order hi, and
    column j to ``reach[j]``."""
    return sewing.mul(A, B, _clip(_matrix_half_powers(A), hi), reach)


def schottky_R(p: int, data: SchottkyData) -> SeriesMatrix:
    """The moment matrix: derivative values of the kernel seed between
    paired handle points, weighted by half-integer amplitude powers.
    The pair b = -a keeps only the f-part of the seed, the pole there
    being the puncture the handle itself fills in."""
    if p < 1:
        raise ValueError("kernel degree p must be at least 1")
    N = data.matrix_cutoff
    sign = (-1) ** p
    entries = {}
    for a in data.index_set:
        for b in data.index_set:
            seed = _f_part if b == -a else _psi0_deriv
            for m in range(N):
                for n in range(N):
                    val = sign * seed(p, data, m, n, data.w(-a), data.w(b))
                    if val:
                        entries[((a, m), (b, n))] = _sr_monomial(
                            data, {a: m + 1}, val).shift(data.sr_var(b), n)
    return SeriesMatrix(handle_indices(data), entries)


def schottky_delta(p: int, data: SchottkyData) -> SeriesMatrix:
    """The half-order pairing: delta_{m, n + 2p - 1} on each handle."""
    one = MultiSeries.constant(1)
    return SeriesMatrix(handle_indices(data), {
        ((a, m), (a, n)): one
        for a in data.index_set
        for m in range(data.matrix_cutoff)
        for n in range(data.matrix_cutoff)
        if m == n + 2 * p - 1})


def shifted_columns(R: SeriesMatrix, p: int) -> SeriesMatrix:
    """R composed with the pairing: column n reads entry n + 2p - 1."""
    entries = {}
    for ((a, m), (b, n)), e in R.entries.items():
        if n - (2 * p - 1) >= 0:
            entries[((a, m), (b, n - (2 * p - 1)))] = e
    return SeriesMatrix(R.indices, entries)


def neumann_inverse(M: SeriesMatrix, hi: int, rows: SeriesMatrix = None,
                    reach: dict = None) -> SeriesMatrix:
    """rows (1 - M)^-1, or (1 - M)^-1 itself without rows, terminating
    because every entry of M carries a strictly positive amplitude
    order; ``reach`` as in ``sewing.neumann_inverse``."""
    return sewing.neumann_inverse(
        M, _matrix_half_powers(M), hi,
        lambda A, B, reach: handle_mul(A, B, hi, reach), rows, reach)


# -- rows, columns, and the assembled kernels -------------------------------


def p_row(p: int, data: SchottkyData, x, tilde=False) -> dict:
    """Row vector of seed derivatives at x, rational or formal, against
    every handle point; tilde shifts the derivative order by 2p - 1,
    which is the composition with the half-order pairing."""
    x = _point(x, data)
    row = {}
    for b in data.index_set:
        for n in range(data.matrix_cutoff):
            idx = n + (2 * p - 1 if tilde else 0)
            ms = _sr_monomial(data, {b: idx}, 1) * _psi0_deriv(
                p, data, 0, idx, x, data.w(b))
            if not ms.is_zero():
                row[(b, n)] = ms
    return row


def q_column(p: int, data: SchottkyData, y, j: int = 0) -> dict:
    """Column vector of seed derivatives from every paired handle
    point to y, rational or formal, with an extra normalized
    y-derivative of order j."""
    y = _point(y, data)
    sign = (-1) ** p
    col = {}
    for a in data.index_set:
        for m in range(data.matrix_cutoff):
            ms = _sr_monomial(data, {a: m + 1}, sign) * _psi0_deriv(
                p, data, m, j, data.w(-a), y)
            if not ms.is_zero():
                col[(a, m)] = ms
    return col


def _check_degree(p: int, data: SchottkyData):
    if p < 1:
        raise ValueError("kernel degree p must be at least 1")
    if data.matrix_cutoff < 2 * p - 1:
        raise ValueError("matrix_cutoff too small for this kernel degree")


def _tilde_row(p: int, data: SchottkyData, R: SeriesMatrix, row: dict,
               hi: int) -> dict:
    """The dressed row ptilde (1 - R Delta)^-1 of a ptilde row, formal
    or at a rational point, with every product cut at sr-order hi.

    Its reach at index (b, n) is sr_|b| <= hi - (n + 1): every factor
    the entry meets next, row (b, n) of R Delta here and of R in
    ``_dressed_rows``, or the q column, declares sr_|b| lo n + 1 or
    more, so nothing above that reach could land inside hi."""
    M = shifted_columns(R, p)
    clip = _clip(data.half_powers, hi)
    reach = {(b, n): {data.sr_var(b): hi - (n + 1)} for b, n in M.indices}
    dressed = neumann_inverse(M, hi, SeriesMatrix(M.indices, {
        (0, j): clip(e) for j, e in row.items()}), reach=reach)
    return {j: e for (_, j), e in dressed.entries.items()}


def _dressed_rows(p: int, data: SchottkyData, x, hi: int) -> tuple:
    """The rows ptilde(x) (1 - R Delta)^-1 and p(x) + ptilde(x)
    (1 - R Delta)^-1 R, the second before the amplitude division that
    defines chi."""
    R = schottky_R(p, data)
    row = _tilde_row(p, data, R, p_row(p, data, x, tilde=True), hi)
    out = dict(p_row(p, data, x))
    for j, e in row_times_matrix(row, R, _clip(data.half_powers, hi)).items():
        out[j] = out[j] + e if j in out else e
    return row, out


def _psi_value(p: int, data: SchottkyData, row: dict, j: int,
               x: Fraction, y: Fraction) -> MultiSeries:
    """psi's j-th normalized y-derivative at (x, y), from the dressed
    row ptilde(x) (1 - R Delta)^-1, cut at the amplitude order."""
    clip = _clip(data.half_powers, 2 * data.rho_order)
    seed = MultiSeries.constant(_psi0_deriv(p, data, 0, j, x, y))
    return clip(row_dot_column(row, q_column(p, data, y, j), clip,
                               seed.extended_to(data.sr_vars)))


def psi_full(p: int, data: SchottkyData) -> MultiSeries:
    """Assemble psi = psi0 + ptilde (1 - R Delta)^-1 q as a formal
    expansion in |x| > |y| with the amplitude corrections attached: the
    ptilde row at the formal x and the q column at the formal y of the
    module docstring."""
    _check_degree(p, data)
    if p > _P_MAX:
        raise ValueError(f"kernel degree p = {p} is above {_P_MAX}, the "
                         f"most the formal kernel's y window 0..{_Y_HI} "
                         f"covers")
    hi = 2 * data.rho_order
    clip = _clip(data.half_powers, hi)
    seed = psi0(p, data.f_choice, {"x": (_X_LO, None), "y": (0, _Y_HI)})
    row = _tilde_row(p, data, schottky_R(p, data),
                     p_row(p, data, Formal("x", _X_LO), tilde=True), hi)
    psi = clip(row_dot_column(row, q_column(p, data, Formal("y", _Y_HI)),
                              clip, seed.extended_to(("x", "y")
                                                     + data.sr_vars)))
    return require_integer(psi, data.half_powers)


def psi_deriv_value(p: int, data: SchottkyData, j: int, x, y) -> MultiSeries:
    """The j-th normalized y-derivative of the dressed kernel at a
    rational point pair."""
    x, y = _rational(x), _rational(y)
    if x == y:
        raise ValueError("kernel evaluation needs x != y")
    _check_degree(p, data)
    row = _tilde_row(p, data, schottky_R(p, data),
                     p_row(p, data, x, tilde=True), 2 * data.rho_order)
    return require_integer(_psi_value(p, data, row, j, x, y),
                           data.half_powers)


# -- the theta vector -------------------------------------------------------


def _chi(data: SchottkyData, row: dict, a: int, ell: int) -> MultiSeries:
    """The (a, ell) entry of the chi row divided by its guaranteed
    sr_a^ell content; the division is validated against the stored
    support."""
    entry = row.get((a, ell))
    if entry is None:
        return MultiSeries.constant(0).extended_to(data.sr_vars)
    var = data.sr_var(a)
    entry = entry.extended_to((var,))
    entry = entry.clip(var, ell, entry.window[var][1])
    return entry.shift(var, -ell).extended_to(data.sr_vars)


def _theta(p: int, data: SchottkyData, row: dict, a: int) -> dict:
    """The theta components of positive handle a from the chi row: each
    chi of the handle plus the partner's mirrored chi, shifted by
    sr_a^(2(p - 1 - ell))."""
    sign = (-1) ** p
    var = data.sr_var(a)
    return {ell: _chi(data, row, a, ell)
            + _chi(data, row, -a, 2 * p - 2 - ell).shift(
                var, 2 * (p - 1 - ell)) * sign
            for ell in range(2 * p - 1)}


def chi(p: int, data: SchottkyData, a: int, ell: int, x) -> MultiSeries:
    """chi_a(x; ell): the ell-th entry of the row p(x) + ptilde(x)
    (1 - R Delta)^-1 R divided by its guaranteed sr_a^ell content."""
    if not 0 <= ell <= 2 * p - 2:
        raise ValueError("component index out of range")
    _check_degree(p, data)
    row = _dressed_rows(p, data, x, 2 * data.rho_order)[1]
    return _chi(data, row, a, ell)


def theta(p: int, data: SchottkyData, a: int, x) -> dict:
    """The chi combination that couples a positive handle to its
    partner, a dx^p form, as its components by index ell.  Components
    may legitimately carry negative half powers of the amplitude; those
    cancel only in the pairing with the handle sums, which is why the
    integer-rho check does not apply here."""
    if a < 1 or a > data.genus:
        raise ValueError("theta is indexed by positive handles")
    _check_degree(p, data)
    row = _dressed_rows(p, data, x, 2 * data.rho_order)[1]
    return _theta(p, data, row, a)


# -- handle sums: partition, n-point, and the reduction step ----------------


@lru_cache(maxsize=None)
def _dual_pairs(m: int):
    return tuple(dual_basis(m))


class SchottkyFn(NamedTuple):
    """A genus-g correlation value: rational-point insertions and the
    amplitude expansion of the handle sum."""

    insertions: tuple
    value: MultiSeries
    data: SchottkyData


def _handle_sum(data: SchottkyData, insertions, caps: dict,
                mod_handle: int = None, mod=None, mod_lo: int = 1) -> MultiSeries:
    """Sum the genus-zero values over a dual basis per handle.

    ``caps`` bounds the channel weight per positive handle.  When
    ``mod`` is given it rewrites the state at the positive point of
    handle ``mod_handle``; the amplitude prefactor keeps following the
    unmodified basis weight, which is what makes the paired-point
    adjoint identity close.  ``mod_lo`` is the least channel weight
    that can survive the rewrite, declared so the window lo stays
    sharp enough for later amplitude divisions.
    """
    g = data.genus
    ins_states = [s for s, _ in insertions]
    ins_points = [_rational(y) for _, y in insertions]
    for y in ins_points:
        if y in data.coordinates:
            raise ValueError("insertion point collides with a handle point")
    window = {}
    ranges = []
    for a in range(1, g + 1):
        lo = mod_lo if mod_handle == a else 0
        window[data.sr_var(a)] = (2 * lo, 2 * caps[a])
        ranges.append(range(lo, caps[a] + 1))
    coeffs = {}
    for weights in product(*ranges):
        for picks in product(*[_dual_pairs(m) for m in weights]):
            states = list(ins_states)
            points = list(ins_points)
            skip = False
            for a, (b, bdual) in enumerate(picks, start=1):
                chosen = mod(b) if mod_handle == a else b
                if chosen.is_zero():
                    skip = True
                    break
                states.extend((bdual, chosen))
                points.extend((data.w(-a), data.w(a)))
            if skip:
                continue
            val = genus0_rational_value(states, points)
            if val:
                key = tuple(2 * m for m in weights)
                coeffs[key] = coeffs.get(key, 0) + val
    return MultiSeries(data.sr_vars, window, coeffs)


def genus_g_npoint(insertions, data: SchottkyData,
                   weight_cap: int = None) -> SchottkyFn:
    """The genus-g n-point handle sum; each insertion is a
    (GradedVector, rational point) pair and the channel weight per
    handle runs to ``weight_cap`` (by default the amplitude order)."""
    cap = data.rho_order if weight_cap is None else weight_cap
    ins = tuple((s, _rational(y)) for s, y in insertions)
    pts = [y for _, y in ins]
    if len(set(pts)) != len(pts):
        raise ValueError("insertion points must be pairwise distinct")
    caps = {a: cap for a in range(1, data.genus + 1)}
    value = _handle_sum(data, ins, caps)
    return SchottkyFn(ins, require_integer(value, data.half_powers), data)


def genus_g_partition(data: SchottkyData,
                      weight_cutoff: int = None) -> MultiSeries:
    """The genus-g partition handle sum.

    At g = 1, under the dictionary q / (1 + q)^2 = -rho (w_{-1} - w_1)^(-2),
    the handle sum is the graded dimension prod_n (1 - q^n)^(-1).  The
    map q = -rho (w_{-1} - w_1)^(-2) is only its first-order term, so
    in that variable the rho^2 coefficient reads 4, not 2.
    """
    return genus_g_npoint((), data, weight_cap=weight_cutoff).value


def genus_g_reduce(direction, F: SchottkyFn, data: SchottkyData) -> SchottkyFn:
    """One reduction step: insert a quasi-primary state u at a fresh
    rational point y and assemble the n+1-point handle sum out of the
    n-point data, through the theta pairing on each handle and the
    dressed kernel against each old insertion."""
    u, y = direction
    y = _rational(y)
    if F.data != data:
        raise ValueError("function and surface data disagree")
    if u.is_zero():
        zero = MultiSeries.constant(0).extended_to(data.sr_vars)
        return SchottkyFn(((u, y),) + F.insertions, zero, data)
    if not u.is_homogeneous():
        raise ValueError("direction state must be homogeneous")
    p = u.weights()[0]
    if p == 0:
        value = F.value * u.coefficient(VACUUM)
        return SchottkyFn(((u, y),) + F.insertions, value, data)
    if not virasoro(1, u).is_zero():
        raise ValueError("direction state must be quasi-primary")
    _check_degree(p, data)
    if y in data.coordinates or any(y == yk for _, yk in F.insertions):
        raise ValueError("new insertion point collides with an existing one")

    order = data.rho_order
    hi = 2 * order
    clip = _clip(data.half_powers, hi)
    total = MultiSeries.constant(0).extended_to(data.sr_vars)
    ptrow, vrow = _dressed_rows(p, data, y, hi + max(0, p - 2))

    for a in range(1, data.genus + 1):
        th = _theta(p, data, vrow, a)
        caps = {c: order for c in range(1, data.genus + 1)}
        caps[a] = order + p - 1
        for ell in range(2 * p - 1):
            osum = _handle_sum(data, F.insertions, caps, mod_handle=a,
                               mod=lambda b: vertex_mode(u, ell, b),
                               mod_lo=max(1, ell - p + 1))
            if not osum.is_zero():
                total = total + th[ell] * osum

    caps = {c: order for c in range(1, data.genus + 1)}
    kernels = {}
    for k, (vk, yk) in enumerate(F.insertions):
        for j in range(p + max(vk.weights(), default=0)):
            uv = vertex_mode(u, j, vk)
            if uv.is_zero():
                continue
            if (yk, j) not in kernels:
                kernels[(yk, j)] = _psi_value(p, data, ptrow, j, y, yk)
            modified = list(F.insertions)
            modified[k] = (uv, yk)
            inner = _handle_sum(data, modified, caps)
            total = total + clip(kernels[(yk, j)], inner)

    value = require_integer(clip(total), data.half_powers)
    return SchottkyFn(((u, y),) + F.insertions, value, data)

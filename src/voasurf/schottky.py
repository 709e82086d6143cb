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

The formal kernel ``psi_full(p, data)`` is expanded on one fixed window:
x exponents from -6 up (``_X_LO``), y exponents 0 through 4
(``_Y_HI``).  The y horizon must cover the seed's f-part, which reaches
y^(2p - 2), so p is at most 3 there (``_P_MAX``).

Genus-zero values are computed by pairing free-field legs: the vertex
operator of a basis monomial is a normally ordered product of
derivative currents, so a vacuum correlation value is a sum over
complete cross-point matchings of derivative propagators.  That closed
form is what lets handle sums be evaluated at rational points instead
of in yet another formal variable.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial

from . import sewing
from .series import MultiSeries, rat
from .sewing import SeriesMatrix, require_integer, row_dot_column, \
    row_times_matrix
from .voa import VACUUM, dual_basis, gbinom, vertex_mode, virasoro


# -- genus-zero values at rational points ---------------------------------


def _pair_weight(k: int, kp: int) -> Fraction:
    """Contraction of the (k-1)-th and (kp-1)-th normalized current
    derivatives, without the (z - w)^-(k+kp) factor."""
    return Fraction((-1) ** (k - 1) * factorial(k + kp - 1),
                    factorial(k - 1) * factorial(kp - 1))


@lru_cache(maxsize=None)
def _matchings(legs: tuple, points: tuple) -> Fraction:
    """The sum over complete matchings of the legs (point, derivative)
    that pair distinct points.  Memoized: the same leftover legs recur
    across the matchings of one monomial and across the channels of a
    handle sum."""
    if not legs:
        return Fraction(1)
    i, k = legs[0]
    total = Fraction(0)
    for t in range(1, len(legs)):
        j, kp = legs[t]
        if j == i:
            continue
        rest = legs[1:t] + legs[t + 1:]
        total += (_pair_weight(k, kp)
                  / (points[i] - points[j]) ** (k + kp)
                  * _matchings(rest, points))
    return total


@lru_cache(maxsize=None)
def _monomial_value(monomials: tuple, points: tuple) -> Fraction:
    legs = tuple((i, k) for i, parts in enumerate(monomials) for k in parts)
    if len(legs) % 2:
        return Fraction(0)
    return _matchings(legs, points)


def genus0_rational_value(states, points) -> Fraction:
    """The genus-zero correlation value of Fock states at distinct
    rational points.

    This is the rational function that the ordered formal expansions
    of the reduction module converge to, evaluated off the diagonals,
    which is exactly the form the handle sums need.
    """
    pts = tuple(rat(x) for x in points)
    if len(set(pts)) != len(pts):
        raise ValueError("insertion points must be pairwise distinct")
    if len(pts) != len(states):
        raise ValueError("one point per state")
    total = Fraction(0)
    for combo in product(*(tuple(s.t.items()) for s in states)):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        if coeff:
            total += coeff * _monomial_value(tuple(st for st, _ in combo), pts)
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
            c = rat(c)
            if c:
                poly[int(e)] = poly.get(int(e), Fraction(0)) + c
        cleaned.append(tuple(sorted((e, c) for e, c in poly.items() if c)))
    return tuple(cleaned)


@dataclass(frozen=True)
class SchottkyData:
    """Handle data: 2g rational coordinates in the order
    (w_{-1}, w_1, w_{-2}, w_2, ...), the amplitude truncation, the
    moment matrix cutoff, and an optional tuple of Laurent polynomials
    f_l (index l = 0, 1, ...) deforming the degree-p kernel seed."""

    genus: int
    coordinates: tuple
    rho_order: int
    matrix_cutoff: int
    f_choice: tuple = ()

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be at least 1")
        if self.rho_order < 1:
            raise ValueError("rho_order must be at least 1")
        coords = tuple(rat(c) for c in self.coordinates)
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
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "f_choice", _clean_f(self.f_choice))

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


def _f_deriv(poly: dict, m: int, x: Fraction) -> Fraction:
    """Normalized m-th derivative of a Laurent polynomial at x."""
    total = Fraction(0)
    for e, c in poly.items():
        b = gbinom(e, m)
        if b:
            total += c * b * x ** (e - m)
    return total


def _f_part(p: int, data: SchottkyData, m: int, n: int,
            x: Fraction, y: Fraction) -> Fraction:
    """The f-part sum_l f_l^(m)(x) C(l, n) y^(l-n) of the normalized
    mixed seed derivative.  At x = y it is what survives of the seed
    between a point and its own partner, where the pole term must not
    be counted."""
    total = Fraction(0)
    for ell in range(2 * p - 1):
        b = gbinom(ell, n)
        if b:
            total += _f_deriv(data.f_poly(ell), m, x) * b * y ** (ell - n)
    return total


def _psi0_deriv(p: int, data: SchottkyData, m: int, n: int,
                x: Fraction, y: Fraction) -> Fraction:
    """Normalized mixed derivative of the kernel seed at a rational
    point pair off the diagonal."""
    pole = Fraction((-1) ** m * gbinom(m + n, m)) * (x - y) ** (-1 - m - n)
    return pole + _f_part(p, data, m, n, x, y)


def _upper_pole(var: str, c: Fraction, k: int, lo: int) -> MultiSeries:
    """(var - c)^k expanded for |var| > |c|, viewed down to var^lo."""
    coeffs = {}
    t = 0
    while k - t >= lo:
        b = gbinom(k, t)
        if b:
            coeffs[(k - t,)] = Fraction(b) * (-c) ** t
        t += 1
        if k >= 0 and t > k:
            break
    return MultiSeries((var,), {var: (lo, None)}, coeffs)


def _lower_pole(c: Fraction, var: str, k: int, hi: int) -> MultiSeries:
    """(c - var)^k expanded for |var| < |c|, known through var^hi."""
    coeffs = {}
    for t in range(hi + 1):
        b = gbinom(k, t)
        if b:
            coeffs[(t,)] = Fraction(b) * c ** (k - t) * Fraction(-1) ** t
        if k >= 0 and t >= k:
            break
    return MultiSeries((var,), {var: (0, hi)}, coeffs)


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
        coeffs[(e, k)] = Fraction(1)
    for ell, poly in enumerate(fs):
        if not y_lo <= ell <= y_hi:
            continue
        for e, c in poly:
            if e < x_lo or (x_hi is not None and e > x_hi):
                continue
            key = (e, ell)
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
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
    sign = Fraction((-1) ** p)
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
    """Row vector of seed derivatives at rational x against every
    handle point; tilde shifts the derivative order by 2p - 1, which
    is the composition with the half-order pairing."""
    x = rat(x)
    row = {}
    for b in data.index_set:
        if x == data.w(b):
            raise ValueError("evaluation point collides with a handle point")
        for n in range(data.matrix_cutoff):
            idx = n + (2 * p - 1 if tilde else 0)
            val = _psi0_deriv(p, data, 0, idx, x, data.w(b))
            ms = _sr_monomial(data, {b: idx}, val)
            if not ms.is_zero():
                row[(b, n)] = ms
    return row


def q_column(p: int, data: SchottkyData, y, j: int = 0) -> dict:
    """Column vector of seed derivatives from every paired handle
    point to rational y, with an extra normalized y-derivative of
    order j."""
    y = rat(y)
    sign = Fraction((-1) ** p)
    col = {}
    for a in data.index_set:
        if y == data.w(-a):
            raise ValueError("evaluation point collides with a handle point")
        for m in range(data.matrix_cutoff):
            val = sign * _psi0_deriv(p, data, m, j, data.w(-a), y)
            ms = _sr_monomial(data, {a: m + 1}, val)
            if not ms.is_zero():
                col[(a, m)] = ms
    return col


def _p_row_formal(p: int, data: SchottkyData, x_lo: int) -> dict:
    """The ptilde row of seed derivatives at a formal x, expanded for
    |x| larger than every handle point and viewed down to x^x_lo.

    Only the pole survives: the f-part sum_l f_l(x) C(l, n + 2p - 1)
    b^(l - n - 2p + 1) runs over l <= 2p - 2, where every binomial is 0."""
    row = {}
    for b in data.index_set:
        for n in range(data.matrix_cutoff):
            idx = n + 2 * p - 1
            ms = _upper_pole("x", data.w(b), -1 - idx, x_lo) * \
                _sr_monomial(data, {b: idx}, 1)
            if not ms.is_zero():
                row[(b, n)] = ms
    return row


def _q_column_formal(p: int, data: SchottkyData, y_hi: int) -> dict:
    sign = Fraction((-1) ** p)
    col = {}
    for a in data.index_set:
        for m in range(data.matrix_cutoff):
            pole = _lower_pole(data.w(-a), "y", -1 - m, y_hi)
            pole = pole * Fraction((-1) ** m)
            fpart = {}
            for ell in range(2 * p - 1):
                if ell > y_hi:
                    continue
                c = _f_deriv(data.f_poly(ell), m, data.w(-a))
                if c:
                    fpart[(ell,)] = c
            ms = pole + MultiSeries(("y",), {"y": (0, y_hi)}, fpart)
            ms = ms * _sr_monomial(data, {a: m + 1}, sign)
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
    expansion in |x| > |y| with the amplitude corrections attached, on
    the fixed window of the module docstring."""
    _check_degree(p, data)
    if p > _P_MAX:
        raise ValueError(f"kernel degree p = {p} is above {_P_MAX}, the "
                         f"most the formal kernel's y window 0..{_Y_HI} "
                         f"covers")
    hi = 2 * data.rho_order
    clip = _clip(data.half_powers, hi)
    seed = psi0(p, data.f_choice, {"x": (_X_LO, None), "y": (0, _Y_HI)})
    row = _tilde_row(p, data, schottky_R(p, data),
                     _p_row_formal(p, data, _X_LO), hi)
    psi = clip(row_dot_column(row, _q_column_formal(p, data, _Y_HI), clip,
                              seed.extended_to(("x", "y") + data.sr_vars)))
    return require_integer(psi, data.half_powers)


def psi_deriv_value(p: int, data: SchottkyData, j: int, x, y) -> MultiSeries:
    """The j-th normalized y-derivative of the dressed kernel at a
    rational point pair."""
    x, y = rat(x), rat(y)
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
    sign = Fraction((-1) ** p)
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


@dataclass
class SchottkyFn:
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
    ins_points = [rat(y) for _, y in insertions]
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
                coeffs[key] = coeffs.get(key, Fraction(0)) + val
    return MultiSeries(data.sr_vars, window, coeffs)


def genus_g_npoint(insertions, data: SchottkyData,
                   weight_cap: int = None) -> SchottkyFn:
    """The genus-g n-point handle sum; each insertion is a
    (GradedVector, rational point) pair and the channel weight per
    handle runs to ``weight_cap`` (by default the amplitude order)."""
    cap = data.rho_order if weight_cap is None else weight_cap
    ins = tuple((s, rat(y)) for s, y in insertions)
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
    y = rat(y)
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

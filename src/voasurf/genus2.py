"""Genus-two surfaces sewn from two tori.

The moduli are two nomes q1, q2 and a sewing parameter eps.  The
kernel matrices that mediate between the tori carry half-integer
eps-weights, so eps is tracked through its square root, the variable
"se" with se^2 = eps (``HALF_POWERS``).  Every se^e is an exact
monomial with se lo e, and the se horizon comes from the clip alone.
The matrix arithmetic, the Neumann inverse, the se-clip of every
product and the integer-eps check on exported quantities live in the
sewing module; this one holds the genus-two mathematics.

Trace normalization follows the one-point helpers of the reduction
module: the overall (q1 q2)^(-c/24) prefactor is left off the stored
series and reported separately by consumers that need it.

The sewn partition function sums channels over the square-bracket
Fock basis, each the product of two closed-form (Mason-Tuite Hafnian)
one-point functions from the elliptic module over the basis norm; no
Fock vector is built.  The one-step reduction ``genus2_reduce`` sums
the same channels in square-bracket coordinates, where v[n] acts as the
round mode of v's coordinates, and takes its traces with two zero
modes from Zhu's recursion; no genus-two code traces the Fock space.

The same-chart Weierstrass kernel keeps only the pole of P_{j+1}(x - y):
expanded in |x| > |y| it has x-horizon -(j+1), and the regular part, a
polynomial in x - y, lies above it and is never built.

The objects that depend on the moduli alone are built once per
process and shared: ``lambda_tilde``, the dressed row ``q_row``, the
column ``p_column`` and the elliptic function ``_pm`` are memoized on
their arguments, since a batch of kernels and reductions on one surface
asks for the same few of them again and again.  Their callers only read
them; no caller mutates a memoized matrix, row or series.

Infinite matrices are truncated at ``matrix_cutoff`` rows and columns.
Every entry of the moment matrix at index (m, n) carries se-order
m + n at least, so with matrix_cutoff >= 2 * eps_order no discarded
entry can reach the kept se-window.  That inequality is enforced on
the moduli, not assumed.
"""

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from typing import NamedTuple

from . import sewing
from .elliptic import eisenstein, onepoint_hafnian, weierstrass_p
from .series import MultiSeries, binomial_expand
from .sewing import SeriesMatrix, require_integer, row_dot_column, \
    row_times_matrix
from .sewing import add as kernel_add
from .voa import (
    GradedVector,
    VACUUM,
    _norm,
    basis,
    to_square_coords,
    vertex_mode,
    virasoro,
)

_EVARS = ("q1", "q2", "se")
HALF_POWERS = {"se": "eps"}
# gen_weierstrass's point variables, the z-order of every P_m row and
# column, and the x cut of its pole expansion
_XVAR, _YVAR = "x", "y"
_Z_ORDER = 6
_X_LO = -8


class _ModuliFields(NamedTuple):
    tau1_order: int
    tau2_order: int
    eps_order: int
    matrix_cutoff: int


class SewingModuli(_ModuliFields):
    """Expansion orders for the two nomes, the eps-truncation, and the
    matrix cutoff N."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.tau1_order < 0 or self.tau2_order < 0 or self.eps_order < 0:
            raise ValueError("expansion orders must be nonnegative")
        if self.matrix_cutoff < 2 * self.eps_order:
            raise ValueError(
                "matrix_cutoff must be at least 2 * eps_order; entries at "
                "index (m, n) start at se-order m + n")
        return self

    @property
    def se_order(self) -> int:
        return 2 * self.eps_order


def KernelMatrix(size: int, entries: dict) -> SeriesMatrix:
    """A truncated moment matrix: indices 1..size, absent entry = 0."""
    return SeriesMatrix(tuple(range(1, size + 1)), entries)


class Genus2Fn(NamedTuple):
    """A genus-two n-point function on the sewn surface."""

    insertions: tuple
    value: MultiSeries


def _qvar(chart: int) -> str:
    if chart not in (1, 2):
        raise ValueError("chart must be 1 or 2")
    return "q1" if chart == 1 else "q2"


def _q_order(chart: int, moduli: SewingModuli) -> int:
    return moduli.tau1_order if chart == 1 else moduli.tau2_order


def _eis(k: int, chart: int, moduli: SewingModuli) -> MultiSeries:
    """E_k(tau_chart) in the shared entry variables; zero for odd or
    out-of-range k."""
    if k < 2 or k % 2 == 1:
        return MultiSeries.constant(0).extended_to(_EVARS)
    ek = eisenstein(k, _q_order(chart, moduli), _qvar(chart))
    return ek.extended_to(_EVARS)


def _clip(moduli: SewingModuli):
    """The clip of every kernel product: over (q1, q2, se), se cut at
    the se-order of ``moduli``."""
    return partial(sewing.clip, base=_EVARS, names=HALF_POWERS,
                   hi=moduli.se_order)


# -- the kernel matrices --------------------------------------------------


def lambda_entry(a: int, m: int, n: int, moduli: SewingModuli) -> MultiSeries:
    """Lambda_a(m, n) = eps^((m+n)/2) (-1)^(n+1) C(m+n-1, n) E_{m+n}(tau_a)."""
    k = m + n
    if k % 2 or k > moduli.se_order:
        return MultiSeries.constant(0).extended_to(_EVARS)
    coeff = (-1) ** (n + 1) * comb(k - 1, n)
    return _eis(k, a, moduli) * MultiSeries.monomial({"se": k}, coeff)


def lambda_matrix(a: int, moduli: SewingModuli) -> SeriesMatrix:
    """Lambda_a: Lambda_a Delta without the shift (p = 1)."""
    return lambda_tilde(a, 1, moduli)


def s_conjugated_a_entry(a: int, m: int, n: int,
                         moduli: SewingModuli) -> MultiSeries:
    """(S A_a S^-1)(m, n) with the square roots cancelled by hand.

    A_a(m, n) = (-1)^(m+1) eps^((m+n)/2) (m+n-1)! / (sqrt(mn) (m-1)!(n-1)!)
    E_{m+n}(tau_a), and conjugating by S = diag(sqrt(m)) multiplies by
    sqrt(m/n), leaving the rational entry below.
    """
    k = m + n
    if k % 2 or k > moduli.se_order:
        return MultiSeries.constant(0).extended_to(_EVARS)
    coeff = Fraction((-1) ** (m + 1) * factorial(k - 1),
                     n * factorial(m - 1) * factorial(n - 1))
    return _eis(k, a, moduli) * MultiSeries.monomial({"se": k}, coeff)


@lru_cache(maxsize=None)
def lambda_tilde(a: int, p: int, moduli: SewingModuli) -> SeriesMatrix:
    """Lambda_a Delta, i.e. entry (m, n) -> Lambda_a(m, n + 2p - 2)."""
    N = moduli.matrix_cutoff
    entries = {}
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            e = lambda_entry(a, m, n + 2 * p - 2, moduli)
            if not e.is_zero():
                entries[(m, n)] = e
    return KernelMatrix(N, entries)


def gamma_matrix(p: int, size: int) -> SeriesMatrix:
    one = MultiSeries.constant(1).extended_to(_EVARS)
    return KernelMatrix(size, {
        (m, n): one
        for m in range(1, size + 1) for n in range(1, size + 1)
        if m + n == 2 * p - 2})


def kernel_identity(size: int) -> SeriesMatrix:
    return sewing.identity(range(1, size + 1))


def kernel_mul(A: SeriesMatrix, B: SeriesMatrix, moduli: SewingModuli,
               reach=None) -> SeriesMatrix:
    """A B clipped, column j cut at ``reach[j]``."""
    return sewing.mul(A, B, _clip(moduli), reach)


def neumann_inverse(M: SeriesMatrix, moduli: SewingModuli,
                    rows: SeriesMatrix = None, reach=None) -> SeriesMatrix:
    """rows (1 - M)^-1, or (1 - M)^-1 itself without rows, terminating
    because every entry of M starts at se-order 1 or higher; ``reach``
    as in ``sewing.neumann_inverse``."""
    return sewing.neumann_inverse(
        M, HALF_POWERS, moduli.se_order,
        lambda A, B, reach: kernel_mul(A, B, moduli, reach), rows, reach)


# -- rows and columns of elliptic data ------------------------------------


@lru_cache(maxsize=None)
def _pm(m: int, chart: int, var: str, moduli: SewingModuli) -> MultiSeries:
    """P_m(z, tau_chart) in the point variable ``var``."""
    ms = weierstrass_p(m, _Z_ORDER, _q_order(chart, moduli),
                       zvar=var, qvar=_qvar(chart))
    return ms.extended_to(sorted(set(_EVARS) | {var}))


def _pm_difference(m: int, chart: int, moduli: SewingModuli) -> MultiSeries:
    """P_m(x - y, tau_chart) expanded in |x| > |y|, viewed through the
    window of its pole.

    The pole 1/(x-y)^m becomes a binomial series cut at x^_X_LO, with
    x-horizon -m.  The regular part is a polynomial in x - y whose every
    term has x-exponent 0 or more, above that horizon, so no term of it
    could be kept and none is built.
    """
    q_order = _q_order(chart, moduli)
    qmono = MultiSeries.monomial({_qvar(chart): 0},
                                 window={_qvar(chart): (0, q_order)})
    out = binomial_expand(m - 1, _XVAR, _YVAR, _X_LO) * qmono
    return out.extended_to(sorted(set(_EVARS) | {_XVAR, _YVAR}))


def r_row(x_chart: int, xvar: str, moduli: SewingModuli) -> dict:
    """R(x; m) = eps^(m/2) P_{m+1}(x, tau_a), components 1..N."""
    out = {}
    for m in range(1, min(moduli.matrix_cutoff, moduli.se_order) + 1):
        out[m] = _pm(m + 1, x_chart, xvar, moduli) * \
            MultiSeries.monomial({"se": m})
    return out


@lru_cache(maxsize=None)
def p_column(j: int, y_chart: int, moduli: SewingModuli) -> dict:
    """PP_{j+1}(y; m) = eps^(m/2) C(m+j-1, j) (P_{j+m}(y) - d_{j0} E_m)."""
    out = {}
    for m in range(1, min(moduli.matrix_cutoff, moduli.se_order) + 1):
        body = _pm(j + m, y_chart, _YVAR, moduli)
        if j == 0:
            body = body - _eis(m, y_chart, moduli)
        out[m] = body * MultiSeries.monomial({"se": m}, comb(m + j - 1, j))
    return out


@lru_cache(maxsize=None)
def q_row(p: int, x_chart: int, xvar: str, moduli: SewingModuli) -> dict:
    """Q(p; x) = R(x) Delta (1 - Ltilde_abar Ltilde_a)^-1 for x on
    chart a, entry n cut at its reach se <= se_order - n: every factor
    it meets next (PP(y; n), se Q(1) in ``genus2_reduce``, row n of
    Ltilde, Lambda and their mixed sum) declares se lo n or more."""
    abar = 3 - x_chart
    clip = _clip(moduli)
    R = r_row(x_chart, xvar, moduli)
    shifted = {(0, n): clip(R[n + 2 * p - 2])
               for n in range(1, moduli.matrix_cutoff + 1)
               if n + 2 * p - 2 in R}
    prod = kernel_mul(lambda_tilde(abar, p, moduli),
                      lambda_tilde(x_chart, p, moduli), moduli)
    dressed = neumann_inverse(
        prod, moduli, SeriesMatrix(prod.indices, shifted),
        reach={n: {"se": moduli.se_order - n} for n in prod.indices})
    return {n: e for (_, n), e in dressed.entries.items()}


def gen_weierstrass(p: int, j: int, x_chart: int, y_chart: int,
                    moduli: SewingModuli) -> MultiSeries:
    """The genus-two Weierstrass kernel replacing P_{j+1}(x - y).

    Same chart:   P_{j+1}(x-y) + (-1)^(j+1) Q Ltilde_abar PP_{j+1}(y),
    with the j = 0 case carrying the extra -P_1(x) and, for p = 2, the
    component (Q Lambda_abar)(2p-2).
    Cross chart:  (-1)^(p+1) (-1)^j Q PP_{j+1}(y) plus j = 0, p = 2
    corrections.  The j > 0 cases are the y-derivatives of j = 0, which
    is a separate test, not an assumption.  Either kernel is cut at the
    se-order of ``moduli``, so its eps window claims no more than was
    summed.  The same-chart tail's reach is the lead's x-horizon: its
    dot product is cut at x^-(j+1), and no term above it is built.
    """
    if p not in (1, 2):
        raise ValueError("kernels are tabulated for weights p = 1 and 2")
    if j < 0:
        raise ValueError("j must be nonnegative")
    a, abar = x_chart, 3 - x_chart
    clip = _clip(moduli)
    Q = q_row(p, x_chart, _XVAR, moduli)
    col = p_column(j, y_chart, moduli)
    if y_chart == a:
        lt = lambda_tilde(abar, p, moduli)
        lead = _pm_difference(j + 1, a, moduli)
        tail = row_dot_column(row_times_matrix(Q, lt, clip), col, clip,
                              caps={_XVAR: -(j + 1)})
        out = lead + tail * (-1) ** (j + 1)
        if j == 0:
            out = out - _pm(1, a, _XVAR, moduli)
            if p != 1:
                corr = row_times_matrix(Q, lambda_matrix(abar, moduli),
                                        clip).get(2 * p - 2)
                if corr is not None:
                    out = out - corr
        out = clip(out)
        return out.extended_to(sorted(set(out.vars) | {_YVAR}))
    sign = (-1) ** (p + 1 + j)
    out = row_dot_column(Q, col, clip) * sign
    if j == 0 and p != 1 and 2 * p - 2 <= moduli.se_order:
        psign = (-1) ** (p + 1)
        out = out + _pm(2 * p - 1, a, _XVAR, moduli) * \
            MultiSeries.monomial({"se": 2 * p - 2}, psign)
        corr = row_times_matrix(
            row_times_matrix(Q, lambda_tilde(abar, p, moduli), clip),
            lambda_matrix(a, moduli), clip).get(2 * p - 2)
        if corr is not None:
            out = out + corr * psign
    return clip(out).extended_to(_EVARS + (_XVAR, _YVAR))


# -- sewing sums -----------------------------------------------------------


def z2_partition(moduli: SewingModuli) -> MultiSeries:
    """The sewn two-torus partition function as a series in q1, q2 and
    se^2 = eps: sum_r sum_{lam |- r} H_lam(q1) H_lam(q2) eps^r / <lam, lam>,
    the channel sum over the square-bracket Fock basis, which is
    orthogonal with the norms ``_norm``, and H_lam its Mason-Tuite
    one-point function ``onepoint_hafnian``.  No Fock vector is built.
    """
    out = MultiSeries.constant(0).extended_to(_EVARS)
    for r in range(moduli.eps_order + 1):
        for lam in basis(r):
            out = out + onepoint_hafnian(lam, moduli.tau1_order, "q1") * \
                onepoint_hafnian(lam, moduli.tau2_order, "q2") * \
                MultiSeries.monomial({"se": 2 * r}, Fraction(1, _norm(lam)))
    return require_integer(_clip(moduli)(out), HALF_POWERS)


def sq_weight(v: GradedVector) -> int:
    """The square-bracket weight of a [L(0)]-homogeneous state: the
    single weight of its square-bracket coordinates."""
    weights = GradedVector(to_square_coords(v)).weights()
    if len(weights) != 1:
        raise ValueError("state has no single square-bracket weight")
    return weights[0]


def _trace(w: GradedVector, chart: int, moduli: SewingModuli) -> MultiSeries:
    """Tr(o(w) q^L(0)) on ``chart`` for w in square-bracket coordinates:
    the sum of the Hafnians of its parts."""
    out = MultiSeries.constant(0).extended_to(_EVARS)
    for lam, c in w.t.items():
        out = out + onepoint_hafnian(lam, _q_order(chart, moduli),
                                     _qvar(chart)) * c
    return out


def _channel_sums(sq: GradedVector, xmodes, moduli: SewingModuli):
    """F1, F2 and {m: X(m)} for m in ``xmodes``, the channel sums of
    ``genus2_reduce`` for the state with square-bracket coordinates sq.

    A channel is a basis state lam of weight r, with eps^r / <lam, lam>,
    and v[n]lam is sq(n)lam.  The traces with two zero modes follow
    Zhu's recursion (JAMS 1996), Tr o(v) o(u) q^L(0) = Z(v[-1]u) -
    sum_{k>=1} E_2k Z(v[2k-1]u), cut where 2k - 1 reaches wt v[-1]u.
    """
    zero = MultiSeries.constant(0).extended_to(_EVARS)
    F = {1: zero, 2: zero}
    X = {m: zero for m in xmodes}
    for r in range(moduli.eps_order + 1):
        odd = range(1, max(sq.weights()) + r, 2)
        for lam in basis(r):
            u = GradedVector.basis_state(lam)
            vu = {n: vertex_mode(sq, n, u) for n in (-1, *odd, *xmodes)}
            se = partial(MultiSeries.monomial, coeff=Fraction(1, _norm(lam)))
            for chart in (1, 2):
                # the other chart carries the one-point function of lam
                h = onepoint_hafnian(lam, _q_order(3 - chart, moduli),
                                     _qvar(3 - chart))
                if h.is_zero():
                    continue
                t = _trace(vu[-1], chart, moduli)
                for n in odd:
                    t = t - _eis(n + 1, chart, moduli) * \
                        _trace(vu[n], chart, moduli)
                if not t.is_zero():
                    F[chart] = F[chart] + t * h * se({"se": 2 * r})
                if chart == 1:
                    for m in X:
                        t = _trace(vu[m], 1, moduli)
                        if not t.is_zero():
                            X[m] = X[m] + t * h * se({"se": 2 * r - m})
    return F[1], F[2], X


def genus2_reduce(direction, F, moduli: SewingModuli) -> Genus2Fn:
    """One reduction step on the sewn surface, for a fresh insertion on
    chart 1 and F the partition function; ``direction`` is that
    insertion, a ``reduction.Insertion``.

    The output is f1 F1 + f2 F2 + sum_m f3(m) X(m): F1 and F2 carry the
    new state's zero mode inside the chart-1 or chart-2 trace next to
    the internal zero mode o(u); X(m) replaces u by v[m]u.  All the
    point dependence enters through the elliptic rows f1, f2, f3.
    """
    if isinstance(F, Genus2Fn):
        if F.insertions:
            raise NotImplementedError(
                "only a single reduction step from the partition function "
                "is supported")
        value = F.value
    else:
        value = F
    v = direction.state
    xvar = direction.point

    if set(v.weights()) <= {0}:
        # Y(1, x) is the identity
        scaled = value * v.coefficient(VACUUM)
        return Genus2Fn((direction,), scaled.extended_to(
            sorted(set(scaled.vars) | {xvar})))

    # L[1] acts on square-bracket coordinates as L(1) on round ones
    sq = GradedVector(to_square_coords(v))
    if not virasoro(1, sq).is_zero():
        raise ValueError("direction state must be quasi-primary "
                         "(killed by L[1])")
    p = sq_weight(v)
    F1, F2, X = _channel_sums(sq, range(1, max(2 * p - 2, 1)), moduli)

    clip = _clip(moduli)
    Q = q_row(p, 1, xvar, moduli)
    lt2 = lambda_tilde(2, p, moduli)
    f1_tail = row_times_matrix(Q, lt2, clip).get(1)
    se = MultiSeries.monomial({"se": 1})
    out = F1
    if f1_tail is not None:
        out = out + clip(f1_tail * se, F1)
    if 1 in Q:
        out = out + clip(Q[1] * se * (-1) ** p, F2)
    if X:
        row = dict(r_row(1, xvar, moduli))
        mixed = kernel_add(
            kernel_mul(lt2, lambda_matrix(1, moduli), moduli),
            kernel_mul(lambda_matrix(2, moduli), gamma_matrix(p, moduli.matrix_cutoff), moduli))
        for n, e in row_times_matrix(Q, mixed, clip).items():
            row[n] = row[n] + e if n in row else e
        for m, xm in X.items():
            f3m = row.get(m)
            if f3m is None or xm.is_zero():
                continue
            out = out + clip(f3m, xm)

    out = clip(out)
    require_integer(out, HALF_POWERS)
    return Genus2Fn((direction,),
                    out.extended_to(sorted(set(out.vars) | {xvar})))

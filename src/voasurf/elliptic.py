"""Eisenstein series and Weierstrass kernels in exact arithmetic.

Conventions (all rational, all truncated explicitly):

* E_k(tau) = 0 for odd k, and for even k >= 2

      E_k(q) = -B_k/k! + (2/(k-1)!) sum_{n>=1} sigma_{k-1}(n) q^n,

  so E_2 = -1/12 + 2q + 6q^2 + 8q^3 + ...  The divisor sums
  sigma_{k-1}(1..N) come from one sieve over the divisors d, and each
  (k, N) table is memoized in the process; nothing is kept on disk.

* P_1(z, tau) = 1/z - sum_{k>=2} E_k(tau) z^(k-1), and
  P_m = ((-1)^(m-1)/(m-1)!) d_z^(m-1) P_1, so that d_z P_m = -m P_{m+1}.

* In the annulus |q| < |q_z| < 1 the same kernels have the Laurent form

      P_m(z, tau) = ((-1)^m/(m-1)!) sum_{n != 0} n^(m-1) q_z^n / (1 - q^n),

  expanded here with (1-q^n)^-1 = sum_{i>=0} q^(i n) for n > 0 and
  -sum_{i>=1} q^(i|n|) for n < 0.  The q_z window of the result is a
  viewing box: the true support extends beyond it in both directions,
  so never multiply two of these in the same q_z variable.  The
  genus-1 reduction does not build this form: it applies each q_z^n
  slice as a raw-mode commutator times 1/(1 - q^n) (see
  ``reduction``); the tests hold it as the oracle for Zhu's kernel,
  and the benchmark tracer still times it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .series import MultiSeries, TruncatedSeries


def _tangent_number(h: int) -> int:
    """T_h of tan x = sum T_h x^(2h-1)/(2h-1)! (1, 2, 16, 272, ...),
    by the Brent-Harvey integer recurrence over T_1 .. T_h."""
    t = [0, 1] + [0] * (h - 1)
    for k in range(2, h + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[h]


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (so B_2 = 1/6, B_4 = -1/30), from integer
    tangent numbers: B_2h = (-1)^(h-1) 2h T_h / (4^h (4^h - 1))."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    h = n // 2
    return Fraction((-1) ** (h - 1) * n * _tangent_number(h),
                    4 ** h * (4 ** h - 1))


@lru_cache(maxsize=None)
def _eis_coefficients(k: int, q_order: int) -> tuple:
    """The q^0 .. q^q_order coefficients of E_k, k even: -B_k/k!, then
    2 sigma_{k-1}(n)/(k-1)!, every sigma from one sieve over d."""
    sigma = [0] * (q_order + 1)
    for d in range(1, q_order + 1):
        power = d ** (k - 1)
        for n in range(d, q_order + 1, d):
            sigma[n] += power
    scale = factorial(k - 1)
    return (-bernoulli(k) / factorial(k),
            *(Fraction(2 * s, scale) for s in sigma[1:]))


def eisenstein(k: int, q_order: int, qvar: str = "q") -> MultiSeries:
    """E_k(q) truncated at q^q_order; identically zero for odd k."""
    if k < 2:
        raise ValueError("Eisenstein index starts at 2")
    if k % 2 == 1:
        return TruncatedSeries(qvar, 0, q_order)
    return TruncatedSeries(qvar, 0, q_order,
                           dict(enumerate(_eis_coefficients(k, q_order))))


def weierstrass_p(m: int, z_order: int, q_order: int,
                  zvar: str = "z", qvar: str = "q") -> MultiSeries:
    """P_m(z, tau) as a Laurent series in z with q-series coefficients."""
    if m < 1:
        raise ValueError("P_m needs m >= 1")
    hi = z_order + m - 1
    window = {zvar: (-1, hi), qvar: (0, q_order)}
    coeffs = {}

    def key(ze, qe):
        return (qe, ze) if qvar < zvar else (ze, qe)

    coeffs[key(-1, 0)] = Fraction(1)
    for k in range(2, hi + 2):
        ek = eisenstein(k, q_order, qvar)
        for (qe,), c in ek.c.items():
            coeffs[key(k - 1, qe)] = -c
    p1 = MultiSeries((zvar, qvar), window, coeffs)
    out = p1
    for j in range(1, m):
        # d_z P_j = -j P_{j+1}
        out = Fraction(-1, j) * _z_derivative(out, zvar)
    return out


def _z_derivative(ms: MultiSeries, var: str) -> MultiSeries:
    i = ms.vars.index(var)
    lo, hi = ms.window[var]
    window = dict(ms.window)
    window[var] = (lo - 1, None if hi is None else hi - 1)
    out = MultiSeries(ms.vars, window)
    for key, val in ms.c.items():
        e = key[i]
        if e:
            out.c[key[:i] + (e - 1,) + key[i + 1:]] = val * e
    return out


def weierstrass_p_qz(m: int, qz_window, q_order: int) -> MultiSeries:
    """P_m in the q_z Laurent form on the region |q| < |q_z| < 1, as a
    series in ``qz`` and q.

    ``qz_window`` is the (lo, hi) viewing box for q_z; see the module
    docstring for the support caveat.
    """
    lo, hi = qz_window
    window = {"qz": (lo, hi), "q": (0, q_order)}
    sign = Fraction((-1) ** m, factorial(m - 1))
    coeffs = {}
    for n in range(lo, hi + 1):
        if n == 0:
            continue
        base = sign * n ** (m - 1)
        if n > 0:
            for i in range(0, q_order // n + 1):
                coeffs[(i * n, n)] = base
        else:
            for i in range(1, q_order // (-n) + 1):
                coeffs[(i * -n, n)] = -base
    return MultiSeries(("qz", "q"), window, coeffs)

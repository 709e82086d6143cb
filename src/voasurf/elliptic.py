"""Eisenstein series and Weierstrass kernels in exact arithmetic.

Conventions (all rational, all truncated explicitly):

* E_k(tau) = 0 for odd k, and for even k >= 2

      E_k(q) = -B_k/k! + (2/(k-1)!) sum_{n>=1} sigma_{k-1}(n) q^n,

  so E_2 = -1/12 + 2q + 6q^2 + 8q^3 + ...  The divisor sums
  sigma_{k-1}(1..N) come from one sieve over the divisors d, and each
  (k, N) table is memoized in the process; nothing is kept on disk.

* P_1(z, tau) = 1/z - sum_{k>=2} E_k(tau) z^(k-1), and
  P_m = ((-1)^(m-1)/(m-1)!) d_z^(m-1) P_1, so that d_z P_m = -m P_{m+1}.
  Taking the derivatives term by term gives the closed form

      P_m = z^-m + (-1)^m sum_{k>=max(2,m)} C(k-1, m-1) E_k(tau) z^(k-m),

  which is how ``weierstrass_p`` builds it: through z^zorder it needs
  E_k only for m <= k <= zorder + m.

* In the annulus |q| < |q_z| < 1 the same kernels have the Laurent form

      P_m(z, tau) = ((-1)^m/(m-1)!) sum_{n != 0} n^(m-1) q_z^n / (1 - q^n),

  expanded here with (1-q^n)^-1 = sum_{i>=0} q^(i n) for n > 0 and
  -sum_{i>=1} q^(i|n|) for n < 0.  The q_z window of the result is a
  viewing box: the true support extends beyond it in both directions,
  so never multiply two of these in the same q_z variable.  The
  genus-1 reduction does not build this form: it applies each q_z^n
  slice as a raw-mode commutator times 1/(1 - q^n) (see
  ``reduction``); the tests hold it as the oracle for Zhu's kernel.
  The benchmark tracer only names it; that target reads 0 everywhere.

* The genus-1 one-point function of a square-bracket Fock state
  a[-k1]...a[-kn]1 is Z(q) times a Hafnian of Eisenstein series
  (Mason-Tuite; see ``onepoint_hafnian``), with Z(q) = sum p(n) q^n
  from an integer partition-count table.  The genus-2 sewing sums
  consume it in place of a trace over the Fock basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import MultiSeries, TruncatedSeries


# T_1, T_2, ... of tan x = sum T_h x^(2h-1)/(2h-1)! so far, and the last
# column of their Brent-Harvey table after each pass: all the next needs
_TANGENTS, _LAST_COLUMN = [1], [1]


def _grow_tangents():
    """Append T_n, n = len(_TANGENTS) + 1, as one more column of the
    Brent-Harvey recurrence t_n <- (n - k) t_(n-1) + (n - k + 2) t_n."""
    n = len(_TANGENTS) + 1
    col = [(n - 1) * _LAST_COLUMN[0]]
    for k, prev in zip(range(2, n + 1), _LAST_COLUMN[1:] + [0]):
        col.append((n - k) * prev + (n - k + 2) * col[-1])
    _LAST_COLUMN[:] = col
    _TANGENTS.append(col[-1])


@lru_cache(maxsize=None)
def bernoulli(n: int):
    """B_n with B_1 = -1/2 (so B_2 = 1/6, B_4 = -1/30), from integer
    tangent numbers: B_2h = (-1)^(h-1) 2h T_h / (4^h (4^h - 1))."""
    if n == 0:
        return 1
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return 0
    h = n // 2
    while len(_TANGENTS) < h:
        _grow_tangents()
    return Fraction((-1) ** (h - 1) * n * _TANGENTS[h - 1],
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
    return (Fraction(-bernoulli(k), factorial(k)),
            *(Fraction(2 * s, scale) for s in sigma[1:]))


def eisenstein(k: int, q_order: int, qvar: str = "q") -> MultiSeries:
    """E_k(q) truncated at q^q_order; identically zero for odd k."""
    if k < 2:
        raise ValueError("Eisenstein index starts at 2")
    if k % 2 == 1:
        return TruncatedSeries(qvar, 0, q_order)
    return TruncatedSeries(qvar, 0, q_order,
                           dict(enumerate(_eis_coefficients(k, q_order))))


@lru_cache(maxsize=None)
def _hafnian(parts: tuple, q_order: int, qvar: str) -> MultiSeries:
    """Z(q) sum_{perfect matchings} prod C(k_r, k_s) for sorted
    ``parts``, expanded along the pairings of the first part; equal
    partners give equal terms, counted once with their multiplicity."""
    if not parts:
        # Z(q): p(n) counts partitions of n, one part size at a time
        p = [1] + [0] * q_order
        for k in range(1, q_order + 1):
            for n in range(k, q_order + 1):
                p[n] += p[n - k]
        return TruncatedSeries(qvar, 0, q_order, dict(enumerate(p)))
    out = TruncatedSeries(qvar, 0, q_order)
    if len(parts) % 2:
        return out
    k, rest = parts[0], parts[1:]
    for l in sorted(set(rest)):
        if (k + l) % 2:
            continue
        i = rest.index(l)
        coeff = (-1) ** (l + 1) * rest.count(l) * (k + l - 1) * \
            comb(k + l - 2, k - 1)
        out = out + eisenstein(k + l, q_order, qvar) * coeff * \
            _hafnian(rest[:i] + rest[i + 1:], q_order, qvar)
    return out


def onepoint_hafnian(parts, q_order: int, qvar: str) -> MultiSeries:
    """Tr(o(a[-k1]...a[-kn]1) q^L(0)) for the square-bracket Fock state
    with parts k1..kn, by Mason-Tuite ("Torus chiral n-point functions
    for free boson and lattice vertex operator algebras", CMP 2003):

        Z(q) sum_{perfect matchings} prod C(k_r, k_s),
        C(k, l) = (-1)^(l+1) (k+l-1)!/((k-1)!(l-1)!) E_{k+l}(q),

    with Z(q) = sum p(n) q^n, the q^(-1/24) left off as in the genus-1
    one-point helper.  Zero for an odd number of parts; memoized on the
    sorted parts."""
    return _hafnian(tuple(sorted(parts)), q_order, qvar)


def weierstrass_p(m: int, z_order: int, q_order: int,
                  zvar: str = "z", qvar: str = "q") -> MultiSeries:
    """P_m(z, tau) as a Laurent series in z with q-series coefficients,
    through z^z_order, by the closed form of the module docstring; the
    E_k with k < m die in the derivatives and are never built."""
    if m < 1:
        raise ValueError("P_m needs m >= 1")
    window = {zvar: (-m, z_order), qvar: (0, q_order)}
    coeffs = {}

    def key(ze, qe):
        return (qe, ze) if qvar < zvar else (ze, qe)

    coeffs[key(-m, 0)] = 1
    for k in range(max(2, m), z_order + m + 1):
        scale = (-1) ** m * comb(k - 1, m - 1)
        for (qe,), c in eisenstein(k, q_order, qvar).c.items():
            coeffs[key(k - m, qe)] = c * scale
    return MultiSeries((zvar, qvar), window, coeffs)


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

"""Eisenstein series and Weierstrass kernels in exact arithmetic.

Conventions (all rational, all truncated explicitly):

* E_k(tau) = 0 for odd k, and for even k >= 2

      E_k(q) = -B_k/k! + (2/(k-1)!) sum_{n>=1} sigma_{k-1}(n) q^n,

  so E_2 = -1/12 + 2q + 6q^2 + 8q^3 + ...

* P_1(z, tau) = 1/z - sum_{k>=2} E_k(tau) z^(k-1), and
  P_m = ((-1)^(m-1)/(m-1)!) d_z^(m-1) P_1, so that d_z P_m = -m P_{m+1}.

* In the annulus |q| < |q_z| < 1 the same kernels have the Laurent form

      P_m(z, tau) = ((-1)^m/(m-1)!) sum_{n != 0} n^(m-1) q_z^n / (1 - q^n),

  expanded here with (1-q^n)^-1 = sum_{i>=0} q^(i n) for n > 0 and
  -sum_{i>=1} q^(i|n|) for n < 0.  The q_z window of the result is a
  viewing box: the true support extends beyond it in both directions,
  so never multiply two of these in the same q_z variable; the
  reduction engines assemble such products slice by slice instead.

* The genus-zero kernel f0_{n,m}(z, w) = sum_{N>=n} C(N, m) z^(-N-1)
  w^(N-m) has the closed rational form

      1/(z-w)^(m+1) - sum_{m<=N<n} C(N, m) w^(N-m) z^(-N-1),

  returned both as a normalized ratio of polynomials and as the
  long-division expansion in |z| > |w|.

If the environment variable VOASURF_CACHE names a directory, Eisenstein
q-expansions are persisted there as JSON.  A file is replaced
atomically, and on load its constant term and last coefficient are
recomputed; a file that does not parse or fails that check is treated
as missing, so its series is recomputed and written again.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

from .series import MultiSeries, TruncatedSeries

CACHE_ENV = "VOASURF_CACHE"


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (so B_2 = 1/6, B_4 = -1/30)."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += comb(n + 1, j) * bernoulli(j)
    return -total / (n + 1)


def _sigma(k: int, n: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


_eis_memory: dict = {}


def _cache_path(k: int):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    return os.path.join(root, f"eisenstein_{k}.json")


def _eis_coefficient(k: int, n: int) -> Fraction:
    """The q^n coefficient of E_k, k even."""
    if n == 0:
        return -bernoulli(k) / factorial(k)
    return Fraction(2 * _sigma(k - 1, n), factorial(k - 1))


def _read_cache(path: str, k: int):
    """The stored coefficients of E_k, or None when the file is
    missing, does not parse, or its constant term or last coefficient
    disagrees with a recomputation."""
    try:
        with open(path) as fh:
            coeffs = [Fraction(c) for c in json.load(fh)]
    except (OSError, ValueError, TypeError, ZeroDivisionError):
        return None
    ends = {0, len(coeffs) - 1}
    if coeffs and all(coeffs[n] == _eis_coefficient(k, n) for n in ends):
        return coeffs
    return None


def _write_cache(path: str, coeffs) -> None:
    """Replace the file atomically: a reader sees the old or the new
    contents, never a partial write."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump([f"{c.numerator}/{c.denominator}" for c in coeffs], fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def eisenstein(k: int, q_order: int, qvar: str = "q") -> MultiSeries:
    """E_k(q) truncated at q^q_order; identically zero for odd k."""
    if k < 2:
        raise ValueError("Eisenstein index starts at 2")
    if k % 2 == 1:
        return TruncatedSeries(qvar, 0, q_order)
    coeffs = _eis_memory.get(k)
    if coeffs is None or len(coeffs) <= q_order:
        path = _cache_path(k)
        if coeffs is None:
            coeffs = (path and _read_cache(path, k)) or []
        while len(coeffs) <= q_order:
            coeffs.append(_eis_coefficient(k, len(coeffs)))
        _eis_memory[k] = coeffs
        if path:
            _write_cache(path, coeffs)
    return TruncatedSeries(qvar, 0, q_order,
                           {i: c for i, c in enumerate(coeffs[:q_order + 1])})


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


def weierstrass_p_qz(m: int, qz_window, q_order: int,
                     qzvar: str = "qz") -> MultiSeries:
    """P_m in the q_z Laurent form on the region |q| < |q_z| < 1, as a
    series in ``qzvar`` and q.

    ``qz_window`` is the (lo, hi) viewing box for q_z; see the module
    docstring for the support caveat.
    """
    lo, hi = qz_window
    window = {qzvar: (lo, hi), "q": (0, q_order)}
    sign = Fraction((-1) ** m, factorial(m - 1))
    coeffs = {}

    def key(ze, qe):
        return (qe, ze) if "q" < qzvar else (ze, qe)

    for n in range(lo, hi + 1):
        if n == 0:
            continue
        base = sign * n ** (m - 1)
        if n > 0:
            for i in range(0, q_order // n + 1):
                coeffs[key(n, i * n)] = coeffs.get(key(n, i * n), Fraction(0)) + base
        else:
            for i in range(1, q_order // (-n) + 1):
                coeffs[key(n, i * -n)] = coeffs.get(key(n, i * -n), Fraction(0)) - base
    return MultiSeries((qzvar, "q"), window, coeffs)


# -- the genus-zero kernel ------------------------------------------------


@dataclass
class KernelForm:
    """A rational kernel in z and w: normalized numerator/denominator
    polynomials plus the expansion in |z| > |w|."""

    numerator: MultiSeries
    denominator: MultiSeries
    expansion: MultiSeries


def _poly(entries: dict) -> MultiSeries:
    """The polynomial sum c z^ez w^ew over the entries (ez, ew) -> c."""
    window = {"z": (min((k[0] for k in entries), default=0), None),
              "w": (min((k[1] for k in entries), default=0), None)}
    ms = MultiSeries(("z", "w"), window)
    for (ez, ew), c in entries.items():
        ms.c[(ew, ez)] = Fraction(c)  # keys follow the sorted vars (w, z)
    return ms


def _normalize_ratio(num: MultiSeries, den: MultiSeries):
    """Scale a ratio so both polys have coprime integer coefficients
    and the denominator's leading term in z has a positive
    coefficient."""
    def content(ms):
        nums = [abs(c.numerator) for c in ms.c.values()]
        dens = [c.denominator for c in ms.c.values()]
        g = 0
        for x in nums:
            g = gcd(g, x)
        l = 1
        for d in dens:
            l = l * d // gcd(l, d)
        return Fraction(g, l) if g else Fraction(1)

    scale = content(den)
    if scale:
        num = num * (1 / scale)
        den = den * (1 / scale)
    oi = den.vars.index("z")
    lead = den.c[max(den.c, key=lambda k: (k[oi], k))]
    if lead < 0:
        num, den = -1 * num, -1 * den
    return num, den


def iota_long_division(num: MultiSeries, den: MultiSeries,
                       outer_lo: int) -> MultiSeries:
    """Expand num/den in the region where z dominates, by explicit long
    division down to z exponent ``outer_lo``."""
    outer = "z"
    oi = den.vars.index(outer)
    lead_key = max(den.c, key=lambda k: (k[oi], [-e for j, e in enumerate(k) if j != oi]))
    lead = den.c[lead_key]
    # den = lead * mono * (1 + t) with t strictly lower in outer degree
    t = {}
    for key, val in den.c.items():
        if key == lead_key:
            continue
        rel = tuple(e - l for e, l in zip(key, lead_key))
        assert rel[oi] < 0, "denominator has no dominant outer term"
        t[rel] = val / lead
    inv_entries = {tuple(0 for _ in lead_key): Fraction(1)}
    power = {tuple(0 for _ in lead_key): Fraction(1)}
    depth = max(k[oi] for k in num.c) - lead_key[oi] - outer_lo + 2
    for _ in range(max(depth, 0)):
        nxt = {}
        for k1, v1 in power.items():
            for k2, v2 in t.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                if k[oi] < -depth or any(e > depth for j, e in enumerate(k) if j != oi):
                    continue
                nxt[k] = nxt.get(k, Fraction(0)) - v1 * v2
        power = nxt
        if not power:
            break
        for k, v in power.items():
            inv_entries[k] = inv_entries.get(k, Fraction(0)) + v
    window = {v: (0, depth) for v in den.vars}
    window[outer] = (-depth, 0)
    inv = MultiSeries(den.vars, window)
    inv.c = {k: v / lead for k, v in inv_entries.items() if v}
    inv = inv.shift(outer, -lead_key[oi])
    for v, l in zip(den.vars, lead_key):
        if v != outer and l:
            inv = inv.shift(v, -l)
    return (num * inv).cut_below(outer, outer_lo)


def genus0_kernel(n: int, m: int, outer_lo: int = -9) -> KernelForm:
    """The kernel f0_{n,m} = sum_{N>=n} C(N,m) z^(-N-1) w^(N-m).

    Returns the normalized closed rational form together with its
    long-division expansion down to z exponent ``outer_lo``.
    """
    if m < 0 or n < 0:
        raise ValueError("kernel indices must be nonnegative")
    # common denominator z^h (z-w)^(m+1) with h = n when the head sum
    # is nonempty (n > m), else just (z-w)^(m+1)
    h = n if n > m else 0
    zw = _poly({(1, 0): 1, (0, 1): -1})
    den = _poly({(h, 0): 1}) * zw ** (m + 1)
    num = _poly({(h, 0): 1})
    for big_n in range(m, n):
        head = _poly({(h - big_n - 1, big_n - m): comb(big_n, m)}) \
            * zw ** (m + 1)
        num = num - head
    num, den = _normalize_ratio(num, den)
    expansion = iota_long_division(num, den, outer_lo)
    return KernelForm(num, den, expansion)

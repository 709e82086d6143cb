"""Exact truncated Laurent series over the rationals.

The elliptic kernels, the reduction engines and the sewn surfaces are
built on one series type defined here: ``MultiSeries``, a sparse
Laurent series in finitely many ordered variables, with exponent
tuples as keys and one window per variable.  A one-variable series is
a ``MultiSeries`` over that variable; ``TruncatedSeries(var, lo, hi,
coeffs)`` builds one from a map exponent -> rational.  The ring
operations are sums, products and exact shifts; there is no
exponential, power or inverse, since no caller needs one (the vertex
algebra modes use no series at all).

Window semantics.  ``lo`` is a support bound: the series is guaranteed
to have no terms below ``lo``.  ``hi`` is a knowledge horizon: terms
above ``hi`` may exist mathematically but have not been computed.
``hi is None`` means the series is known completely in that variable
(an exact Laurent polynomial).  Arithmetic propagates windows so that
every stored coefficient of a result is exact:

    add:  lo = min(lo_a, lo_b),   hi = min(hi_a, hi_b)
    mul:  lo = lo_a + lo_b,       hi = min(hi_a + lo_b, hi_b + lo_a)
    capped mul:                   hi = min(natural hi, cap)

A capped product never builds a term above a cap, and one whose window
is empty (some lo above its hi) builds nothing at all.  No zero
coefficient is ever stored.

Coefficients.  The constructor passes every coefficient through
``rat``, the one rule for its type: an int where it is integral, a
Fraction where it is not, and a float refused.  A scalar operand of a
sum, difference or product goes through it as well.  Arithmetic stores
what its operands give.  No floating point number appears in this
module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add


def rat(x):
    """The one rule for a coefficient's type: an int, a Fraction or a
    string like ``"3/4"`` comes out as an int when it is integral and
    as a Fraction when it is not; a bool comes out as its int, and a
    float, or anything else, is refused."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def _min_hi(a, b):
    """min of two knowledge horizons where None means +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_hi(h, k):
    """h + k where h may be None (+infinity)."""
    return None if h is None else h + k


def _merge(c: dict, terms: dict) -> dict:
    """Add ``terms`` into the coefficient dict ``c``, dropping every key
    that cancels."""
    for key, val in terms.items():
        s = c.get(key)
        if s is None:
            c[key] = val
        else:
            s += val
            if s:
                c[key] = s
            else:
                del c[key]
    return c


def _format_terms(terms, sep=""):
    """Render ``[(monomial_str, coeff), ...]`` as `` a + b - c`` text."""
    if not terms:
        return "0"
    parts = []
    for mono, c in terms:
        if c < 0:
            sign = "-" if not parts else " - "
            c = -c
        else:
            sign = "" if not parts else " + "
        if mono == "":
            body = str(c)
        elif c == 1:
            body = mono
        else:
            body = str(c) + sep + mono
        parts.append(sign + body)
    return "".join(parts)


class MultiSeries:
    """A sparse exact Laurent series in several ordered variables.

    ``window`` maps each variable to its ``(lo, hi)`` pair with the
    semantics of the module docstring.  Exponent keys are tuples
    aligned with the sorted variable tuple.
    """

    __slots__ = ("vars", "window", "c")

    def __init__(self, variables, window, coeffs=None):
        self.vars = tuple(sorted(variables))
        if set(window) != set(self.vars):
            raise ValueError("window must cover exactly the variables")
        self.window = {v: (window[v][0], window[v][1]) for v in self.vars}
        self.c = {}
        if coeffs:
            for key, val in coeffs.items():
                val = rat(val)
                if val == 0:
                    continue
                key = tuple(key)
                for v, e in zip(self.vars, key):
                    lo, hi = self.window[v]
                    if e < lo or (hi is not None and e > hi):
                        raise ValueError(f"exponent {e} of {v} outside window [{lo}, {hi}]")
                self.c[key] = val

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value) -> "MultiSeries":
        value = rat(value)
        ms = MultiSeries((), {})
        if value != 0:
            ms.c[()] = value
        return ms

    @staticmethod
    def monomial(exps: dict, coeff=1, window=None) -> "MultiSeries":
        if window is None:
            window = {v: (e, None) for v, e in exps.items()}
        key = tuple(exps[v] for v in sorted(exps))
        return MultiSeries(tuple(exps), window, {key: coeff})

    # -- alignment -----------------------------------------------------

    def extended_to(self, variables) -> "MultiSeries":
        """View of self over a larger variable set (new exponents 0);
        self itself when it already has every variable.

        A variable absent from a factor is constant there: support {0},
        complete knowledge, so its window is (0, None).
        """
        variables = tuple(sorted(set(variables) | set(self.vars)))
        if variables == self.vars:
            return self
        window = dict(self.window)
        for v in variables:
            if v not in window:
                window[v] = (0, None)
        pos = {v: i for i, v in enumerate(self.vars)}
        coeffs = {}
        for key, val in self.c.items():
            coeffs[tuple(key[pos[v]] if v in pos else 0 for v in variables)] = val
        out = MultiSeries(variables, window)
        out.c = coeffs
        return out

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def coefficient(self, exps: dict):
        """Exact coefficient of the given monomial (vars not named get 0)."""
        for v, e in exps.items():
            if v not in self.window:
                if e != 0:
                    return 0
                continue
            lo, hi = self.window[v]
            if hi is not None and e > hi:
                raise ValueError(f"exponent {e} of {v} above horizon {hi}")
        key = tuple(exps.get(v, 0) for v in self.vars)
        return self.c.get(key, 0)

    def coefficient_of(self, var: str, e: int) -> "MultiSeries":
        """Extract the coefficient of var**e as a series in the rest."""
        if var not in self.window:
            raise ValueError(f"no variable {var}")
        lo, hi = self.window[var]
        if hi is not None and e > hi:
            raise ValueError(f"exponent {e} of {var} above horizon {hi}")
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        out = MultiSeries(rest, {v: self.window[v] for v in rest})
        for key, val in self.c.items():
            if key[i] == e:
                out.c[key[:i] + key[i + 1:]] = val
        return out

    def agrees_with(self, other: "MultiSeries") -> bool:
        """Coefficientwise equality on the intersection of the windows."""
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        a, b = self.extended_to(allvars), other.extended_to(allvars)

        def inside(key, window):
            for v, e in zip(allvars, key):
                lo, hi = window[v]
                if e < lo or (hi is not None and e > hi):
                    return False
            return True

        for key in set(a.c) | set(b.c):
            if inside(key, a.window) and inside(key, b.window):
                if a.c.get(key, 0) != b.c.get(key, 0):
                    return False
        return True

    def __eq__(self, other):
        if isinstance(other, MultiSeries):
            a, b = self, other.extended_to(self.vars)
            a = a.extended_to(other.vars)
            return a.c == b.c
        return NotImplemented

    __hash__ = None

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            other = MultiSeries.constant(other)
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        a, b = self.extended_to(allvars), other.extended_to(allvars)
        window = {v: (min(a.window[v][0], b.window[v][0]),
                      _min_hi(a.window[v][1], b.window[v][1]))
                  for v in allvars}

        def under(ms):
            """The terms of ms at or below the result's horizons, checked
            only where that horizon lies below ms's own."""
            cut = [(i, window[v][1]) for i, v in enumerate(allvars)
                   if window[v][1] not in (None, ms.window[v][1])]
            return {k: x for k, x in ms.c.items()
                    if all(k[i] <= h for i, h in cut)} if cut else ms.c

        small, big = sorted((under(a), under(b)), key=len)
        out = MultiSeries(allvars, window)
        out.c = _merge(dict(big), small)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiSeries(self.vars, self.window)
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other, caps=None):
        """The product; ``caps`` maps variables to a cap on the result's
        horizon (None caps nothing), and the result covers them too."""
        if not isinstance(other, MultiSeries):
            s = rat(other)  # an int when integral, so +-1 keeps v's type
            out = MultiSeries(self.vars, self.window)
            if s in (1, -1):
                out.c = dict(self.c) if s == 1 else {
                    k: -v for k, v in self.c.items()}
            elif s != 0:
                out.c = {k: v * s for k, v in self.c.items()}
            return out
        caps = caps or {}
        allvars = tuple(sorted(set(self.vars) | set(other.vars) | set(caps)))
        a, b = self.extended_to(allvars), other.extended_to(allvars)
        window = {}
        for v in allvars:
            (la, ha), (lb, hb) = a.window[v], b.window[v]
            hi = _min_hi(_add_hi(ha, lb), _add_hi(hb, la))
            window[v] = (la + lb, _min_hi(hi, caps.get(v)))
        out = MultiSeries(allvars, window)
        if not a.c or not b.c or any(
                lo > hi for lo, hi in window.values() if hi is not None):
            return out  # every term lies at or above lo: none fits
        if len(a.c) > len(b.c):
            a, b = b, a
        his = [(i, window[v][1]) for i, v in enumerate(allvars)
               if window[v][1] is not None]
        top = list(map(max, zip(*b.c))) if his else ()  # b's, per variable
        for k1, v1 in a.c.items():
            # one left term scales and shifts b, its keys staying distinct;
            # only a variable whose room is below b's top exponent cuts,
            # and an int +-1 copies or negates (v1 * v2 has v2's type)
            room = [(i, h - k1[i]) for i, h in his if top[i] > h - k1[i]]
            kept = b.c.items() if not room else [
                (k2, v2) for k2, v2 in b.c.items()
                if all(k2[i] <= r for i, r in room)]
            unit = type(v1) is int and v1 in (1, -1)
            terms = {tuple(map(add, k1, k2)): (v2 if v1 == 1 else -v2)
                     if unit else v1 * v2 for k2, v2 in kept}
            out.c = _merge(out.c, terms) if out.c else terms
        return out

    __rmul__ = __mul__

    # -- reshaping -------------------------------------------------------

    def shift(self, var: str, k: int) -> "MultiSeries":
        """Multiply by var**k (exact exponent shift)."""
        if var not in self.window:
            return self.extended_to(self.vars + (var,)).shift(var, k)
        i = self.vars.index(var)
        lo, hi = self.window[var]
        window = dict(self.window)
        window[var] = (lo + k, _add_hi(hi, k))
        out = MultiSeries(self.vars, window)
        out.c = {key[:i] + (key[i] + k,) + key[i + 1:]: v for key, v in self.c.items()}
        return out

    def clip(self, var: str, lo: int, hi) -> "MultiSeries":
        """Shrink the window of one variable, discarding outside terms.

        Raising ``lo`` claims that the vacated exponents vanish, so it
        is accepted only when the window covers them and no stored term
        lies there.
        """
        i = self.vars.index(var)
        olo, ohi = self.window[var]
        new_lo = max(lo, olo)
        new_hi = _min_hi(hi, ohi)
        if new_lo > olo and ohi is not None and ohi < new_lo - 1:
            raise ValueError(f"window of {var} too short to certify the "
                             f"support bound {new_lo}")
        if any(key[i] < new_lo for key in self.c):
            raise ValueError(f"stored support of {var} extends below {new_lo}")
        window = dict(self.window)
        window[var] = (new_lo, new_hi)
        out = MultiSeries(self.vars, window)
        out.c = {k: v for k, v in self.c.items()
                 if new_hi is None or k[i] <= new_hi}
        return out

    def drop_zero_var(self, var: str) -> "MultiSeries":
        """Remove a variable that appears only with exponent zero."""
        i = self.vars.index(var)
        if any(key[i] != 0 for key in self.c):
            raise ValueError(f"{var} appears with nonzero exponent")
        rest = tuple(v for v in self.vars if v != var)
        out = MultiSeries(rest, {v: self.window[v] for v in rest})
        out.c = {key[:i] + key[i + 1:]: v for key, v in self.c.items()}
        return out

    def pretty(self, sep: str = "*") -> str:
        """The terms in exponent order, e.g. ``-1/12 + 2*q``; ``sep``
        joins a coefficient to its monomial."""
        terms = []
        for key in sorted(self.c):
            factors = []
            for v, e in zip(self.vars, key):
                if e == 0:
                    continue
                factors.append(v if e == 1 else f"{v}^{e}")
            mono = "*".join(factors)
            terms.append((mono, self.c[key]))
        return _format_terms(terms, sep)

    __str__ = pretty

    def __repr__(self):
        return f"MultiSeries({self.vars!r}, {self.window!r}, {len(self.c)} terms)"


class TruncatedSeries(MultiSeries):
    """A one-variable series from integer exponents: ``coeffs`` maps
    each exponent of ``var`` inside the window ``[lo, hi]`` to a
    rational.  Arithmetic on it returns plain ``MultiSeries``."""

    __slots__ = ()

    def __init__(self, var: str, lo: int, hi, coeffs=None):
        if hi is not None and hi < lo - 1:
            raise ValueError(f"empty window [{lo}, {hi}]")
        super().__init__((var,), {var: (lo, hi)},
                         {(e,): v for e, v in (coeffs or {}).items()})


def binomial_expand(m: int, outer: str, inner: str, outer_lo: int) -> MultiSeries:
    """Exact expansion of 1/(outer - inner)^(m+1) in |outer| > |inner|.

    Terms sum_{j>=0} C(m+j, m) outer^(-m-1-j) inner^j, generated while
    the outer exponent stays >= outer_lo.
    """
    coeffs = {}
    j = 0
    while -m - 1 - j >= outer_lo:
        coeffs[(-m - 1 - j, j) if outer < inner else (j, -m - 1 - j)] = \
            comb(m + j, m)
        j += 1
    jmax = -m - 1 - outer_lo
    return MultiSeries((outer, inner),
                       {outer: (outer_lo, -m - 1), inner: (0, max(jmax, -1))},
                       coeffs)

"""Exact truncated Laurent series over the rationals.

Everything downstream (vertex algebra modes, elliptic kernels, the
reduction engines) is built on two containers defined here:

``TruncatedSeries``
    a Laurent series in one variable, stored sparsely as a map
    exponent -> Fraction together with a window ``[lo, hi]``.

``MultiSeries``
    the same idea for finitely many variables at once, with one window
    per variable and exponent tuples as keys.

Window semantics.  ``lo`` is a support bound: the series is guaranteed
to have no terms below ``lo``.  ``hi`` is a knowledge horizon: terms
above ``hi`` may exist mathematically but have not been computed.
``hi is None`` means the series is known completely in that variable
(an exact Laurent polynomial).  Arithmetic propagates windows so that
every stored coefficient of a result is exact:

    add:  lo = min(lo_a, lo_b),   hi = min(hi_a, hi_b)
    mul:  lo = lo_a + lo_b,       hi = min(hi_a + lo_b, hi_b + lo_a)

No floating point number appears anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def rat(x) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
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


def format_coeff(c: Fraction) -> str:
    return str(c)


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
            body = format_coeff(c)
        elif c == 1:
            body = mono
        else:
            body = format_coeff(c) + sep + mono
        parts.append(sign + body)
    return "".join(parts)


class TruncatedSeries:
    """A sparse Laurent series in one variable with an explicit window.

    Coefficients are ``Fraction``s keyed by integer exponent.  The
    window ``[lo, hi]`` follows the semantics in the module docstring;
    all stored keys satisfy ``lo <= e`` and, when ``hi`` is finite,
    ``e <= hi``.
    """

    __slots__ = ("var", "lo", "hi", "c")

    def __init__(self, var: str, lo: int, hi, coeffs=None):
        if hi is not None and hi < lo - 1:
            raise ValueError(f"empty window [{lo}, {hi}]")
        self.var = var
        self.lo = lo
        self.hi = hi
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = rat(v)
                if v == 0:
                    continue
                if e < lo or (hi is not None and e > hi):
                    raise ValueError(f"exponent {e} outside window [{lo}, {hi}]")
                self.c[e] = v

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str, lo: int = 0, hi=None) -> "TruncatedSeries":
        return cls(var, lo, hi)

    @classmethod
    def one(cls, var: str, hi=None) -> "TruncatedSeries":
        return cls(var, 0, hi, {0: Fraction(1)})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff=1, hi=None) -> "TruncatedSeries":
        return cls(var, exp, hi, {exp: rat(coeff)})

    @classmethod
    def exponential(cls, var: str, scale, hi: int) -> "TruncatedSeries":
        """exp(scale * var) truncated at order ``hi``."""
        s = rat(scale)
        return cls(var, 0, hi, {k: s ** k / factorial(k) for k in range(hi + 1)})

    # -- inspection ---------------------------------------------------

    def coefficient(self, e: int) -> Fraction:
        """Exact coefficient of ``var**e``; raises above the horizon."""
        if self.hi is not None and e > self.hi:
            raise ValueError(f"exponent {e} above truncation horizon {self.hi}")
        return self.c.get(e, Fraction(0))

    def support(self):
        return sorted(self.c)

    def is_zero(self) -> bool:
        return not self.c

    def valuation(self):
        """Smallest stored exponent, or None for the (truncated) zero series."""
        return min(self.c) if self.c else None

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.var == other.var and self.c == other.c
        return NotImplemented

    __hash__ = None

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Equality of coefficients on the intersection of the windows."""
        if self.var != other.var:
            raise ValueError("different variables")
        lo = max(self.lo, other.lo)
        hi = _min_hi(self.hi, other.hi)
        es = {e for e in list(self.c) + list(other.c) if e >= lo and (hi is None or e <= hi)}
        return all(self.c.get(e, 0) == other.c.get(e, 0) for e in es)

    # -- ring operations ----------------------------------------------

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.monomial(self.var, 0, other)
        self._check_var(other)
        lo = min(self.lo, other.lo)
        hi = _min_hi(self.hi, other.hi)
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, Fraction(0)) + v
        c = {e: v for e, v in c.items() if v != 0 and (hi is None or e <= hi)}
        return TruncatedSeries(self.var, lo, hi, c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.var, self.lo, self.hi, {e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.monomial(self.var, 0, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = rat(other)
            if s == 0:
                return TruncatedSeries(self.var, self.lo, self.hi)
            return TruncatedSeries(self.var, self.lo, self.hi,
                                   {e: v * s for e, v in self.c.items()})
        self._check_var(other)
        lo = self.lo + other.lo
        hi = _min_hi(_add_hi(self.hi, other.lo), _add_hi(other.hi, self.lo))
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                if hi is not None and e > hi:
                    continue
                c[e] = c.get(e, Fraction(0)) + v1 * v2
        return TruncatedSeries(self.var, lo, hi, c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncatedSeries.one(self.var, self.hi if n else None)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self, hi=None) -> "TruncatedSeries":
        """Multiplicative inverse.

        The leading stored term c * var**m must be present and nonzero.
        If the series is exact (``self.hi is None``) and has more than
        one term, a finite output horizon ``hi`` must be supplied since
        the inverse is an infinite series.
        """
        if not self.c:
            raise ZeroDivisionError("inverse of zero series")
        m = min(self.c)
        lead = self.c[m]
        rest = {e - m: v / lead for e, v in self.c.items() if e != m}
        if self.hi is None:
            if not rest:
                return TruncatedSeries.monomial(self.var, -m, 1 / lead)
            if hi is None:
                raise ValueError("exact non-monomial series: give a horizon for the inverse")
            order = hi + m
        else:
            # relative knowledge of the unit part is hi - m
            order = self.hi - m if hi is None else hi + m
            if hi is not None and hi > self.hi - 2 * m:
                raise ValueError("requested horizon exceeds what the input determines")
        # invert 1 + t by the geometric series, t = rest
        out = {0: Fraction(1)}
        t_pow = {0: Fraction(1)}
        for _ in range(order):
            nxt = {}
            for e1, v1 in t_pow.items():
                for e2, v2 in rest.items():
                    e = e1 + e2
                    if e > order:
                        continue
                    nxt[e] = nxt.get(e, Fraction(0)) - v1 * v2
            t_pow = nxt
            if not t_pow:
                break
            for e, v in t_pow.items():
                out[e] = out.get(e, Fraction(0)) + v
        return TruncatedSeries(self.var, -m, order - m,
                               {e - m: v / lead for e, v in out.items()})

    def derivative(self) -> "TruncatedSeries":
        c = {e - 1: e * v for e, v in self.c.items() if e != 0}
        return TruncatedSeries(self.var, self.lo - 1, _add_hi(self.hi, -1), c)

    def truncate(self, hi) -> "TruncatedSeries":
        """Restrict the knowledge horizon (may only shrink)."""
        new_hi = _min_hi(self.hi, hi)
        c = {e: v for e, v in self.c.items() if new_hi is None or e <= new_hi}
        return TruncatedSeries(self.var, self.lo, new_hi, c)

    def tighten_lo(self, lo: int) -> "TruncatedSeries":
        """Raise the support bound after verifying the vacated region.

        Sound only when the window actually covers [self.lo, lo): the
        stored data then proves the coefficients there vanish.
        """
        if lo <= self.lo:
            return self
        if self.hi is not None and self.hi < lo - 1:
            raise ValueError("window too short to certify the support bound")
        if any(e < lo for e in self.c):
            raise ValueError("nonzero coefficient below the claimed support bound")
        return TruncatedSeries(self.var, lo, self.hi, self.c)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by var**k."""
        return TruncatedSeries(self.var, self.lo + k, _add_hi(self.hi, k),
                               {e + k: v for e, v in self.c.items()})

    def rename(self, var: str) -> "TruncatedSeries":
        return TruncatedSeries(var, self.lo, self.hi, self.c)

    # -- composition --------------------------------------------------

    def compose(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``g`` for the variable of ``self``.

        Requires ``g`` to have valuation >= 1 (so the substitution is
        well defined on truncated data).  Negative powers of the outer
        variable are handled through ``g.inverse()``.
        """
        if g.lo < 1 and (g.valuation() or 0) < 1:
            raise ValueError("substitution needs a series of valuation >= 1")
        out_hi = g.hi
        if self.hi is not None:
            out_hi = _min_hi(out_hi, (self.hi + 1) * max(g.lo, 1) - 1)
        if out_hi is None:
            raise ValueError("composition of two exact series needs finite data; truncate first")
        acc = TruncatedSeries.zero(g.var, 0, out_hi)
        pos = sorted(e for e in self.c if e >= 0)
        neg = sorted((e for e in self.c if e < 0), reverse=True)
        if pos:
            power = TruncatedSeries.one(g.var, out_hi)
            k = 0
            for e in pos:
                while k < e:
                    power = (power * g).truncate(out_hi)
                    k += 1
                acc = acc + self.c[e] * power
        if neg:
            ginv = g.inverse(hi=out_hi - 2 * g.valuation())
            power = TruncatedSeries.one(g.var, None)
            k = 0
            for e in neg:
                while k > e:
                    power = power * ginv
                    k -= 1
                acc = acc + self.c[e] * power
        return acc

    def compose_exp(self, out_var: str) -> "TruncatedSeries":
        """Rewrite a series in z as a series in u = q_z - 1 via z = log(1+u).

        The substitution z = log(1+u) has valuation 1, so a window
        [lo, hi] in z turns into the same window in u.
        """
        if self.hi is None:
            raise ValueError("give the series a finite horizon before composing")
        log1p = TruncatedSeries(out_var, 1, self.hi + max(0, -self.lo) + 1,
                                {k: Fraction((-1) ** (k + 1), k)
                                 for k in range(1, self.hi + max(0, -self.lo) + 2)})
        return self.compose(log1p).truncate(self.hi)

    def expand_exp(self, out_var: str, hi: int) -> "TruncatedSeries":
        """Substitute q_z = e**z: each power q_z**k becomes exp(k z).

        The input is treated as exact on its stored support; the output
        is a power series in z truncated at ``hi``.
        """
        acc = TruncatedSeries.zero(out_var, 0, hi)
        for e, v in self.c.items():
            acc = acc + v * TruncatedSeries.exponential(out_var, e, hi)
        return acc

    # -- io -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "window": [self.lo, self.hi],
            "coeffs": {str(e): f"{v.numerator}/{v.denominator}"
                       for e, v in sorted(self.c.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        lo, hi = data["window"]
        return cls(data["var"], lo, hi,
                   {int(e): Fraction(v) for e, v in data["coeffs"].items()})

    def __str__(self):
        terms = []
        for e in sorted(self.c):
            if e == 0:
                mono = ""
            elif e == 1:
                mono = self.var
            else:
                mono = f"{self.var}^{e}"
            terms.append((mono, self.c[e]))
        return _format_terms(terms)

    def __repr__(self):
        return f"TruncatedSeries({self.var!r}, [{self.lo}, {self.hi}], {self})"


class MultiSeries:
    """A sparse exact Laurent series in several ordered variables.

    ``window`` maps each variable to its ``(lo, hi)`` pair with the
    same semantics as for ``TruncatedSeries``.  Exponent keys are
    tuples aligned with the sorted variable tuple.
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

    @classmethod
    def constant(cls, value) -> "MultiSeries":
        value = rat(value)
        ms = cls((), {})
        if value != 0:
            ms.c[()] = value
        return ms

    @classmethod
    def monomial(cls, exps: dict, coeff=1, window=None) -> "MultiSeries":
        if window is None:
            window = {v: (e, None) for v, e in exps.items()}
        key = tuple(exps[v] for v in sorted(exps))
        return cls(tuple(exps), window, {key: rat(coeff)})

    @classmethod
    def from_single(cls, ts: TruncatedSeries) -> "MultiSeries":
        return cls((ts.var,), {ts.var: (ts.lo, ts.hi)},
                   {(e,): v for e, v in ts.c.items()})

    def to_single(self) -> TruncatedSeries:
        if len(self.vars) != 1:
            raise ValueError("not a one-variable series")
        v = self.vars[0]
        lo, hi = self.window[v]
        return TruncatedSeries(v, lo, hi, {k[0]: c for k, c in self.c.items()})

    # -- alignment -----------------------------------------------------

    def extended_to(self, variables, extra_window=None) -> "MultiSeries":
        """View of self over a larger variable set (new exponents 0).

        A variable absent from a factor is constant there: support {0},
        complete knowledge, so its window is (0, None) unless the
        caller supplies one.
        """
        variables = tuple(sorted(set(variables) | set(self.vars)))
        window = dict(self.window)
        for v in variables:
            if v not in window:
                window[v] = (extra_window or {}).get(v, (0, None))
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

    def coefficient(self, exps: dict) -> Fraction:
        """Exact coefficient of the given monomial (vars not named get 0)."""
        for v, e in exps.items():
            if v not in self.window:
                if e != 0:
                    return Fraction(0)
                continue
            lo, hi = self.window[v]
            if hi is not None and e > hi:
                raise ValueError(f"exponent {e} of {v} above horizon {hi}")
        key = tuple(exps.get(v, 0) for v in self.vars)
        return self.c.get(key, Fraction(0))

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
        a = self if self.vars == allvars else self.extended_to(allvars)
        b = other if other.vars == allvars else other.extended_to(allvars)

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
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.constant(other)
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        a = self if self.vars == allvars else self.extended_to(allvars)
        b = other if other.vars == allvars else other.extended_to(allvars)
        window = {}
        for v in allvars:
            window[v] = (min(a.window[v][0], b.window[v][0]),
                         _min_hi(a.window[v][1], b.window[v][1]))
        c = dict(a.c)
        for key, val in b.c.items():
            c[key] = c.get(key, Fraction(0)) + val

        def inside(key):
            return all((hi is None or e <= hi)
                       for e, (lo, hi) in ((k, window[v]) for k, v in zip(key, allvars)))

        c = {k: v for k, v in c.items() if v != 0 and inside(k)}
        out = MultiSeries(allvars, window)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiSeries(self.vars, self.window)
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = rat(other)
            out = MultiSeries(self.vars, self.window)
            if s != 0:
                out.c = {k: v * s for k, v in self.c.items()}
            return out
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        a = self if self.vars == allvars else self.extended_to(allvars)
        b = other if other.vars == allvars else other.extended_to(allvars)
        window = {}
        for v in allvars:
            (la, ha), (lb, hb) = a.window[v], b.window[v]
            window[v] = (la + lb, _min_hi(_add_hi(ha, lb), _add_hi(hb, la)))
        out = MultiSeries(allvars, window)
        c = {}
        his = [window[v][1] for v in allvars]
        for k1, v1 in a.c.items():
            for k2, v2 in b.c.items():
                key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                if any(h is not None and e > h for e, h in zip(key, his)):
                    continue
                c[key] = c.get(key, Fraction(0)) + v1 * v2
        out.c = {k: v for k, v in c.items() if v != 0}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported on MultiSeries")
        result = MultiSeries.constant(1)
        for _ in range(n):
            result = result * self
        return result

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

        Raising ``lo`` above stored support would silently claim terms
        are zero, so it is rejected.
        """
        i = self.vars.index(var)
        olo, ohi = self.window[var]
        new_lo = max(lo, olo)
        new_hi = _min_hi(hi, ohi)
        if any(key[i] < new_lo for key in self.c):
            raise ValueError(f"stored support of {var} extends below {new_lo}")
        window = dict(self.window)
        window[var] = (new_lo, new_hi)
        out = MultiSeries(self.vars, window)
        out.c = {k: v for k, v in self.c.items()
                 if new_hi is None or k[i] <= new_hi}
        return out

    def cut_below(self, var: str, lo: int) -> "MultiSeries":
        """Discard terms with var exponent below ``lo``.

        Unlike ``clip`` this deliberately throws support away; the
        resulting lo is a viewing cut for Laurent data whose true
        support extends further down (kernel expansions, torus traces).
        """
        i = self.vars.index(var)
        window = dict(self.window)
        window[var] = (max(lo, self.window[var][0]), self.window[var][1])
        out = MultiSeries(self.vars, window)
        out.c = {k: v for k, v in self.c.items() if k[i] >= lo}
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

    def substitute(self, var: str, series: "MultiSeries", horizons: dict) -> "MultiSeries":
        """Substitute an exact series for ``var``.

        ``series`` must have finite stored support and is treated as
        exact on it; negative powers require an invertible leading
        structure only in the one-variable case, so here powers are
        formed term by term (positive n by multiplication, negative n
        via the one-variable inverse when ``series`` has one variable).
        ``horizons`` gives output windows for the variables of
        ``series``.
        """
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        groups = {}
        for key, val in self.c.items():
            groups.setdefault(key[i], {})[key[:i] + key[i + 1:]] = val
        acc = None
        for e, part in sorted(groups.items()):
            ms_part = MultiSeries(rest, {v: self.window[v] for v in rest})
            ms_part.c = dict(part)
            if e >= 0:
                powed = series ** e
            else:
                powed = MultiSeries.from_single(series.to_single().inverse(
                    hi=horizons[series.to_single().var]) ** (-e))
            for v, h in horizons.items():
                if v in powed.window:
                    powed = powed.clip(v, powed.window[v][0], h)
            term = ms_part * powed
            acc = term if acc is None else acc + term
        if acc is None:
            win = {v: self.window[v] for v in rest}
            for v, h in horizons.items():
                win.setdefault(v, (0, h))
            return MultiSeries(tuple(win), win)
        return acc

    # -- io ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "window": {v: [self.window[v][0], self.window[v][1]] for v in self.vars},
            "coeffs": {",".join(map(str, k)): f"{v.numerator}/{v.denominator}"
                       for k, v in sorted(self.c.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiSeries":
        window = {v: (lo, hi) for v, (lo, hi) in data["window"].items()}
        coeffs = {}
        for key, val in data["coeffs"].items():
            exps = tuple(int(e) for e in key.split(",")) if key else ()
            coeffs[exps] = Fraction(val)
        return cls(tuple(data["vars"]), window, coeffs)

    def __str__(self):
        terms = []
        for key in sorted(self.c):
            factors = []
            for v, e in zip(self.vars, key):
                if e == 0:
                    continue
                factors.append(v if e == 1 else f"{v}^{e}")
            mono = "*".join(factors)
            terms.append((mono, self.c[key]))
        return _format_terms(terms, sep="*")

    def __repr__(self):
        return f"MultiSeries({self.vars!r}, {self.window!r}, {len(self.c)} terms)"


def iota_expand(n: int, m: int, outer: str, inner: str, window) -> MultiSeries:
    """The rational kernel expansion sum_j C(n+j, m) z^(-n-j-1) w^(n+j-1).

    ``outer`` and ``inner`` name z and w; ``window`` is the pair
    (outer_lo, inner_hi) bounding how many j terms are generated.
    The expansion region is |z| > |w|.
    """
    outer_lo, inner_hi = window
    coeffs = {}
    j = 0
    while -n - j - 1 >= outer_lo and n + j - 1 <= inner_hi:
        coeffs[(-n - j - 1, n + j - 1) if outer < inner else (n + j - 1, -n - j - 1)] = comb(n + j, m)
        j += 1
    return MultiSeries((outer, inner),
                       {outer: (outer_lo, -n - 1), inner: (n - 1, inner_hi)},
                       coeffs)


def binomial_expand(m: int, outer: str, inner: str, outer_lo: int, sign=1) -> MultiSeries:
    """Exact expansion of 1/(outer - sign*inner)^(m+1) in |outer| > |inner|.

    Terms sum_{j>=0} C(m+j, m) sign^j outer^(-m-1-j) inner^j, generated
    while the outer exponent stays >= outer_lo.
    """
    coeffs = {}
    j = 0
    while -m - 1 - j >= outer_lo:
        val = Fraction(comb(m + j, m) * (sign ** j))
        coeffs[(-m - 1 - j, j) if outer < inner else (j, -m - 1 - j)] = val
        j += 1
    jmax = -m - 1 - outer_lo
    return MultiSeries((outer, inner),
                       {outer: (outer_lo, -m - 1), inner: (0, max(jmax, -1))},
                       coeffs)

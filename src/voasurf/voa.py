"""The rank-one Heisenberg vertex operator algebra in exact arithmetic.

States live in the Fock space spanned by monomials
a(-l1) a(-l2) ... a(-lk) |1> with l1 >= l2 >= ... >= lk >= 1, encoded
as the integer partition tuple (l1, ..., lk).  The weight grading is
the partition sum, the central charge is 1, and the conformal vector
is omega = (1/2) a(-1)^2 |1>.

Everything here is closed-form mode algebra:

* ``heisenberg_mode`` applies a generator mode a(m), [a(m), a(n)] =
  m delta_{m+n,0}.
* ``vertex_mode`` applies the general mode u(k) of Y(u, z) =
  sum_k u(k) z^(-k-1), built recursively from the normally ordered
  reconstruction Y(a(-n)w, z) = :(d^(n-1)a(z)/(n-1)!) Y(w, z):.  The
  vacuum and a single generator a(-n)|1> have closed-form rows: u(k) is
  the one mode C(-m-1, n-1) a(m), m = k - n + 1.  For several
  generators the creation part of a(-n) runs over a(m) w(k - m - n)
  down to the m where w(j) would have to remove more than the len(w)
  largest parts of v, since w(j) is a product of len(w) generator modes.
* ``square_bracket_mode`` applies the modes v[m] of the cylinder
  vertex operator Y[v, z] = Y(e^(z wt v) v, e^z - 1), given on a fixed
  target by the finite sum v[m] = sum_j c_{m,j} v(j) with c_{m,j} the
  z^(-m-1) coefficient of e^(wt(v) z) (e^z - 1)^(-j-1).  Substituting
  w = e^z - 1 in the residue gives the closed form
  c_{m,j} = [w^(j-m)] (1+w)^(wt(v)-1) (log(1+w)/w)^m (``_cyl_coeff``).
* ``bilinear_form`` is the invariant pairing normalized by
  <|1>, |1>> = 1 with adjoint a(k)^+ = -a(-k).

The module is free of series objects and takes only ``rat`` from
``series``: modes act on graded vectors, the cylinder coefficients are
finite sums of rationals, and the series machinery consumes the
resulting coefficients.

Integrality: in the round basis every mode matrix is integral.  The
table ``_vertex_mode_basis`` of u(k) v on basis states u, v holds
Python ints only, and the graded traces built on it sum ints.  Every
reader, its own recursion and the traces included, picks a state's
rows through ``_rows_of``: the closed-form rows of the vacuum and of a
single generator are computed on the spot and never cached, so the
table holds the rows of states with several generators only.
Both the round and the square-bracket Fock bases are orthogonal for
the form, with the same norms <lam, lam> (``_norm``), which are ints.
A ``GradedVector`` stores its coefficients through ``rat``: ints, and
Fractions only where a value is not integral (user states, the duals
lam/<lam, lam> of ``dual_basis`` that the Schottky handle sums read,
the square-bracket coefficients of ``_cyl_coeff``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import rat

VACUUM = ()
A = (1,)

CENTRAL_CHARGE = 1


def weight(state: tuple) -> int:
    return sum(state)


@lru_cache(maxsize=None)
def basis(m: int):
    """All Fock basis states of weight m, largest part first, in a
    fixed reverse-lexicographic order."""
    if m < 0:
        return ()
    if m == 0:
        return (VACUUM,)
    out = []

    def build(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            build(remaining - part, part, prefix + [part])

    build(m, m, [])
    return tuple(out)


def gbinom(a: int, k: int) -> int:
    """Generalized binomial C(a, k) for integer a, k >= 0."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    return (-1) ** k * comb(k - a - 1, k)


class GradedVector:
    """A finite rational linear combination of Fock basis states, each
    coefficient stored through ``rat``."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        self.t = {}
        if terms:
            for state, c in (terms.items() if isinstance(terms, dict) else terms):
                self.accumulate(tuple(state), rat(c))

    @classmethod
    def basis_state(cls, state) -> "GradedVector":
        return cls({tuple(state): 1})

    def is_zero(self) -> bool:
        return not self.t

    def accumulate(self, state, c):
        c = rat(self.t.get(state, 0) + c)
        if c:
            self.t[state] = c
        else:
            self.t.pop(state, None)

    def __add__(self, other):
        out = GradedVector(self.t)
        for s, c in other.t.items():
            out.accumulate(s, c)
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        scalar = rat(scalar)
        return GradedVector({s: c * scalar for s, c in self.t.items()} if scalar else None)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return isinstance(other, GradedVector) and self.t == other.t

    __hash__ = None

    def coefficient(self, state):
        return self.t.get(tuple(state), 0)

    def weights(self):
        return sorted({weight(s) for s in self.t})

    def weight_component(self, m: int) -> "GradedVector":
        return GradedVector({s: c for s, c in self.t.items() if weight(s) == m})

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def __repr__(self):
        return f"GradedVector({render_state(self)})"


ZERO = GradedVector()


def vacuum() -> GradedVector:
    return GradedVector.basis_state(VACUUM)


def generator() -> GradedVector:
    """The weight-one generator a = a(-1)|1>."""
    return GradedVector.basis_state(A)


def conformal_vector() -> GradedVector:
    """omega = (1/2) a(-1)^2 |1>, with L(n) = omega(n+1)."""
    return GradedVector({(1, 1): Fraction(1, 2)})


def conformal_vector_tilde() -> GradedVector:
    """The cylinder conformal vector omega - (c/24)|1>."""
    return GradedVector({(1, 1): Fraction(1, 2),
                         VACUUM: Fraction(-CENTRAL_CHARGE, 24)})


# -- mode actions ------------------------------------------------------


def heisenberg_mode(m: int, v: GradedVector) -> GradedVector:
    """Apply the generator mode a(m); a(0) acts as zero."""
    if m == 0:
        return ZERO
    out = GradedVector()
    for state, c in v.t.items():
        if m < 0:
            new = tuple(sorted(state + (-m,), reverse=True))
            out.accumulate(new, c)
        else:
            mult = state.count(m)
            if mult:
                idx = state.index(m)
                out.accumulate(state[:idx] + state[idx + 1:], c * m * mult)
    return out


@lru_cache(maxsize=None)
def _derivative_coeff(m: int, n: int) -> int:
    """C(-m-1, n-1): the coefficient of a(m) in u(m + n - 1) for the
    single generator u = a(-n)|1>."""
    return gbinom(-m - 1, n - 1)


def _insert(v: tuple, part: int) -> tuple:
    """The descending tuple v with ``part`` added in its place."""
    i = 0
    for x in v:
        if x <= part:
            break
        i += 1
    return v[:i] + (part,) + v[i:]


def _short_row(u: tuple, k: int, v: tuple) -> tuple:
    """u(k) v for the vacuum or a single generator u = a(-n)|1>, in
    closed form: Y(a(-n)|1>, z) = d^(n-1)a(z)/(n-1)!, so u(k) is the
    one mode C(-m-1, n-1) a(m) with m = k - n + 1."""
    if u == VACUUM:
        return ((v, 1),) if k == -1 else ()
    n = u[0]
    m = k - n + 1
    if m < 0:
        coef = _derivative_coeff(m, n)
        return ((_insert(v, -m), coef),) if coef else ()
    if m == 0 or m not in v:
        return ()
    idx = v.index(m)
    return ((v[:idx] + v[idx + 1:], _derivative_coeff(m, n) * m * v.count(m)),)


def _rows_of(u: tuple):
    """The function (u, k, v) -> u(k) v for the state u: the closed form
    for the vacuum and a single generator, else the table.  Callers
    pick it once per state and apply it to many k and v."""
    return _short_row if len(u) < 2 else _vertex_mode_basis


@lru_cache(maxsize=None)
def _vertex_mode_basis(u: tuple, k: int, v: tuple):
    """u(k) v on basis states; returns a sorted tuple of (state, int)
    pairs.  Every coefficient of the derivative field and of a(m) on a
    round basis state is an integer, so the table is integral.  The
    library reads it through ``_rows_of``, so it holds the rows of
    states with several generators only; a direct call on the vacuum
    or a single generator gets the closed form."""
    if len(u) < 2:
        return _short_row(u, k, v)
    n, w = u[0], u[1:]
    sub = _rows_of(w)
    acc = {}

    # creation part of the derivative field, applied after w modes; w(j)
    # is a product of len(w) generator modes, so it removes at most the
    # len(w) largest parts of v, and w(j) v vanishes unless j <= wt w - 1
    # plus their sum
    m_lo = k - n - weight(w) - sum(v[:len(w)]) + 1
    for m in range(-n, m_lo - 1, -1):
        pairs = sub(w, k - m - n, v)
        if pairs:
            coef = _derivative_coeff(m, n)
            for s, c in pairs:
                s = _insert(s, -m)
                acc[s] = acc.get(s, 0) + coef * c

    # annihilation part, applied before w modes: a(m) removes one part
    # m from v with factor m times its multiplicity, once per distinct m
    for i, m in enumerate(v):
        if i and v[i - 1] == m:
            continue
        pairs = sub(w, k - m - n, v[:i] + v[i + 1:])
        if pairs:
            coef = _derivative_coeff(m, n) * m * v.count(m)
            for s, c in pairs:
                acc[s] = acc.get(s, 0) + coef * c

    return tuple(sorted((s, c) for s, c in acc.items() if c))


def vertex_mode(u: GradedVector, k: int, v: GradedVector) -> GradedVector:
    """The mode u(k) of Y(u, z) = sum u(k) z^(-k-1), bilinear in u, v."""
    out = GradedVector()
    for us, uc in u.t.items():
        rows = _rows_of(us)
        for vs, vc in v.t.items():
            for s, c in rows(us, k, vs):
                out.accumulate(s, uc * vc * c)
    return out


def zero_mode(v: GradedVector, target: GradedVector) -> GradedVector:
    """o(v) = v(wt v - 1) componentwise in the weight of v; it maps
    each V_m to itself."""
    out = GradedVector()
    for r in v.weights():
        part = vertex_mode(v.weight_component(r), r - 1, target)
        out = out + part
    return out


def virasoro(n: int, v: GradedVector) -> GradedVector:
    """L(n) = omega(n+1)."""
    return vertex_mode(conformal_vector(), n + 1, v)


# -- square bracket modes ----------------------------------------------


@lru_cache(maxsize=None)
def _cyl_coeff(r: int, j: int, m: int):
    """Coefficient of z^(-m-1) in e^(r z) (e^z - 1)^(-j-1).

    As a residue in w = e^z - 1 it is [w^(j-m)] (1+w)^(r-1) g(w) with
    g = (log(1+w)/w)^m, zero for j < m.  The power g of the unit series
    f_i = (-1)^i/(i+1) comes from J.C.P. Miller's recurrence g_0 = 1,
    g_k = (1/k) sum_{i=1..k} ((m+1) i - k) f_i g_{k-i}."""
    if j < m:
        return 0
    g = [1]
    for k in range(1, j - m + 1):
        g.append(sum(((m + 1) * i - k) * Fraction((-1) ** i, i + 1)
                     * g[k - i] for i in range(1, k + 1)) / k)
    return sum(gbinom(r - 1, j - m - i) * gi for i, gi in enumerate(g))


def square_bracket_mode(v: GradedVector, m: int, target: GradedVector) -> GradedVector:
    """The cylinder mode v[m] applied to ``target``.

    On a fixed target the defining sum v[m] = sum_j c_{m,j} v(j) is
    finite: v(j) kills states of weight below wt(v(j) target), so j is
    bounded by wt v + wt(target) - 1, and c_{m,j} vanishes for j < m.
    """
    out = GradedVector()
    for r in v.weights():
        vr = v.weight_component(r)
        for ts, tc in target.t.items():
            piece = GradedVector({ts: tc})
            for j in range(m, r + weight(ts)):
                c = _cyl_coeff(r, j, m)
                if c:
                    out = out + c * vertex_mode(vr, j, piece)
    return out


@lru_cache(maxsize=None)
def _square_fock(state: tuple):
    """The square-bracket Fock state a[-l1]...a[-lk]|1> expanded in the
    round basis; unitriangular with leading term ``state`` itself."""
    if state == VACUUM:
        return vacuum()
    head, rest = state[0], state[1:]
    return square_bracket_mode(generator(), -head, _square_fock(rest))


def square_fock(state: tuple) -> GradedVector:
    return GradedVector(_square_fock(tuple(state)).t)


def to_square_coords(v: GradedVector) -> dict:
    """Write v in the square-bracket Fock basis.

    Works down the round weights: square_fock(lam) = round(lam) + lower
    weight terms, so elimination from the top is exact and finite.
    """
    coords = {}
    rest = GradedVector(v.t)
    while not rest.is_zero():
        top = max(rest.weights())
        for lam in basis(top):
            c = rest.coefficient(lam)
            if c:
                coords[lam] = coords.get(lam, 0) + c
                rest = rest - c * square_fock(lam)
    return coords


# -- invariant bilinear forms -------------------------------------------


@lru_cache(maxsize=None)
def _norm(state: tuple) -> int:
    """<lam, lam> = prod_k (-k)^(m_k) m_k!, with m_k the multiplicity
    of the part k."""
    n = 1
    for k in set(state):
        m = state.count(k)
        n *= (-k) ** m * factorial(m)
    return n


def bilinear_form(x: GradedVector, y: GradedVector):
    """The invariant pairing with <|1>,|1>> = 1 and a(k)^+ = -a(-k);
    the round basis is orthogonal, so it is a sum of norms."""
    return sum(c * y.t[s] * _norm(s) for s, c in x.t.items() if s in y.t)


def bilinear_form_sq(x: GradedVector, y: GradedVector):
    """The square-bracket pairing: strip a[-k] factors by the adjoint
    a[k]^+ = -a[-k], pairing vacua at the end."""
    a = generator()
    total = 0
    for lam, c in to_square_coords(x).items():
        target = y
        for k in lam:
            target = square_bracket_mode(a, k, target)
        total += c * (-1) ** len(lam) * target.coefficient(VACUUM)
    return total


def dual_basis(m: int):
    """Pairs (v, v / <v, v>) with <v_bar_i, v_j> = delta_ij at weight m,
    v a round basis state; the basis is orthogonal with norms ``_norm``."""
    return [(GradedVector.basis_state(s),
             GradedVector({s: Fraction(1, _norm(s))})) for s in basis(m)]


# -- axiom checks -------------------------------------------------------


def jacobi_check(u: GradedVector, v: GradedVector, w: GradedVector,
                 degree_window) -> bool:
    """Verify the commutator form of the Jacobi identity,

        [u(k), v(n)] w = sum_{j>=0} C(k, j) (u(j) v)(k+n-j) w,

    for all k, n in the given (kmin, kmax, nmin, nmax) window."""
    kmin, kmax, nmin, nmax = degree_window
    max_j = max((weight(s) for s in u.t), default=0) + \
        max((weight(s) for s in v.t), default=0)
    for k in range(kmin, kmax + 1):
        for n in range(nmin, nmax + 1):
            lhs = vertex_mode(u, k, vertex_mode(v, n, w)) - \
                vertex_mode(v, n, vertex_mode(u, k, w))
            rhs = GradedVector()
            for j in range(0, max_j + 1):
                c = gbinom(k, j)
                if c:
                    rhs = rhs + c * vertex_mode(vertex_mode(u, j, v), k + n - j, w)
            if lhs != rhs:
                return False
    return True


# -- parsing and rendering ----------------------------------------------

_FACTOR = re.compile(r"a\[(-\d+)\](?:\^(\d+))?")
MODE_LIMIT = 1000

_SHORTHAND = {
    "1": vacuum,
    "vac": vacuum,
    "a": generator,
    "omega": conformal_vector,
    "omegatilde": conformal_vector_tilde,
}


def parse_state(text: str) -> GradedVector:
    """Parse a state literal like ``a[-2]a[-1]^2|1 - 1/2*|1``.

    Shorthands: ``1``/``vac`` (vacuum), ``a``, ``omega``,
    ``omegatilde``.  Rational prefactors attach with ``*``.  Every
    factor must be a creation mode a[-n] with n >= 1.  A term of more
    than ``MODE_LIMIT`` = 1000 modes, exponents counted, is refused
    before its modes are listed; no budgeted command accepts more than
    twelve.
    """
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty state literal")
    # split into signed terms, ignoring +/- inside mode brackets
    terms = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and current:
            terms.append(current)
            current = ch
        else:
            current += ch
    terms.append(current)
    out = GradedVector()
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        if term[0] in "+-":
            term = term[1:]
        coeff = 1
        if "*" in term:
            pre, term = term.split("*", 1)
            try:
                coeff = rat(pre)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {pre!r}")
        if term in _SHORTHAND:
            out = out + sign * coeff * _SHORTHAND[term]()
            continue
        if not term.endswith("|1"):
            raise ValueError(f"cannot parse state term {term!r}")
        body = term[:-2]
        pos = 0
        parts = []
        while pos < len(body):
            m = _FACTOR.match(body, pos)
            if not m:
                raise ValueError(f"cannot parse state term {term!r}")
            k = -int(m.group(1))
            if k < 1:
                raise ValueError(
                    f"a[{m.group(1)}] is not a creation mode a[-n], n >= 1")
            count = int(m.group(2) or 1)
            if len(parts) + count > MODE_LIMIT:
                raise ValueError(f"{term!r} has more than {MODE_LIMIT} modes")
            parts.extend([k] * count)
            pos = m.end()
        state = tuple(sorted(parts, reverse=True))
        out = out + GradedVector({state: sign * coeff})
    return out


def render_state(v: GradedVector) -> str:
    """Inverse of ``parse_state`` on canonical form."""
    if v.is_zero():
        return "0"
    parts = []
    for state in sorted(v.t, key=lambda s: (-weight(s), s)):
        c = v.t[state]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        body = ""
        i = 0
        while i < len(state):
            k = state[i]
            mult = state.count(k)
            body += f"a[-{k}]" + (f"^{mult}" if mult > 1 else "")
            i += mult
        body += "|1"
        prefix = "" if c == 1 else f"{c}*"
        parts.append((sign, prefix + body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text

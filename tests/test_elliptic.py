"""Eisenstein / Weierstrass kernel tests with independently derived
reference values."""

from fractions import Fraction
from math import comb, factorial

import pytest

from voasurf import elliptic
from voasurf.elliptic import (
    bernoulli,
    eisenstein,
    onepoint_hafnian,
    weierstrass_p,
    weierstrass_p_qz,
)
from voasurf.reduction import genus1_onepoint
from voasurf.series import MultiSeries
from voasurf.voa import basis, square_fock

from test_coefficient_types import canonical


def exp_series(var, scale, hi):
    """exp(scale * var) through var**hi."""
    return MultiSeries((var,), {var: (0, hi)},
                       {(k,): Fraction(scale) ** k / factorial(k)
                        for k in range(hi + 1)})


def reciprocal(series, hi):
    """1/series through var**hi for a one-variable series whose lowest
    stored term is c var**m, by long division of its unit part; the
    series must be known through var**(hi + 2m)."""
    (var,) = series.vars
    (m,) = min(series.c)
    assert series.window[var][1] >= hi + 2 * m
    lead = series.c[(m,)]
    unit = [series.c.get((m + i,), 0) / lead for i in range(hi + m + 1)]
    inv = [Fraction(1)]
    for k in range(1, hi + m + 1):
        inv.append(-sum(unit[i] * inv[k - i] for i in range(1, k + 1)))
    return MultiSeries((var,), {var: (-m, hi)},
                       {(k - m,): c / lead for k, c in enumerate(inv)})


def expand_exp(series, out_var, hi):
    """Substitute q_z = e**z in a one-variable series: each stored
    power q_z**k becomes exp(k z), truncated at out_var**hi."""
    acc = MultiSeries((out_var,), {out_var: (0, hi)})
    for (e,), v in series.c.items():
        acc = acc + exp_series(out_var, e, hi) * v
    return acc


def z_derivative(ms, var):
    """d/d(var) of a Laurent series, its window shifted down by one."""
    i = ms.vars.index(var)
    lo, hi = ms.window[var]
    out = MultiSeries(ms.vars, {**ms.window, var: (lo - 1, hi - 1)})
    for key, val in ms.c.items():
        if key[i]:
            out.c[key[:i] + (key[i] - 1,) + key[i + 1:]] = val * key[i]
    return out


def derivative_chain_p(m, z_order, q_order, zvar="z", qvar="q"):
    """P_m as m - 1 derivatives of P_1 = 1/z - sum_k E_k z^(k-1), each
    scaled by -1/j (d_z P_j = -j P_{j+1}); P_1 is built through
    z^(z_order + m - 1) so that P_m reaches z^z_order."""
    hi = z_order + m - 1

    def key(ze, qe):
        return (qe, ze) if qvar < zvar else (ze, qe)

    coeffs = {key(-1, 0): Fraction(1)}
    for k in range(2, hi + 2):
        for (qe,), c in eisenstein(k, q_order, qvar).c.items():
            coeffs[key(k - 1, qe)] = -c
    out = MultiSeries((zvar, qvar), {zvar: (-1, hi), qvar: (0, q_order)},
                      coeffs)
    for j in range(1, m):
        out = Fraction(-1, j) * z_derivative(out, zvar)
    return out


def sigma_ref(k, n):
    """Divisor power sum via the complementary divisor (independent
    of the implementation's loop)."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            if d != n // d:
                total += (n // d) ** k
        d += 1
    return total


def bernoulli_ref(n_max):
    """B_0 .. B_n_max by the defining recurrence
    sum_{j<=n} C(n+1, j) B_j = 0 (independent of the tangent numbers
    the implementation uses)."""
    row = [Fraction(1)]
    for n in range(1, n_max + 1):
        row.append(-sum(comb(n + 1, j) * row[j] for j in range(n)) / (n + 1))
    return row


class TestEisenstein:
    def test_bernoulli(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_bernoulli_matches_recurrence(self):
        assert [bernoulli(n) for n in range(81)] == bernoulli_ref(80)

    def test_one_tangent_column_per_new_bernoulli_number(self, monkeypatch):
        # P_1 through z^200 needs B_2 .. B_200, so T_1 .. T_100: each new
        # T_h adds one column to the table, never a rerun of it
        monkeypatch.setattr(elliptic, "_TANGENTS", [1])
        monkeypatch.setattr(elliptic, "_LAST_COLUMN", [1])
        grown = []
        grow = elliptic._grow_tangents
        monkeypatch.setattr(elliptic, "_grow_tangents",
                            lambda: grown.append(1) or grow())
        bernoulli.cache_clear()
        elliptic._eis_coefficients.cache_clear()
        weierstrass_p(1, 200, 1)
        assert len(grown) == 99
        assert elliptic._TANGENTS[:5] == [1, 2, 16, 272, 7936]
        assert bernoulli(200) == bernoulli_ref(200)[200]

    def test_e2_printed(self):
        e2 = eisenstein(2, 3)
        assert e2.pretty(sep="") == "-1/12 + 2q + 6q^2 + 8q^3"

    def test_e4_e6_leading(self):
        e4 = eisenstein(4, 2)
        assert e4.coefficient({"q": 0}) == Fraction(1, 720)
        assert e4.coefficient({"q": 1}) == Fraction(1, 3)
        assert e4.coefficient({"q": 2}) == 3
        e6 = eisenstein(6, 2)
        assert e6.coefficient({"q": 0}) == Fraction(-1, 30240)
        assert e6.coefficient({"q": 1}) == Fraction(1, 60)
        assert e6.coefficient({"q": 2}) == Fraction(11, 20)

    def test_orders_to_twenty(self):
        # order 20 and then 300 in one process: each order's table is
        # its own memo entry, and the sieve reaches large n
        for order in (20, 300):
            for k in (2, 4, 6, 12):
                ek = eisenstein(k, order)
                for n in range(1, order + 1):
                    assert ek.coefficient({"q": n}) == \
                        Fraction(2 * sigma_ref(k - 1, n), factorial(k - 1))

    def test_odd_index_zero(self):
        assert eisenstein(3, 10).is_zero()
        assert eisenstein(7, 10).is_zero()


class TestOnepointHafnian:
    @pytest.mark.parametrize("q_order", [6, 8])
    def test_matches_the_trace_oracle(self, q_order):
        # every square-bracket Fock state of weight 0-10, traced basis
        # vector by basis vector
        for w in range(11):
            for lam in basis(w):
                got = onepoint_hafnian(lam, q_order, "q")
                want = genus1_onepoint(square_fock(lam), q_order)
                assert (got.vars, got.window) == (want.vars, want.window)
                assert got == want, lam

    def test_odd_number_of_parts_is_zero(self):
        for parts in ((1,), (2,), (1, 1, 2), (3, 1, 2), (1, 1, 1, 1, 1)):
            got = onepoint_hafnian(parts, 6, "q")
            assert got.is_zero()
            assert (got.vars, got.window) == (("q",), {"q": (0, 6)})


class TestWeierstrass:
    def test_p1_leading(self):
        p1 = weierstrass_p(1, 4, 2)
        assert p1.coefficient({"z": -1, "q": 0}) == 1
        # -E_2 at z^1, -E_4 at z^3
        assert p1.coefficient({"z": 1, "q": 0}) == Fraction(1, 12)
        assert p1.coefficient({"z": 1, "q": 1}) == -2
        assert p1.coefficient({"z": 3, "q": 0}) == Fraction(-1, 720)
        assert p1.coefficient({"z": 2, "q": 1}) == 0

    def test_p2_closed_form(self):
        # P_2 = 1/z^2 + sum_k (k-1) E_k z^(k-2)
        p2 = weierstrass_p(2, 4, 3)
        assert p2.coefficient({"z": -2, "q": 0}) == 1
        assert p2.coefficient({"z": 0, "q": 0}) == Fraction(-1, 12)
        assert p2.coefficient({"z": 0, "q": 1}) == 2
        assert p2.coefficient({"z": 2, "q": 0}) == Fraction(3, 720)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_closed_form_equals_derivative_chain(self, m):
        # variables, windows, coefficients and their canonical type, with
        # the q variable sorting both before and after the z variable
        for zvar, qvar in (("z", "q"), ("x", "q1"), ("_z", "q2"), ("z", "a")):
            for z_order in range(9):
                for q_order in range(7):
                    got = weierstrass_p(m, z_order, q_order, zvar, qvar)
                    want = derivative_chain_p(m, z_order, q_order, zvar, qvar)
                    assert (got.vars, got.window) == (want.vars, want.window)
                    assert got.c == want.c
                    assert all(canonical(v) for v in got.c.values())

    def test_derivative_ladder(self):
        # d_z P_m = -m P_{m+1} for m <= 16
        for m in range(1, 17):
            pm = weierstrass_p(m, 6, 4)
            pm1 = weierstrass_p(m + 1, 6, 4)
            assert z_derivative(pm, "z").agrees_with(-m * pm1)

    def test_qz_form_q1_slice_matches_z_form(self):
        # the q^1 coefficient is -q_z + q_z^-1 = -(e^z - e^-z)
        p1q = weierstrass_p_qz(1, (-5, 5), 3)
        slice1 = p1q.coefficient_of("q", 1)
        zed = expand_exp(slice1, "z", 6)
        p1z = weierstrass_p(1, 6, 3)
        ref = p1z.coefficient_of("q", 1)
        assert zed.agrees_with(ref)

    def test_qz_form_q0_constant_offset(self):
        # at q^0 the q_z form resums to e^z/(e^z - 1), which differs
        # from the z form 1/z - sum E_k(0) z^(k-1) by exactly +1/2
        n = 8
        ez = exp_series("z", 1, n + 2)
        closed = ez * reciprocal(ez - 1, n)
        p1z = weierstrass_p(1, n, 1)
        zform = p1z.coefficient_of("q", 0)
        diff = closed - zform
        assert diff.c == {(0,): Fraction(1, 2)}
        # and the stored q^0 slice of the q_z form is the truncated
        # geometric sum -sum_{n>=1} q_z^n
        p1q = weierstrass_p_qz(1, (-4, 4), 2)
        q0 = p1q.coefficient_of("q", 0)
        assert q0.c == {(k,): -1 for k in range(1, 5)}

    def test_qz_form_q0_resums_for_p2(self):
        # at q^0, P_2's q_z form resums to e^z/(e^z-1)^2 with no
        # convention constant (the +1/2 lives only in P_1)
        n = 8
        ez = exp_series("z", 1, n + 4)
        closed = ez * reciprocal((ez - 1) * (ez - 1), n)
        p2z = weierstrass_p(2, n, 1)
        zform = p2z.coefficient_of("q", 0)
        assert closed.agrees_with(zform)

    def test_qz_form_q2_slice_matches_z_form(self):
        # q^j slices with j >= 1 have finite q_z support, so they can
        # be compared through the exponential substitution exactly
        for m in (1, 2):
            pq = weierstrass_p_qz(m, (-6, 6), 3)
            sl = pq.coefficient_of("q", 2)
            zed = expand_exp(sl, "z", 6)
            ref = weierstrass_p(m, 6, 3).coefficient_of("q", 2)
            assert zed.agrees_with(ref), m

"""Genus-g handle kernels and handle sums.

The genus-zero evaluator is pinned first, against hand-computed
propagator values, translation and scaling covariance, and the
classical pole-expansion identity (which holds for an arbitrary state
when the kernel seed has no f-part, so it is an oracle independent of
everything the Schottky layer adds).  The moment matrix, Neumann
inverse and dressed kernels are then checked against dense in-test
linear algebra, and the reduction step is held to exact agreement
with the directly summed n-point functions order by order in the
amplitudes, which is the identity the whole construction exists to
realize.
"""

import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from voasurf import schottky, sewing
from voasurf.genus2 import HALF_POWERS
from voasurf.series import MultiSeries
from voasurf.voa import (
    GradedVector,
    basis,
    bilinear_form,
    conformal_vector,
    generator,
    heisenberg_mode,
    vacuum,
    vertex_mode,
)
from voasurf.schottky import (
    Formal,
    SchottkyData,
    chi,
    genus0_rational_value,
    genus_g_npoint,
    genus_g_partition,
    genus_g_reduce,
    handle_indices,
    handle_mul,
    neumann_inverse,
    p_row,
    psi0,
    psi_deriv_value,
    psi_full,
    q_column,
    schottky_R,
    schottky_delta,
    shifted_columns,
    theta,
)
from voasurf.sewing import (
    SeriesMatrix,
    add as handle_add,
    identity,
    renamed,
    require_integer,
    row_times_matrix,
)

from test_coefficient_types import canonical

F = Fraction

A = generator()
ZERO = MultiSeries.constant(0)  # an absent matrix entry
OMEGA = conformal_vector()
DDA = heisenberg_mode(-2, vacuum())  # a(-2)|0>, weight 2, not quasi-primary


def state(*parts, scale=1):
    v = vacuum()
    for k in reversed(parts):
        v = heisenberg_mode(-k, v)
    return v * F(scale)


# -- the genus-zero evaluator ------------------------------------------------


class TestGenus0Values:
    def test_two_currents(self):
        for x, y in ((F(2), F(-1)), (F(1, 3), F(5)), (F(0), F(7, 2))):
            got = genus0_rational_value([A, A], [x, y])
            assert got == (x - y) ** -2

    def test_weight_two_pair(self):
        x, y = F(4), F(1)
        sq = state(1, 1)
        assert genus0_rational_value([sq, sq], [x, y]) == 2 * (x - y) ** -4
        da = state(2)
        assert genus0_rational_value([da, da], [x, y]) == -6 * (x - y) ** -4

    def test_four_currents_hand_sum(self):
        pts = [F(5), F(7), F(3), F(1)]
        want = sum((pts[i] - pts[j]) ** -2 * (pts[k] - pts[l]) ** -2
                   for i, j, k, l in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)))
        assert genus0_rational_value([A, A, A, A], pts) == want

    def test_odd_leg_count_vanishes(self):
        assert genus0_rational_value([A, A, A], [F(1), F(2), F(3)]) == 0
        assert genus0_rational_value([A], [F(2)]) == 0

    def test_vacuum_normalization(self):
        assert genus0_rational_value([], []) == 1
        assert genus0_rational_value([vacuum(), state(1, 1)],
                                     [F(0), F(2)]) == 0

    def test_same_point_legs_cannot_pair(self):
        # <omega> as a one-point value: both legs sit at one point
        assert genus0_rational_value([OMEGA], [F(3)]) == 0

    def test_distinct_points_enforced(self):
        with pytest.raises(ValueError):
            genus0_rational_value([A, A], [F(1), F(1)])

    @given(c=st.integers(min_value=-40, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance(self, c):
        pts = [F(0), F(2), F(5)]
        states = [state(1, 1), A, state(2, scale=F(1, 3))]
        base = genus0_rational_value(states, pts)
        moved = genus0_rational_value(states, [p + F(c, 7) for p in pts])
        assert moved == base

    @given(lam=st.fractions(min_value=F(-9), max_value=F(9),
                            max_denominator=5))
    @settings(max_examples=20, deadline=None)
    def test_scaling_covariance(self, lam):
        if lam == 0:
            return
        pts = [F(1), F(2), F(-3)]
        states = [state(1, 1), A, state(2)]
        wt = 2 + 1 + 2
        base = genus0_rational_value(states, pts)
        scaled = genus0_rational_value(states, [lam * p for p in pts])
        assert scaled == lam ** -wt * base

    @pytest.mark.parametrize("u,top", [(A, 1), (OMEGA, 2), (DDA, 2)])
    def test_pole_expansion_identity(self, u, top):
        # F(u at y; v_k at y_k) = sum_k sum_j (y - y_k)^(-1-j) F(u(j)_k ...)
        # for any state u, since the seed has no f-part here.
        y = F(9)
        ins = [(state(1, 1), F(2)), (A, F(-1)), (state(2), F(4))]
        lhs = genus0_rational_value([u] + [s for s, _ in ins],
                                    [y] + [p for _, p in ins])
        rhs = F(0)
        for k, (vk, yk) in enumerate(ins):
            for j in range(top + max(vk.weights())):
                uv = vertex_mode(u, j, vk)
                if uv.is_zero():
                    continue
                mod = [s for s, _ in ins]
                mod[k] = uv
                rhs += (y - yk) ** (-1 - j) * genus0_rational_value(
                    mod, [p for _, p in ins])
        assert lhs == rhs


# -- the integer matching sums against the Fraction recursion ---------------


def fraction_pair_weight(k, kp):
    return Fraction((-1) ** (k - 1) * factorial(k + kp - 1),
                    factorial(k - 1) * factorial(kp - 1))


@lru_cache(maxsize=None)
def fraction_matchings(legs, points):
    """The matching sum with one Fraction propagator per pair: the
    recursion the integer sums replace."""
    if not legs:
        return 1
    i, k = legs[0]
    total = 0
    for t in range(1, len(legs)):
        j, kp = legs[t]
        if j == i:
            continue
        rest = legs[1:t] + legs[t + 1:]
        total += (fraction_pair_weight(k, kp)
                  / (points[i] - points[j]) ** (k + kp)
                  * fraction_matchings(rest, points))
    return total


def fraction_genus0_value(states, points):
    pts = tuple(Fraction(p) for p in points)
    total = 0
    for combo in product(*(tuple(s.t.items()) for s in states)):
        coeff = prod(c for _, c in combo)
        legs = tuple((i, k) for i, (parts, _) in enumerate(combo)
                     for k in parts)
        if coeff and len(legs) % 2 == 0:
            total += coeff * fraction_matchings(legs, pts)
    return total


def random_states(rng, n):
    """n random Fock states of weight at most 4, some of them sums of
    two basis monomials with rational coefficients."""
    out = []
    for _ in range(n):
        v = GradedVector({})
        for _ in range(rng.randint(1, 2)):
            part = rng.choice([lam for w in range(1, 5) for lam in basis(w)])
            v = v + GradedVector.basis_state(part) * F(rng.randint(-5, 5),
                                                       rng.randint(1, 3))
        out.append(v if not v.is_zero() else A)
    return out


class TestIntegerMatchings:
    """``genus0_rational_value`` sums its matchings in ints and scales
    once; each case must equal the Fraction recursion exactly."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rational_points(self, seed):
        # a negative point and a non-integral one among 2 to 5
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        pts = {F(-rng.randint(1, 30), rng.randint(1, 7)),
               F(2 * rng.randint(-9, 9) + 1, 2)}
        while len(pts) < n:
            pts.add(F(rng.randint(-30, 30), rng.randint(1, 7)))
        pts = sorted(pts, key=lambda _: rng.random())
        states = random_states(rng, n)
        assert genus0_rational_value(states, pts) == \
            fraction_genus0_value(states, pts)

    @pytest.mark.parametrize("pts", [
        [F(-3), F(-1), F(1), F(3)],               # equal differences
        [F(-1, 2), F(0), F(1, 2), F(1)],
        [F(-7, 3), F(-4, 3), F(-1, 3), F(2, 3), F(5, 3)],
    ], ids=["integers", "halves", "thirds"])
    def test_equal_pairwise_differences(self, pts):
        rng = random.Random(len(pts))
        for _ in range(4):
            states = random_states(rng, len(pts))
            assert genus0_rational_value(states, pts) == \
                fraction_genus0_value(states, pts)

    def test_odd_leg_counts(self):
        # weight-odd monomials: the odd ones vanish, the even ones mix
        pts = [F(-5, 2), F(1, 3), F(4)]
        cases = [[A, A, state(2)], [A, state(1, 1), A],
                 [state(1, 2), state(3), A + state(1, 1)]]
        for states in cases:
            assert genus0_rational_value(states, pts) == \
                fraction_genus0_value(states, pts)
        assert genus0_rational_value(cases[0], pts) == 0
        assert fraction_genus0_value(cases[2], pts) != 0

    @pytest.mark.parametrize("genus,cutoff,coords", [
        (2, 5, (3, 1, -2, 6)),
        (3, 3, (3, 1, -2, 6, 10, -7)),
    ], ids=["g2", "g3"])
    def test_partition_equals_fraction_sums(self, monkeypatch, genus, cutoff,
                                            coords):
        data = SchottkyData(genus, coords, cutoff, 2 * cutoff)
        got = genus_g_partition(data, cutoff)
        monkeypatch.setattr(schottky, "genus0_rational_value",
                            fraction_genus0_value)
        want = genus_g_partition(data, cutoff)
        assert got.vars == want.vars and got.window == want.window
        assert {k: (type(c), c) for k, c in got.c.items()} == \
            {k: (type(c), c) for k, c in want.c.items()}
        assert len(got.c) > 10


# -- the kernel seed ---------------------------------------------------------


class TestKernelSeed:
    def test_pole_grid(self):
        s = psi0(2, (), {"x": (-5, None), "y": (0, 3)})
        for k in range(4):
            assert s.coefficient({"x": -1 - k, "y": k}) == 1
        assert s.coefficient({"x": -2, "y": 0}) == 0
        assert s.coefficient({"x": -1, "y": 1}) == 0

    def test_f_part_added_on_top(self):
        # f_0(x) = 1/x at p = 1: the (x^-1, y^0) cell collects both terms
        s = psi0(1, ({-1: 1},), {"x": (-5, None), "y": (0, 3)})
        assert s.coefficient({"x": -1, "y": 0}) == 2
        assert s.coefficient({"x": -2, "y": 1}) == 1
        assert s.coefficient({"x": -1, "y": 1}) == 0

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            psi0(0, (), {"x": (-3, None), "y": (0, 2)})
        with pytest.raises(ValueError):
            psi0(1, ({0: 1}, {0: 1}), {"x": (-3, None), "y": (0, 2)})
        with pytest.raises(ValueError):
            psi0(1, (), {"x": (-3, None), "y": (0, None)})


# -- the moment matrix -------------------------------------------------------


DATA1 = SchottkyData(1, (3, 1), 2, 4)
DATA1F = SchottkyData(1, (3, 1), 2, 4, f_choice=({0: F(1, 2)},))
DATA2 = SchottkyData(2, (3, 1, -2, 6), 2, 4)
DATA3 = SchottkyData(3, (3, 1, -2, 6, 10, -7), 2, 4)


class TestMomentMatrix:
    def test_data_validation(self):
        # each case fails the named check first, in the order it runs
        for args, text in [
                ((0, (), 0, 0), "genus must be at least 1"),
                ((1, (), 0, 0), "rho_order must be at least 1"),
                ((1, (2, 1, 3, 4), 1, 1), "need exactly 2\\*genus"),
                ((1, (1, 1), 1, 1), "pairwise distinct"),
                ((1, (0, 1), 1, 1), "must be nonzero"),
                ((1, (2, 1), 2, 3), "at least 2 \\* rho_order")]:
            with pytest.raises(ValueError, match=text):
                SchottkyData(*args)

    def test_data_is_stored_in_canonical_form(self):
        data = SchottkyData(genus=1, coordinates=("3", 1), rho_order=1,
                            matrix_cutoff=2,
                            f_choice=({0: 1, 1: 0, -1: F(2, 4)},))
        assert data.coordinates == (3, 1)
        assert all(type(w) is F for w in data.coordinates)
        assert data.f_choice == (((-1, F(1, 2)), (0, 1)),)
        assert data == SchottkyData(1, (3, 1), 1, 2, (((-1, "1/2"), (0, 1)),))
        assert hash(data) == hash(SchottkyData(1, (3, 1), 1, 2,
                                               ({-1: F(1, 2), 0: 1},)))
        assert SchottkyData(1, (3, 1), 1, 2).f_choice == ()

    def test_paired_entries_vanish_without_f(self):
        R = schottky_R(1, DATA1)
        assert all(b != -a for ((a, _), (b, _)) in R.entries)

    def test_entry_values(self):
        # ((a,m),(b,n)) entry for b != -a is
        # (-1)^p (-1)^m C(m+n, m) (w_{-a} - w_b)^(-1-m-n) sr_a^(m+1) sr_b^n
        R = schottky_R(1, DATA1)
        e = R.entries.get(((1, 0), (1, 0)), ZERO)
        assert e.coefficient({"sr1": 1}) == -(F(3) - F(1)) ** -1
        e = R.entries.get(((1, 1), (1, 2)), ZERO)
        assert e.coefficient({"sr1": 4}) == -(-1) * 3 * (F(3) - F(1)) ** -4
        e = R.entries.get(((-1, 0), (-1, 1)), ZERO)
        assert e.coefficient({"sr1": 2}) == -(F(1) - F(3)) ** -2

    def test_constant_f_diagonal(self):
        # f_0 = c: the f-only coefficient is c at m = n = 0 and nothing else
        R = schottky_R(1, DATA1F)
        e = R.entries.get(((1, 0), (-1, 0)), ZERO)
        assert e.coefficient({"sr1": 1}) == -F(1, 2)
        assert R.entries.get(((1, 1), (-1, 0)), ZERO).is_zero()
        assert R.entries.get(((1, 0), (-1, 1)), ZERO).is_zero()

    def test_shifted_columns_is_delta_composition(self):
        for p, data in ((1, DATA1F), (2, DATA2)):
            R = schottky_R(p, data)
            via_mul = handle_mul(R, schottky_delta(p, data), 10)
            direct = shifted_columns(R, p)
            keys = set(via_mul.entries) | set(direct.entries)
            for k in keys:
                assert via_mul.entries.get(k, ZERO).agrees_with(
                    direct.entries.get(k, ZERO))

    def test_cross_handle_entries_carry_both_amplitudes(self):
        R = schottky_R(1, DATA2)
        e = R.entries.get(((1, 0), (2, 1)), ZERO)
        assert sorted(e.c) == [(1, 1)]  # sr1^1 sr2^1

    @pytest.mark.parametrize("p,data", [
        (1, DATA1), (1, DATA1F), (2, DATA2), (1, DATA3),
        (2, SchottkyData(2, (3, 1, -2, 6), 2, 4, f_choice=(
            {-1: F(1, 2), 0: F(3)}, {1: F(-2)}, {-2: F(1, 3)}))),
        (2, SchottkyData(3, (3, 1, -2, 6, 10, -7), 1, 3, f_choice=(
            {0: 2}, {-1: F(5, 7)}, {2: 1})))])
    def test_entries_branch_by_branch(self, p, data):
        # the pair b = -a keeps the pole-free f-part; every other pair
        # the whole seed; each entry is the one monomial
        # sr_a^(m+1) sr_b^n with that sharp lower bound per variable
        sign = F((-1) ** p)
        want = {}
        for a in data.index_set:
            for b in data.index_set:
                for m in range(data.matrix_cutoff):
                    for n in range(data.matrix_cutoff):
                        x, y = data.w(-a), data.w(b)
                        val = sign * (schottky._f_part(p, data, m, n, x, y)
                                      if b == -a else
                                      schottky._psi0_deriv(p, data, m, n,
                                                           x, y))
                        exps = {data.sr_var(a): m + 1}
                        exps[data.sr_var(b)] = exps.get(data.sr_var(b),
                                                        0) + n
                        if val:
                            want[((a, m), (b, n))] = MultiSeries.monomial(
                                exps, val)
        R = schottky_R(p, data)
        assert R.entries.keys() == want.keys()
        for key, e in R.entries.items():
            assert (e.vars, e.window, e.c) == (want[key].vars,
                                               want[key].window,
                                               want[key].c), key
            assert all(canonical(v) for v in e.c.values())


# -- Neumann inversion -------------------------------------------------------


def dense(M, data):
    idx = handle_indices(data)
    return [[M.entries.get((i, j), ZERO) for j in idx] for i in idx]


def genus0_seed_value(p, data, x, y):
    return F(1) / (x - y) + sum(c * x ** e * y ** ell
                                for ell in range(2 * p - 1)
                                for e, c in data.f_poly(ell).items())


def dense_geometric_sum(p, data, hi):
    M = dense(shifted_columns(schottky_R(p, data), p), data)
    acc = dense(identity(handle_indices(data)), data)
    power = dense(identity(handle_indices(data)), data)
    for _ in range(hi + 1):
        power = dense_mul(M, power, data, hi)
        for i in range(len(M)):
            for j in range(len(M)):
                acc[i][j] = acc[i][j] + power[i][j]
    return acc


def dense_mul(X, Y, data, hi):
    n = len(X)
    svars = data.sr_vars
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            tot = MultiSeries.constant(0).extended_to(svars)
            for k in range(n):
                term = (X[i][k] * Y[k][j]).extended_to(svars)
                for v in svars:
                    term = term.clip(v, term.window[v][0], hi)
                tot = tot + term
            row.append(tot)
        out.append(row)
    return out


class TestNeumann:
    def test_zero_matrix_inverts_to_identity(self):
        M = SeriesMatrix(handle_indices(DATA1), {})
        neu = neumann_inverse(M, 4)
        ident = identity(handle_indices(DATA1))
        assert set(neu.entries) == set(ident.entries)
        assert all(v.agrees_with(MultiSeries.constant(1))
                   for v in neu.entries.values())

    @pytest.mark.parametrize("p,data", [(1, DATA1), (1, DATA1F), (2, DATA2)])
    def test_against_dense_geometric_sum(self, p, data):
        hi = 2 * data.rho_order
        neu = neumann_inverse(shifted_columns(schottky_R(p, data), p), hi)
        idx = handle_indices(data)
        acc = dense_geometric_sum(p, data, hi)
        for i, ki in enumerate(idx):
            for j, kj in enumerate(idx):
                assert neu.entries.get((ki, kj), ZERO).agrees_with(acc[i][j])

    # at genus 3 the powers M^k reach past k = 2 rho_order + 1
    @pytest.mark.parametrize("p,data", [(1, DATA1), (1, DATA1F), (2, DATA2),
                                        (1, DATA3)])
    def test_inverse_identity_is_exact(self, p, data):
        hi = 2 * data.rho_order
        M = shifted_columns(schottky_R(p, data), p)
        neu = neumann_inverse(M, hi)
        minus = SeriesMatrix(handle_indices(data),
                             {k: v * F(-1) for k, v in M.entries.items()})
        prod = handle_mul(handle_add(identity(handle_indices(data)), minus),
                          neu, hi)
        ident = identity(handle_indices(data))
        for key in set(prod.entries) | set(ident.entries):
            assert prod.entries.get(key, ZERO).agrees_with(
                ident.entries.get(key, ZERO))

    def test_rejects_amplitude_free_entries(self):
        with pytest.raises(ValueError):
            neumann_inverse(identity(handle_indices(DATA1)), 4)


# -- dressed kernels ---------------------------------------------------------


class TestDressedKernel:
    @pytest.mark.parametrize("p,data", [(1, DATA1), (1, DATA1F), (2, DATA2)])
    def test_amplitude_free_slice_is_the_seed(self, p, data):
        psi = psi_full(p, data)
        seed = psi0(p, data.f_choice, {"x": (-6, None), "y": (0, 4)})
        sliced = psi
        for v in data.sr_vars:
            sliced = sliced.coefficient_of(v, 0)
        assert sliced.agrees_with(seed)
        assert not psi.agrees_with(seed.extended_to(psi.vars))

    def test_psi_full_matches_package(self):
        # psi_full against a dense assembly of the package's formal
        # ptilde row, the geometric sum of R Delta and the q column
        for p, data in ((1, DATA1F), (2, DATA2)):
            hi = 2 * data.rho_order
            idx = handle_indices(data)
            neu = dense_geometric_sum(p, data, hi)
            row = p_row(p, data, Formal("x", -6), tilde=True)
            col = q_column(p, data, Formal("y", 4))
            svars = ("x", "y") + data.sr_vars
            total = psi0(p, data.f_choice,
                         {"x": (-6, None), "y": (0, 4)}).extended_to(svars)
            for i, ki in enumerate(idx):
                for j, kj in enumerate(idx):
                    if ki in row and kj in col:
                        term = (row[ki] * neu[i][j] * col[kj]).extended_to(
                            svars)
                        for v in data.sr_vars:
                            term = term.clip(v, term.window[v][0], hi)
                        total = total + term
            got = psi_full(p, data)
            assert got.agrees_with(total) and got.window == total.window

    def test_value_seed_slices(self):
        x, y = F(9), F(2)
        v0 = psi_deriv_value(1, DATA1F, 0, x, y)
        assert v0.coefficient({"sr1": 0}) == (x - y) ** -1 + F(1, 2)
        v1 = psi_deriv_value(1, DATA1F, 1, x, y)
        assert v1.coefficient({"sr1": 0}) == (x - y) ** -2
        v2 = psi_deriv_value(2, DATA2, 1, x, y)
        assert v2.coefficient({"sr1": 0, "sr2": 0}) == (x - y) ** -2

    @pytest.mark.parametrize("p,data", [(1, DATA1F), (2, DATA2)])
    def test_value_against_dense_assembly(self, p, data):
        # rebuild ptilde (1 - R Delta)^-1 q with dense lists, no sparse
        # row plumbing, and compare
        hi = 2 * data.rho_order
        x, y = F(9), F(2)
        idx = handle_indices(data)
        neu = dense_geometric_sum(p, data, hi)
        row = p_row(p, data, x, tilde=True)
        col = q_column(p, data, y, 0)
        svars = data.sr_vars
        total = MultiSeries.constant(
            genus0_seed_value(p, data, x, y)).extended_to(svars)
        for i, ki in enumerate(idx):
            if ki not in row:
                continue
            for j, kj in enumerate(idx):
                if kj not in col:
                    continue
                term = (row[ki] * neu[i][j] * col[kj]).extended_to(svars)
                for v in svars:
                    term = term.clip(v, term.window[v][0], hi)
                total = total + term
        for v in svars:
            total = total.clip(v, total.window[v][0], hi)
        assert psi_deriv_value(p, data, 0, x, y).agrees_with(total)

    def test_chi_amplitude_free_slice_is_p_entry(self):
        got = chi(2, DATA1, 1, 1, F(5))
        assert got.coefficient({"sr1": 0}) == (F(5) - F(1)) ** -2
        got = chi(2, DATA1, -1, 0, F(5))
        assert got.coefficient({"sr1": 0}) == (F(5) - F(3)) ** -1

    def test_chi_collision_and_range_errors(self):
        with pytest.raises(ValueError):
            chi(2, DATA1, 1, 5, F(5))
        with pytest.raises(ValueError):
            p_row(1, DATA1, F(3))
        with pytest.raises(ValueError):
            q_column(1, DATA1, F(3))

    @pytest.mark.parametrize("call", [
        lambda: theta(2, DATA1, 1, F(5)),
        lambda: chi(2, DATA1, -1, 0, F(5)),
        lambda: psi_full(1, DATA1F),  # the formal kernel build
        lambda: psi_deriv_value(2, DATA2, 1, F(9), F(2)),
        lambda: genus_g_reduce((OMEGA, F(5)),
                               genus_g_npoint([(A, F(7))], DATA1), DATA1),
    ], ids=["theta", "chi", "build_kernel", "psi_deriv_value",
            "genus_g_reduce"])
    def test_one_neumann_inverse_per_call(self, monkeypatch, call):
        calls = []
        real = schottky.neumann_inverse

        def counting(M, hi, *rows, **kwargs):
            calls.append(hi)
            return real(M, hi, *rows, **kwargs)

        monkeypatch.setattr(schottky, "neumann_inverse", counting)
        call()
        assert len(calls) == 1

    def test_theta_components_and_negative_powers(self):
        th = theta(2, DATA1, 1, F(5))
        assert sorted(th) == [0, 1, 2]
        t2 = th[2]
        # the partner term carries sr1^(2(p-1-l)) = sr1^-2
        assert t2.window["sr1"][0] < 0
        assert t2.coefficient({"sr1": -2}) == (F(5) - F(3)) ** -1
        with pytest.raises(ValueError):
            theta(2, DATA1, -1, F(5))


DATA3S = SchottkyData(3, (3, 1, -2, 6, 10, -7), 1, 3)


class TestDressedRow:
    """The production rows are dressed through neumann_inverse(M, hi,
    rows, reach=...), one vector-matrix product per Neumann term, and
    stop at their reach sr_|b| <= hi - (n + 1) at index (b, n); they
    must equal the row times the full inverse, cut at that reach,
    coefficient for coefficient."""

    @pytest.mark.parametrize("p,data", [
        (1, DATA1), (2, DATA1), (1, DATA1F), (1, DATA2), (2, DATA2),
        (1, DATA3), (2, DATA3S)],
        ids=["g1-p1", "g1-p2", "g1f-p1", "g2-p1", "g2-p2", "g3-p1", "g3-p2"])
    @pytest.mark.parametrize("kind", ["formal", "rational"])
    def test_equals_row_times_full_inverse(self, p, data, kind):
        hi = 2 * data.rho_order
        if kind == "formal":
            row = p_row(p, data, Formal("x", -5), tilde=True)
        else:
            row = p_row(p, data, F(9), tilde=True)
        R = schottky_R(p, data)
        full = neumann_inverse(shifted_columns(R, p), hi)
        clip = partial(sewing.clip, base=data.sr_vars,
                       names=data.half_powers, hi=hi)
        want = {}
        for (b, n), e in row_times_matrix(row, full, clip).items():
            var = data.sr_var(b)
            e = e.clip(var, e.window[var][0], hi - (n + 1))
            if not e.is_zero():
                want[(b, n)] = e
        got = schottky._tilde_row(p, data, R, row, hi)
        assert set(want) <= set(got)
        for j, e in got.items():
            if j in want:
                assert (e.vars, e.window, e.c) == \
                    (want[j].vars, want[j].window, want[j].c), j
            else:
                # a start row capped empty keeps its window label
                assert e.is_zero(), j

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_formal_row_has_no_f_part(self, p):
        # the ptilde row reads the seed's f-part at derivative order
        # n + 2p - 1, above every f degree l <= 2p - 2, so it is 0
        f_choice = tuple({-1: F(1, l + 2), l: F(l - 3)}
                         for l in range(2 * p - 1))
        data = SchottkyData(2, (3, 1, -2, 6), 2, 6, f_choice=f_choice)
        x = F(9, 2)
        for b in data.index_set:
            assert schottky._f_part(p, data, 0, 0, x, data.w(b))
            for n in range(data.matrix_cutoff):
                assert schottky._f_part(p, data, 0, n + 2 * p - 1, x,
                                        data.w(b)) == 0


# -- handle sums -------------------------------------------------------------


def gauss_solve(G, rhs):
    n = len(G)
    M = [row[:] + [rhs[i]] for i, row in enumerate(G)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = F(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                M[r] = [a - M[r][col] * b for a, b in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def dense_channel_sum(data, m):
    """Sum rho^m over a weight-m channel through the single handle,
    assembled from raw Gram inversion rather than dual_basis."""
    vecs = [GradedVector({b: F(1)}) for b in basis(m)]
    G = [[bilinear_form(u, v) for v in vecs] for u in vecs]
    total = F(0)
    for i, v in enumerate(vecs):
        coeffs = gauss_solve(G, [F(1) if r == i else F(0) for r in range(len(vecs))])
        dual = GradedVector({})
        for c, u in zip(coeffs, vecs):
            dual = dual + u * c
        total += genus0_rational_value([dual, v], [data.w(-1), data.w(1)])
    return total


class TestHandleSums:
    def test_partition_dictionary_values(self):
        # with d = w_{-1} - w_1: 1 - d^-2 rho + 4 d^-4 rho^2; the
        # graded dimension 1 + q + 2 q^2 in q = t + 2 t^2 + ..., where
        # q / (1 + q)^2 = t = -rho d^-2, has t^2 coefficient 2 + 2 = 4
        Z = genus_g_partition(DATA1)
        d = F(3) - F(1)
        assert Z.coefficient({"sr1": 0}) == 1
        assert Z.coefficient({"sr1": 2}) == -d ** -2
        assert Z.coefficient({"sr1": 4}) == 4 * d ** -4

    def test_partition_is_graded_dimension_under_dictionary(self):
        # prod_n (1 - q^n)^-1 with q = t + 2t^2 + 5t^3 + 14t^4 + 42t^5
        # the inverse of t = q / (1 + q)^2, and t = -rho d^-2
        Z = genus_g_partition(SchottkyData(1, (3, 1), 5, 10))
        d = F(3) - F(1)
        got = [d ** (2 * m) * Z.coefficient({"sr1": 2 * m})
               for m in range(6)]
        assert got == [1, -1, 4, -16, 65, -266]

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_partition_against_raw_gram_inversion(self, m):
        data = SchottkyData(1, (3, 1), 3, 6)
        Z = genus_g_partition(data)
        assert Z.coefficient({"sr1": 2 * m}) == dense_channel_sum(data, m)

    def test_two_handle_slice_factorizes(self):
        Z2 = genus_g_npoint((), DATA2).value
        slice1 = Z2.coefficient_of("sr2", 0)
        Z1 = genus_g_partition(SchottkyData(1, (3, 1), 2, 4))
        assert slice1.agrees_with(Z1)
        slice2 = Z2.coefficient_of("sr1", 0)
        Z1b = genus_g_partition(SchottkyData(1, (-2, 6), 2, 4))
        for m in range(0, 5):
            assert slice2.coefficient({"sr2": m}) == \
                Z1b.coefficient({"sr1": m})

    def test_handle_removal_at_genus_two(self):
        # the sr2^0 slice drops the second handle: what is left is the
        # genus-1 handle sum on the first pair of points
        Z2 = genus_g_partition(SchottkyData(2, (3, 1, -2, 6), 4, 8), 4)
        Z1 = genus_g_partition(SchottkyData(1, (3, 1), 4, 8), 4)
        assert Z2.coefficient_of("sr2", 0) == Z1
        assert not Z2.coefficient_of("sr2", 2).is_zero()

    def test_handle_removal_at_genus_three(self):
        Z3 = genus_g_partition(
            SchottkyData(3, (3, 1, -2, 6, 10, -7), 3, 6), 3)
        Z2 = genus_g_partition(SchottkyData(2, (3, 1, -2, 6), 3, 6), 3)
        assert Z3.coefficient_of("sr3", 0) == Z2

    def test_vacuum_insertion_is_neutral(self):
        with_vac = genus_g_npoint([(vacuum(), F(7))], DATA1).value
        assert with_vac.agrees_with(genus_g_partition(DATA1))

    def test_single_current_vanishes(self):
        # duals never mix leg counts, so one extra current leaves every
        # channel with an odd matching and the whole sum vanishes
        assert genus_g_npoint([(A, F(7))], DATA1).value.is_zero()
        assert genus_g_npoint([(A, F(7))], DATA2).value.is_zero()

    def test_collisions_and_duplicates_rejected(self):
        with pytest.raises(ValueError):
            genus_g_npoint([(A, F(3))], DATA1)
        with pytest.raises(ValueError):
            genus_g_npoint([(A, F(7)), (A, F(7))], DATA1)

    def test_integer_rho_on_exports(self):
        Z = genus_g_npoint([(A, F(7)), (A, F(5))], DATA2).value
        require_integer(Z, DATA2.half_powers)
        r = renamed(Z, DATA2.half_powers)
        assert set(r.vars) == {"rho1", "rho2"}
        assert r.coefficient({"rho1": 1, "rho2": 0}) == \
            Z.coefficient({"sr1": 2, "sr2": 0})

    @pytest.mark.parametrize("half,names", [
        ("se", HALF_POWERS), ("sr1", DATA1.half_powers)], ids=["eps", "rho"])
    def test_require_integer_rho_failures(self, half, names):
        odd = MultiSeries.monomial({half: 1}, 1)
        with pytest.raises(AssertionError):
            require_integer(odd, names)
        neg = MultiSeries.monomial({half: -2}, 1)
        with pytest.raises(AssertionError):
            require_integer(neg, names)


# -- the reduction step ------------------------------------------------------


class TestReduction:
    @pytest.mark.parametrize("data", [DATA1, DATA1F, DATA2])
    def test_weight_one_direction(self, data):
        base = genus_g_npoint([(A, F(7))], data)
        lhs = genus_g_npoint([(A, F(5)), (A, F(7))], data)
        rhs = genus_g_reduce((A, F(5)), base, data)
        assert rhs.value.agrees_with(lhs.value)
        assert not lhs.value.is_zero()

    @pytest.mark.parametrize("data", [DATA1, DATA2])
    def test_weight_two_direction_pure_handles(self, data):
        base = genus_g_npoint((), data)
        lhs = genus_g_npoint([(OMEGA, F(5))], data)
        rhs = genus_g_reduce((OMEGA, F(5)), base, data)
        assert rhs.value.agrees_with(lhs.value)
        assert not lhs.value.is_zero()

    @pytest.mark.parametrize("data", [DATA1, DATA1F, DATA2])
    def test_weight_two_direction_with_insertion(self, data):
        base = genus_g_npoint([(A, F(7))], data)
        lhs = genus_g_npoint([(OMEGA, F(5)), (A, F(7))], data)
        rhs = genus_g_reduce((OMEGA, F(5)), base, data)
        assert rhs.value.agrees_with(lhs.value)

    def test_deformed_weight_two_at_higher_f_degree(self):
        data = SchottkyData(1, (3, 1), 2, 4,
                            f_choice=({0: F(1, 3)}, {}, {1: F(1, 5)}))
        base = genus_g_npoint([(A, F(7))], data)
        lhs = genus_g_npoint([(OMEGA, F(5)), (A, F(7))], data)
        rhs = genus_g_reduce((OMEGA, F(5)), base, data)
        assert rhs.value.agrees_with(lhs.value)

    @given(y=st.integers(min_value=-12, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_weight_one_direction_point_independent(self, y):
        pt = F(y, 5)
        if pt in DATA1.coordinates or pt == F(7):
            return
        base = genus_g_npoint([(A, F(7))], DATA1)
        lhs = genus_g_npoint([(A, pt), (A, F(7))], DATA1)
        rhs = genus_g_reduce((A, pt), base, DATA1)
        assert rhs.value.agrees_with(lhs.value)

    def test_two_insertions_already_present(self):
        base = genus_g_npoint([(A, F(7)), (state(1, 1), F(-4))], DATA1)
        lhs = genus_g_npoint([(A, F(5)), (A, F(7)), (state(1, 1), F(-4))],
                             DATA1)
        rhs = genus_g_reduce((A, F(5)), base, DATA1)
        assert rhs.value.agrees_with(lhs.value)

    def test_vacuum_direction_is_neutral(self):
        base = genus_g_npoint([(A, F(7))], DATA1)
        out = genus_g_reduce((vacuum() * F(3), F(5)), base, DATA1)
        assert out.value.agrees_with(base.value * F(3))
        zero = genus_g_reduce((GradedVector({}), F(5)), base, DATA1)
        assert zero.value.is_zero()

    def test_direction_validation(self):
        base = genus_g_npoint((), DATA1)
        with pytest.raises(ValueError):
            genus_g_reduce((DDA, F(5)), base, DATA1)
        with pytest.raises(ValueError):
            genus_g_reduce((A + OMEGA, F(5)), base, DATA1)
        with pytest.raises(ValueError):
            genus_g_reduce((A, F(3)), base, DATA1)
        other = genus_g_npoint((), DATA2)
        with pytest.raises(ValueError):
            genus_g_reduce((A, F(5)), other, DATA1)

    def test_cutoff_guard_for_heavy_directions(self):
        slim = SchottkyData(1, (3, 1), 1, 2)
        base = genus_g_npoint((), slim)
        with pytest.raises(ValueError):
            genus_g_reduce((OMEGA, F(5)), base, slim)

    def test_insertion_order_symmetry(self):
        lhs = genus_g_npoint([(A, F(5)), (A, F(7))], DATA1).value
        rhs = genus_g_npoint([(A, F(7)), (A, F(5))], DATA1).value
        assert lhs.agrees_with(rhs)

"""Two-torus sewing: kernel matrices, the sewn partition function, the
generalized Weierstrass kernels, and the one-step reduction.

The eps -> 0 slices must factorize into genus-1 data computed by the
reduction module, and the eps^2 slice of the partition function is
checked against an explicit double-trace sum assembled here from raw
Gram inversion, independently of the dual-basis plumbing.
"""

import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from voasurf import genus2, reduction, sewing, voa
from voasurf.elliptic import eisenstein, weierstrass_p
from voasurf.genus2 import (
    HALF_POWERS,
    KernelMatrix,
    SewingModuli,
    gamma_matrix,
    gen_weierstrass,
    genus2_reduce,
    kernel_add,
    kernel_identity,
    kernel_mul,
    lambda_matrix,
    lambda_tilde,
    neumann_inverse,
    q_row,
    r_row,
    s_conjugated_a_entry,
    sq_weight,
    z2_partition,
)
from voasurf.linalg import inverse as mat_inverse
from voasurf.reduction import (
    Insertion,
    genus1_onepoint,
    genus1_direct,
    reduce_step,
)
from voasurf.series import MultiSeries, TruncatedSeries, binomial_expand
from voasurf.sewing import row_times_matrix
from voasurf.voa import (
    GradedVector,
    _norm,
    basis,
    bilinear_form_sq,
    conformal_vector_tilde,
    generator,
    parse_state,
    square_fock,
    vacuum,
)

MOD = SewingModuli(6, 6, 2, 4)
EV = ("q1", "q2", "se")
ZERO = MultiSeries.constant(0)  # an absent matrix entry


def onepoint(v, q_order, qvar):
    """The genus-1 trace oracle read in the variable ``qvar``."""
    return TruncatedSeries(qvar, 0, q_order, {
        e: c for (e,), c in genus1_onepoint(v, q_order).c.items()})


def y_derivative(ms, var="y"):
    i = ms.vars.index(var)
    lo, hi = ms.window[var]
    out = MultiSeries(ms.vars, {**ms.window,
                                var: (lo - 1, None if hi is None else hi - 1)})
    for key, val in ms.c.items():
        if key[i]:
            out.c[key[:i] + (key[i] - 1,) + key[i + 1:]] = val * key[i]
    return out


def pm_difference_oracle(m, qvar, q_order):
    """P_m(x - y) expanded in |x| > |y| directly from the z-series: the
    pole as a binomial series, every regular term as a polynomial in
    x - y, all summed with +."""
    base = weierstrass_p(m, 6, q_order, zvar="_z", qvar=qvar)
    zi = base.vars.index("_z")
    qi = base.vars.index(qvar)
    out = None
    for key, c in base.c.items():
        qm = MultiSeries.monomial({qvar: key[qi]}, c,
                                  window={qvar: (0, q_order)})
        k = key[zi]
        if k < 0:
            piece = binomial_expand(-k - 1, "x", "y", -8) * qm
        else:
            poly = {}
            for i in range(k + 1):
                poly[(k - i, i)] = Fraction((-1) ** i * comb(k, i))
            piece = MultiSeries(("x", "y"),
                                {"x": (0, None), "y": (0, None)}, poly) * qm
        out = piece if out is None else out + piece
    return out


class TestModuliAndMatrices:
    def test_cutoff_invariant(self):
        with pytest.raises(ValueError, match="at least 2 \\* eps_order"):
            SewingModuli(4, 4, 3, 5)
        # both checks fail; the orders are checked first
        with pytest.raises(ValueError, match="must be nonnegative"):
            SewingModuli(4, 4, -1, -3)
        with pytest.raises(ValueError, match="must be nonnegative"):
            SewingModuli(tau1_order=-1, tau2_order=4, eps_order=3,
                         matrix_cutoff=6)
        moduli = SewingModuli(tau1_order=4, tau2_order=4, eps_order=3,
                              matrix_cutoff=6)
        assert moduli == SewingModuli(4, 4, 3, 6)
        assert hash(moduli) == hash(SewingModuli(4, 4, 3, 6))
        assert moduli.se_order == 6

    def test_lambda_leading_entries(self):
        L = lambda_matrix(1, MOD)
        e2 = eisenstein(2, 6, "q1")
        for i in range(7):
            assert L.entries.get((1, 1), ZERO).coefficient(
                {"q1": i, "q2": 0, "se": 2}) == e2.coefficient({"q1": i})
        assert L.entries.get((1, 2), ZERO).is_zero()

    def test_lambda_parity(self):
        for a in (1, 2):
            L = lambda_matrix(a, MOD)
            for m in range(1, 5):
                for n in range(1, 5):
                    if (m + n) % 2:
                        assert L.entries.get((m, n), ZERO).is_zero()

    def test_s_conjugation_recovers_lambda(self):
        mod = SewingModuli(4, 4, 3, 6)
        L = lambda_matrix(1, mod)
        found = 0
        for m in range(1, 5):
            for n in range(1, 5):
                got = s_conjugated_a_entry(1, m, n, mod)
                assert got == L.entries.get((m, n), ZERO)
                found += 0 if got.is_zero() else 1
        assert found >= 4

    def test_pi_is_a_short_projection(self):
        P = kernel_mul(gamma_matrix(2, 4), gamma_matrix(2, 4), MOD)
        assert list(P.entries) == [(1, 1)]
        assert P.entries[(1, 1)].coefficient(
            {"q1": 0, "q2": 0, "se": 0}) == 1
        assert not kernel_mul(gamma_matrix(1, 4), gamma_matrix(1, 4),
                              MOD).entries

    def test_neumann_of_zero_is_identity(self):
        out = neumann_inverse(KernelMatrix(3, {}), MOD)
        assert list(sorted(out.entries)) == [(1, 1), (2, 2), (3, 3)]

    def test_neumann_geometric_series(self):
        c = MultiSeries.monomial({"se": 1}, 3, window={"se": (0, 4)})
        M = KernelMatrix(2, {(1, 1): c.extended_to(EV)})
        out = neumann_inverse(M, MOD)
        e = out.entries.get((1, 1), ZERO)
        for k, want in ((0, 1), (1, 3), (2, 9), (3, 27), (4, 81)):
            assert e.coefficient({"q1": 0, "q2": 0, "se": k}) == want

    def test_neumann_rejects_eps_free_entries(self):
        M = KernelMatrix(2, {(1, 2): MultiSeries.constant(1).extended_to(EV)})
        with pytest.raises(ValueError):
            neumann_inverse(M, MOD)

    def test_neumann_identity_at_full_cutoff(self):
        mod = SewingModuli(4, 4, 4, 8)
        M = kernel_mul(lambda_tilde(2, 2, mod), lambda_tilde(1, 2, mod), mod)
        inv = neumann_inverse(M, mod)
        minus = KernelMatrix(8, {k: v * Fraction(-1)
                                 for k, v in M.entries.items()})
        prod = kernel_mul(kernel_add(kernel_identity(8), minus), inv, mod)
        residue = kernel_add(prod, KernelMatrix(8, {
            (m, m): MultiSeries.constant(-1).extended_to(EV)
            for m in range(1, 9)}))
        assert residue.is_zero()


QROW_MODULI = [SewingModuli(6, 6, 2, 4), SewingModuli(4, 4, 4, 8),
               SewingModuli(3, 5, 2, 5)]


def typed(ms):
    return {k: (type(c), c) for k, c in ms.c.items()}


def _shifted_r_row(p, chart, moduli):
    """R(x) Delta as a row: component n reads R(x; n + 2p - 2)."""
    r = r_row(chart, "x", moduli)
    return {n: r[n + 2 * p - 2]
            for n in range(1, moduli.matrix_cutoff + 1)
            if n + 2 * p - 2 in r}


class TestQRow:
    """q_row dresses R(x) Delta through neumann_inverse(M, moduli, rows,
    reach=...) with vector-matrix products only, and stops at the reach
    se <= se_order - n at index n; it must equal the row times the full
    inverse, cut at that reach, coefficient for coefficient."""

    @pytest.mark.parametrize("moduli", QROW_MODULI, ids=str)
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("chart", [1, 2])
    def test_equals_row_times_full_inverse(self, moduli, p, chart):
        M = kernel_mul(lambda_tilde(3 - chart, p, moduli),
                       lambda_tilde(chart, p, moduli), moduli)
        clip = partial(sewing.clip, base=EV, names=HALF_POWERS,
                       hi=moduli.se_order)
        want = {}
        for n, e in row_times_matrix(_shifted_r_row(p, chart, moduli),
                                     neumann_inverse(M, moduli),
                                     clip).items():
            e = e.clip("se", e.window["se"][0], moduli.se_order - n)
            if not e.is_zero():
                want[n] = e
        got = q_row(p, chart, "x", moduli)
        assert set(want) <= set(got)
        for n, e in got.items():
            if n not in want:
                # a start row capped empty keeps its window label
                assert e.is_zero(), n
                continue
            assert e.vars == want[n].vars, n
            assert typed(e) == typed(want[n]), n
            for v in e.vars:
                (lo, hi), (wlo, whi) = e.window[v], want[n].window[v]
                assert lo == wlo, (n, v)
                if v in ("se", "x"):
                    assert hi == whi, (n, v)
                else:
                    # the full inverse's diagonal 1 + M(n, n) + ... keeps
                    # a nome horizon where every Neumann term is cut; the
                    # dressed row knows the entry is exact there (see
                    # the next test)
                    assert hi is None or (whi is not None and hi >= whi), \
                        (n, v)

    @pytest.mark.parametrize("moduli", QROW_MODULI, ids=str)
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("chart", [1, 2])
    def test_windows_certified_by_deeper_q_orders(self, moduli, p, chart):
        # an entry whose Neumann terms all clip away in se is exact in
        # the other chart's nome, and its window says so
        got = q_row(p, chart, "x", moduli)
        for extra in (1, 2):
            deeper = q_row(p, chart, "x", SewingModuli(
                moduli.tau1_order + extra, moduli.tau2_order + extra,
                moduli.eps_order, moduli.matrix_cutoff))
            assert set(deeper) == set(got)
            for n, e in got.items():
                assert e.agrees_with(deeper[n]), (n, extra)


class TestPartitionFunction:
    def test_eps0_is_the_product_of_torus_partitions(self):
        Z2 = z2_partition(MOD)
        Z1 = genus1_direct((), 6, (-8, 8)).value
        e0 = Z2.coefficient_of("se", 0)
        for i in range(7):
            for j in range(7):
                assert e0.coefficient({"q1": i, "q2": j}) == \
                    Z1.coefficient({"q": i}) * Z1.coefficient({"q": j})

    def test_eps1_vanishes(self):
        Z2 = z2_partition(MOD)
        assert Z2.coefficient_of("se", 2).is_zero()
        # half-integer eps rows can never survive export
        assert Z2.coefficient_of("se", 1).is_zero()
        assert Z2.coefficient_of("se", 3).is_zero()

    def test_eps2_against_raw_gram_double_trace(self):
        """Rebuild the eps^2 slice as sum_ij (G^-1)_ij T(b_i; q1) T(b_j; q2)
        with the square-bracket Gram matrix inverted by the linalg
        module, bypassing dual_basis."""
        Z2 = z2_partition(MOD)
        e2 = Z2.coefficient_of("se", 4)
        vecs = [square_fock(s) for s in basis(2)]
        ginv = mat_inverse([[bilinear_form_sq(u, v) for v in vecs] for u in vecs])
        oracle = MultiSeries.constant(0).extended_to(("q1", "q2"))
        for i, bi in enumerate(vecs):
            ti = onepoint(bi, 6, "q1")
            for j, bj in enumerate(vecs):
                if not ginv[i][j]:
                    continue
                tj = onepoint(bj, 6, "q2")
                oracle = oracle + (ti.extended_to(("q1", "q2")) *
                                   tj.extended_to(("q1", "q2"))) * ginv[i][j]
        assert e2.agrees_with(oracle)
        # leading coefficient (1/2)(1/12)^2: the vacuum column of
        # F(a[-1]a[-1]|1) against the Gram norm 2
        assert e2.coefficient({"q1": 0, "q2": 0}) == Fraction(1, 288)

    def test_basis_independence_under_rational_rotation(self):
        rng = random.Random(7)

        def rotated(r):
            pairs = [(square_fock(s), square_fock(s) * Fraction(1, _norm(s)))
                     for s in basis(r)]
            if not pairs:
                return pairs
            d = len(pairs)
            lower = [[Fraction(1) if i == j else
                      (Fraction(rng.randint(-3, 3)) if i > j else Fraction(0))
                      for j in range(d)] for i in range(d)]
            upper = [[Fraction(1) if i == j else
                      (Fraction(rng.randint(-3, 3)) if i < j else Fraction(0))
                      for j in range(d)] for i in range(d)]
            T = [[sum(lower[i][k] * upper[k][j] for k in range(d))
                  for j in range(d)] for i in range(d)]
            Tinv = mat_inverse(T)
            us = [p[0] for p in pairs]
            ds = [p[1] for p in pairs]
            new_us, new_ds = [], []
            for i in range(d):
                u = GradedVector()
                dvec = GradedVector()
                for j in range(d):
                    u = u + T[i][j] * us[j]
                    dvec = dvec + Tinv[j][i] * ds[j]
                new_us.append(u)
                new_ds.append(dvec)
            return list(zip(new_us, new_ds))

        # the channel sum over the rotated dual pairs, traced by the
        # genus-1 oracle, against the library's Hafnian sum
        turned = MultiSeries.constant(0).extended_to(EV)
        for r in range(MOD.eps_order + 1):
            for u, ubar in rotated(r):
                t1 = onepoint(u, MOD.tau1_order, "q1").extended_to(EV)
                t2 = onepoint(ubar, MOD.tau2_order, "q2")
                turned = turned + t1 * t2 * MultiSeries.monomial(
                    {"se": 2 * r}, window={"se": (0, MOD.se_order)})
        z2 = z2_partition(MOD)
        assert turned == z2
        assert turned.window == z2.window

    def test_channel_sum_never_builds_a_fock_vector(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("z2_partition built a Fock state or trace")

        for module, name in ((voa, "dual_basis"), (voa, "square_fock"),
                             (reduction, "_trace_counts")):
            monkeypatch.setattr(module, name, refuse)
        moduli = SewingModuli(8, 8, 6, 12)
        z2 = z2_partition(moduli)
        eps0 = z2.coefficient_of("se", 0)
        counts = [1, 1, 2, 3, 5, 7, 11, 15, 22]  # p(0) .. p(8)
        for i in range(9):
            for j in range(9):
                assert eps0.coefficient({"q1": i, "q2": j}) == \
                    counts[i] * counts[j]
        assert z2.coefficient_of("se", 2).is_zero()


class TestGenWeierstrass:
    @pytest.mark.parametrize("moduli", [(4, 4, 2, 4), (6, 3, 3, 6),
                                        (8, 8, 4, 8)])
    def test_pm_difference_is_the_summed_expansion(self, moduli):
        # the pole alone equals pole plus regular part summed with +:
        # the sum's x-horizon -m discards every regular term
        moduli = SewingModuli(*moduli)
        for chart, qvar in ((1, "q1"), (2, "q2")):
            q_order = moduli.tau1_order if chart == 1 else moduli.tau2_order
            for m in range(1, 9):
                got = genus2._pm_difference(m, chart, moduli)
                want = pm_difference_oracle(m, qvar, q_order)
                want = want.extended_to(got.vars)
                assert (got.vars, got.window) == (want.vars, want.window)
                assert got.c == want.c, (chart, m)

    def test_eps0_same_chart_limit(self):
        for chart, qvar in ((1, "q1"), (2, "q2")):
            P = gen_weierstrass(1, 0, chart, chart, MOD)
            lim = P.coefficient_of("se", 0)
            oracle = pm_difference_oracle(1, qvar, 6)
            oracle = oracle + weierstrass_p(
                1, 6, 6, zvar="x", qvar=qvar).extended_to(oracle.vars) * \
                Fraction(-1)
            assert lim.agrees_with(oracle.extended_to(lim.vars))
            assert lim.coefficient(
                {"x": -2, "y": 1, "q1": 0, "q2": 0}) == 1

    def test_derivative_rule(self):
        """The j-th kernel is the j-th y-derivative of the first over j!,
        in both the same-chart and cross-chart cases."""
        for p in (1, 2):
            for charts in ((1, 1), (1, 2)):
                base = gen_weierstrass(p, 0, *charts, MOD)
                for j in (1, 2, 3):
                    expect = base
                    for _ in range(j):
                        expect = y_derivative(expect)
                    for k in range(2, j + 1):
                        expect = expect * Fraction(1, k)
                    got = gen_weierstrass(p, j, *charts, MOD)
                    assert got.agrees_with(expect), (p, charts, j)

    def test_cross_chart_has_no_pole_in_x_minus_y(self):
        P = gen_weierstrass(2, 0, 1, 2, MOD)
        i = P.vars.index("x")
        assert all(key[i] >= -4 for key in P.c)
        assert not P.is_zero()

    def test_unsupported_weight_raises(self):
        with pytest.raises(ValueError):
            gen_weierstrass(3, 0, 1, 1, MOD)

    def test_eps_truncations_agree(self):
        """Each eps truncation of a kernel claims no se-order past its
        own and agrees with every deeper one."""
        for p in (1, 2):
            for j in (0, 1):
                for charts in ((1, 1), (1, 2), (2, 1), (2, 2)):
                    kernels = [gen_weierstrass(p, j, *charts,
                                               SewingModuli(4, 4, e, 4))
                               for e in range(3)]
                    for e, k in enumerate(kernels):
                        assert k.window["se"][1] == 2 * e, (p, j, charts, e)
                        for deeper in kernels[e + 1:]:
                            assert k.agrees_with(deeper), (p, j, charts, e)


class TestReduce:
    def test_vacuum_direction_is_the_identity(self):
        Z2 = z2_partition(MOD)
        out = genus2_reduce(Insertion(vacuum(), "x"), Z2, MOD)
        assert out.value.agrees_with(Z2.extended_to(out.value.vars))
        scaled = genus2_reduce(Insertion(3 * vacuum(), "x"), Z2, MOD)
        assert scaled.value == out.value * 3

    def test_current_direction_vanishes_at_every_order(self):
        Z2 = z2_partition(MOD)
        out = genus2_reduce(Insertion(generator(), "x"), Z2, MOD)
        assert out.value.is_zero()

    def test_stress_direction_factorizes_at_eps0(self):
        Z2 = z2_partition(MOD)
        wt = conformal_vector_tilde()
        out = genus2_reduce(Insertion(wt, "x"), Z2, MOD)
        e0 = out.value.coefficient_of("se", 0)
        res = reduce_step(Insertion(wt, "z1"),
                          genus1_direct((), 6, (-8, 8))).value
        s = res.coefficient_of("q_z1", 0)
        Z1 = genus1_direct((), 6, (-8, 8)).value
        for i in range(7):
            for j in range(7):
                assert e0.coefficient({"q1": i, "q2": j, "x": 0}) == \
                    s.coefficient({"q": i}) * Z1.coefficient({"q": j})
        xi = e0.vars.index("x")
        assert all(k[xi] == 0 for k, v in e0.c.items() if v)
        xi = out.value.vars.index("x")
        assert any(k[xi] for k, v in out.value.c.items() if v)

    def test_non_quasi_primary_direction_rejected(self):
        Z2 = z2_partition(MOD)
        with pytest.raises(ValueError):
            genus2_reduce(Insertion(parse_state("a[-2]|1"), "x"), Z2, MOD)

    def test_reduction_never_traces_the_fock_space(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("genus2_reduce traced the Fock space")

        Z2 = z2_partition(MOD)
        for module, name in ((reduction, "_trace_counts"),
                             (reduction, "genus1_onepoint"),
                             (voa, "dual_basis")):
            monkeypatch.setattr(module, name, refuse)
        assert genus2_reduce(Insertion(generator(), "x"), Z2,
                             MOD).value.is_zero()
        out = genus2_reduce(Insertion(conformal_vector_tilde(), "x"), Z2, MOD)
        assert not out.value.coefficient_of("se", 0).is_zero()

    def test_single_step_only(self):
        Z2 = z2_partition(MOD)
        out = genus2_reduce(Insertion(conformal_vector_tilde(), "x"), Z2, MOD)
        with pytest.raises(NotImplementedError):
            genus2_reduce(Insertion(generator(), "y"), out, MOD)


class TestSqWeight:
    def test_weights(self):
        assert sq_weight(generator()) == 1
        assert sq_weight(conformal_vector_tilde()) == 2

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            sq_weight(generator() + conformal_vector_tilde())

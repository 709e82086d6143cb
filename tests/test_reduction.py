"""Correlation functions: brute-force evaluation against the recursions.

The direct evaluators enumerate mode/exponent tuples and know nothing
about the reduction step, so agreement between the two paths is a real
check.  On top of that the free boson gives closed forms (Wick pairings
at genus 0, the current two-point function against the q-expanded
Weierstrass table at genus 1) that were computed by hand and are frozen
here as literal coefficients.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from voasurf import reduction
from voasurf.elliptic import weierstrass_p_qz
from voasurf.reduction import (
    CorrelationFn,
    Insertion,
    WindowError,
    direct,
    genus0_direct,
    genus0_reduce,
    genus1_direct,
    genus1_onepoint,
    genus1_reduce,
    reduce_step,
    unwind_to_partition,
)
from voasurf.series import MultiSeries, binomial_expand
from voasurf.voa import (
    CENTRAL_CHARGE,
    GradedVector,
    basis,
    bilinear_form,
    parse_state,
    vacuum,
)

from test_series import geom_inv

A = parse_state("a[-1]|1")
A2 = parse_state("a[-2]|1")
AA = parse_state("a[-1]^2|1")
OMEGA = parse_state("omega")

# partition numbers p(0), p(1), ...
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def ins(state, point):
    return Insertion(state, point)


# -- genus 0, direct evaluation against closed forms ---------------------


class TestGenus0Direct:
    def test_two_point_current(self):
        """<1, a(z1) a(z2) 1> = sum_{m>=0} (m+1) z1^{-m-2} z2^m."""
        F = genus0_direct([ins(A, "z1"), ins(A, "z2")], vacuum(), vacuum(),
                          (-8, 6))
        for m in range(7):
            assert F.value.coefficient({"z1": -m - 2, "z2": m}) == m + 1
        assert F.value.coefficient({"z1": -3, "z2": 2}) == 0
        assert F.value.coefficient({"z1": 0, "z2": 0}) == 0

    def test_one_point_support_forced_by_weights(self):
        F = genus0_direct([ins(A, "z1")], A, vacuum(), (-4, 4))
        assert F.value.coefficient({"z1": 0}) == -1
        assert sum(1 for v in F.value.c.values() if v) == 1

    def test_one_point_stress_tensor(self):
        F = genus0_direct([ins(OMEGA, "z1")], A, A, (-4, 4))
        assert F.value.coefficient({"z1": -2}) == -1
        assert sum(1 for v in F.value.c.values() if v) == 1

    def test_four_point_wick_pairings(self):
        """Free-field four-point function as a sum over pair partitions.

        The propagator <a(z)a(w)> = 1/(z-w)^2 expanded in |z| > |w| is
        taken from the binomial series, not from any mode algebra, and
        every coefficient above the outer cutoff is known to vanish, so
        the outer horizon can be lifted to make the comparison cover
        the whole requested box.
        """

        def propagator(zi, zj, lo=-12):
            ms = binomial_expand(1, zi, zj, lo)
            win = dict(ms.window)
            win[zi] = (win[zi][0], None)
            return MultiSeries(ms.vars, win, ms.c)

        oracle = None
        for p in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            term = MultiSeries.constant(1)
            for i, j in p:
                term = term * propagator(f"z{i}", f"z{j}")
            oracle = term if oracle is None else oracle + term

        F = genus0_direct([ins(A, f"z{i}") for i in (1, 2, 3, 4)],
                          vacuum(), vacuum(), (-8, 4))
        assert F.value.agrees_with(oracle)
        # make sure the overlap is not vacuous
        assert F.value.coefficient({"z1": -2, "z2": -2, "z3": 0, "z4": 0}) == 2

    def test_odd_number_of_currents_vanishes(self):
        F = genus0_direct([ins(A, "z1"), ins(A, "z2"), ins(A, "z3")],
                          vacuum(), vacuum(),
                          (-6, 4))
        assert F.is_zero()

    def test_weight_mismatch_vanishes(self):
        F = genus0_direct([ins(A, "z1")], vacuum(), vacuum(), (-4, 4))
        assert F.is_zero()

    def test_orderings_agree_after_clearing_the_pole(self):
        """Expansions in |z1| > |z2| and |z2| > |z1| are different
        series, but (z1-z2)^2 times either is the same polynomial."""
        F12 = genus0_direct([ins(A, "z1"), ins(A, "z2")],
                            vacuum(), vacuum(), (-8, 6))
        F21 = genus0_direct([ins(A, "z2"), ins(A, "z1")],
                            vacuum(), vacuum(), (-8, 6))
        poly = MultiSeries(("z1", "z2"),
                           {"z1": (0, None), "z2": (0, None)},
                           {(2, 0): Fraction(1), (1, 1): Fraction(-2),
                            (0, 2): Fraction(1)})
        cleared12 = F12.value * poly
        cleared21 = F21.value * poly
        assert cleared12.agrees_with(cleared21)
        assert cleared12.coefficient({"z1": 0, "z2": 0}) == 1

    def test_vacuum_insertion_is_neutral(self):
        F = genus0_direct([ins(vacuum(), "z1"), ins(A, "z2")],
                          A, vacuum(), (-4, 4))
        assert F.value.coefficient({"z1": 0, "z2": 0}) == -1
        assert sum(1 for v in F.value.c.values() if v) == 1

    def test_window_cutting_forced_support_is_an_error(self):
        # the single-insertion support here is exactly {z1^0}
        with pytest.raises(WindowError):
            genus0_direct([ins(A, "z1")], A, vacuum(), (1, 5))
        with pytest.raises(WindowError):
            genus0_direct([ins(A, "z1")], A, vacuum(), (-5, -1))

    def test_window_cutting_the_outermost_pole_order_is_an_error(self):
        # <a(-2)a(-1)1, a(k1) a(k2) 1> reaches z1^1 via k1 = -2
        u = parse_state("a[-2]a[-1]|1")
        with pytest.raises(WindowError):
            genus0_direct([ins(A, "z1"), ins(A, "z2")], u, vacuum(),
                          (-8, 0))
        F = genus0_direct([ins(A, "z1"), ins(A, "z2")], u, vacuum(),
                          (-8, 1))
        assert F.value.coefficient({"z1": 1, "z2": 0}) != 0


# -- genus 0, reduction step against the direct evaluator ----------------


BOUNDARY_PAIRS = [
    (vacuum(), vacuum()),
    (A, A),
    (A2, A2),
    (parse_state("a[-1]a[-1]|1"), A2),
    (parse_state("a[-2]a[-1]|1"), parse_state("a[-3]|1")),
    # rational coefficients stay exact Fractions inside the recursion
    (parse_state("2/3*a[-2]|1 + a[-1]^2|1"), parse_state("1/2*a")),
]

INSERTION_ROWS = [
    [(A, "z1")],
    [(OMEGA, "z1")],
    [(A, "z1"), (A, "z2")],
    [(OMEGA, "z1"), (A, "z2")],
    [(A, "z1"), (A2, "z2")],
    [(A, "z1"), (A, "z2"), (A, "z3")],
    [(A, "z1"), (OMEGA, "z2"), (A, "z3")],
]


class TestGenus0Reduce:
    def test_matches_direct_on_a_grid(self):
        # boundary states reach weight 3, which pushes the innermost
        # support down to exponent -5; the box must contain that
        for uprime, u in BOUNDARY_PAIRS:
            for row in INSERTION_ROWS:
                direct = genus0_direct([ins(s, p) for s, p in row],
                                       uprime, u, (-6, 3))
                F = genus0_direct((), uprime, u, (-6, 3))
                for s, p in reversed(row):
                    F = genus0_reduce(ins(s, p), F)
                got = F.value.extended_to(direct.value.vars)
                for key, want in direct.value.c.items():
                    assert got.coefficient(
                        dict(zip(direct.value.vars, key))) == want, (
                        uprime, u, row, key)

    def test_step_from_zero_function_recovers_nonzero_values(self):
        # <a, 1> = 0, yet the one-point function built on top of it is
        # not: the step must recompute from the recursion, not rescale
        # the stored value.
        F0 = genus0_direct((), A, vacuum(), (-4, 4))
        assert F0.is_zero()
        F1 = genus0_reduce(ins(A, "z1"), F0)
        assert F1.value.coefficient({"z1": 0}) == -1

    def test_zero_mode_alone_is_not_the_step(self):
        """o(omega) acts as L(0) = wt on the boundary state, so a
        zero-mode-only step would produce the constant -1; the actual
        one-point function is -z^{-2}."""
        F0 = genus0_direct((), A, A, (-4, 4))
        res = reduce_step(ins(OMEGA, "z1"), F0).value
        assert res.coefficient({"z1": 0}) == 0
        assert res.coefficient({"z1": -2}) == -1

    def test_zero_mode_direction_kills_the_vacuum_partition(self):
        F0 = genus0_direct((), vacuum(), vacuum(), (-4, 4))
        assert reduce_step(ins(A, "z1"), F0).value.is_zero()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3))
    def test_random_one_point_functions_agree(self, wv, wup, wu):
        for v in basis(wv + 1):
            for up in basis(wup):
                for u in basis(wu):
                    sv = GradedVector.basis_state(v)
                    sup = GradedVector.basis_state(up)
                    su = GradedVector.basis_state(u)
                    direct = genus0_direct([ins(sv, "z1")], sup, su,
                                           (-6, 6))
                    F = genus0_reduce(
                        ins(sv, "z1"),
                        genus0_direct((), sup, su, (-6, 6)))
                    assert F.value.agrees_with(direct.value)


class TestReduceStepAgainstDirect:
    """``reduce_step`` and ``genus0_direct`` end in the same window check, so
    they agree in vars, windows and coefficients or in its text."""

    MIXED = parse_state("1 + a")

    @pytest.mark.parametrize("boundary", [
        (vacuum(), MIXED), (MIXED, MIXED), (MIXED, parse_state("1/2*a"))])
    def test_mixed_boundaries(self, boundary):
        for row in ([(A, "z1"), (A, "z2")], [(OMEGA, "z1"), (A, "z2")],
                    [(A, "z1"), (A2, "z2"), (A, "z3")]):
            insertions = tuple(ins(s, p) for s, p in row)
            F = CorrelationFn(0, insertions[1:], None, (-6, 3),
                              boundary_states=boundary)
            got = reduce_step(insertions[0], F).value
            want = genus0_direct(insertions, *boundary, (-6, 3)).value
            assert want.c and (got.vars, got.window, got.c) == \
                (want.vars, want.window, want.c), (boundary, row)

    @pytest.mark.parametrize("fresh, boundary, rest, window, text", [
        # one insertion: its whole support must fit in the box
        (A, (A, vacuum()), (), (1, 5), "support at {'z1': 0}"),
        # the outermost variable is bounded above
        (A, (parse_state("a[-2]a[-1]|1"), vacuum()), (ins(A, "z2"),),
         (-8, 0), "z1 needs exponent 1"),
        # the innermost one below: a(1) a(-1)|1> sits at z2^-2
        (vacuum(), (vacuum(), MIXED), (ins(A, "z2"),), (-1, 1),
         "z2 needs exponent -2"),
    ])
    def test_window_errors(self, fresh, boundary, rest, window, text):
        F = CorrelationFn(0, rest, None, window, boundary_states=boundary)
        with pytest.raises(WindowError) as got:
            reduce_step(ins(fresh, "z1"), F)
        with pytest.raises(WindowError) as want:
            genus0_direct((ins(fresh, "z1"),) + rest, *boundary, window)
        assert str(got.value) == str(want.value) == \
            "window too small: " + text


class TestLinearity:
    """The step is linear in the fresh state, so directions summed at
    one point act as the one direction whose state is their sum."""

    @pytest.mark.parametrize("F", [
        CorrelationFn(0, (ins(A, "z1"), ins(A2, "z2")), None, (-6, 3),
                      boundary_states=(vacuum(), vacuum())),
        CorrelationFn(0, (ins(AA, "z1"),), None, (-6, 3),
                      boundary_states=(parse_state("1 + a"), A)),
        CorrelationFn(1, (ins(A, "z1"), ins(AA, "z2")), None, (-4, 4),
                      q_order=3),
    ], ids=["g0-vacuum", "g0-boundary", "g1"])
    @pytest.mark.parametrize("s1,s2", [
        (A2, AA),
        (A2 + AA, -AA),
        (A2 + AA, -(A2 + AA)),
    ], ids=["mixed-parity", "sum-a2", "cancelling"])
    def test_step_of_a_sum_is_the_sum_of_steps(self, F, s1, s2):
        one, two = (reduce_step(ins(s, "w"), F).value for s in (s1, s2))
        both = reduce_step(ins(s1 + s2, "w"), F).value
        assert one.c or two.c
        assert (both.vars, both.window) == (one.vars, one.window) == \
            (two.vars, two.window)
        want = {k: one.c.get(k, 0) + two.c.get(k, 0)
                for k in one.c.keys() | two.c.keys()}
        assert both.c == {k: v for k, v in want.items() if v}
        if (s1 + s2).is_zero():
            assert both.is_zero()


# -- genus 1, direct evaluation against closed forms ---------------------


class TestGenus1Direct:
    def test_partition_function_counts_partitions(self):
        Z = genus1_direct((), 8, (-8, 8))
        q = Z.value
        for m, pm in enumerate(PARTITIONS[:9]):
            assert q.coefficient({"q": m}) == pm
        assert Z.q_shift == Fraction(-CENTRAL_CHARGE, 24)

    def test_one_point_current_vanishes(self):
        F = genus1_direct([ins(A, "z1")], 6, (-3, 3))
        assert F.is_zero()

    def test_one_point_stress_tensor(self):
        """Tr(o(omega) q^{L(0)}) has coefficients m p(m); the grading
        confines the q_{z1} exponent to zero."""
        F = genus1_direct([ins(OMEGA, "z1")], 7, (-3, 3))
        q = F.value.coefficient_of("q_z1", 0)
        for m in range(8):
            assert q.coefficient({"q": m}) == m * PARTITIONS[m]
        for e in (-2, -1, 1, 2):
            assert F.value.coefficient_of("q_z1", e).is_zero()

    def test_onepoint_helper_matches_direct(self):
        F = genus1_direct([ins(OMEGA, "z1")], 6, (-2, 2))
        helper = genus1_onepoint(OMEGA, 6)
        assert helper.agrees_with(F.value.coefficient_of("q_z1", 0))
        assert genus1_onepoint(A, 6).is_zero()

    def test_two_point_current_is_weierstrass_times_partition(self):
        """F(a, a) = P_2(q_y/q_w, q) Z with w the outer point: the
        table of the q-expanded Weierstrass function is built in the
        elliptic module from the Eisenstein expansion, independently
        of any trace."""
        QO, W = 6, 3
        F2 = genus1_direct([ins(A, "w"), ins(A, "y")], QO,
                           (-W, W))
        p2 = weierstrass_p_qz(2, (-W, W), QO)
        qi = p2.vars.index("q")
        zi = p2.vars.index("qz")
        coeffs = {}
        for key, c in p2.c.items():
            n = key[zi]
            coeffs[(key[qi], -n, n)] = c  # vars (q, q_w, q_y)
        expected = MultiSeries(
            ("q", "q_w", "q_y"),
            {"q": (0, QO), "q_w": (-W, W), "q_y": (-W, W)}, coeffs)
        Z = genus1_direct((), QO, (-8, 8)).value
        expected = expected * Z.extended_to(("q", "q_w", "q_y"))
        assert F2.value.agrees_with(expected)
        assert F2.value.coefficient({"q": 1, "q_w": -1, "q_y": 1}) != 0

    def test_two_point_odd_parity_vanishes(self):
        # omega is even and a is odd under a -> -a, so the trace dies
        F = genus1_direct([ins(OMEGA, "z1"), ins(A, "z2")], 5,
                          (-2, 2))
        assert F.is_zero()


# -- genus 1, reduction step against the direct evaluator ----------------


G1_ROWS = [
    [(A, "z1")],
    [(OMEGA, "z1")],
    [(A, "z1"), (A, "z2")],
    [(OMEGA, "z1"), (A2, "z2")],
    [(OMEGA, "z1"), (OMEGA, "z2")],
    [(A, "z1"), (A, "z2"), (A, "z3")],
    [(OMEGA, "z1"), (A, "z2"), (A, "z3")],
]


class TestGenus1Reduce:
    def test_matches_direct_on_a_grid(self):
        for row in G1_ROWS:
            qo = 5 if len(row) < 3 else 4
            wdw = 3 if len(row) < 3 else 2
            direct = genus1_direct([ins(s, p) for s, p in row], qo,
                                   (-wdw, wdw))
            F = genus1_direct((), qo, (-wdw, wdw))
            for s, p in reversed(row):
                F = genus1_reduce(ins(s, p), F)
            assert F.value.agrees_with(direct.value), row
            assert F.q_shift == direct.q_shift

    def test_two_point_heavy_states(self):
        v = parse_state("a[-2]a[-1]|1")
        direct = genus1_direct([ins(v, "z1"), ins(v, "z2")], 5, (-2, 2))
        F = genus1_reduce(
            ins(v, "z1"),
            genus1_reduce(ins(v, "z2"),
                          genus1_direct((), 5, (-2, 2))))
        assert F.value.agrees_with(direct.value)
        assert not direct.is_zero()

    def test_grading_prune_fires_and_changes_nothing(self, monkeypatch):
        # a node whose insertion exponents cannot cancel its front
        # word's weight shift returns the empty dict without a child
        stack, fired = [], []
        inner = reduction._g1_value

        def spy(front, row, window, q_order, memo, pos):
            lo = sum(window[p][0] for _, p in row)
            hi = sum(window[p][1] for _, p in row)
            shift = reduction._front_shift(front)
            key = (front, row, tuple(sorted(window.items())), q_order)
            unreachable = row and key not in memo and \
                not lo <= -shift <= hi
            if stack:
                stack[-1] += 1
            stack.append(0)
            out = inner(front, row, window, q_order, memo, pos)
            children = stack.pop()
            if unreachable and children == 0:
                assert out == {} and memo[key] == {}
                fired.append(row)
            return out

        monkeypatch.setattr(reduction, "_g1_value", spy)
        src = (ins(A, "z1"), ins(AA, "z2"), ins(AA, "z3"))
        F = CorrelationFn(1, src, None, (-2, 2), q_order=2)
        got = reduce_step(ins(A, "w"), F)
        assert len(fired) == 4
        want = genus1_direct((ins(A, "w"),) + src, 2, (-2, 2))
        assert not want.is_zero()
        assert (got.value.vars, got.value.window, got.value.c) == \
            (want.value.vars, want.value.window, want.value.c)

    @pytest.mark.parametrize("q_order", [0, 3, 8])
    @pytest.mark.parametrize("box", [(-4, 4), (-6, 3), (-2, 5)])
    def test_zhu_kernel_slices_are_geometric_inverses(self, box, q_order):
        """The q_z^e slice of P_{m+1} is (-1)^{m+1} e^m/m! / (1 - q^e),
        windows included: the recursion's raw-mode term C(K, i) v(i)w
        times 1/(1 - q^{-d}) at d = -e is Zhu's v[m]w P_{m+1} term."""
        lo, hi = box
        for m in range(0, 7):
            kernel = weierstrass_p_qz(m + 1, box, q_order)
            for e in range(lo, hi + 1):
                if e == 0:
                    continue
                got = kernel.coefficient_of("qz", e)
                want = geom_inv(-e, q_order) * Fraction(
                    (-1) ** (m + 1) * e ** m, factorial(m))
                assert got == want, (m, e)
                assert (got.vars, got.window) == (want.vars, want.window)


# -- windows -------------------------------------------------------------


WINDOW_ENTRY_POINTS = {
    "genus0_direct": lambda w: genus0_direct(
        [ins(A, "z1"), ins(A, "z2")], vacuum(), vacuum(), w),
    "genus1_direct": lambda w: genus1_direct(
        [ins(A, "z1"), ins(A, "z2")], 3, w),
    "unwind_genus0": lambda w: unwind_to_partition(
        [ins(A, "z1")], genus=0, window=w),
    "unwind_genus1": lambda w: unwind_to_partition(
        [ins(A, "z1")], genus=1, window=w, q_order=3),
}


class TestWindows:
    @pytest.mark.parametrize("entry", sorted(WINDOW_ENTRY_POINTS))
    def test_inverted_window_is_refused(self, entry):
        with pytest.raises(ValueError, match="inverted window"):
            WINDOW_ENTRY_POINTS[entry]((2, -2))

    @pytest.mark.parametrize("entry", sorted(WINDOW_ENTRY_POINTS))
    def test_per_point_dict_window_is_refused(self, entry):
        with pytest.raises(ValueError, match="one \\(lo, hi\\) pair"):
            WINDOW_ENTRY_POINTS[entry]({"z1": (-2, 2), "z2": (-2, 2)})

    def test_every_point_and_the_fresh_one_share_the_window(self):
        F = genus0_direct([ins(A, "z2")], A, vacuum(), (-3, 2))
        out = genus0_reduce(ins(A, "z1"), F)
        assert out.window == (-3, 2)
        assert out.value.window == {"z1": (-3, 2), "z2": (-3, 2)}
        assert out.q_shift == 0
        G = genus1_reduce(ins(A, "z1"), genus1_direct((), 3, (-2, 1)))
        assert G.window == (-2, 1)
        assert G.value.window == {"q": (0, 3), "q_z1": (-2, 1)}
        assert G.q_shift == Fraction(-CENTRAL_CHARGE, 24)


# -- residuals and unwinding ---------------------------------------------


class TestResidualsAndUnwinding:
    def test_partition_is_a_cocycle_along_the_current(self):
        Z = genus1_direct((), 6, (-8, 8))
        assert reduce_step(ins(A, "z1"), Z).value.is_zero()

    def test_partition_is_not_a_cocycle_along_the_stress_tensor(self):
        Z = genus1_direct((), 7, (-8, 8))
        res = reduce_step(ins(OMEGA, "z1"), Z).value
        q = res.coefficient_of("q_z1", 0)
        for m in range(8):
            assert q.coefficient({"q": m}) == m * PARTITIONS[m]

    def test_vacuum_direction_reproduces_the_function(self):
        F0 = genus0_direct((), A, A, (-4, 4))
        res = reduce_step(ins(vacuum(), "z1"), F0).value
        assert res.coefficient({"z1": 0}) == -1
        assert sum(1 for v in res.c.values() if v) == 1

        Z = genus1_direct((), 6, (-8, 8))
        res = reduce_step(ins(vacuum(), "z1"), Z).value
        assert res.coefficient_of("q_z1", 0).agrees_with(Z.value)

    def test_unwind_flags_degenerate_steps(self):
        out = unwind_to_partition(
            [ins(A, "z2"), ins(A, "z1")], genus=0,
            window=(-6, 4))
        assert out.degenerate_steps == (0,)
        direct = genus0_direct([ins(A, "z1"), ins(A, "z2")],
                               vacuum(), vacuum(),
                               (-6, 4))
        assert out.value.agrees_with(direct.value)

    def test_unwind_at_genus_one(self):
        out = unwind_to_partition(
            [ins(A, "z1"), ins(A, "z2")], genus=1,
            q_order=5, window=(-2, 2))
        assert out.degenerate_steps == (0,)
        direct = genus1_direct([ins(A, "z2"), ins(A, "z1")], 5,
                               (-2, 2))
        assert out.value.agrees_with(direct.value)
        assert not out.is_zero()

    def test_empty_unwind_is_the_partition_function(self):
        out = unwind_to_partition([], genus=0)
        assert out.value.coefficient({}) == bilinear_form(vacuum(), vacuum())
        assert out.degenerate_steps == ()
        out = unwind_to_partition([], genus=1, q_order=5)
        assert out.value == genus1_direct((), 5, (-8, 8)).value
        assert out.degenerate_steps == ()


# -- the a -> -a rule in the recursions -----------------------------------


def _outcome(step, d, F):
    """A reduce step's output in vars, windows, coefficients with their
    types, or its WindowError text."""
    try:
        v = step(d, F).value
    except WindowError as e:
        return str(e)
    return v.vars, v.window, {k: (type(c), c) for k, c in v.c.items()}


class TestParityPruning:
    """The recursions skip every node whose total parity under
    a -> -a is odd; the oracles never do, so they still check it."""

    RATIONAL = parse_state("1/2*a[-2]|1 + a[-1]^2|1")
    MIXED = parse_state("1 + a")

    def test_pruning_changes_no_output(self, monkeypatch):
        states = [A, OMEGA, self.RATIONAL, self.MIXED]
        boundaries = [(vacuum(), vacuum()), (A, A), (vacuum(), self.MIXED),
                      (self.RATIONAL, A)]
        cases = []
        for window in ((-1, 1), (-2, 2)):
            for s in states:
                for src in [()] + [(ins(t, "z2"),) for t in states] + [
                        (ins(t, "z2"), ins(A, "z3")) for t in states]:
                    for b in boundaries:
                        cases.append((genus0_reduce, ins(s, "z1"),
                                      CorrelationFn(0, src, None, window,
                                                    boundary_states=b)))
                    cases.append((genus1_reduce, ins(s, "z1"),
                                  CorrelationFn(1, src, None, window,
                                                q_order=2)))
        pruned = [_outcome(*case) for case in cases]
        monkeypatch.setattr(reduction, "_theta_odd", lambda *a: False)
        assert pruned == [_outcome(*case) for case in cases]
        assert any(isinstance(o, str) for o in pruned)
        assert any(not isinstance(o, str) and o[2] for o in pruned)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        inner = getattr(reduction, name)

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(reduction, name, spy)
        return calls

    @pytest.mark.parametrize("genus", [0, 1])
    def test_odd_root_is_one_call(self, monkeypatch, genus):
        # one parity check either way; genus 1 checks its roots before
        # the recursion, genus 0 on entering each node
        name = "_g0_value" if genus == 0 else "_g1_value"
        calls = self.count_calls(monkeypatch, name)
        checks = self.count_calls(monkeypatch, "_theta_odd")
        src = (ins(A, "z2"), ins(A2, "z3"))
        F = CorrelationFn(genus, src, None, (-3, 3),
                          boundary_states=(vacuum(), vacuum()), q_order=3)
        out = reduce_step(ins(A, "z1"), F)
        assert len(checks) == 1 and out.is_zero()
        assert len(calls) == (1 if genus == 0 else 0)
        assert direct(genus, out.insertions, (-3, 3), 3).is_zero()
        # an even root walks its subtree
        F = F._replace(insertions=(ins(A, "z2"),))
        assert not reduce_step(ins(A, "z1"), F).is_zero()
        assert len(calls) > 2

    def test_mixed_boundary_is_not_pruned(self, monkeypatch):
        # <1, Y(a, z)(1 + a)> = z^-2: only the odd part of u survives
        calls = self.count_calls(monkeypatch, "_g0_value")
        boundary = (vacuum(), self.MIXED)
        F = genus0_reduce(ins(A, "z1"),
                          CorrelationFn(0, (), None, (-3, 3),
                                        boundary_states=boundary))
        assert F.value.coefficient({"z1": -2}) == 1
        assert len(calls) > 1
        want = genus0_direct(F.insertions, *boundary, (-3, 3))
        assert F.value == want.value

"""The integral round-basis mode table and the integer trace kernel.

In the round Fock basis every mode matrix is integral.  These tests pin
that invariant on the cached table, check that the public GradedVector
layer, the oracles and the reduction steps hand out coefficients in the
form ``series.rat`` gives (an int when integral, else a Fraction) while
both recursions sum ints inside, and compare the integer graded traces with
a GradedVector/zero_mode trace written here, independently of the
kernel in the library.  The table rows of states with several
generators are checked against their normally ordered products, built
here from ``heisenberg_mode`` alone, and the genus-0 boundary
functional's pullback against the bilinear form.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from voasurf.elliptic import onepoint_hafnian
from voasurf.genus2 import SewingModuli, _channel_sums
from voasurf.reduction import (
    CorrelationFn,
    Insertion,
    ReductionDirection,
    _expand_geometric,
    _g0_value,
    _pull_back,
    _trace_counts,
    genus0_direct,
    genus0_reduce,
    genus1_direct,
    genus1_onepoint,
    genus1_reduce,
)
from voasurf.series import MultiSeries, TruncatedSeries
from voasurf.voa import (
    GradedVector,
    _norm,
    _vertex_mode_basis,
    basis,
    bilinear_form,
    conformal_vector,
    generator,
    heisenberg_mode,
    parse_state,
    square_fock,
    to_square_coords,
    vacuum,
    vertex_mode,
    zero_mode,
)

from test_coefficient_types import canonical
from test_series import geom_inv

LOW_STATES = [s for m in range(5) for s in basis(m)]


def oracle_trace(word, q_order):
    """{m: Tr_{V_m}(word)} on the levels where it is nonzero, through
    GradedVector and vertex_mode."""
    coeffs = {}
    for m in range(q_order + 1):
        t = Fraction(0)
        for b in basis(m):
            vec = GradedVector.basis_state(b)
            for s, k in reversed(word):
                vec = vertex_mode(GradedVector.basis_state(s), k, vec)
            t += vec.coefficient(b)
        if t:
            coeffs[m] = t
    return coeffs


def normal_ordered_mode(u, k, v):
    """u(k) v as a {state: coefficient} dict, for basis states
    u = a(-n_1)...a(-n_r)|1> and v, from the normally ordered product
    Y(u, z) = :prod_i d^(n_i-1)a(z)/(n_i-1)!: alone: summed over the
    generator modes (m_1, ..., m_r) with sum m_i = k + 1 - wt u, each
    term weighted by prod_i C(-m_i-1, n_i-1), creators left of
    annihilators, every mode applied by ``heisenberg_mode``.

    The sum runs generator by generator over partial products keyed by
    (v with the annihilated parts removed, creator parts so far).  An
    annihilator a(m) must meet a part m of v.  A creator a(-p) has
    p >= n_i, and the weight of u(k) v bounds p: the generators still to
    come remove at most as many parts as they are, and the last one
    fixes p."""
    top = sum(u) - k - 1 + sum(v)
    partial = {(v, ()): 1}
    for i, n in enumerate(u):
        left = len(u) - 1 - i
        nxt = {}
        for (rest, made), c in partial.items():
            for m in set(rest):
                c_m = (-1) ** (n - 1) * comb(m + n - 1, n - 1)
                for r, cr in _annihilated(m, rest):
                    nxt[r, made] = nxt.get((r, made), 0) + c * c_m * cr
            p_hi = top - sum(made) - sum(rest[left:])
            for p in range(n if left else max(n, p_hi), p_hi + 1):
                key = (rest, tuple(sorted(made + (p,))))
                nxt[key] = nxt.get(key, 0) + c * comb(p - 1, n - 1)
        partial = nxt
    by_creators = {}
    for (rest, made), c in partial.items():
        if c and sum(rest) + sum(made) == top:
            by_creators.setdefault(made, {})[rest] = c
    out = {}
    for made, rests in by_creators.items():
        vec = GradedVector(rests)
        for p in made:
            vec = heisenberg_mode(-p, vec)
        for s, c in vec.t.items():
            out[s] = out.get(s, 0) + c
    return {s: c for s, c in out.items() if c}


@lru_cache(maxsize=None)
def _annihilated(m, state):
    """a(m) on a basis state through heisenberg_mode, as int pairs."""
    vec = heisenberg_mode(m, GradedVector.basis_state(state))
    return tuple((s, int(c)) for s, c in vec.t.items())


def oracle_double_trace(v, u, q_order, var="q"):
    """Tr(o(v) o(u) q^L(0)) through zero_mode, level by level."""
    coeffs = {}
    for m in range(q_order + 1):
        coeffs[m] = sum((zero_mode(v, zero_mode(u, GradedVector.basis_state(s)))
                         .coefficient(s) for s in basis(m)), Fraction(0))
    return TruncatedSeries(var, 0, q_order, coeffs)


class TestModeTable:
    def test_every_table_entry_is_an_int(self):
        for u in LOW_STATES:
            for v in LOW_STATES:
                for k in range(-6, 7):
                    for s, c in _vertex_mode_basis(u, k, v):
                        assert type(c) is int, (u, k, v, s, c)
                        assert c != 0

    def test_generator_rows_match_heisenberg_modes(self):
        for v in LOW_STATES:
            for k in range(-6, 7):
                expected = heisenberg_mode(k, GradedVector.basis_state(v))
                assert dict(_vertex_mode_basis((1,), k, v)) == expected.t

    def test_multi_generator_rows_match_normal_ordered_products(self):
        for u in (s for m in range(6) for s in basis(m) if len(s) > 1):
            for v in (s for m in range(8) for s in basis(m)):
                for k in range(-8, 9):
                    assert dict(_vertex_mode_basis(u, k, v)) == \
                        normal_ordered_mode(u, k, v), (u, k, v)

    def test_generator_insertions_leave_the_table_empty(self):
        # rows of the vacuum and of a single generator are closed forms
        # read on the spot, so tracing and reducing a@z1, a@z2 caches none
        _vertex_mode_basis.cache_clear()
        ins = (Insertion(parse_state("a"), "z1"),
               Insertion(parse_state("a"), "z2"))
        direct = genus1_direct(ins, 12, (-3, 3))
        reduced = genus1_reduce(ReductionDirection(ins[0]),
                                CorrelationFn(1, ins[1:], None, (-3, 3),
                                              q_order=12))
        assert _vertex_mode_basis.cache_info().currsize == 0
        assert direct.value.c and reduced.value == direct.value

    def test_vertex_mode_coefficients_are_canonical(self):
        out = vertex_mode(generator(), -1, generator())
        assert out.t == {(1, 1): Fraction(1)}
        assert all(canonical(c) for c in out.t.values())
        # omega carries a half, but L(0) on a[-2]|1 is integral
        half = vertex_mode(conformal_vector(), 1, parse_state("a[-2]|1"))
        assert half.t == {(2,): Fraction(2)}
        assert all(canonical(c) for c in half.t.values())
        third = vertex_mode(parse_state("1/3*a"), -1, generator())
        assert third.t == {(1, 1): Fraction(1, 3)}
        assert all(canonical(c) for c in third.t.values())


class TestTraceKernel:
    @pytest.mark.parametrize("word", [
        (),
        (((1,), 0),),
        (((1, 1), 1),),
        (((2,), 0), ((1,), 1)),
        (((1,), 1), ((1,), -1)),
        (((2,), 2), ((1, 1), 0)),
        (((2, 1), 2), ((3,), 2)),
        (((1,), 2), ((1,), -1), ((1,), -1)),
    ])
    def test_matches_graded_vector_trace(self, word):
        assert _trace_counts(word, 6) == oracle_trace(word, 6)

    @pytest.mark.parametrize("word", [
        (((2, 1), 2), ((1, 1), 1)),
        (((3, 1), 3), ((2, 1), 2), ((1, 1), 1)),
        (((2, 2), 0), ((1, 1, 1), 5), ((2, 1, 1), 3)),
        (((3, 1), 5), ((2, 1), 3), ((1, 1), -2), ((2, 1), 2)),
        (((3, 1), 1), ((1, 1, 1), 4), ((1, 1, 1), 2), ((2, 2), 3)),
    ])
    def test_matches_graded_vector_trace_at_q_order_8(self, word):
        assert _trace_counts(word, 8) == oracle_trace(word, 8)

    @pytest.mark.parametrize("word", [
        # acting right to left, the weight rises by 2 and falls back
        (((2, 1), 3), ((1,), 1), ((1, 1), -1)),
        # +1, -2, +1: the lowest weight is reached just before the last
        # mode acts, so the turned word starts with that mode
        (((1, 1), 0), ((2,), 3), ((1,), -1)),
    ])
    def test_turned_word_matches_graded_vector_trace(self, word):
        assert _trace_counts(word, 7) == oracle_trace(word, 7)

    def test_word_dipping_below_zero_skips_low_levels(self):
        # -1, -2, +1, +2 dips 3 below its start: levels 0-2 vanish
        word = (((1, 1), -1), ((1,), -1), ((2, 1), 4), ((1,), 1))
        tr = _trace_counts(word, 7)
        assert tr == oracle_trace(word, 7)
        assert tr and min(tr) >= 3

    def test_empty_word_counts_the_basis(self):
        assert _trace_counts((), 7) == oracle_trace((), 7) == {
            m: len(basis(m)) for m in range(8)}

    def test_first_mode_killing_whole_levels(self):
        # (a(-2)^2|1>)(4) lowers the weight by 1 but kills V_1 and V_2
        # outright, so the trace starts at q^3
        word = (((2, 1), 1), ((2, 2), 4))
        for m in (1, 2):
            assert all(not _vertex_mode_basis((2, 2), 4, b) for b in basis(m))
        tr = _trace_counts(word, 8)
        assert tr == oracle_trace(word, 8)
        assert min(tr) == 3

    def test_conformal_zero_mode_counts_weight(self):
        # o(a(-1)^2|1>) = 2 L(0), so the trace is 2 sum_m m p(m) q^m
        assert _trace_counts((((1, 1), 1),), 6) == {
            m: 2 * m * len(basis(m)) for m in range(1, 7)}

    def test_commutator_word_counts_ones(self):
        # a(1) a(-1) acts on a basis state lam as 1 + (number of parts 1)
        assert _trace_counts((((1,), 1), ((1,), -1)), 6) == {
            m: sum(1 + lam.count(1) for lam in basis(m)) for m in range(7)}

    def test_counts_are_ints(self):
        tr = _trace_counts((((1,), 1), ((1,), -1)), 4)
        assert tr and all(type(c) is int for c in tr.values())

    def test_oracle_coefficients_are_canonical(self):
        # the oracles add int trace counts; their series hold ints where
        # the sum is integral, Fractions where omega's half survives
        ins = (Insertion(parse_state("a"), "z1"),
               Insertion(parse_state("a"), "z2"))
        for value in (genus1_direct(ins, 4, (-2, 2)).value,
                      genus1_onepoint(parse_state("omega"), 4)):
            assert value.c
            assert all(canonical(c) for c in value.c.values())

    def test_geometric_inverses_carry_ints(self):
        # the genus-1 recursion expands 1/(1 - q^{-d}) in ints: on the
        # constant 1, a node keyed by q alone, it is the geometric
        # inverse itself
        for d in (-3, -1, 1, 2):
            got = {}
            _expand_geometric(got, {d: {(0,): 1}}, 6)
            assert got == geom_inv(d, 6).c
            assert got and all(type(c) is int for c in got.values())

    @pytest.mark.parametrize("v", ["a[-2]|1", "omega", "omegatilde"])
    def test_double_zero_mode_trace(self, v):
        # the F channel sums of genus2_reduce, Zhu's recursion over
        # Hafnians, against sum_lam Tr(o(v) o(lam)) H_lam eps^r / <lam, lam>
        # with the double trace taken level by level here
        v = parse_state(v)
        moduli = SewingModuli(6, 5, 3, 6)
        F1, F2, _ = _channel_sums(GradedVector(to_square_coords(v)), (),
                                  moduli)
        orders = {"q1": 6, "q2": 5}
        for got, var, other in ((F1, "q1", "q2"), (F2, "q2", "q1")):
            expected = MultiSeries.constant(0)
            for r in range(moduli.eps_order + 1):
                for lam in basis(r):
                    t = oracle_double_trace(v, square_fock(lam), orders[var],
                                            var)
                    h = onepoint_hafnian(lam, orders[other], other)
                    expected = expected + t * h * MultiSeries.monomial(
                        {"se": 2 * r}, Fraction(1, _norm(lam)))
            assert got == expected
            # o(a(-2)1) = -a(0) is zero on the Fock space: its sums stay empty
            assert got.is_zero() or got.window[var] == (0, orders[var])


class TestReductionValues:
    """The recursion sums ints internally; the values it hands out go
    through ``series.rat``, like every other public series: an int
    where a coefficient is integral, else a Fraction."""

    @staticmethod
    def step(state, point):
        return ReductionDirection(Insertion(parse_state(state), point))

    def test_genus1_reduce_coefficients_are_canonical(self):
        F = genus1_direct((), 4, (-3, 3))
        for state, point in (("omega", "z3"), ("a", "z2"), ("a", "z1")):
            F = genus1_reduce(self.step(state, point), F)
        assert F.value.c
        assert all(canonical(c) for c in F.value.c.values())

    def test_genus0_reduce_coefficients_are_canonical(self):
        F = genus0_direct((), vacuum(), vacuum(), (-3, 3))
        for state, point in (("a", "z2"), ("1/2*a[-2]|1", "z1")):
            F = genus0_reduce(self.step(state, point), F)
        assert F.value.c
        assert all(canonical(c) for c in F.value.c.values())


class TestBoundaryFunctional:
    """At genus 0 the left boundary u' enters the recursion as its
    pairing functional phi(b) = <u', b>, an int dict on integral
    boundaries, pulled back through the integral mode table."""

    def test_pull_back_is_the_adjoint_mode(self):
        # phi'(b) = <u', v(j) b> for every basis state b up to weight 6
        for text in ("a[-2]a[-1]|1", "omega", "2/3*a[-2]|1 + a[-1]^2|1",
                     "a[-3]|1 - 5*a[-1]^3|1"):
            uprime = parse_state(text)
            phi = {s: c * _norm(s) for s, c in uprime.t.items()}
            integral = all(c.denominator == 1 for c in uprime.t.values())
            if integral:
                phi = {s: int(c) for s, c in phi.items()}
            for vs in ((1,), (1, 1), (2, 1)):
                v = GradedVector.basis_state(vs)
                for j in range(-4, 3):
                    pulled = _pull_back(vs, j, phi)
                    for b in (b for m in range(7) for b in basis(m)):
                        y = vertex_mode(v, j, GradedVector.basis_state(b))
                        assert pulled.get(b, 0) == bilinear_form(uprime, y), \
                            (text, vs, j, b)
                    assert all(pulled.values())
                    if integral:
                        assert all(type(c) is int for c in pulled.values())

    def test_vacuum_boundaries_store_ints(self):
        row = (((1,), "z1"), ((1, 1), "z2"), ((2,), "z3"))
        memo = {}
        window = {"z1": (-3, 3), "z2": (-3, 3), "z3": (-5, 3)}
        pos = {"z1": 0, "z2": 1, "z3": 2}
        value = _g0_value(row, {(): 1}, {(): 1}, window, memo, pos)
        assert value and len(memo) > 1
        for node in memo.values():
            assert all(type(c) is int for c in node.values())

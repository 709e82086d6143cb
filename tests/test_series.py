"""Series substrate tests: windows, ring laws, printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voasurf import sewing
from voasurf.series import (
    MultiSeries,
    TruncatedSeries,
    binomial_expand,
    sum_shifted,
)

from test_elliptic import expand_exp


def geometric(var="q", hi=8):
    return TruncatedSeries(var, 0, hi, {k: 1 for k in range(hi + 1)})


class TestTruncatedSeries:
    def test_mul_plain(self):
        one_plus = TruncatedSeries("q", 0, 2, {0: 1, 1: 1})
        one_minus = TruncatedSeries("q", 0, 2, {0: 1, 1: -1})
        prod = one_plus * one_minus
        assert prod.c == {(0,): Fraction(1), (2,): Fraction(-1)}
        assert prod.window["q"] == (0, 2)

    def test_mul_telescopes_geometric(self):
        g = geometric(hi=5)
        one_minus = TruncatedSeries("q", 0, 5, {0: 1, 1: -1})
        assert (g * one_minus).c == {(0,): Fraction(1)}

    def test_mul_laurent_window(self):
        # q^-1 * q = 1, with the window shrinking to the sound horizon
        a = MultiSeries.monomial({"q": -1})
        b = MultiSeries.monomial({"q": 1})
        prod = a * b
        assert prod.c == {(0,): Fraction(1)}
        assert prod.window["q"][0] == 0

    def test_mul_window_law(self):
        # hi = min(hi_a + lo_b, hi_b + lo_a), the only law that keeps
        # truncated Laurent products exact
        a = TruncatedSeries("z", -2, 3, {-2: 1})
        b = TruncatedSeries("z", 1, 4, {1: 1})
        prod = a * b
        assert prod.window["z"] == (-1, 2)

    def test_compose_exp_example(self):
        # (q_z - 1)^2 under q_z = e^z is z^2 + z^3 + 7/12 z^4 + ...
        f = TruncatedSeries("u", 0, 4, {0: 1, 1: -2, 2: 1})
        g = expand_exp(f, "z", 4)
        assert g.c[(2,)] == 1
        assert g.c[(3,)] == 1
        assert g.c[(4,)] == Fraction(7, 12)
        assert (0,) not in g.c and (1,) not in g.c

    def test_compose_exp_negative_power(self):
        # q_z^-1 = e^-z = 1 - z + z^2/2 - ...
        f = MultiSeries.monomial({"u": -1})
        g = expand_exp(f, "z", 3)
        assert g.c == {(0,): 1, (1,): -1, (2,): Fraction(1, 2),
                       (3,): Fraction(-1, 6)}

    def test_str(self):
        f = TruncatedSeries("q", 0, 3, {0: Fraction(-1, 12), 1: 2, 2: 6, 3: 8})
        assert f.pretty(sep="") == "-1/12 + 2q + 6q^2 + 8q^3"

    def test_coefficient_above_horizon_raises(self):
        f = geometric(hi=4)
        with pytest.raises(ValueError):
            f.coefficient({"q": 5})
        assert f.coefficient({"q": -3}) == 0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries("q", 3, 1)
        with pytest.raises(ValueError):
            TruncatedSeries("q", 0, 2, {3: 1})

    def test_raising_lo_is_certified(self):
        # e^z - 1 through z^3, its vanishing constant term stored as no term
        em1 = TruncatedSeries("z", 0, 3, {1: 1, 2: Fraction(1, 2),
                                          3: Fraction(1, 6)})
        assert em1.clip("z", 1, None).window["z"] == (1, 3)
        with pytest.raises(ValueError):
            (em1 + 1).clip("z", 1, None)
        with pytest.raises(ValueError):
            TruncatedSeries("z", 0, 1, {1: 1}).clip("z", 3, None)


rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def series_strategy(var="q", lo=-4, hi=5):
    return st.dictionaries(st.integers(min_value=lo, max_value=hi), rational,
                           max_size=5).map(
        lambda d: TruncatedSeries(var, lo, hi, d))


class TestSeriesProperties:
    @given(series_strategy(), series_strategy())
    def test_mul_commutative(self, a, b):
        assert (a * b).c == (b * a).c

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=40)
    def test_mul_associative_on_common_window(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        assert left.agrees_with(right)

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=40)
    def test_distributive(self, a, b, c):
        assert (a * (b + c)).agrees_with(a * b + a * c)

    @given(series_strategy())
    def test_truncation_consistency(self, a):
        lo = a.window["q"][0]
        b = TruncatedSeries("q", lo, 3, {e: v for (e,), v in a.c.items() if e <= 3})
        wide = (a * a).clip("q", 2 * lo, (b * b).window["q"][1])
        assert wide.agrees_with(b * b)


VARS = ("x", "y", "z")


@st.composite
def multiseries(draw, max_terms=5, pool=VARS):
    """A series over a few of the variables in ``pool``, each with a
    window whose lo may be negative and whose hi may be None; possibly
    empty or one-term."""
    variables = sorted(draw(st.sets(st.sampled_from(pool), max_size=3)))
    window = {}
    for v in variables:
        lo = draw(st.integers(-3, 2))
        window[v] = (lo, draw(st.one_of(st.none(), st.integers(lo, lo + 5))))
    keys = st.tuples(*(st.integers(lo, lo + 5 if hi is None else hi)
                       for lo, hi in (window[v] for v in variables)))
    coeffs = draw(st.dictionaries(keys, rational, max_size=max_terms))
    return MultiSeries(variables, window, coeffs)


def _min_hi(*his):
    finite = [h for h in his if h is not None]
    return min(finite) if finite else None


def _aligned(ms, variables):
    """The window and coefficients of ms over ``variables``; an absent
    variable has exponent 0 and the window (0, None)."""
    window = {v: ms.window.get(v, (0, None)) for v in variables}
    coeffs = {tuple(dict(zip(ms.vars, key)).get(v, 0) for v in variables): c
              for key, c in ms.c.items()}
    return window, coeffs


def _within(coeffs, variables, window):
    """The nonzero coefficients at or below every horizon of window."""
    return {k: c for k, c in coeffs.items() if c != 0 and all(
        window[v][1] is None or e <= window[v][1]
        for v, e in zip(variables, k))}


def naive_add(a, b):
    variables = tuple(sorted(set(a.vars) | set(b.vars)))
    (wa, ca), (wb, cb) = _aligned(a, variables), _aligned(b, variables)
    window = {v: (min(wa[v][0], wb[v][0]), _min_hi(wa[v][1], wb[v][1]))
              for v in variables}
    coeffs = dict(ca)
    for k, c in cb.items():
        coeffs[k] = coeffs.get(k, 0) + c
    return MultiSeries(variables, window, _within(coeffs, variables, window))


def naive_mul(a, b, caps=None):
    """The full double loop, the horizon filter, the zeros dropped, and
    then each capped variable clipped."""
    caps = caps or {}
    variables = tuple(sorted(set(a.vars) | set(b.vars) | set(caps)))
    (wa, ca), (wb, cb) = _aligned(a, variables), _aligned(b, variables)
    window = {}
    for v in variables:
        (la, ha), (lb, hb) = wa[v], wb[v]
        window[v] = (la + lb, _min_hi(None if ha is None else ha + lb,
                                      None if hb is None else hb + la))
    coeffs = {}
    for k1, c1 in ca.items():
        for k2, c2 in cb.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            coeffs[k] = coeffs.get(k, 0) + c1 * c2
    out = MultiSeries(variables, window, _within(coeffs, variables, window))
    for v, cap in caps.items():
        out = out.clip(v, out.window[v][0], cap)
    return out


def assert_same(got, want):
    assert got.vars == want.vars
    assert got.window == want.window
    assert got.c == want.c
    assert all(c != 0 for c in got.c.values())


caps_strategy = st.dictionaries(st.sampled_from(VARS),
                                st.one_of(st.none(), st.integers(-6, 8)))


class TestProductsAgainstTheDoubleLoop:
    @given(multiseries(), multiseries())
    def test_add(self, a, b):
        assert_same(a + b, naive_add(a, b))

    @given(multiseries(), multiseries())
    def test_sums_that_cancel(self, a, b):
        assert_same(a + (-a), naive_add(a, -a))
        assert (a + (-a)).is_zero()
        assert_same((a + b) + (-b), naive_add(naive_add(a, b), -b))

    @given(multiseries(), multiseries())
    def test_mul(self, a, b):
        assert_same(a * b, naive_mul(a, b))

    @given(multiseries(max_terms=1), multiseries())
    def test_one_term_factor(self, a, b):
        assert_same(a * b, naive_mul(a, b))
        assert_same(b * a, naive_mul(b, a))

    @given(multiseries(), multiseries(), caps_strategy)
    def test_capped(self, a, b, caps):
        assert_same(a.__mul__(b, caps), naive_mul(a, b, caps))

    @given(multiseries(), multiseries(), st.integers(-2, 2))
    def test_caps_around_the_natural_horizon(self, a, b, delta):
        natural = (a * b).window
        caps = {v: hi + delta for v, (lo, hi) in natural.items()
                if hi is not None}
        assert_same(a.__mul__(b, caps), naive_mul(a, b, caps))

    @given(multiseries(), multiseries(),
           st.one_of(st.none(), st.integers(-4, 6)))
    def test_sewing_clip_of_a_product(self, a, b, hi):
        spec = {"base": ("x", "y", "z"), "names": {"x": "X", "z": "Z"},
                "hi": hi}
        assert_same(sewing.clip(a, b, **spec), sewing.clip(a * b, **spec))


shifts_strategy = st.dictionaries(st.sampled_from(VARS), st.integers(-3, 3),
                                  max_size=2)
scale_strategy = st.one_of(st.integers(-3, 3), rational)
term_strategy = st.tuples(multiseries(), shifts_strategy, scale_strategy)


def geom_inv(d: int, q_order: int) -> MultiSeries:
    """1/(1 - q^{-d}) as a q-series on (0, q_order) with int
    coefficients: the factor that a ``(d, q_order)`` term entry of
    ``sum_shifted`` stands for."""
    out = MultiSeries(("q",), {"q": (0, q_order)})
    if d > 0:
        out.c = {(e,): -1 for e in range(d, q_order + 1, d)}
    else:
        out.c = {(e,): 1 for e in range(0, q_order + 1, -d)}
    return out


def fold_shifted(terms):
    """The left fold of the geometric product, shift, scalar * and +
    from the empty series."""
    acc = MultiSeries((), {})
    for ms, shifts, scale, *geom in terms:
        if geom:
            ms = ms * geom_inv(*geom[0])
        for v, k in shifts.items():
            ms = ms.shift(v, k)
        acc = acc + ms * scale
    return acc


def int_series(variables, window, coeffs) -> MultiSeries:
    """A series holding the int coefficients that the constructor would
    coerce to Fractions."""
    out = MultiSeries(variables, window)
    out.c = dict(coeffs)
    return out


Q_VARS = ("q", "x")
geometric_strategy = st.tuples(st.integers(-3, 3).filter(bool),
                               st.integers(0, 5))
geometric_term_strategy = st.tuples(
    multiseries(pool=Q_VARS),
    st.dictionaries(st.sampled_from(Q_VARS), st.integers(-3, 3), max_size=2),
    scale_strategy, geometric_strategy)

# siblings of a geometric term: no q at all, q from 0 with and without a
# horizon, and q support starting above 0
GEOMETRIC_SIBLINGS = {
    "no_q": int_series(("x",), {"x": (-2, 3)}, {(-2,): 3, (1,): -1}),
    "q_exact": int_series(("q", "x"), {"q": (0, None), "x": (-1, 1)},
                          {(0, 1): 2, (1, -1): 5}),
    "q_horizon": int_series(("q",), {"q": (0, 4)},
                            {(0,): 1, (2,): -2, (4,): 7}),
    "q_above_0": int_series(("q", "x"), {"q": (2, 7), "x": (0, 0)},
                            {(2, 0): 4, (3, 0): -3, (7, 0): 1}),
}


class TestSumShiftedAgainstTheFold:
    @given(st.lists(term_strategy, max_size=5))
    @settings(max_examples=50)
    def test_terms(self, terms):
        assert_same(sum_shifted(terms), fold_shifted(terms))

    @given(multiseries(pool=("x",)), multiseries(pool=("y", "z")),
           shifts_strategy, scale_strategy)
    def test_disjoint_variable_sets(self, a, b, shifts, scale):
        terms = [(a, {}, 1), (b, shifts, scale)]
        assert_same(sum_shifted(terms), fold_shifted(terms))

    @given(st.lists(term_strategy, max_size=3))
    @settings(max_examples=50)
    def test_empty_series(self, terms):
        empty = MultiSeries((), {})
        blank = MultiSeries(("x", "y"), {"x": (-2, 1), "y": (1, None)})
        for extra in ([], [(empty, {}, 1)], [(blank, {"y": -2}, 3)],
                      [(empty, {"z": 2}, 1)]):
            assert_same(sum_shifted(terms + extra),
                        fold_shifted(terms + extra))
        assert_same(sum_shifted([]), fold_shifted([]))

    @given(multiseries(), st.lists(term_strategy, max_size=2),
           shifts_strategy, scale_strategy)
    @settings(max_examples=50)
    def test_terms_that_cancel(self, a, others, shifts, scale):
        terms = [(a, shifts, scale)] + others + [(a, shifts, -scale)]
        got = sum_shifted(terms)
        assert_same(got, fold_shifted(terms))
        if not others:
            assert got.is_zero()

    @given(multiseries(), st.integers(-3, 3), st.integers(0, 3),
           shifts_strategy)
    def test_term_above_another_horizon(self, a, h, up, shifts):
        low = MultiSeries(("x",), {"x": (h - 2, h)}, {(h,): 1})
        high = MultiSeries(("x", "y"), {"x": (h, None), "y": (0, None)},
                           {(h + up, 0): 2, (h + up + 1, 1): 3})
        terms = [(low, {}, 1), (high, {}, 1), (a, shifts, 2)]
        got = sum_shifted(terms)
        assert_same(got, fold_shifted(terms))
        i = got.vars.index("x")
        assert all(key[i] <= got.window["x"][1] for key in got.c)

    def test_int_coefficients_stay_ints(self):
        ms = MultiSeries(("q",), {"q": (0, 3)})
        ms.c = {(0,): 2, (2,): 5}
        got = sum_shifted([(ms, {"q": 1, "x": -1}, 3), (ms, {}, -1)])
        assert got.c == {(0, 0): -2, (1, -1): 6, (2, 0): -5, (3, -1): 15}
        assert all(type(c) is int for c in got.c.values())

    @given(st.lists(st.one_of(term_strategy, geometric_term_strategy),
                    max_size=4))
    @settings(max_examples=80)
    def test_geometric_terms(self, terms):
        assert_same(sum_shifted(terms), fold_shifted(terms))

    @pytest.mark.parametrize("sibling", sorted(GEOMETRIC_SIBLINGS))
    @pytest.mark.parametrize("q_order", [0, 1, 5])
    @pytest.mark.parametrize("d", [-3, -1, 1, 2])
    def test_geometric_term_equals_the_product(self, d, q_order, sibling):
        sib = GEOMETRIC_SIBLINGS[sibling]
        other = int_series(("q", "y"), {"q": (0, 9), "y": (0, 1)},
                           {(1, 0): 1, (3, 1): -4})
        for terms in ([(sib, {}, 1, (d, q_order))],
                      [(sib, {"x": d, "y": -d}, 3, (d, q_order)),
                       (other, {"y": 1}, -2)],
                      [(sib, {"q": 1}, -1, (d, q_order)),
                       (sib, {}, 2, (-d, q_order))]):
            got = sum_shifted(terms)
            assert_same(got, fold_shifted(terms))
            assert all(type(c) is int for c in got.c.values())
        # the fold's scalar product makes Fractions; the product itself
        # keeps the ints, and one unscaled term holds its coefficients
        got = sum_shifted([(sib, {}, 1, (d, q_order))])
        want = sib * geom_inv(d, q_order)
        assert got.vars == want.vars
        assert {k: (type(c), c) for k, c in got.c.items()} == \
            {k: (type(c), c) for k, c in want.c.items()}


class TestMultiSeries:
    def test_mul_disjoint_vars(self):
        a = MultiSeries.monomial({"x": 2}, 3)
        b = MultiSeries.monomial({"y": -1}, Fraction(1, 2))
        prod = a * b
        assert prod.coefficient({"x": 2, "y": -1}) == Fraction(3, 2)

    def test_window_law_per_variable(self):
        a = MultiSeries(("x",), {"x": (0, 3)}, {(1,): 1})
        b = MultiSeries(("x", "y"), {"x": (-1, 2), "y": (0, 5)}, {(-1, 2): 1})
        prod = a * b
        assert prod.window["x"] == (-1, 2)
        assert prod.window["y"] == (0, 5)
        assert prod.coefficient({"x": 0, "y": 2}) == 1

    def test_shift_and_clip(self):
        a = MultiSeries(("q",), {"q": (0, 4)}, {(0,): 1, (3,): 2})
        s = a.shift("q", -2)
        assert s.window["q"] == (-2, 2)
        assert s.coefficient({"q": 1}) == 2
        with pytest.raises(ValueError):
            s.clip("q", 0, 2)

    def test_coefficient_of(self):
        a = MultiSeries(("q", "z"), {"q": (0, 3), "z": (-2, 2)},
                        {(1, -2): 5, (1, 0): 7, (2, -2): 1})
        part = a.coefficient_of("q", 1)
        assert part.coefficient({"z": -2}) == 5
        assert part.coefficient({"z": 0}) == 7

    def test_equality_across_var_sets(self):
        a = MultiSeries(("x",), {"x": (0, 4)}, {(2,): 1})
        b = MultiSeries(("x", "y"), {"x": (0, 4), "y": (0, None)}, {(2, 0): 1})
        assert a == b


class TestIotaExpand:
    def test_binomial_expand_against_cross_multiplication(self):
        # (z - w)^(m+1) * expansion == 1 on the window
        for m in range(3):
            exp = binomial_expand(m, "z", "w", -9)
            zw = MultiSeries(("w", "z"), {"z": (0, None), "w": (0, None)},
                             {(0, 1): 1, (1, 0): -1})
            prod = exp
            for _ in range(m + 1):
                prod = zw * prod
            one = MultiSeries.constant(1)
            assert prod.agrees_with(one)

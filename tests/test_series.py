"""Series substrate tests: windows, ring laws, printing."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from voasurf import sewing
from voasurf.reduction import _add_shifted, _expand_geometric
from voasurf.series import (MultiSeries, TruncatedSeries, _merge,
                            binomial_expand, rat)

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
def multiseries(draw, max_terms=5):
    """A series over a few of the variables in VARS, each with a
    window whose lo may be negative and whose hi may be None; possibly
    empty or one-term."""
    variables = sorted(draw(st.sets(st.sampled_from(VARS), max_size=3)))
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


# -- the product's shortcuts against its generic loop ------------------------


def generic_mul(self, other, caps=None):
    """``MultiSeries.__mul__`` without its shortcuts: every scalar
    multiplies, and every left term filters b at every capped
    variable and multiplies each coefficient."""
    if not isinstance(other, MultiSeries):
        s = rat(other)
        out = MultiSeries(self.vars, self.window)
        if s != 0:
            out.c = {k: v * s for k, v in self.c.items()}
        return out
    caps = caps or {}
    allvars = tuple(sorted(set(self.vars) | set(other.vars) | set(caps)))
    a, b = self.extended_to(allvars), other.extended_to(allvars)
    window = {}
    for v in allvars:
        (la, ha), (lb, hb) = a.window[v], b.window[v]
        hi = _min_hi(None if ha is None else ha + lb,
                     None if hb is None else hb + la)
        window[v] = (la + lb, _min_hi(hi, caps.get(v)))
    out = MultiSeries(allvars, window)
    if any(lo > hi for lo, hi in window.values() if hi is not None):
        return out
    his = [(i, window[v][1]) for i, v in enumerate(allvars)
           if window[v][1] is not None]
    if len(a.c) > len(b.c):
        a, b = b, a
    for k1, v1 in a.c.items():
        room = [(i, h - k1[i]) for i, h in his]
        terms = {tuple(map(add, k1, k2)): v1 * v2 for k2, v2 in b.c.items()
                 if all(k2[i] <= r for i, r in room)}
        out.c = _merge(out.c, terms) if out.c else terms
    return out


# int +-1, other ints, integral Fractions (which arithmetic still makes)
# and proper fractions
typed = st.one_of(st.sampled_from([1, -1, 1, -1, 2, -3]),
                  st.integers(-3, 3).filter(bool).map(Fraction),
                  st.sampled_from([Fraction(1), Fraction(-1)]),
                  rational.filter(bool))


@st.composite
def typed_series(draw, max_terms=4):
    """A ``multiseries`` whose coefficients keep the type drawn, an
    integral Fraction included: possibly empty or one-term."""
    ms = draw(multiseries(max_terms=max_terms))
    ms.c = {k: draw(typed) for k in ms.c}
    return ms


def exact(ms):
    return ms.vars, ms.window, {k: (type(c), c) for k, c in ms.c.items()}


class TestProductShortcuts:
    @given(typed_series(), typed_series(), caps_strategy)
    @settings(max_examples=300)
    def test_products(self, a, b, caps):
        assert exact(a.__mul__(b, caps)) == exact(generic_mul(a, b, caps))

    @given(typed_series(max_terms=1), typed_series(), st.integers(-2, 2))
    @settings(max_examples=200)
    def test_one_term_factors_with_caps_that_cut(self, a, b, delta):
        natural = (a * b).window
        caps = {v: hi + delta for v, (lo, hi) in natural.items()
                if hi is not None}
        for x, y in ((a, b), (b, a)):
            assert exact(x.__mul__(y, caps)) == exact(generic_mul(x, y, caps))

    @given(typed_series(), st.one_of(
        typed, st.sampled_from([0, Fraction(0), Fraction(2, 2)])))
    def test_scalars(self, a, s):
        assert exact(a * s) == exact(generic_mul(a, s))
        assert exact(s * a) == exact(generic_mul(a, s))

    def test_cases_reach_every_shortcut(self):
        one = MultiSeries.monomial({"x": 1})
        minus = MultiSeries.monomial({"x": 0}, -1)
        b = MultiSeries(("x",), {"x": (0, 4)},
                        {(0,): Fraction(1, 2), (3,): 2})
        b.c[(4,)] = Fraction(3)
        empty = MultiSeries(("x",), {"x": (0, None)})
        for x, y, caps in ((one, b, None), (minus, b, None),
                           (one, b, {"x": 3}), (empty, b, None),
                           (b, empty, {"x": 2})):
            assert exact(x.__mul__(y, caps)) == exact(generic_mul(x, y, caps))
        assert type((minus * b).c[(4,)]) is Fraction
        for s in (1, -1, Fraction(-1), Fraction(1, 1)):
            assert exact(b * s) == exact(generic_mul(b, s))


def geom_inv(d: int, q_order: int) -> MultiSeries:
    """1/(1 - q^{-d}) as a q-series on (0, q_order) with int
    coefficients: the factor that the genus-1 recursion expands in
    place for a commutator term at q_z-exponent d."""
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


# A recursion node value: a dict over exponent tuples in one variable
# order, q first, with q in 0..Q and no window; x and y stand for q_z
# variables, and a variable outside the node's row has exponent 0.
NODE_VARS = ("q", "x", "y")
NODE_POS = {v: i for i, v in enumerate(NODE_VARS)}
Q = 5


@st.composite
def node_dict(draw, pool=("x", "y")):
    """A node value whose x and y exponents vary only for the
    variables in ``pool``; it stores no zero, as no node does."""
    keys = st.tuples(st.integers(0, Q), *(
        st.integers(-3, 3) if v in pool else st.just(0)
        for v in NODE_VARS[1:]))
    coeffs = st.one_of(st.integers(-9, 9), rational).filter(bool)
    return draw(st.dictionaries(keys, coeffs, max_size=5))


shifts_strategy = st.dictionaries(st.sampled_from(("x", "y")),
                                  st.integers(-3, 3), max_size=2)
scale_strategy = st.one_of(st.integers(-3, 3), rational)
term_strategy = st.tuples(node_dict(), shifts_strategy, scale_strategy)
geometric_term_strategy = st.tuples(node_dict(), shifts_strategy,
                                    scale_strategy,
                                    st.integers(-3, 3).filter(bool))


def node_series(sib: dict, q_order=Q) -> MultiSeries:
    """A node value as a series with q on (0, q_order) and open x and y
    horizons, which cut nothing; its coefficients keep their types."""
    out = MultiSeries(NODE_VARS, {"q": (0, q_order), "x": (-9, None),
                                  "y": (-9, None)})
    out.c = dict(sib)
    return out


def node_sum(terms, q_order=Q) -> dict:
    """The node sum of (node dict, {var: shift}, scale[, d]) terms as a
    recursion node forms it: plain terms straight into the node, the
    terms of each d into one group, which is expanded by
    1/(1 - q^{-d}) afterwards; then the zeros dropped.  The siblings,
    memoized in a recursion, must come out unchanged."""
    siblings = [dict(sib) for sib, *_ in terms]
    acc, by_d = {}, {}
    for sib, shifts, scale, *d in terms:
        into = by_d.setdefault(d[0], {}) if d else acc
        _add_shifted(into, sib, NODE_POS, [(shifts, scale)])
    _expand_geometric(acc, by_d, q_order)
    assert [sib for sib, *_ in terms] == siblings
    return {k: c for k, c in acc.items() if c}


def folded(terms, q_order=Q) -> dict:
    """The same sum by ``fold_shifted`` over the node series, keyed in
    the node variable order."""
    out = fold_shifted([(node_series(sib, q_order), shifts, scale,
                         *[(e, q_order) for e in d])
                        for sib, shifts, scale, *d in terms])
    pos = [out.vars.index(v) if v in out.vars else None for v in NODE_VARS]
    return {tuple(0 if i is None else key[i] for i in pos): c
            for key, c in out.c.items()}


# siblings of a geometric term, by their q support: none (q^0 only),
# from 0, up to the horizon, and starting above 0
GEOMETRIC_SIBLINGS = {
    "no_q": {(0, -2, 0): 3, (0, 1, 0): -1},
    "q_exact": {(0, 1, 0): 2, (1, -1, 0): 5},
    "q_horizon": {(0, 0, 0): 1, (2, 0, 0): -2, (5, 0, 0): 7},
    "q_above_0": {(2, 0, 1): 4, (3, 0, 1): -3, (5, 0, 1): 1},
}


class TestSumShiftedAgainstTheFold:
    """The recursion nodes' shifted sum, ``reduction._add_shifted``
    with the geometric expansion ``reduction._expand_geometric``,
    against the fold of series operations, on keys and coefficients."""

    @given(st.lists(term_strategy, max_size=5))
    @settings(max_examples=50)
    def test_terms(self, terms):
        assert node_sum(terms) == folded(terms)

    @given(node_dict(pool=("x",)), node_dict(pool=("y",)), shifts_strategy,
           scale_strategy)
    def test_disjoint_variable_sets(self, a, b, shifts, scale):
        terms = [(a, {}, 1), (b, shifts, scale)]
        assert node_sum(terms) == folded(terms)

    @given(st.lists(term_strategy, max_size=3))
    @settings(max_examples=50)
    def test_empty_series(self, terms):
        for extra in ([], [({}, {}, 1)], [({}, {"y": -2}, 3)],
                      [({}, {"x": 2}, 1, -1)]):
            assert node_sum(terms + extra) == folded(terms + extra)
        assert node_sum([]) == folded([]) == {}
        acc = {}
        _expand_geometric(acc, {}, Q)
        assert acc == {}

    @given(node_dict(), st.lists(st.one_of(term_strategy,
                                           geometric_term_strategy),
                                 max_size=2),
           shifts_strategy, scale_strategy, st.integers(-3, 3))
    @settings(max_examples=50)
    def test_terms_that_cancel(self, a, others, shifts, scale, d):
        geom = (d,) if d else ()
        terms = [(a, shifts, scale, *geom)] + others + [
            (a, shifts, -scale, *geom)]
        got = node_sum(terms)
        assert got == folded(terms)
        if not others:
            assert got == {}

    def test_term_above_another_horizon(self):
        # a term at the q horizon expands to itself (d < 0) or to
        # nothing (d > 0): no expansion passes q_order
        for d in (-3, -1, 1, 2):
            for q_order in (0, 1, 5):
                top = {(q_order, 1, 0): 2, (0, 0, -1): 1}
                terms = [(top, {}, 1, d), (top, {"y": 1}, -1, d)]
                got = node_sum(terms, q_order)
                assert got == folded(terms, q_order)
                assert all(key[0] <= q_order for key in got)
                assert (got.get((q_order, 1, 0)) == 2) == (d < 0)

    def test_int_coefficients_stay_ints(self):
        sib = {(0, 0, 0): 2, (2, 0, 0): 5}
        got = node_sum([(sib, {"x": 1, "y": -1}, 3), (sib, {}, -1),
                        (sib, {"x": 1}, 2, -2), (sib, {"x": 1}, 1, -2)],
                       3)
        # the group d = -2 is 3 * sib at x^1, times 1 + q^2 up to q^3
        assert got == {(0, 1, -1): 6, (2, 1, -1): 15, (0, 0, 0): -2,
                       (2, 0, 0): -5, (0, 1, 0): 6, (2, 1, 0): 21}
        assert all(type(c) is int for c in got.values())

    @given(st.lists(st.one_of(term_strategy, geometric_term_strategy),
                    max_size=4))
    @settings(max_examples=80)
    def test_geometric_terms(self, terms):
        assert node_sum(terms) == folded(terms)

    @pytest.mark.parametrize("sibling", sorted(GEOMETRIC_SIBLINGS))
    @pytest.mark.parametrize("q_order", [0, 1, 5])
    @pytest.mark.parametrize("d", [-3, -1, 1, 2])
    def test_geometric_term_equals_the_product(self, d, q_order, sibling):
        def below(node):  # a node keeps no term above its q horizon
            return {k: c for k, c in node.items() if k[0] <= q_order}

        sib = below(GEOMETRIC_SIBLINGS[sibling])
        other = below({(1, 0, 0): 1, (0, 0, 1): -4})
        for terms in ([(sib, {}, 1, d)],
                      [(sib, {"x": d, "y": -d}, 3, d), (other, {"y": 1}, -2),
                       (other, {"x": 1}, 1, d)],
                      [(sib, {"x": 1}, -1, d), (sib, {}, 2, -d)]):
            got = node_sum(terms, q_order)
            assert got == folded(terms, q_order)
            assert all(type(c) is int for c in got.values())
        # one unscaled term holds the product's coefficients and types
        got = node_sum([(sib, {}, 1, d)], q_order)
        want = (node_series(sib, q_order) * geom_inv(d, q_order)).c
        assert {k: (type(c), c) for k, c in got.items()} == \
            {k: (type(c), c) for k, c in want.items()}


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

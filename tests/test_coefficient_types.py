"""One rule for the type of every coefficient: ``series.rat``.

An int, or an integral Fraction or string, comes out as an int; a
non-integral rational as a Fraction; a bool as its int; a float is
refused.  ``MultiSeries`` and ``GradedVector`` store their coefficients
through it, and take a scalar operand through it.  The registry below
runs each public producer of coefficients once on small inputs: none
hands out a float or a bool, and on integral inputs at genus 0 and 1
every coefficient is an int.
"""

from fractions import Fraction

import pytest

from voasurf.elliptic import eisenstein, weierstrass_p
from voasurf.genus2 import (
    SewingModuli,
    gen_weierstrass,
    genus2_reduce,
    z2_partition,
)
from voasurf.reduction import (
    Insertion,
    ReductionDirection,
    genus0_direct,
    genus0_reduce,
    genus1_direct,
    genus1_reduce,
)
from voasurf.schottky import (
    SchottkyData,
    genus_g_npoint,
    genus_g_partition,
    genus_g_reduce,
    psi_full,
)
from voasurf.series import MultiSeries, rat
from voasurf.voa import (
    GradedVector,
    conformal_vector,
    conformal_vector_tilde,
    generator,
    parse_state,
    vacuum,
    vertex_mode,
)


def canonical(c) -> bool:
    """Whether c has the form ``rat`` gives it: an int when it is
    integral, else a Fraction with a denominator above 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


class TestRat:
    @pytest.mark.parametrize("x, want", [
        (3, 3), (-2, -2), (Fraction(4, 2), 2), ("6/3", 2), ("-5", -5),
        (True, 1), (False, 0)])
    def test_integral_values_come_out_as_ints(self, x, want):
        got = rat(x)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("x", [Fraction(1, 2), "-3/4", "0.5"])
    def test_other_rationals_come_out_as_fractions(self, x):
        got = rat(x)
        assert type(got) is Fraction and got == Fraction(x)
        assert got.denominator > 1

    @pytest.mark.parametrize("x", [0.5, 1.0, None, 1j])
    def test_floats_and_other_types_are_refused(self, x):
        with pytest.raises(TypeError):
            rat(x)

    def test_a_bool_never_prints_as_true(self):
        assert str(MultiSeries.constant(True)) == "1"
        assert str(GradedVector({(1,): True})) == "GradedVector(a[-1]|1)"


class TestGradedVectorCoercion:
    def test_float_coefficient_is_refused(self):
        with pytest.raises(TypeError):
            GradedVector({(1,): 0.1})

    def test_float_scalar_is_refused(self):
        with pytest.raises(TypeError):
            generator() * 0.5
        with pytest.raises(TypeError):
            0.5 * generator()

    def test_coefficients_are_canonical_at_construction(self):
        v = GradedVector([((1,), Fraction(1, 2)), ((1,), Fraction(1, 2)),
                          ((2,), "4/2"), ((1, 1), Fraction(2, 3))])
        assert v.t == {(1,): 1, (2,): 2, (1, 1): Fraction(2, 3)}
        assert all(canonical(c) for c in v.t.values())
        assert all(canonical(c) for c in (v * Fraction(3, 2)).t.values())


class TestMultiSeriesCoercion:
    """A non-series operand of +, - and * goes through ``rat``, as a
    constructor coefficient does."""

    @pytest.mark.parametrize("op", [
        lambda s: s * 0.5, lambda s: 0.5 * s, lambda s: s + 0.5,
        lambda s: 0.5 + s, lambda s: s - 0.5, lambda s: 0.5 - s],
        ids=["mul", "rmul", "add", "radd", "sub", "rsub"])
    def test_float_operand_is_refused(self, op):
        with pytest.raises(TypeError, match="not an exact rational"):
            op(MultiSeries.constant(1))

    def test_exact_operands_are_canonical(self):
        one = MultiSeries.constant(1)
        assert (one * Fraction(4, 2)).c == {(): 2}
        assert (one + "1/2").c == {(): Fraction(3, 2)}
        assert (Fraction(1, 2) - one).c == {(): Fraction(-1, 2)}
        assert all(canonical(c) for c in (one * True + 1).c.values())


def _step(state, point):
    return ReductionDirection(Insertion(state, point))


_A = generator()
_A2 = parse_state("a[-2]|1")
# integral states at four points, outermost first
_ROW = ((_A, "z1"), (_A2, "z2"), (_A, "z3"), (_A2, "z4"))
_INS = tuple(Insertion(s, p) for s, p in _ROW)
_MODULI = SewingModuli(6, 6, 2, 4)
_DATA = SchottkyData(2, (3, 1, -2, 6), 2, 4)


def _reduced(genus):
    if genus == 0:
        F = genus0_direct((), vacuum(), vacuum(), (-4, 4))
        step = genus0_reduce
    else:
        F = genus1_direct((), 4, (-3, 3))
        step = genus1_reduce
    for state, point in reversed(_ROW):
        F = step(_step(state, point), F)
    return F.value


# the integral producers at genus 0 and 1: every coefficient an int
INTEGRAL = {
    "genus0_reduce": lambda: _reduced(0).c.values(),
    "genus1_reduce": lambda: _reduced(1).c.values(),
    "genus0_direct": lambda: genus0_direct(
        _INS, vacuum(), vacuum(), (-4, 4)).value.c.values(),
    "genus1_direct": lambda: genus1_direct(_INS, 4, (-3, 3)).value.c.values(),
    "vertex_mode": lambda: [c for k in range(-3, 3)
                            for c in vertex_mode(_A2, k, _A).t.values()],
}

# every producer, on rational data where it has any
PRODUCERS = {
    **INTEGRAL,
    "weierstrass_p": lambda: weierstrass_p(2, 4, 3).c.values(),
    "eisenstein": lambda: eisenstein(4, 5).c.values(),
    "z2_partition": lambda: z2_partition(_MODULI).c.values(),
    "gen_weierstrass": lambda: gen_weierstrass(
        1, 0, 1, 2, _MODULI).c.values(),
    "genus2_reduce": lambda: genus2_reduce(
        Insertion(conformal_vector_tilde(), "x"), z2_partition(_MODULI),
        _MODULI).value.c.values(),
    "psi_full": lambda: psi_full(1, _DATA).c.values(),
    "genus_g_npoint": lambda: genus_g_npoint(
        [(_A, 5), (_A, 7)], _DATA).value.c.values(),
    "genus_g_partition": lambda: genus_g_partition(_DATA, 2).c.values(),
    "genus_g_reduce": lambda: genus_g_reduce(
        (_A, 5), genus_g_npoint([(_A, 7)], _DATA), _DATA).value.c.values(),
    "vertex_mode with a half": lambda: [
        c for k in range(-3, 3)
        for c in vertex_mode(conformal_vector(), k, _A2).t.values()],
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_no_coefficient_is_a_float_or_a_bool(name):
    coeffs = list(PRODUCERS[name]())
    assert coeffs, name
    assert all(type(c) in (int, Fraction) for c in coeffs), name


@pytest.mark.parametrize("name", sorted(INTEGRAL))
def test_integral_inputs_give_int_coefficients(name):
    coeffs = list(INTEGRAL[name]())
    assert coeffs, name
    assert all(type(c) is int for c in coeffs), name

"""Heisenberg VOA tests: modes, axioms, square brackets, the form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voasurf.voa import (
    A,
    VACUUM,
    GradedVector,
    _norm,
    basis,
    bilinear_form,
    bilinear_form_sq,
    conformal_vector,
    conformal_vector_tilde,
    dual_basis,
    generator,
    heisenberg_mode,
    jacobi_check,
    parse_state,
    render_state,
    square_bracket_mode,
    square_fock,
    to_square_coords,
    vacuum,
    vertex_mode,
    virasoro,
    weight,
    zero_mode,
)

partitions = st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                      max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))
states = partitions.map(GradedVector.basis_state)


class TestHeisenbergModes:
    def test_creation(self):
        v = heisenberg_mode(-2, generator())
        assert v == GradedVector.basis_state((2, 1))

    def test_annihilation_counts_multiplicity(self):
        v = heisenberg_mode(1, GradedVector.basis_state((3, 1, 1)))
        assert v == 2 * GradedVector.basis_state((3, 1))

    def test_zero_mode_of_generator_vanishes(self):
        assert heisenberg_mode(0, GradedVector.basis_state((2, 1))).is_zero()

    @given(partitions, st.integers(min_value=-4, max_value=4),
           st.integers(min_value=-4, max_value=4))
    @settings(max_examples=60)
    def test_commutator(self, state, m, n):
        v = GradedVector.basis_state(state)
        lhs = heisenberg_mode(m, heisenberg_mode(n, v)) - \
            heisenberg_mode(n, heisenberg_mode(m, v))
        expected = m * v if (m + n == 0 and m != 0) else GradedVector()
        assert lhs == expected


class TestGrading:
    def test_graded_dimensions(self):
        assert [len(basis(m)) for m in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    @given(states, states, st.integers(min_value=-3, max_value=5))
    @settings(max_examples=60)
    def test_mode_weight_shift(self, u, v, n):
        out = vertex_mode(u, n, v)
        us, vs = next(iter(u.t)), next(iter(v.t))
        expected = weight(us) + weight(vs) - n - 1
        for s in out.t:
            assert weight(s) == expected

    @given(states, states)
    @settings(max_examples=40)
    def test_lower_truncation(self, u, v):
        us, vs = next(iter(u.t)), next(iter(v.t))
        n = weight(us) + weight(vs)
        assert vertex_mode(u, n, v).is_zero()
        assert vertex_mode(u, n + 3, v).is_zero()

    @given(states)
    def test_creativity(self, u):
        assert vertex_mode(u, -1, vacuum()) == u
        assert vertex_mode(u, 0, vacuum()).is_zero()
        assert vertex_mode(u, 2, vacuum()).is_zero()


class TestVirasoro:
    def test_l0_is_weight(self):
        for m in range(5):
            for s in basis(m):
                assert virasoro(0, GradedVector.basis_state(s)) == \
                    m * GradedVector.basis_state(s)

    def test_translation(self):
        assert virasoro(-1, generator()) == GradedVector.basis_state((2,))

    def test_central_charge(self):
        # [L(2), L(-2)] |1> = (c/2)|1> with c = 1
        w = conformal_vector()
        lhs = virasoro(2, w)
        assert lhs == Fraction(1, 2) * vacuum()

    def test_omega_quasiprimary(self):
        assert virasoro(1, conformal_vector()).is_zero()

    def test_zero_mode_preserves_weight(self):
        v = parse_state("a[-2]a[-1]|1")
        out = zero_mode(conformal_vector(), v)
        assert out == 3 * v

    def test_translation_derivative_property(self):
        # (L(-1)v)(n) = -n v(n-1)
        v = parse_state("a[-2]|1")
        lv = virasoro(-1, v)
        t = GradedVector.basis_state((2, 2, 1))
        for n in range(-3, 4):
            assert vertex_mode(lv, n, t) == -n * vertex_mode(v, n - 1, t)


class TestJacobi:
    def test_generator_pair(self):
        assert jacobi_check(generator(), generator(),
                            GradedVector.basis_state((2, 1)), (-2, 3, -2, 3))

    def test_omega_generator(self):
        assert jacobi_check(conformal_vector(), generator(),
                            GradedVector.basis_state((3, 1)), (-1, 3, -1, 3))

    def test_omega_omega(self):
        assert jacobi_check(conformal_vector(), conformal_vector(),
                            GradedVector.basis_state((2,)), (-1, 4, -1, 4))


class TestSquareBrackets:
    def test_a_bracket_minus_one_on_vacuum(self):
        assert square_bracket_mode(generator(), -1, vacuum()) == generator()

    def test_a_bracket_nonnegative_kills_vacuum(self):
        for m in range(0, 3):
            assert square_bracket_mode(generator(), m, vacuum()).is_zero()

    def test_cylinder_conformal_vector(self):
        # (1/2) a[-1]^2 |1> = omega - (c/24)|1>, exactly
        lhs = Fraction(1, 2) * square_fock((1, 1))
        assert lhs == conformal_vector_tilde()

    def test_square_l0_eigenvalue(self):
        # L[0] = omegatilde[1] acting on square Fock states
        wt = conformal_vector_tilde()
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            sf = square_fock(lam)
            assert square_bracket_mode(wt, 1, sf) == weight(lam) * sf

    def test_positive_m_binomial_formula(self):
        # v[m] = m! sum_i c(wt,i,m) v(i) with sum_m c(wt,i,m) x^m = C(wt-1+x, i)
        from math import factorial

        def poly_coeff(wt, i, m):
            # coefficient of x^m in prod_{t=0..i-1} (wt-1+x-t) / i!
            coeffs = [Fraction(1)]
            for t in range(i):
                const = Fraction(wt - 1 - t)
                nxt = [Fraction(0)] * (len(coeffs) + 1)
                for d, c in enumerate(coeffs):
                    nxt[d] += c * const
                    nxt[d + 1] += c
                coeffs = nxt
            if m >= len(coeffs):
                return Fraction(0)
            return coeffs[m] / factorial(i)

        states = [s for w in range(1, 4) for s in basis(w)]
        for vs in states:
            v = GradedVector.basis_state(vs)
            wt = weight(vs)
            for ts in states:
                target = GradedVector.basis_state(ts)
                # both sides vanish from m = wt v + wt target on
                for m in range(0, wt + weight(ts) + 1):
                    direct = square_bracket_mode(v, m, target)
                    expanded = GradedVector()
                    for i in range(m, wt + weight(ts)):
                        c = poly_coeff(wt, i, m)
                        if c:
                            expanded = expanded + factorial(m) * c * vertex_mode(v, i, target)
                    assert direct == expanded, (vs, ts, m)

    def test_square_coords_round_trip(self):
        v = parse_state("a[-3]|1 + 2*a[-2]a[-1]|1 - 1/3*a[-1]|1")
        coords = to_square_coords(v)
        rebuilt = GradedVector()
        for lam, c in coords.items():
            rebuilt = rebuilt + c * square_fock(lam)
        assert rebuilt == v

    @pytest.mark.parametrize("v", [
        "a", "omega", "omegatilde", "a[-2]|1", "a[-2]a[-1]^2|1",
        "a[-3]|1 + 1/2*a[-2]a[-1]|1 - 2*a[-1]|1 + 3*|1"])
    def test_square_modes_are_round_modes_of_square_coordinates(self, v):
        # a[-l1]...1 -> a(-l1)...1 carries v[n] to V(n), with V the
        # square-bracket coordinates of v read as a round state
        v = parse_state(v)
        V = GradedVector(to_square_coords(v))
        for lam in (s for r in range(5) for s in basis(r)):
            for n in range(-3, 7):
                got = square_bracket_mode(v, n, square_fock(lam))
                assert GradedVector(to_square_coords(got)) == vertex_mode(
                    V, n, GradedVector.basis_state(lam)), (lam, n)


def defining_form(state, y, alpha):
    """<state, y> from the definition: move each a(-k) of ``state`` to
    the right as its adjoint -alpha^(-k) a(k), pairing vacua at the end."""
    if state == VACUUM:
        return y.coefficient(VACUUM)
    k, rest = state[0], state[1:]
    return -(alpha ** -k) * defining_form(rest, heisenberg_mode(k, y), alpha)


class TestBilinearForm:
    def test_generator_norm(self):
        assert bilinear_form(generator(), generator()) == -1
        assert bilinear_form(generator(), generator(), alpha=3) == Fraction(-1, 3)

    def test_weight_two_gram(self):
        vecs = [GradedVector.basis_state(s) for s in basis(2)]
        gram = [[bilinear_form(u, v, alpha=2) for v in vecs] for u in vecs]
        # basis order: (2,), (1,1)
        assert gram == [[Fraction(-2, 4), 0], [0, Fraction(2, 4)]]

    @pytest.mark.parametrize("alpha", [1, 2, Fraction(1, 3), -1],
                             ids=["1", "2", "1_3", "-1"])
    def test_norms_match_definition(self, alpha):
        """Both Fock bases are orthogonal with the closed-form norms that
        ``bilinear_form`` sums: the round Gram matrix built from the
        adjoint a(k)^+ = -alpha^k a(-k), and the square pairing of the
        square-bracket states, agree with it entry by entry."""
        alpha = Fraction(alpha)
        for m in range(6):
            states = basis(m)
            rounds = [GradedVector.basis_state(s) for s in states]
            squares = [square_fock(s) for s in states]
            for i, s in enumerate(states):
                for j in range(len(states)):
                    entry = bilinear_form(rounds[i], rounds[j], alpha)
                    assert entry == defining_form(s, rounds[j], alpha)
                    assert (entry != 0) == (i == j)
                    assert bilinear_form_sq(squares[i], squares[j], alpha) == entry

    @given(states, states)
    @settings(max_examples=40)
    def test_symmetric(self, x, y):
        assert bilinear_form(x, y) == bilinear_form(y, x)

    def test_weight_mismatch_pairs_to_zero(self):
        assert bilinear_form(generator(), GradedVector.basis_state((2,))) == 0

    def test_invariance_quasiprimary(self):
        # <u(n)x, y> = <x, u_adj(n) y> with
        # u_adj(n) = (-1)^wt(u) alpha^(n+1-wt u) u(2 wt u - n - 2)
        alpha = Fraction(5, 3)
        for u, wt_u in [(generator(), 1), (conformal_vector(), 2)]:
            for x_state in basis(3):
                for y_state in basis(3 + wt_u - 2):  # pick n = 1
                    n = 1
                    x = GradedVector.basis_state(x_state)
                    y = GradedVector.basis_state(y_state)
                    lhs = bilinear_form(vertex_mode(u, n, x), y, alpha)
                    rhs = (-1) ** wt_u * alpha ** (n + 1 - wt_u) * bilinear_form(
                        x, vertex_mode(u, 2 * wt_u - n - 2, y), alpha)
                    assert lhs == rhs

    def test_dual_basis_pairing(self):
        for m in range(1, 5):
            pairs = dual_basis(m)
            for i, (_, dual_i) in enumerate(pairs):
                for j, (vec_j, _) in enumerate(pairs):
                    assert bilinear_form(dual_i, vec_j) == (1 if i == j else 0)

    def test_square_dual_basis_pairing(self):
        for m in range(1, 4):
            pairs = [(square_fock(s), square_fock(s) * Fraction(1, _norm(s)))
                     for s in basis(m)]
            for i, (_, dual_i) in enumerate(pairs):
                for j, (vec_j, _) in enumerate(pairs):
                    assert bilinear_form_sq(dual_i, vec_j) == (1 if i == j else 0)


class TestParsing:
    def test_parse_basic(self):
        v = parse_state("a[-2]a[-1]^2|1")
        assert v == GradedVector.basis_state((2, 1, 1))

    def test_parse_sum_with_prefactors(self):
        v = parse_state("3/2*a[-3]|1 - 1/2*|1 + a[-1]|1")
        assert v.coefficient((3,)) == Fraction(3, 2)
        assert v.coefficient(VACUUM) == Fraction(-1, 2)
        assert v.coefficient(A) == 1

    def test_shorthands(self):
        assert parse_state("omega") == conformal_vector()
        assert parse_state("omegatilde") == conformal_vector_tilde()
        assert parse_state("vac") == vacuum()

    @given(st.dictionaries(partitions,
                           st.fractions(min_value=-9, max_value=9, max_denominator=7),
                           min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_round_trip(self, terms):
        v = GradedVector(terms)
        if v.is_zero():
            return
        assert parse_state(render_state(v)) == v

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_state("b[-1]|1")

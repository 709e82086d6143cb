"""End-to-end verification grid.

One test per shipped guarantee, each a full sweep rather than a spot
check: the reduction recursions against brute-force oracles at genus 0
and 1, the axiom suite on the Fock space, the elliptic layer against
definitional formulas and long division, the two sewing constructions
(epsilon and Schottky) against their factorization and degeneration
limits, the cohomological identities, and byte-stability of the CLI
golden files.  Everything is exact rational arithmetic; there are no
numeric tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per guarantee.
"""

import os
import random
import time
from fractions import Fraction
from itertools import product
from math import comb

from voasurf.cli import GOLDEN_CASES, capture_output, golden_name
from voasurf.cohomology import (ClusterSetting, euler_poincare,
                                involution_check, make_seed)
from voasurf.elliptic import eisenstein, weierstrass_p, weierstrass_p_qz
from voasurf.genus2 import (KernelMatrix, SewingModuli, gen_weierstrass,
                            kernel_add, kernel_identity, kernel_mul,
                            lambda_tilde, neumann_inverse, z2_partition)
from voasurf.linalg import inverse as mat_inverse
from voasurf.reduction import (Insertion, ReductionDirection,
                               cocycle_residual, genus0_direct,
                               genus1_direct, unwind_to_partition)
from voasurf.schottky import (SchottkyData, genus_g_npoint, genus_g_reduce,
                              handle_indices, handle_mul, psi0, psi_full,
                              schottky_R, shifted_columns)
from voasurf.schottky import neumann_inverse as handle_neumann
from voasurf.series import MultiSeries, binomial_expand
from voasurf.sewing import add as handle_add, identity
from voasurf.voa import (GradedVector, _norm, basis, bilinear_form,
                         conformal_vector, generator, jacobi_check,
                         square_fock, vacuum, vertex_mode, weight)

from test_genus2 import onepoint

F = Fraction
A = generator()
OMEGA = conformal_vector()
ZERO = MultiSeries.constant(0)  # an absent matrix entry
PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11]

_SINGLES = [GradedVector.basis_state(s) for w in range(7) for s in basis(w)]


def _weight(v):
    return weight(next(iter(v.t)))


def _tuples(nmax=3, wmax=6):
    for n in range(1, nmax + 1):
        for combo in product(_SINGLES, repeat=n):
            if sum(_weight(v) for v in combo) <= wmax:
                yield combo


def _nonzero(ms):
    return {k: v for k, v in ms.c.items() if v}


def _same_series(a, b):
    u = a.extended_to(b.vars)
    v = b.extended_to(a.vars)
    return u.vars == v.vars and _nonzero(u) == _nonzero(v)


def test_1_genus0_reduction_equals_direct_oracle():
    """Iterated one-step reduction reproduces the brute-force mode
    expansion for every homogeneous insertion tuple with n <= 3 and
    total weight <= 6, with exact coefficient equality."""
    window, started, cases = (-6, 6), time.time(), 0
    for combo in _tuples():
        ins = tuple(Insertion(v, f"z{i + 1}")
                    for i, v in enumerate(combo))
        direct = genus0_direct(ins, vacuum(), vacuum(), window)
        reduced = unwind_to_partition(
            tuple(ReductionDirection(i) for i in reversed(ins)), 0,
            window=window)
        assert _same_series(reduced.value, direct.value), ins
        cases += 1
    elapsed = time.time() - started
    assert cases >= 200, cases
    assert elapsed < 60, elapsed


def test_2_genus1_reduction_equals_direct_oracle():
    """Same sweep on the torus at q-order 8, every (q, z)-coefficient
    exactly equal, plus the closed form F(a, a) = P_2 * Z."""
    q_order, wnd = 8, 4
    for combo in _tuples():
        ins = tuple(Insertion(v, f"z{i + 1}")
                    for i, v in enumerate(combo))
        direct = genus1_direct(ins, q_order, (-wnd, wnd))
        reduced = unwind_to_partition(
            tuple(ReductionDirection(i) for i in reversed(ins)), 1,
            window=(-wnd, wnd), q_order=q_order)
        assert _same_series(reduced.value, direct.value), ins

    QO, W = 8, 3
    F2 = genus1_direct([Insertion(A, "w"), Insertion(A, "y")], QO,
                       (-W, W))
    p2 = weierstrass_p_qz(2, (-W, W), QO)
    qi, zi = p2.vars.index("q"), p2.vars.index("qz")
    coeffs = {}
    for key, c in p2.c.items():
        coeffs[(key[qi], -key[zi], key[zi])] = c  # vars (q, q_w, q_y)
    expected = MultiSeries(("q", "q_w", "q_y"),
                           {"q": (0, QO), "q_w": (-W, W), "q_y": (-W, W)},
                           coeffs)
    expected = expected * genus1_direct((), QO, (-8, 8)).value.extended_to(
        ("q", "q_w", "q_y"))
    assert F2.value.agrees_with(expected)
    assert F2.value.coefficient({"q": 1, "q_w": -1, "q_y": 1}) != 0


def test_3_graded_dimension_counts_partitions():
    Z = genus1_direct((), 6, (-8, 8))
    assert Z.q_shift == F(-1, 24)
    for m in range(7):
        assert Z.value.coefficient({"q": m}) == PARTITION_NUMBERS[m]
    assert [len(basis(m)) for m in range(7)] == PARTITION_NUMBERS


def test_4_voa_axiom_suite():
    """Grading, lower truncation and creativity on all basis state
    pairs of weight <= 6 each; the mode commutator on every basis
    triple of total weight <= 6; form invariance on weight <= 4."""
    for u in _SINGLES:
        assert vertex_mode(u, -1, vacuum()) == u
        for n in (0, 1, 4):
            assert vertex_mode(u, n, vacuum()).is_zero()
    for u in _SINGLES:
        for v in _SINGLES:
            wu, wv = _weight(u), _weight(v)
            for n in range(-2, 4):
                for s in vertex_mode(u, n, v).t:
                    assert weight(s) == wu + wv - n - 1
            assert vertex_mode(u, wu + wv, v).is_zero()
            assert vertex_mode(u, wu + wv + 3, v).is_zero()

    for combo in _tuples(nmax=3, wmax=6):
        if len(combo) == 3:
            u, v, w = combo
            assert jacobi_check(u, v, w, (-2, 3, -2, 3)), combo

    for u, wt_u in ((A, 1), (OMEGA, 2)):
        for mx in range(5):
            for x_state in basis(mx):
                x = GradedVector.basis_state(x_state)
                for n in range(-2, 4):
                    my = wt_u + mx - n - 1
                    if my < 0 or my > 6:
                        continue
                    for y_state in basis(my):
                        y = GradedVector.basis_state(y_state)
                        lhs = bilinear_form(vertex_mode(u, n, x), y)
                        rhs = (-1) ** wt_u * bilinear_form(
                            x, vertex_mode(u, 2 * wt_u - n - 2, y))
                        assert lhs == rhs, (u, n, x_state, y_state)


def _bernoulli(k):
    row = [F(1)]
    for m in range(1, k + 1):
        row.append(F(-1, m + 1) * sum(comb(m + 1, j) * row[j]
                                      for j in range(m)))
    return row[k]


def _sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def _z_derivative(ms):
    i = ms.vars.index("z")
    lo, hi = ms.window["z"]
    out = MultiSeries(ms.vars, {**ms.window,
                                "z": (lo - 1, None if hi is None
                                      else hi - 1)})
    for key, val in ms.c.items():
        if key[i]:
            out.c[key[:i] + (key[i] - 1,) + key[i + 1:]] = val * key[i]
    return out


def _long_division(p, y_degree):
    """Divide 1 by (x - y)^p by classical long division with x the
    leading variable, keeping quotient terms up to the given y
    degree."""
    divisor = {(p - i, i): F((-1) ** i * comb(p, i)) for i in range(p + 1)}
    remainder = {(0, 0): F(1)}
    quotient = {}
    while True:
        live = [k for k, c in remainder.items() if c and k[1] <= y_degree]
        if not live:
            return quotient
        a, b = max(live, key=lambda k: (k[0], -k[1]))
        c = remainder[(a, b)]
        quotient[(a - p, b)] = c
        for (dx, dy), dc in divisor.items():
            key = (a - p + dx, b + dy)
            remainder[key] = remainder.get(key, F(0)) - c * dc


def test_5_elliptic_layer():
    """Eisenstein expansions against the definitional divisor-sum
    formula to order 20, the derivative ladder of the Weierstrass
    kernels, and the rational kernel expansion against long division."""
    for k in (2, 4, 6):
        ts = eisenstein(k, 20)
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        assert ts.c[(0,)] == -_bernoulli(k) / fact
        for n in range(1, 21):
            assert ts.c.get((n,), F(0)) == F(2 * _sigma(k - 1, n) * k, fact)

    for m in range(1, 17):
        lhs = _z_derivative(weierstrass_p(m, 8, 6))
        rhs = weierstrass_p(m + 1, 8, 6) * F(-m)
        lo, hi = lhs.window["z"]
        rhs = rhs.clip("z", lo, hi)
        assert _same_series(lhs, rhs), m

    for p in (1, 2, 3, 4):
        expansion = binomial_expand(p - 1, "x", "y", -(p + 8))
        oracle = _long_division(p, 8)
        got = {k: v for k, v in expansion.c.items() if v and k[1] <= 8}
        want = {k: v for k, v in oracle.items() if v}
        assert got == want, p


def test_6_genus2_sewing():
    """Factorization at eps^0, vanishing at eps^1, basis independence
    of the eps^2 term, the exact Neumann identity at full cutoff, and
    the degeneration of the weight-one kernel."""
    z2 = z2_partition(SewingModuli(6, 6, 4, 8))
    eps0 = z2.coefficient_of("se", 0)
    qi, qj = eps0.vars.index("q1"), eps0.vars.index("q2")
    table = {(k[qi], k[qj]): v for k, v in eps0.c.items() if v}
    for m in range(7):
        for n in range(7):
            want = PARTITION_NUMBERS[m] * PARTITION_NUMBERS[n]
            assert table.pop((m, n)) == want
    assert not table
    assert z2.coefficient_of("se", 2).is_zero()

    mod = SewingModuli(6, 6, 2, 4)
    rng = random.Random(7)

    def rotated(r):
        pairs = [(square_fock(s), square_fock(s) * F(1, _norm(s)))
                 for s in basis(r)]
        if not pairs:
            return pairs
        d = len(pairs)
        lower = [[F(1) if i == j else
                  (F(rng.randint(-3, 3)) if i > j else F(0))
                  for j in range(d)] for i in range(d)]
        upper = [[F(1) if i == j else
                  (F(rng.randint(-3, 3)) if i < j else F(0))
                  for j in range(d)] for i in range(d)]
        T = [[sum(lower[i][k] * upper[k][j] for k in range(d))
              for j in range(d)] for i in range(d)]
        Tinv = mat_inverse(T)
        new = []
        for i in range(d):
            u, dv = GradedVector(), GradedVector()
            for j in range(d):
                u = u + T[i][j] * pairs[j][0]
                dv = dv + Tinv[j][i] * pairs[j][1]
            new.append((u, dv))
        return new

    # the channel sum over the rotated dual pairs, traced by the genus-1
    # oracle, against the library's Hafnian sum
    plain = z2_partition(mod)
    turned = MultiSeries.constant(0).extended_to(("q1", "q2", "se"))
    for r in range(mod.eps_order + 1):
        for u, ubar in rotated(r):
            turned = turned + onepoint(u, mod.tau1_order, "q1") * \
                onepoint(ubar, mod.tau2_order, "q2") * \
                MultiSeries.monomial({"se": 2 * r},
                                     window={"se": (0, mod.se_order)})
    assert _same_series(turned.coefficient_of("se", 4),
                        plain.coefficient_of("se", 4))
    assert _same_series(turned, plain)

    mod48 = SewingModuli(4, 4, 4, 8)
    EV = ("q1", "q2", "se")
    M = kernel_mul(lambda_tilde(2, 2, mod48), lambda_tilde(1, 2, mod48),
                   mod48)
    inv = neumann_inverse(M, mod48)
    minus = KernelMatrix(8, {k: v * F(-1) for k, v in M.entries.items()})
    prod = kernel_mul(kernel_add(kernel_identity(8), minus), inv, mod48)
    residue = kernel_add(prod, KernelMatrix(8, {
        (m, m): MultiSeries.constant(-1).extended_to(EV)
        for m in range(1, 9)}))
    assert residue.is_zero()

    P = gen_weierstrass(1, 0, 1, 1, mod)
    lim = P.coefficient_of("se", 0)
    oracle = _p1_difference_oracle("q1") + weierstrass_p(
        1, 6, 6, zvar="x", qvar="q1").extended_to(("q1", "x", "y")) * F(-1)
    assert lim.agrees_with(oracle.extended_to(lim.vars))
    assert lim.coefficient({"x": -2, "y": 1, "q1": 0, "q2": 0}) == 1


def _p1_difference_oracle(qvar):
    base = weierstrass_p(1, 6, 6, zvar="_z", qvar=qvar)
    zi, qi = base.vars.index("_z"), base.vars.index(qvar)
    out = None
    for key, c in base.c.items():
        qm = MultiSeries.monomial({qvar: key[qi]}, c,
                                  window={qvar: (0, 6)})
        k = key[zi]
        if k < 0:
            piece = binomial_expand(-k - 1, "x", "y", -8) * qm
        else:
            poly = {(k - i, i): F((-1) ** i * comb(k, i))
                    for i in range(k + 1)}
            piece = MultiSeries(("x", "y"),
                                {"x": (0, None), "y": (0, None)},
                                poly) * qm
        out = piece if out is None else out + piece
    return out


def test_7_schottky_layer():
    """Exact Neumann inversion on the handle matrix, the dressed
    kernel collapsing to its seed as the amplitudes vanish, and
    left/right agreement of the recursion with directly summed
    n-point functions at genus 1 and 2."""
    D1 = SchottkyData(1, (3, 1), 2, 4)
    D2 = SchottkyData(2, (3, 1, -2, 6), 2, 4)
    for p, data in ((1, D1), (2, D2)):
        hi = 2 * data.rho_order
        M = shifted_columns(schottky_R(p, data), p)
        neu = handle_neumann(M, hi)
        minus = type(M)(M.indices,
                        {k: v * F(-1) for k, v in M.entries.items()})
        prod = handle_mul(handle_add(identity(handle_indices(data)), minus),
                          neu, hi)
        ident = identity(handle_indices(data))
        for key in set(prod.entries) | set(ident.entries):
            assert prod.entries.get(key, ZERO).agrees_with(
                ident.entries.get(key, ZERO))

    for p, data in ((1, D1), (2, D2)):
        sliced = psi_full(p, data)
        for v in data.sr_vars:
            sliced = sliced.coefficient_of(v, 0)
        assert sliced.agrees_with(
            psi0(p, data.f_choice, {"x": (-6, None), "y": (0, 4)}))

    for data in (D1, D2):
        base1 = genus_g_npoint([(A, F(7))], data)
        lhs = genus_g_npoint([(A, F(5)), (A, F(7))], data)
        rhs = genus_g_reduce((A, F(5)), base1, data)
        assert rhs.value.agrees_with(lhs.value)
        assert not lhs.value.is_zero()

        lhs = genus_g_npoint([(OMEGA, F(5))], data)
        rhs = genus_g_reduce((OMEGA, F(5)), genus_g_npoint((), data), data)
        assert rhs.value.agrees_with(lhs.value)

        lhs = genus_g_npoint([(OMEGA, F(5)), (A, F(7))], data)
        rhs = genus_g_reduce((OMEGA, F(5)), base1, data)
        assert rhs.value.agrees_with(lhs.value)


def test_8_cohomology_identities():
    """The Euler alternating sum closes to zero on every ladder with
    m <= 3 and N <= 3 at both genera, the graded trace is a cocycle in
    the current direction, and the double mutation is the identity on
    at least 50 random seeds."""
    for genus in (0, 1):
        for m in range(4):
            for N in range(4):
                result = euler_poincare(m, N, genus, Insertion(A, "w"),
                                        window=(-3, 3), q_order=3)
                assert result.total == 0, (genus, m, N)

    Z = genus1_direct((), 6, (-6, 6))
    assert cocycle_residual(ReductionDirection(Insertion(A, "z")),
                            Z).is_zero()

    rng = random.Random(2026)
    coeffs = (F(1), F(-1), F(1, 2), F(-2), F(3, 7))
    checked = 0
    for trial in range(52):
        genus = trial % 2
        n = rng.randint(1, 3)
        states = []
        for _ in range(n):
            v = GradedVector()
            for _ in range(rng.randint(1, 2)):
                w = rng.randint(0, 3)
                part = rng.choice(basis(w))
                v = v + GradedVector.basis_state(part) * rng.choice(coeffs)
            states.append(v if not v.is_zero() else vacuum())
        seed = make_seed(states, genus, window=(-2, 2), q_order=2)
        slot = rng.randint(1, n)
        grade = rng.randint(0, 2)
        if rng.random() < 0.5:
            xi = None
        else:
            supports = sorted({tuple(sorted(v.t)) for v in states})
            xi = {s: rng.choice((1, -1)) for s in supports}
        assert involution_check(ClusterSetting(seed, slot, grade, xi=xi))
        checked += 1
    assert checked >= 50


def test_9_cli_golden_files_byte_stable():
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    for name, argv in GOLDEN_CASES:
        first = capture_output(argv)
        second = capture_output(argv)
        assert first == second, name
        with open(os.path.join(golden_dir, golden_name(name))) as fh:
            assert fh.read() == first, name

"""Sewing products capped at their consumer's reach.

Each capped sum is compared with a test-local oracle that builds the
same sum uncapped: the same-chart genus-two kernel with its full tail
dot product, the genus-two kernels and reduction with Q(p; x) as the
uncut row times the full inverse, and the Schottky kernels with the
dressed row from a plain Neumann loop.  They must agree exactly, in
variables, windows, coefficients and coefficient types.  Spies on
``MultiSeries.__mul__`` pin that the capped products never store a term
above their reach.
"""

from fractions import Fraction
from functools import lru_cache, partial

import pytest

from voasurf import genus2, schottky, sewing
from voasurf.genus2 import (
    SewingModuli,
    gen_weierstrass,
    genus2_reduce,
    lambda_entry,
    lambda_tilde,
    p_column,
    r_row,
    s_conjugated_a_entry,
    z2_partition,
)
from voasurf.reduction import Insertion
from voasurf.schottky import (
    SchottkyData,
    build_kernel,
    chi,
    genus_g_npoint,
    genus_g_reduce,
    psi_deriv_value,
    shifted_columns,
    theta,
)
from voasurf.series import MultiSeries
from voasurf.sewing import row_dot_column, row_times_matrix
from voasurf.voa import (
    _norm,
    basis,
    conformal_vector,
    conformal_vector_tilde,
    generator,
    heisenberg_mode,
    vacuum,
)
from voasurf.elliptic import onepoint_hafnian

F = Fraction


def exact(ms: MultiSeries):
    """Everything a series shows: variables, windows, and each
    coefficient with its type."""
    return ms.vars, ms.window, {k: (type(c), c) for k, c in ms.c.items()}


# -- genus two: the same-chart tail ------------------------------------------


def same_chart_oracle(p: int, j: int, a: int, moduli: SewingModuli):
    """The same-chart kernel with the whole tail dot product summed."""
    abar = 3 - a
    clip = genus2._clip(moduli)
    Q = genus2.q_row(p, a, "x", moduli)
    col = genus2.p_column(j, a, moduli)
    lt = genus2.lambda_tilde(abar, p, moduli)
    tail = row_dot_column(row_times_matrix(Q, lt, clip), col, clip)
    out = genus2._pm_difference(j + 1, a, moduli) + tail * F((-1) ** (j + 1))
    if j == 0:
        out = out + genus2._pm(1, a, "x", moduli) * F(-1)
        if p != 1:
            corr = row_times_matrix(Q, genus2.lambda_matrix(abar, moduli),
                                    clip).get(2 * p - 2)
            if corr is not None:
                out = out + corr * F(-1)
    out = clip(out)
    return out.extended_to(sorted(set(out.vars) | {"y"}))


@pytest.mark.parametrize("orders,p,a,j", [
    *[((4, 4, 2, 4), p, a, j) for p in (1, 2) for a in (1, 2)
      for j in range(4)],
    ((6, 6, 2, 4), 1, 1, 0), ((6, 6, 2, 4), 1, 2, 3),
    ((6, 6, 2, 4), 2, 1, 0), ((6, 6, 2, 4), 2, 2, 1)])
def test_same_chart_kernel_equals_uncapped_sum(orders, p, a, j):
    moduli = SewingModuli(*orders)
    got = gen_weierstrass(p, j, a, a, moduli)
    assert exact(got) == exact(same_chart_oracle(p, j, a, moduli))


class Products:
    """Records every ``MultiSeries.__mul__`` as (left, right, result)."""

    def __init__(self, monkeypatch):
        self.seen = []
        real = MultiSeries.__mul__

        def spy(left, right, caps=None):
            out = real(left, right, caps)
            self.seen.append((left, right, out))
            return out

        monkeypatch.setattr(MultiSeries, "__mul__", spy)


@pytest.mark.parametrize("j", [0, 2])
def test_same_chart_tail_never_builds_above_the_horizon(monkeypatch, j):
    moduli = SewingModuli(6, 6, 2, 4)
    products = Products(monkeypatch)
    gen_weierstrass(1, j, 1, 1, moduli)
    # a product over both x and y is the pole, a tail dot product or a
    # scaling of them; none may build above the lead's x-horizon
    tails = [out for _, _, out in products.seen
             if {"x", "y"} <= set(out.vars)]
    assert len(tails) > 1
    for out in tails:
        i = out.vars.index("x")
        assert all(k[i] <= -(j + 1) for k in out.c)


# -- genus two: the dressed row Q(p; x) --------------------------------------


def sharp_se_lo(ms: MultiSeries) -> bool:
    i = ms.vars.index("se")
    return ms.window["se"][0] == min(k[i] for k in ms.c)


@pytest.mark.parametrize("orders", [(4, 4, 2, 4), (6, 6, 3, 6)], ids=str)
def test_building_blocks_declare_sharp_se_bounds(orders):
    # as Schottky's amplitude monomials do, so a row entry at index n
    # meets factors that declare se lo n or more
    moduli = SewingModuli(*orders)
    N = moduli.matrix_cutoff
    blocks = []
    for a in (1, 2):
        for p in (1, 2):
            blocks += lambda_tilde(a, p, moduli).entries.values()
        blocks += r_row(a, "x", moduli).values()
        for j in range(3):
            blocks += p_column(j, a, moduli).values()
        for m in range(1, N + 1):
            for n in range(1, N + 1):
                blocks += [lambda_entry(a, m, n, moduli),
                           s_conjugated_a_entry(a, m, n, moduli)]
    blocks = [b for b in blocks if not b.is_zero()]
    assert len(blocks) > 40
    for b in blocks:
        assert sharp_se_lo(b), b.window


@lru_cache(maxsize=None)
def _full_inverse_row(p: int, a: int, xvar: str, moduli: SewingModuli):
    clip = genus2._clip(moduli)
    M = genus2.kernel_mul(lambda_tilde(3 - a, p, moduli),
                          lambda_tilde(a, p, moduli), moduli)
    R = r_row(a, xvar, moduli)
    row = {n: clip(R[n + 2 * p - 2])
           for n in range(1, moduli.matrix_cutoff + 1)
           if n + 2 * p - 2 in R}
    return row_times_matrix(row, genus2.neumann_inverse(M, moduli), clip)


def full_inverse_q_row(p: int, a: int, xvar: str, moduli: SewingModuli):
    """Q(p; x) as the uncut row R(x) Delta times the full inverse
    (1 - Ltilde_abar Ltilde_a)^-1: no reach anywhere."""
    return dict(_full_inverse_row(p, a, xvar, moduli))


GRID = [(4, 4, 2, 4), (6, 6, 3, 6), (8, 8, 4, 8)]
REDUCE_GRID = [(4, 4, 2, 4), (8, 8, 4, 8), (8, 8, 6, 12)]


@pytest.mark.parametrize("orders", GRID, ids=str)
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("charts", [(1, 1), (1, 2), (2, 1), (2, 2)], ids=str)
@pytest.mark.parametrize("j", range(4))
def test_kernel_equals_full_inverse_row(monkeypatch, orders, p, charts, j):
    moduli = SewingModuli(*orders)
    got = gen_weierstrass(p, j, *charts, moduli)
    monkeypatch.setattr(genus2, "q_row", full_inverse_q_row)
    assert exact(got) == exact(gen_weierstrass(p, j, *charts, moduli))


@lru_cache(maxsize=None)
def _partition(moduli: SewingModuli):
    return z2_partition(moduli)


@pytest.mark.parametrize("orders", REDUCE_GRID, ids=str)
@pytest.mark.parametrize("state", ["a", "omegatilde", "vacuum", "3 vacuum"])
def test_reduction_equals_full_inverse_row(monkeypatch, orders, state):
    moduli = SewingModuli(*orders)
    v = {"a": generator, "omegatilde": conformal_vector_tilde,
         "vacuum": vacuum, "3 vacuum": lambda: vacuum() * 3}[state]()
    Z = _partition(moduli)
    got = genus2_reduce(Insertion(v, "x"), Z, moduli).value
    monkeypatch.setattr(genus2, "q_row", full_inverse_q_row)
    want = genus2_reduce(Insertion(v, "x"), Z, moduli).value
    assert exact(got) == exact(want)


@pytest.mark.parametrize("orders", REDUCE_GRID, ids=str)
def test_partition_keeps_its_se_window(orders):
    # the channel sum with every se monomial declared on (0, se_order)
    moduli = SewingModuli(*orders)
    want = MultiSeries.constant(0).extended_to(("q1", "q2", "se"))
    for r in range(moduli.eps_order + 1):
        for lam in basis(r):
            want = want + onepoint_hafnian(lam, moduli.tau1_order, "q1") * \
                onepoint_hafnian(lam, moduli.tau2_order, "q2") * \
                MultiSeries.monomial({"se": 2 * r}, F(1, _norm(lam)),
                                     window={"se": (0, moduli.se_order)})
    got = _partition(moduli)
    assert got.window["se"] == (0, moduli.se_order)
    assert exact(got) == exact(want)


@pytest.mark.parametrize("orders,p,a", [
    ((6, 6, 3, 6), 1, 1), ((8, 8, 4, 8), 1, 2), ((8, 8, 6, 12), 2, 1)],
    ids=str)
def test_q_row_never_builds_above_its_reach(monkeypatch, orders, p, a):
    moduli = SewingModuli(*orders)
    dressed = []
    real = genus2.neumann_inverse

    def recording(M, *args, **kwargs):
        start = len(products.seen)
        out = real(M, *args, **kwargs)
        dressed.append((M, out, products.seen[start:]))
        return out

    monkeypatch.setattr(genus2, "neumann_inverse", recording)
    products = Products(monkeypatch)
    genus2.q_row(p, a, "x", moduli)
    (M, out, seen), = dressed
    index = {id(e): n for (_, n), e in M.entries.items()}

    def within_reach(ms, n):
        i = ms.vars.index("se")
        return all(k[i] <= moduli.se_order - n for k in ms.c)

    steps = [(index[id(e)], prod) for _, e, prod in seen if id(e) in index]
    assert steps
    for n, prod in steps:
        assert within_reach(prod, n), n
    for (_, n), e in out.entries.items():
        assert within_reach(e, n), n


# -- Schottky: the dressed row -----------------------------------------------


def uncapped_tilde_row(p, data, R, row, hi):
    """ptilde (1 - R Delta)^-1 by a plain Neumann loop, every product
    cut at sr-order hi and nowhere lower."""
    M = shifted_columns(R, p)
    clip = partial(sewing.clip, base=data.sr_vars, names=data.half_powers,
                   hi=hi)
    power = {j: clip(e) for j, e in row.items()}
    power = {j: e for j, e in power.items() if not e.is_zero()}
    out = dict(power)
    while power:
        power = row_times_matrix(power, M, clip)
        for j, e in power.items():
            out[j] = out[j] + e if j in out else e
    return out


G1 = SchottkyData(1, (3, 1), 2, 4)
G1F = SchottkyData(1, (3, 1), 2, 4, f_choice=({-1: F(1, 2), 0: F(3)},))
G2 = SchottkyData(2, (3, 1, -2, 6), 2, 4)
G2P3 = SchottkyData(2, (4, 1, -2, 7), 1, 5)
G3 = SchottkyData(3, (3, 1, -2, 6, 10, -7), 1, 3)
A = generator()
WEIGHT3 = heisenberg_mode(-1, heisenberg_mode(-1, generator()))

SCHOTTKY_CALLS = {
    "build_kernel-g1-p1": lambda: build_kernel(1, G1).psi,
    "build_kernel-g1f-p2": lambda: build_kernel(2, G1F, -9, 6).psi,
    "build_kernel-g2-p1": lambda: build_kernel(1, G2).psi,
    "build_kernel-g2-p2": lambda: build_kernel(2, G2, -9, 6).psi,
    "build_kernel-g2-p3": lambda: build_kernel(3, G2P3).psi,
    "build_kernel-g3-p2": lambda: build_kernel(2, G3).psi,
    "psi_deriv_value-g2-p2": lambda: psi_deriv_value(2, G2, 1, F(19, 2),
                                                     F(-11, 3)),
    "psi_deriv_value-g3-p1": lambda: psi_deriv_value(1, G3, 0, F(19, 2),
                                                     F(-11, 3)),
    "chi-g1f-p2": lambda: [chi(2, G1F, a, ell, F(19, 2))
                           for a in (1, -1) for ell in range(3)],
    "chi-g2-p1": lambda: [chi(1, G2, a, 0, F(5, 2)) for a in (1, -1, 2, -2)],
    "theta-g2-p2": lambda: [theta(2, G2, a, F(19, 2)).components
                            for a in (1, 2)],
    "genus_g_reduce-g1-omega": lambda: genus_g_reduce(
        (conformal_vector(), F(-5, 2)), genus_g_npoint([(A, F(7))], G1F),
        G1F).value,
    "genus_g_reduce-g2-a": lambda: genus_g_reduce(
        (A, F(-5, 2)), genus_g_npoint([(A, F(7))], G2), G2).value,
    "genus_g_reduce-g2-weight3": lambda: genus_g_reduce(
        (WEIGHT3, F(-5, 2)), genus_g_npoint((), G2P3), G2P3).value,
}


def flat(value):
    """Every series in a (nested) result, each shown exactly."""
    if isinstance(value, MultiSeries):
        return exact(value)
    if isinstance(value, dict):
        return {k: flat(v) for k, v in value.items()}
    return [flat(v) for v in value]


@pytest.mark.parametrize("call", list(SCHOTTKY_CALLS.values()),
                         ids=list(SCHOTTKY_CALLS))
def test_schottky_kernels_equal_uncapped_rows(monkeypatch, call):
    got = flat(call())
    monkeypatch.setattr(schottky, "_tilde_row", uncapped_tilde_row)
    assert got == flat(call())


@pytest.mark.parametrize("call", [
    lambda: build_kernel(2, G2, -9, 6),
    lambda: chi(1, G2, -2, 0, F(5, 2))], ids=["build_kernel", "chi"])
def test_dressed_row_never_builds_above_its_reach(monkeypatch, call):
    dressed = []
    real = schottky.neumann_inverse

    def recording(M, hi, *rows, **kwargs):
        start = len(products.seen)
        out = real(M, hi, *rows, **kwargs)
        dressed.append((M, hi, out, products.seen[start:]))
        return out

    monkeypatch.setattr(schottky, "neumann_inverse", recording)
    products = Products(monkeypatch)
    call()
    (M, hi, out, seen), = dressed
    # the Neumann steps multiply a row entry by an entry of M, whose
    # column is the index the product lands on
    index = {id(e): j for (_, j), e in M.entries.items()}

    def within_reach(ms, j):
        b, n = j
        i = ms.vars.index(f"sr{abs(b)}")
        return all(k[i] <= hi - (n + 1) for k in ms.c)

    steps = [(index[id(e)], prod) for _, e, prod in seen if id(e) in index]
    assert steps
    for j, prod in steps:
        assert within_reach(prod, j), j
    for (_, j), e in out.entries.items():
        assert within_reach(e, j), j

"""Run one library job and check it against its independent reference.

``run_job`` returns nothing when the job's check holds and raises
``CheckFailed`` when it does not; any other exception is the library's
own failure.  The references are brute-force oracles, closed forms and
identities that a correct result must satisfy:

* torus: the reduction recursion equals the brute-force mode expansion;
* rank / euler / involution: rank plus nullity, a vanishing Euler total,
  the double mutation being the identity;
* schottky_reduce: the recursion equals the direct handle sum;
* schottky_partition: orders 0 and 1 equal the graded dimension under
  q = -rho (w_-a - w_a)^-2;
* psi_collapse: the dressed kernel collapses to its seed at rho^0;
* z2_partition: eps^0 factorises as p(m) p(n) and the eps^1 term
  vanishes;
* neumann: (1 - M) N = 1 exactly;
* gen_weierstrass: the j-th kernel is the j-th y-derivative of the
  first over j!.
"""

from __future__ import annotations

from fractions import Fraction

from voasurf.cohomology import (ClusterSetting, cohomology_rank,
                                euler_poincare, involution_check, make_seed)
from voasurf.genus2 import (KernelMatrix, SewingModuli, gen_weierstrass,
                            kernel_add, kernel_identity, kernel_mul,
                            lambda_tilde, neumann_inverse, z2_partition)
from voasurf.reduction import (Insertion, ReductionDirection, genus0_direct,
                               genus1_direct, unwind_to_partition)
from voasurf.schottky import (SchottkyData, genus_g_npoint, genus_g_partition,
                              genus_g_reduce, psi0, psi_full)
from voasurf.series import MultiSeries
from voasurf.voa import GradedVector, conformal_vector, generator, vacuum

GEN_WEIERSTRASS_MODULI = SewingModuli(6, 6, 2, 4)
NEUMANN_MODULI = SewingModuli(4, 4, 4, 8)


class CheckFailed(AssertionError):
    """A result disagrees with its reference."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def state(terms) -> GradedVector:
    return GradedVector({tuple(p): Fraction(c) for p, c in terms})


def same_series(a: MultiSeries, b: MultiSeries) -> bool:
    """Equal nonzero coefficients once both sit in the same variables."""
    u, v = a.extended_to(b.vars), b.extended_to(a.vars)
    return u.vars == v.vars and \
        {k: c for k, c in u.c.items() if c} == \
        {k: c for k, c in v.c.items() if c}


def partition_count(m: int) -> int:
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def _torus(job):
    genus, half = job["genus"], job["window"]
    window = (-half, half)
    ins = tuple(Insertion(state(s), f"z{i + 1}")
                for i, s in enumerate(job["states"]))
    if genus == 1:
        direct = genus1_direct(ins, job["q_order"], window)
        reduced = unwind_to_partition(
            tuple(ReductionDirection(i) for i in reversed(ins)), 1,
            window=window, q_order=job["q_order"])
    else:
        direct = genus0_direct(ins, vacuum(), vacuum(), window)
        reduced = unwind_to_partition(
            tuple(ReductionDirection(i) for i in reversed(ins)), 0,
            window=window)
    check(same_series(reduced.value, direct.value),
          "reduction disagrees with the brute-force oracle")


def _rank(job):
    r = cohomology_rank(job["n"], job["m"], job["genus"],
                        Insertion(generator(), job["direction"]),
                        window=(-4, 4), q_order=4)
    check(r.kernel_rank + r.image_rank == r.q, "rank plus nullity != q")


def _euler(job):
    e = euler_poincare(job["m"], job["N"], job["genus"],
                       Insertion(generator(), job["direction"]),
                       window=(-4, 4), q_order=4)
    check(e.total == 0, f"Euler total {e.total} != 0")
    for row in e.ledger:
        if row["n"] < job["N"]:
            check(row["kernel"] + row["image_out"] == row["q"],
                  f"rank plus nullity fails at level {row['n']}")


def _involution(job):
    for i, trial in enumerate(job["trials"]):
        states = [state(s) for s in trial["states"]]
        xi = None
        if trial["xi"] is not None:
            xi = {tuple(tuple(p) for p in sup): sign
                  for sup, sign in trial["xi"]}
        seed = make_seed(states, trial["genus"], window=(-2, 2), q_order=2)
        setting = ClusterSetting(seed, trial["slot"], trial["grade"], xi=xi)
        check(involution_check(setting),
              f"double mutation of trial {i} is not the identity")


def _schottky_reduce(job):
    data = SchottkyData(2, tuple(job["coords"]), 2, 4)
    a, omega = generator(), conformal_vector()
    y1, y2 = (Fraction(y) for y in job["points"])
    if job["case"] == "a":
        lhs = genus_g_npoint([(a, y1), (a, y2)], data)
        rhs = genus_g_reduce((a, y1), genus_g_npoint([(a, y2)], data), data)
    else:
        lhs = genus_g_npoint([(omega, y1)], data)
        rhs = genus_g_reduce((omega, y1), genus_g_npoint((), data), data)
    check(not lhs.value.is_zero(), "direct handle sum is zero")
    check(rhs.value.agrees_with(lhs.value),
          "recursion disagrees with the direct handle sum")


def _schottky_partition(job):
    cutoff = job["weight_cutoff"]
    data = SchottkyData(2, tuple(job["coords"]), cutoff, 2 * cutoff)
    z = genus_g_partition(data, cutoff)
    w = [Fraction(c) for c in job["coords"]]
    expected = {(0, 0): 1, (1, 0): 0, (0, 1): 0,
                (2, 0): -1 / (w[0] - w[1]) ** 2,
                (0, 2): -1 / (w[2] - w[3]) ** 2}
    for (e1, e2), want in expected.items():
        got = z.coefficient({"sr1": e1, "sr2": e2})
        check(got == want, f"sr^{(e1, e2)} coefficient {got} != {want}")


def _psi_collapse(job):
    p, order = job["p"], job["rho_order"]
    data = SchottkyData(2, tuple(job["coords"]), order,
                        max(2 * order, 2 * p - 1))
    psi = psi_full(p, data)
    for var in data.sr_vars:
        psi = psi.coefficient_of(var, 0)
    seed = psi0(p, data.f_choice, {"x": (-6, None), "y": (0, 4)})
    check(psi.agrees_with(seed), "rho^0 slice of psi differs from psi0")


def _z2_partition(job):
    moduli = SewingModuli(*job["orders"])
    z2 = z2_partition(moduli)
    eps0 = z2.coefficient_of("se", 0)
    i, j = eps0.vars.index("q1"), eps0.vars.index("q2")
    got = {(k[i], k[j]): c for k, c in eps0.c.items() if c}
    want = {(m, n): partition_count(m) * partition_count(n)
            for m in range(moduli.tau1_order + 1)
            for n in range(moduli.tau2_order + 1)}
    check(got == want, "eps^0 term is not p(m) p(n)")
    check(z2.coefficient_of("se", 2).is_zero(), "eps^1 term is nonzero")


def _neumann(job):
    mod, p = NEUMANN_MODULI, job["p"]
    size = mod.matrix_cutoff
    M = kernel_mul(lambda_tilde(2, p, mod), lambda_tilde(1, p, mod), mod)
    inverse = neumann_inverse(M, mod)
    minus = KernelMatrix(size, {k: v * Fraction(-1)
                                for k, v in M.entries.items()})
    product = kernel_mul(kernel_add(kernel_identity(size), minus), inverse,
                         mod)
    residue = kernel_add(product, KernelMatrix(size, {
        (m, m): MultiSeries.constant(-1).extended_to(("q1", "q2", "se"))
        for m in range(1, size + 1)}))
    check(residue.is_zero(), "(1 - M) N != 1")


def y_derivative(ms: MultiSeries, var: str = "y") -> MultiSeries:
    i = ms.vars.index(var)
    lo, hi = ms.window[var]
    out = MultiSeries(ms.vars, {**ms.window,
                                var: (lo - 1, None if hi is None else hi - 1)})
    for key, c in ms.c.items():
        if key[i]:
            out.c[key[:i] + (key[i] - 1,) + key[i + 1:]] = c * key[i]
    return out


def _gen_weierstrass(job):
    p, j, charts = job["p"], job["j"], job["charts"]
    got = gen_weierstrass(p, j, *charts, GEN_WEIERSTRASS_MODULI)
    expect = gen_weierstrass(p, 0, *charts, GEN_WEIERSTRASS_MODULI)
    for k in range(1, j + 1):
        expect = y_derivative(expect) * Fraction(1, k)
    check(got.agrees_with(expect), "j-th kernel is not d^j/dy^j / j!")


RUNNERS = {
    "torus": _torus,
    "rank": _rank,
    "euler": _euler,
    "involution": _involution,
    "schottky_reduce": _schottky_reduce,
    "schottky_partition": _schottky_partition,
    "psi_collapse": _psi_collapse,
    "z2_partition": _z2_partition,
    "neumann": _neumann,
    "gen_weierstrass": _gen_weierstrass,
}


def run_job(job: dict) -> None:
    RUNNERS[job["kind"]](job)

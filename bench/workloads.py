"""Seeded job lists for the four benchmark workloads.

Everything here is plain data built with the standard library: a job is
a JSON-ready dict, and the library only ever sees what ``jobs.py`` builds
from it.  One seed always yields a byte-identical job list
(``job_list_bytes``), and every pass of a run replays that same list.

States travel as lists of ``[partition, "num/den"]`` pairs, a partition
being the Fock basis label with its largest part first (``[2, 1]`` is
``a[-2]a[-1]|1``, ``[]`` the vacuum).
"""

from __future__ import annotations

import ast
import json
import random
import statistics
from fractions import Fraction
from pathlib import Path

SIZES = ("full", "tiny")


def partitions(m: int) -> list:
    """Partitions of m, largest part first, in reverse-lexicographic
    order."""
    out = []

    def build(remaining, max_part, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            build(remaining - part, part, prefix + [part])

    build(m, m, [])
    return out


def _ratio(rng: random.Random) -> str:
    return str(Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                        rng.randint(1, 9)))


def full_combination(rng: random.Random, w: int) -> list:
    """Every basis state of weight w with a seeded nonzero rational
    coefficient, so the cost of a state depends on its weight only."""
    return [[part, _ratio(rng)] for part in partitions(w)]


# -- torus-oracle ----------------------------------------------------------

# The insertion tuples as weight shapes (1-3 points, total weight <= 6),
# in sweep order.  Shapes and order are fixed so that every seed costs
# about the same and each job sees the same memo warmth; the seed draws
# the rational coefficients of every state.  Five jobs take about 0.1 s
# and ten take 0.2-0.6 s, so the median and the tail job (see
# ``tail_block``) both fall among heavy jobs of similar cost, not on the
# gap between the two groups.
TORUS_SHAPES = (
    (1, (1, 1)), (0, (2, 2, 2)), (1, (3,)), (1, (2, 1)), (1, (5,)),
    (1, (1, 1, 1)), (1, (3, 1)), (1, (4,)), (0, (1, 2, 3)), (1, (6,)),
    (1, (2, 2)), (1, (1, 1, 2)), (1, (2, 3)), (1, (0, 1, 2)), (1, (1, 4)))
TORUS_TINY = ((1, (1,)), (1, (1, 1)), (0, (2, 1)))


def torus_jobs(rng: random.Random, size: str) -> list:
    plan = TORUS_TINY if size == "tiny" else TORUS_SHAPES
    return [{"kind": "torus", "genus": genus, "window": 4 if genus else 6,
             "q_order": 8 if genus else None,
             "states": [full_combination(rng, w) for w in shape]}
            for genus, shape in plan]


# -- cohomology-ranks ------------------------------------------------------

# Fixed shapes and directions: a change of direction moves the cost by
# ten times or more, so only the involution trials are seeded.
COHOMOLOGY_FIXED = (
    {"kind": "rank", "genus": 0, "n": 4, "m": 5, "direction": "z"},
    {"kind": "rank", "genus": 1, "n": 2, "m": 4, "direction": "z"},
    {"kind": "euler", "genus": 1, "m": 2, "N": 3, "direction": "w"},
    {"kind": "euler", "genus": 0, "m": 1, "N": 4, "direction": "w"},
)
COHOMOLOGY_TINY = (
    {"kind": "rank", "genus": 1, "n": 1, "m": 2, "direction": "z"},
    {"kind": "euler", "genus": 0, "m": 1, "N": 2, "direction": "w"},
)
INVOLUTION_JOBS = {"full": 7, "tiny": 2}
# The trial pattern repeats every 12 trials, so every batch runs the
# same mix.
TRIALS_PER_JOB = 12
_TRIAL_COEFFS = ("1", "-1", "1/2", "-2", "3/7")


def _trial_state(rng: random.Random, w: int, terms: int, turn: int) -> list:
    """Distinct basis states of weight w (<= 3), as many as asked and as
    the weight has, starting ``turn`` places into the weight's basis,
    with seeded coefficients from a small fixed set as in the CLI's
    cluster check."""
    basis = partitions(w)
    picks = [basis[(turn + j) % len(basis)]
             for j in range(min(terms, len(basis)))]
    return [[p, rng.choice(_TRIAL_COEFFS)] for p in picks]


def involution_trial(rng: random.Random, index: int) -> dict:
    # Genus, insertion count, basis states, slot, grade and whether
    # signs are used follow the trial index, so every seed costs the
    # same; coefficients and signs are seeded.  (Seeded basis states
    # made the median batch's cost differ by a tenth between seeds.)
    n = index // 2 % 3 + 1
    states = [_trial_state(rng, (index + k) % 4, 1 + (index + k) % 2,
                           index // 4 + k)
              for k in range(n)]
    xi = None
    if index // 3 % 2:
        supports = sorted({tuple(sorted(tuple(p) for p, _ in s))
                           for s in states})
        xi = [[[list(p) for p in sup], rng.choice((1, -1))]
              for sup in supports]
    return {"genus": index % 2, "states": states, "slot": 1 + index % n,
            "grade": index // 2 % 3, "xi": xi}


def cohomology_jobs(rng: random.Random, size: str) -> list:
    """The fixed rank and Euler jobs, then the involution trials in
    batches: one trial takes milliseconds, a batch of both genera is
    long enough to time steadily."""
    fixed = COHOMOLOGY_TINY if size == "tiny" else COHOMOLOGY_FIXED
    batches = [{"kind": "involution",
                "trials": [involution_trial(rng, b * TRIALS_PER_JOB + i)
                           for i in range(TRIALS_PER_JOB)]}
               for b in range(INVOLUTION_JOBS[size])]
    return [dict(job) for job in fixed] + batches


# -- sewing ----------------------------------------------------------------


def _coordinates(rng: random.Random) -> list:
    # Zero is left out: a handle point at 0 divides by zero in the
    # formal column expansions.
    return rng.sample([w for w in range(-9, 10) if w], 4)


def sewing_jobs(rng: random.Random, size: str) -> list:
    coords = _coordinates(rng)
    free = [y for y in range(-9, 10) if y and y not in coords]
    points = rng.sample(free, 2)
    if size == "tiny":
        return [
            {"kind": "schottky_reduce", "coords": coords, "case": "a",
             "points": points},
            {"kind": "schottky_partition", "coords": coords,
             "weight_cutoff": 2},
            {"kind": "psi_collapse", "coords": coords, "p": 2,
             "rho_order": 1},
            {"kind": "z2_partition", "orders": [4, 4, 2, 4]},
            {"kind": "neumann", "p": 1},
            {"kind": "gen_weierstrass", "p": 2, "j": rng.randint(1, 3),
             "charts": [1, 2]},
        ]
    jobs = [{"kind": "schottky_reduce", "coords": coords, "case": case,
             "points": points} for case in ("a", "omega")]
    jobs.append({"kind": "schottky_partition", "coords": coords,
                 "weight_cutoff": 3})
    jobs += [{"kind": "psi_collapse", "coords": coords, "p": p,
              "rho_order": 3} for p in (1, 2)]
    jobs.append({"kind": "z2_partition", "orders": [8, 8, 6, 12]})
    jobs.append({"kind": "neumann", "p": 1})
    jobs += [{"kind": "gen_weierstrass", "p": p, "j": rng.randint(1, 3),
              "charts": list(charts)}
             for p in (1, 2) for charts in ((1, 1), (1, 2), (2, 1), (2, 2))]
    return jobs


# -- cli-docs --------------------------------------------------------------

CLI_TINY = ("eisenstein_k2_order3", "eisenstein_k2_order3_csv",
            "npoint_g1_aa_q4")


def golden_cases(root: Path) -> tuple:
    """``GOLDEN_CASES`` read from the CLI source without importing the
    library, so the runner process stays library-free."""
    tree = ast.parse((root / "src" / "voasurf" / "cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GOLDEN_CASES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_CASES not found in src/voasurf/cli.py")


def golden_file(name: str) -> str:
    return name + (".csv" if name.endswith("_csv") else ".json")


def cli_jobs(rng: random.Random, size: str, root: Path) -> list:
    cases = golden_cases(root)
    if size == "tiny":
        cases = [c for c in cases if c[0] in CLI_TINY]
    jobs = [{"kind": "cli", "name": name, "argv": list(argv),
             "golden": golden_file(name)} for name, argv in cases]
    rng.shuffle(jobs)
    return jobs


# -- the table -------------------------------------------------------------

# ``budget_s`` is the time a single job may take before it counts as
# failed.
WORKLOADS = {
    "cli-docs": {
        "why": "documented CLI commands in fresh processes: interpreter "
               "start, import, cold memo caches and the E_k disk cache",
        "budget_s": 30.0},
    "torus-oracle": {
        "why": "genus 0/1 reduction against the brute-force oracle: Fock "
               "mode action and graded traces, memo caches warm",
        "budget_s": 60.0},
    "cohomology-ranks": {
        "why": "exact coboundary ranks and Euler ledgers: the only "
               "workload where exact elimination is a large share",
        "budget_s": 90.0},
    "sewing": {
        "why": "genus-2 and Schottky sewing: series products, kernel and "
               "handle matrices, Neumann inversion, Wick matchings",
        "budget_s": 60.0},
}

# Jobs per pass that lie beyond the tail job: a run of three or more
# passes then has at least ten job times beyond it.
TAIL_BEYOND = 3


def tail_block(times: list, jobs_per_pass: int) -> tuple:
    """job_tail_s from the job times of ``passes`` whole passes, with the
    percentile it sits at.

    Every pass replays the same jobs, so the sorted times fall into
    blocks of one job's repeats.  The tail is the middle of the block of
    the job that has TAIL_BEYOND heavier jobs per pass, where noise is
    least likely to move it onto a neighbouring job; for an odd number
    of jobs per pass the median job time lies in the middle of a block
    in the same way.
    """
    passes = len(times) // jobs_per_pass
    rank = max(jobs_per_pass - 1 - TAIL_BEYOND, 0)
    block = sorted(times)[rank * passes:(rank + 1) * passes]
    position = rank * passes + (passes - 1) / 2
    return (statistics.median(block),
            100 * position / max(len(times) - 1, 1))


GENERATORS = {"torus-oracle": torus_jobs, "cohomology-ranks": cohomology_jobs,
              "sewing": sewing_jobs}


def make_jobs(workload: str, seed: int, size: str, root: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-docs":
        return cli_jobs(rng, size, root)
    return GENERATORS[workload](rng, size)


def job_list_bytes(jobs: list) -> bytes:
    return json.dumps(jobs, sort_keys=True).encode()

"""Batch command line front end.

Every subcommand runs one library operation and prints a deterministic
report: JSON by default (keys sorted, rationals rendered as strings,
terms listed in exponent order), or CSV via ``--format csv``.  Floats
never appear unless ``--approx`` is passed, and then only as extra
display fields next to the exact values.

Series payloads share one schema::

    {"variables": ["q", "q_z1"],
     "window": {"q": [0, 4], "q_z1": [-4, 4]},
     "terms": [{"exponents": [0, -2], "value": "1"}, ...]}

A window upper bound of ``null`` means the expansion is exact in that
variable.  Insertions are written ``state@point`` with states in the
partition literal syntax understood by ``parse_state``, for example
``a[-2]a[-1]^2|1@z1`` or ``1/2*a@z``; lists are comma separated.

Exit codes: 0 on success, 1 when the estimated work is over the one
budget (``BUDGET_S``, checked before any work) or a module rejects the
request (window too small, order constraints violated, a failed batch
check), 2 on flag grammar errors.  Exact values print in full, however
many digits they have.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

# The library layers load inside the handlers that run them, so a
# command pays only for its own layers' import.
from .series import MultiSeries

# Reference Schottky coordinate tuples (w_-1, w_1, ..., w_-g, w_g) used
# when --coordinates is not given.
DEFAULT_COORDINATES = {1: (3, 1), 2: (3, 1, -2, 6)}

# The one budget: a command estimated (see the cost rule) over it exits 1
BUDGET_S = 10.0


# -- flag grammar ----------------------------------------------------------


def _int_at_least(text: str, low: int, message: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < low:
        raise argparse.ArgumentTypeError(message)
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "must be a positive integer")


def _nonneg_int(text: str) -> int:
    return _int_at_least(text, 0, "must be a non-negative integer")


def _insertion(text: str):
    from .reduction import Insertion
    from .voa import parse_state

    state, sep, point = text.partition("@")
    if not sep or not point.strip() or not state.strip():
        raise argparse.ArgumentTypeError(
            f"expected state@point, got {text!r}")
    try:
        return Insertion(parse_state(state.strip()), point.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _insertion_list(text: str) -> tuple:
    return tuple(map(_insertion, text.split(","))) if text.strip() else ()


def _state_list(text: str) -> tuple:
    from .voa import parse_state

    try:
        return tuple(parse_state(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    # Flag groups that several commands share, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--approx", action="store_true",
                        help="add float display fields next to the exact "
                             "values")

    orders = argparse.ArgumentParser(add_help=False)  # npoint, residual
    orders.add_argument("--qorder", type=_positive_int, default=4,
                        help="q truncation order at genus 1 (default 4)")
    orders.add_argument("--zorder", type=_positive_int, default=4,
                        help="mode window half-width per point (default 4)")

    slice_flags = argparse.ArgumentParser(add_help=False)  # rank, euler
    slice_flags.add_argument("--genus", type=int, choices=(0, 1), default=1)
    slice_flags.add_argument("--window", type=_positive_int, default=4,
                             help="mode window half-width (default 4)")
    slice_flags.add_argument("--qorder", type=_positive_int, default=4,
                             help="q truncation order (default 4)")
    slice_flags.add_argument("--boundary", type=_state_list,
                             help="two comma-separated boundary states at "
                                  "genus 0")

    surface = argparse.ArgumentParser(add_help=False)  # schottky
    surface.add_argument("-g", "--genus", type=_positive_int, required=True)
    surface.add_argument("--coordinates", type=_int_list,
                         help="comma-separated fixed points w_-1,w_1,...,"
                              "w_-g,w_g (defaults: genus 1 -> 3,1; genus 2 "
                              "-> 3,1,-2,6)")

    rule = (f"Every command but golden estimates its work from its flags and "
            f"exits 1, before any work, when that is over {BUDGET_S:g} s.")
    parser = argparse.ArgumentParser(
        prog="voasurf", epilog=rule,
        description="Exact correlation function computations for the rank "
                    "one Heisenberg vertex operator algebra on genus 0, 1, "
                    "2 and Schottky surfaces.")
    groups = parser.add_subparsers(dest="group", metavar="COMMAND",
                                   required=True)

    def group(name, help):
        return groups.add_parser(name, help=help).add_subparsers(
            dest="sub", metavar="SUBCOMMAND", required=True)

    def command(subparsers, name, run, cost, help, *shared):
        """Register one command with its handler, cost and flag groups."""
        sub = subparsers.add_parser(name, parents=[common, *shared],
                                    help=help, epilog=rule)
        sub.set_defaults(run=run, cost=cost)
        return sub

    ell = group("elliptic", "Eisenstein series and Weierstrass kernels")
    eis = command(ell, "eisenstein", _run_eisenstein, _eisenstein_cost,
                  "E_k(q) expansion")
    eis.add_argument("--k", type=_positive_int, required=True,
                     help="Eisenstein index (even, at least 2)")
    eis.add_argument("--order", type=_positive_int, default=10,
                     help="q truncation order (default 10)")

    pm = command(ell, "pm", _run_pm, _pm_cost,
                 "Weierstrass kernel P_m(z, q)")
    pm.add_argument("--m", type=_positive_int, required=True,
                    help="kernel index, at least 1")
    pm.add_argument("--zorder", type=_positive_int, default=6,
                    help="z truncation order (default 6)")
    pm.add_argument("--qorder", type=_positive_int, default=8,
                    help="q truncation order (default 8)")

    npoint = command(groups, "npoint", _run_npoint, _npoint_cost,
                     "n-point function at genus 0 or 1", orders)
    npoint.add_argument("--genus", type=int, choices=(0, 1), required=True)
    npoint.add_argument("--insertions", type=_insertion_list, default=(),
                        help="comma-separated state@point list; empty for "
                             "the partition function")
    path = npoint.add_mutually_exclusive_group()
    path.add_argument("--reduce", dest="path", action="store_const",
                      const="reduce", help="iterate the reduction recursion "
                      "from the partition function (default)")
    path.add_argument("--oracle", dest="path", action="store_const",
                      const="oracle", help="brute-force mode expansion")
    npoint.set_defaults(path="reduce")

    residual = command(groups, "residual", _run_residual, _residual_cost,
                       "reduction residual of a correlation function in one "
                       "direction", orders)
    residual.add_argument("--genus", type=int, choices=(0, 1), default=1)
    residual.add_argument("--insertions", type=_insertion_list, default=(),
                          help="base correlation function insertions "
                               "(default: none, the partition function)")
    residual.add_argument("--direction", type=_insertion, required=True,
                          help="reduction direction as state@point")

    # the two genus-2 commands default their orders differently, so each
    # declares its own: parents share Action objects, defaults included
    g2 = group("genus2", "epsilon-sewn two-torus surface")
    g2p = command(g2, "partition", _run_g2_partition, _g2_partition_cost,
                  "genus-2 partition function expansion")
    g2p.add_argument("--eps-order", type=_positive_int, default=4,
                     help="epsilon truncation order (default 4)")
    g2p.add_argument("--q1-order", type=_positive_int, default=6)
    g2p.add_argument("--q2-order", type=_positive_int, default=6)
    g2p.add_argument("-N", "--matrix-cutoff", type=_positive_int, default=8,
                     help="moment matrix cutoff, at least twice the epsilon "
                          "order (default 8); the Hafnian channel sum "
                          "builds no matrix, so no coefficient depends on it")

    g2w = command(g2, "pweier", _run_g2_pweier, _g2_pweier_cost,
                  "generalized Weierstrass kernel")
    g2w.add_argument("--p", type=_positive_int, required=True,
                     help="kernel weight (1 or 2)")
    g2w.add_argument("--j", type=_nonneg_int, default=0,
                     help="derivative index, the kernel replaces P_{j+1} "
                          "(default 0)")
    g2w.add_argument("--charts", type=int, nargs=2, choices=(1, 2),
                     default=(1, 1), metavar=("X", "Y"),
                     help="torus charts of the two arguments (default 1 1)")
    g2w.add_argument("--eps-order", type=_positive_int, default=2)
    g2w.add_argument("--q1-order", type=_positive_int, default=4)
    g2w.add_argument("--q2-order", type=_positive_int, default=4)
    g2w.add_argument("-N", "--matrix-cutoff", type=_positive_int,
                     help="moment matrix cutoff (default: twice the epsilon "
                          "order)")

    sch = group("schottky", "genus-g Schottky surface")
    psi = command(sch, "psi", _run_schottky_psi, _psi_cost,
                  "dressed kernel Psi_p expansion", surface)
    psi.add_argument("--p", type=_positive_int, required=True,
                     help="kernel weight, at most 3: the expansion's fixed "
                          "y window 0..4 must cover the degrees 0..2p-2 "
                          "of the seed's f-part")
    psi.add_argument("--rho-order", type=_positive_int, default=2,
                     help="rho truncation order per handle (default 2)")
    psi.add_argument("-N", "--matrix-cutoff", type=_positive_int,
                     help="moment matrix cutoff (default: max of twice the "
                          "rho order and 2p-1; a larger cutoff changes no "
                          "coefficient)")

    spart = command(sch, "partition", _run_schottky_partition,
                    _schottky_partition_cost, "genus-g partition handle sum",
                    surface)
    spart.add_argument("--weight-cutoff", type=_positive_int, default=3,
                       help="weight cutoff per handle of the handle sum "
                            "(default 3)")

    coh = group("cohomology", "reduction cohomology of graded slices")
    direction_help = ("reduction direction state@point; a repeated "
                      "--direction adds its state at the first one's point")
    rank = command(coh, "rank", _run_cohomology_rank, _rank_cost,
                   "chain, kernel, image and cohomology ranks of one slice",
                   slice_flags)
    rank.add_argument("-n", type=_nonneg_int, required=True,
                      help="number of insertion slots")
    rank.add_argument("-m", type=_nonneg_int, required=True,
                      help="total weight of the slice")
    rank.add_argument("--direction", type=_insertion, action="append",
                      required=True, help=direction_help)

    euler = command(coh, "euler", _run_cohomology_euler, _euler_cost,
                    "Euler-Poincare ledger over a weight ladder", slice_flags)
    euler.add_argument("-m", type=_nonneg_int, required=True,
                       help="weight of the level-0 slice")
    euler.add_argument("-N", type=_nonneg_int, required=True, dest="levels",
                       help="top chain level of the ladder")
    euler.add_argument("--direction", type=_insertion, action="append",
                       help=f"{direction_help} (default a@w)")

    cluster = group("cluster", "cluster seed mutation checks")
    check = command(cluster, "check", _run_cluster_check, _cluster_cost,
                    "run a deterministic "
                    "batch of double-mutation involution trials")
    check.add_argument("--trials", type=_positive_int, default=60,
                       help="number of trials (default 60)")
    check.add_argument("--seed", type=_nonneg_int, default=7,
                       help="random generator seed (default 7)")
    check.add_argument("--genus", type=int, choices=(0, 1),
                       help="restrict trials to one genus (default: both)")

    golden = command(groups, "golden", _run_golden, None,
                     "write or check the golden regression files for every "
                     "documented example command")
    golden.add_argument("--dir", default="tests/golden", metavar="PATH",
                        help="golden file directory (default tests/golden)")
    golden.add_argument("--check", action="store_true",
                        help="compare against the stored files instead of "
                             "rewriting them; exit 1 on any drift")

    return parser


# -- the cost rule ---------------------------------------------------------
# Every command but golden registers a cost(ns): the seconds its dominant
# loop takes on a 2-core machine (Python 3.11, fresh process), one rate
# times the counts the loop visits, the rate at least 1.2 times the
# largest seconds per count of its rows in README.md's calibration table.
# A term beside the product names the row that needs it.


def _partition_counts(top: int, most: float) -> list:
    """p(0) ... p(top) by the parts recurrence, never a basis; past any
    budget here from p(100) on, so OverflowError once one passes most."""
    p = [1] + [0] * min(top, 100)
    for k in range(1, len(p)):
        for n in range(k, len(p)):
            p[n] += p[n - k]
    if p[-1] > most or top > 100:
        raise OverflowError
    return p


def _states(top: int, rate: float) -> int:
    """p(0) + ... + p(top), for work of ``rate`` seconds per state."""
    return sum(_partition_counts(top, BUDGET_S / rate))


def _generators(insertions) -> list:
    """Each insertion's modes a(-n): its longest basis state, at least 1."""
    return [max(1, max(map(len, ins.state.t), default=0))
            for ins in insertions]


def _eisenstein_seconds(low: int, top: int, order: int) -> float:
    """E_k, k even in low ... top, to q^order, in 64-bit words: the
    tangent table to B_top, top^2/8 cells of top log2(top) bits; per
    coefficient, a gcd and rendering quadratic in its k log2(k + order)
    bits past 27 words of overhead (row ``--k 4 --order 200000``), each
    word worth four of the table's (row ``--k 2000 --order 2000``)."""
    words = math.log2(top + order) / 64  # per unit of k
    a, b = 27 + low * words, 27 + top * words  # mean square: a^2 + ab + b^2
    terms = (order + 1) * ((top - low) // 2 + 1) * (a * a + a * b + b * b) / 3
    return 7.8e-9 * (top ** 3 * words / 8 + 4 * terms)


def _eisenstein_cost(ns) -> float:
    return _eisenstein_seconds(ns.k, ns.k, ns.order)


def _pm_cost(ns) -> float:  # P_m to z^zorder needs E_m ... E_(m + zorder)
    return _eisenstein_seconds(ns.m, ns.m + ns.zorder, ns.qorder)


def _recursion_seconds(insertions, ns) -> float:
    """A step on ``insertions`` (npoint's last dominates), g generators:
    each past the first, or the direction alone, sums over the window,
    (2 zorder + 1)^max(g - 1, 1) nodes a point and q level, and leaves
    trace the Fock states to the q-order, 3-fold per insertion, 1 +
    q/3-fold per generator past one of the heaviest state (row ``npoint
    a[-1]^4|1@z0 --qorder 24``)."""
    rate, gens = 1.15e-6, _generators(insertions)
    states = _states(ns.qorder, rate) if ns.genus else 0
    nodes = (2 * ns.zorder + 1.0) ** max(sum(gens) - 1, 1) * (len(gens) + 1)
    heavy = (1 + ns.qorder / 3) ** (max(gens, default=1) - 1)
    return rate * (nodes * (ns.qorder + 1 if ns.genus else 1)
                   + states * 3.0 ** len(gens) * heavy)


def _npoint_cost(ns) -> float:
    """The oracle: at genus 1, per window-box point a word of n modes
    traced over the Fock states to the q-order, 1 + q/2-fold per generator
    past one of the heaviest (row ``a[-1]^3|1@z0 --qorder 32 --oracle``);
    at genus 0, (2 zorder + 5)^n mode tuples, 2-fold per generator past
    one a point, a twentieth of a word each (row ``--zorder 3000``)."""
    if ns.path == "reduce":
        return _recursion_seconds(ns.insertions, ns)
    rate, gens = 6.2e-6, _generators(ns.insertions)
    n, width = len(gens), 2 * ns.zorder + 1.0
    if ns.genus:
        heavy = max(n, 1) * (1 + ns.qorder / 2) ** (max(gens, default=1) - 1)
        return rate * width ** max(n - 1, 0) * _states(ns.qorder, rate) * heavy
    return rate * (width + 4) ** n * 2.0 ** (sum(gens) - n) / 20


def _residual_cost(ns) -> float:
    return _recursion_seconds(ns.insertions + (ns.direction,), ns)


def _g2_partition_cost(ns) -> float:
    """Per Hafnian channel, p(0) + ... + p(eps order), a (q1 + 1)(q2 + 1)
    term product added to a sum of eps order + 1, and two one-point
    series worth 39 more (row ``--eps-order 2 --q1-order 400``)."""
    rate = 2.5e-7
    terms = (ns.q1_order + 1) * (ns.q2_order + 1) * (ns.eps_order + 40)
    return rate * _states(ns.eps_order, rate) * terms


def _g2_pweier_cost(ns) -> float:
    """(eps order + 1)^4 kernel products, each as the larger q order
    squared times the smaller; N^2 Lambda-tilde entries, 20 products
    each (row ``pweier --p 1 -N 600``); E_k, j < k <= j + 2 eps + 6."""
    eps, (low, high) = ns.eps_order, sorted((ns.q1_order, ns.q2_order))
    size = ns.matrix_cutoff or 2 * eps
    products = (eps + 1.0) ** 4 * (high + 1) ** 2 * (low + 1)
    return 1.04e-6 * (products + 20 * size * size) + _eisenstein_seconds(
        ns.j + 1, ns.j + 2 * eps + 6, high)


def _psi_cost(ns) -> float:
    """Neumann products of the (2 genus cutoff)-square moment matrix,
    each entry up to (rho order + 1)^genus rho monomials."""
    cutoff = ns.matrix_cutoff or max(2 * ns.rho_order, 2 * ns.p - 1)
    return 1.6e-5 * float(2 * ns.genus * cutoff) ** 2 * float(
        ns.rho_order + 1) ** ns.genus


def _schottky_partition_cost(ns) -> float:
    """Channels (p(0) + ... + p(cutoff))^genus, each a Wick sum over 2 g
    points and 2 g cutoff legs in ints the size of the lcm of coordinate
    differences, 1% more per bit (row ``partition -g 10`` at 10^6)."""
    rate, g, cutoff, spread = 4e-6, ns.genus, ns.weight_cutoff, 1
    seconds = rate * float(_states(cutoff, rate)) ** g * 4 * g * g * cutoff
    points = (ns.coordinates or DEFAULT_COORDINATES.get(g, ()))[:2 * g]
    for a, b in itertools.combinations(points, 2):  # until over budget
        if seconds * (1 + spread.bit_length() / 100) <= BUDGET_S:
            spread = math.lcm(spread, a - b or 1)
    return seconds * (1 + spread.bit_length() / 100)


def _ladder_seconds(ns, levels) -> float:
    """Slices (points k, weight, coboundary built) of ``levels(w)``, w the
    direction weight, t the weight less one if weight + w is odd (parity
    prunes traces).  Per basis tuple: weight + 1 to list (row ``euler -m
    60 -N 1``), (k + 1)(2 window + 1)^2 step cells per q level at 2.5^t/50
    (row ``rank -n 3 -m 5 --window 20``) and 0.7 per Fock state to the
    q-order (row ``rank -n 8 -m 2 --qorder 40``); memoized traces, once,
    3.5^t per state at the top slice (row ``rank -n 1 -m 5 --qorder 24``).
    All times direction generators (cells: their root); stops over budget."""
    rate, members = 3.3e-6, ns.direction or ()
    gens = max(_generators(members), default=1)
    states = _states(ns.qorder, rate) if ns.genus else 0
    cells = (2 * ns.window + 1) ** 2 * (ns.qorder + 1 if ns.genus else 1)
    most, work, top = BUDGET_S / rate, states, 0
    w = max((x for d in members for x in d.state.weights()), default=1)
    for k, weight, built in levels(w):
        if min(k, weight) < 0:
            continue
        t, p = weight - (weight + w) % 2, _partition_counts(weight, most)
        each = weight + 1 + built * (gens ** 0.5 * cells * (k + 1) * 2.5 ** t
                                     / 50 + 0.7 * states)
        top = max(top, built * min(t, ns.qorder))
        tuples = [1] + [0] * weight  # k-tuples of basis states by weight
        for _ in range(k if weight else 0):
            tuples = [sum(c * p[j - i] for i, c in enumerate(tuples[:j + 1]))
                      for j in range(weight + 1)]
            if tuples[-1] * each > most:
                break
        work += max(tuples[-1], 1) * each  # at least the slice's setup
        if work > most:
            break
    return rate * (work + states * gens * 3.5 ** top)


def _rank_cost(ns) -> float:
    return _ladder_seconds(ns, lambda w: ((ns.n, ns.m, 1),
                                          (ns.n - 1, ns.m - w, 1)))


def _euler_cost(ns) -> float:  # the top level builds no coboundary
    return _ladder_seconds(ns, lambda w: ((k, ns.m + k * w, k < ns.levels)
                                          for k in range(ns.levels + 1)))


def _cluster_cost(ns) -> float:  # row ``cluster check --trials 2000``
    return 1e-3 * ns.trials


# -- serialization ---------------------------------------------------------


def _series_payload(s: MultiSeries, approx: bool) -> dict:
    """The JSON shape of a series: variables, windows, the nonzero terms."""
    terms = []
    for key in sorted(k for k, c in s.c.items() if c):
        entry = {"exponents": list(key), "value": str(s.c[key])}
        if approx:
            entry["approx"] = float(s.c[key])
        terms.append(entry)
    return {"variables": list(s.vars),
            "window": {v: [s.window[v][0], s.window[v][1]] for v in s.vars},
            "terms": terms}


def _flatten(value, prefix: str, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, "" if value is None else value))


def _csv_text(payload: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    series_keys = [k for k in sorted(payload)
                   if isinstance(payload[k], dict)
                   and {"variables", "terms"} <= set(payload[k])]
    if len(series_keys) == 1:
        body = payload[series_keys[0]]
        extra = ["approx"] if any("approx" in t for t in body["terms"]) else []
        writer.writerow(list(body["variables"]) + ["value"] + extra)
        for term in body["terms"]:
            writer.writerow(list(term["exponents"]) + [term["value"]]
                            + [term[k] for k in extra])
    else:
        rows = [("key", "value")]
        _flatten(payload, "", rows)
        writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: dict, ns: argparse.Namespace):
    text = (_csv_text(payload) if ns.format == "csv"
            else json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- handlers --------------------------------------------------------------


def _run_eisenstein(ns: argparse.Namespace):
    from .elliptic import eisenstein

    ts = eisenstein(ns.k, ns.order)
    return {"k": ns.k, "order": ns.order, "pretty": ts.pretty(sep=""),
            "series": _series_payload(ts, ns.approx)}, 0


def _run_pm(ns: argparse.Namespace):
    from .elliptic import weierstrass_p

    ms = weierstrass_p(ns.m, ns.zorder, ns.qorder)
    return {"m": ns.m, "series": _series_payload(ms, ns.approx)}, 0


def _run_npoint(ns: argparse.Namespace):
    from .reduction import direct, unwind_to_partition
    from .voa import render_state

    genus, window, q_order = ns.genus, (-ns.zorder, ns.zorder), ns.qorder
    if ns.path == "oracle":
        F = direct(genus, ns.insertions, window, q_order)
    else:
        F = unwind_to_partition(tuple(reversed(ns.insertions)), genus,
                                window=window, q_order=q_order)
    payload = {"genus": genus, "path": ns.path,
               "insertions": [str(i) for i in ns.insertions],
               "value": _series_payload(F.value, ns.approx)}
    if genus == 0:
        payload["boundary"] = [render_state(s) for s in F.boundary_states]
    else:
        payload |= {"qorder": q_order, "q_shift": str(F.q_shift)}
    if ns.path == "reduce":
        payload["degenerate_steps"] = list(F.degenerate_steps)
    return payload, 0


def _run_residual(ns: argparse.Namespace):
    from .reduction import CorrelationFn, reduce_step
    from .voa import vacuum

    # a step rebuilds its image from the insertions alone, so its input
    # carries no value, only vacuum boundaries at genus 0
    boundary = (vacuum(), vacuum()) if ns.genus == 0 else None
    res = reduce_step(ns.direction, CorrelationFn(
        ns.genus, ns.insertions, None, (-ns.zorder, ns.zorder), boundary,
        ns.qorder)).value
    return {"genus": ns.genus, "direction": str(ns.direction),
            "insertions": [str(i) for i in ns.insertions],
            "is_zero": res.is_zero(),
            "residual": _series_payload(res, ns.approx)}, 0


def _run_g2_partition(ns: argparse.Namespace):
    from .genus2 import HALF_POWERS, SewingModuli, z2_partition
    from .sewing import renamed

    moduli = SewingModuli(ns.q1_order, ns.q2_order, ns.eps_order,
                          ns.matrix_cutoff)
    ms = renamed(z2_partition(moduli), HALF_POWERS)
    return {"eps_order": ns.eps_order, "matrix_cutoff": ns.matrix_cutoff,
            "q_shift": {"q1": "-1/24", "q2": "-1/24"},
            "series": _series_payload(ms, ns.approx)}, 0


def _run_g2_pweier(ns: argparse.Namespace):
    from .genus2 import HALF_POWERS, SewingModuli, gen_weierstrass
    from .sewing import renamed

    cutoff = ns.matrix_cutoff or 2 * ns.eps_order
    moduli = SewingModuli(ns.q1_order, ns.q2_order, ns.eps_order, cutoff)
    ms = renamed(gen_weierstrass(ns.p, ns.j, *ns.charts, moduli), HALF_POWERS)
    return {"p": ns.p, "j": ns.j, "charts": list(ns.charts),
            "eps_order": ns.eps_order, "matrix_cutoff": cutoff,
            "series": _series_payload(ms, ns.approx)}, 0


def _schottky_data(ns: argparse.Namespace, rho_order: int, cutoff: int):
    from .schottky import SchottkyData

    coordinates = ns.coordinates or DEFAULT_COORDINATES.get(ns.genus)
    if coordinates is None:
        raise ValueError(f"no default coordinates at genus {ns.genus}; "
                         "pass --coordinates")
    return SchottkyData(ns.genus, coordinates, rho_order, cutoff)


def _run_schottky_psi(ns: argparse.Namespace):
    from .schottky import psi_full
    from .sewing import renamed

    cutoff = ns.matrix_cutoff or max(2 * ns.rho_order, 2 * ns.p - 1)
    data = _schottky_data(ns, ns.rho_order, cutoff)
    ms = renamed(psi_full(ns.p, data), data.half_powers)
    return {"p": ns.p, "genus": data.genus,
            "coordinates": [str(w) for w in data.coordinates],
            "rho_order": ns.rho_order, "matrix_cutoff": cutoff,
            "series": _series_payload(ms, ns.approx)}, 0


def _run_schottky_partition(ns: argparse.Namespace):
    from .schottky import genus_g_partition
    from .sewing import renamed

    # the handle sum is cut by weight alone; the payload reports the
    # surface truncations it is built with
    cutoff = ns.weight_cutoff
    data = _schottky_data(ns, cutoff, 2 * cutoff)
    ms = renamed(genus_g_partition(data, cutoff), data.half_powers)
    return {"genus": data.genus,
            "coordinates": [str(w) for w in data.coordinates],
            "weight_cutoff": cutoff, "rho_order": cutoff,
            "matrix_cutoff": 2 * cutoff,
            "series": _series_payload(ms, ns.approx)}, 0


def _direction_args(ns: argparse.Namespace):
    """The direction that the --direction members act as (the step is
    linear in the state, so their sum at the first one's point), the mode
    window and the report fields that rank and euler share."""
    from .cohomology import direction_weight

    first, *rest = ns.direction or [_insertion("a@w")]
    members = [first] + [d._replace(point=first.point) for d in rest]
    for d in members:  # a member is refused as a lone direction would be
        direction_weight(d)
    direction = first._replace(state=sum((d.state for d in rest),
                                         first.state))
    window = (-ns.window, ns.window)
    return direction, window, {
        "genus": ns.genus, "direction": [str(d) for d in members],
        "combine": "sum",  # always, so that reports read as before
        "window": list(window), "qorder": ns.qorder,
        "certified": "within window"}


def _run_cohomology_rank(ns: argparse.Namespace):
    from .cohomology import cohomology_rank

    direction, window, payload = _direction_args(ns)
    result = cohomology_rank(ns.n, ns.m, ns.genus, direction, window=window,
                             q_order=ns.qorder, boundary=ns.boundary)
    return payload | {"n": ns.n, "m": ns.m, "q": result.q, "p": result.p,
                      "kernel_rank": result.kernel_rank,
                      "image_rank": result.image_rank}, 0


def _run_cohomology_euler(ns: argparse.Namespace):
    from .cohomology import euler_poincare

    direction, window, payload = _direction_args(ns)
    result = euler_poincare(ns.m, ns.levels, ns.genus, direction,
                            window=window, q_order=ns.qorder,
                            boundary=ns.boundary)
    return payload | {"m": ns.m, "N": ns.levels, "total": result.total,
                      "ledger": [dict(row) for row in result.ledger]}, 0


def _random_state(rng):
    """A random state of weight at most 3 drawn from the random.Random."""
    from fractions import Fraction

    from .voa import GradedVector, basis, vacuum

    coeffs = (1, -1, Fraction(1, 2), -2, Fraction(3, 7))
    v = GradedVector({})
    for _ in range(rng.randint(1, 2)):
        w = rng.randint(0, 3)
        part = rng.choice(basis(w))
        v = v + GradedVector.basis_state(part) * rng.choice(coeffs)
    return vacuum() if v.is_zero() else v


def _run_cluster_check(ns: argparse.Namespace):
    import random

    from .cohomology import ClusterSetting, involution_check, make_seed
    from .voa import render_state

    rng = random.Random(ns.seed)
    genera = (ns.genus,) if ns.genus is not None else (0, 1)
    failures, sample = 0, []
    # A small window keeps the batch quick; involutivity is coefficient
    # by coefficient, so any window that admits the seed exercises it.
    window, q_order = (-2, 2), 2
    for i in range(ns.trials):
        genus = genera[i % len(genera)]
        n = rng.randint(1, 3)
        states = tuple(_random_state(rng) for _ in range(n))
        seed = make_seed(states, genus, window=window, q_order=q_order)
        slot = rng.randint(1, n)
        grade = rng.randint(0, 2)
        if rng.random() < 0.5:
            xi = None
        else:
            supports = sorted({tuple(sorted(v.t)) for v in states})
            xi = {s: rng.choice((1, -1)) for s in supports}
        ok = involution_check(ClusterSetting(seed, slot, grade, xi=xi))
        failures += not ok
        if len(sample) < 5 or not ok:
            sample.append({"genus": genus, "m": grade, "slot": slot,
                           "states": [render_state(v) for v in states],
                           "xi": "support signs" if xi else "trivial",
                           "ok": ok})
    return {"trials": ns.trials, "seed": ns.seed, "failures": failures,
            "involutive": failures == 0, "sample": sample}, int(failures > 0)


# Every example command from the module documentation, frozen as a
# regression fixture.  Names ending in _csv are stored as .csv.
GOLDEN_CASES = (
    ("eisenstein_k2_order3",
     ("elliptic", "eisenstein", "--k", "2", "--order", "3")),
    ("eisenstein_k2_order3_csv",
     ("elliptic", "eisenstein", "--k", "2", "--order", "3",
      "--format", "csv")),
    ("eisenstein_k4_order10",
     ("elliptic", "eisenstein", "--k", "4", "--order", "10")),
    ("pm_m2_z6_q8",
     ("elliptic", "pm", "--m", "2", "--zorder", "6", "--qorder", "8")),
    ("npoint_g1_aa_q4",
     ("npoint", "--genus", "1", "--insertions", "a@z1,a@z2",
      "--qorder", "4")),
    ("npoint_g0_aa_oracle",
     ("npoint", "--genus", "0", "--insertions", "a@z1,a@z2", "--oracle")),
    ("npoint_g1_partition", ("npoint", "--genus", "1")),
    ("residual_a_at_z", ("residual", "--direction", "a@z")),
    ("genus2_partition_e4_q6_N8",
     ("genus2", "partition", "--eps-order", "4", "--q1-order", "6",
      "--q2-order", "6", "-N", "8")),
    ("genus2_pweier_p2_j1",
     ("genus2", "pweier", "--p", "2", "--j", "1", "--charts", "1", "1")),
    ("schottky_psi_p2_g2",
     ("schottky", "psi", "--p", "2", "--rho-order", "2", "-g", "2")),
    ("schottky_partition_g2_w3",
     ("schottky", "partition", "-g", "2", "--weight-cutoff", "3")),
    ("cohomology_rank_g1_n1_m2",
     ("cohomology", "rank", "--genus", "1", "-n", "1", "-m", "2",
      "--direction", "a@z")),
    ("cohomology_euler_m2_N3", ("cohomology", "euler", "-m", "2", "-N", "3")),
    ("cluster_check", ("cluster", "check")),
)


def golden_name(name: str) -> str:
    return name + (".csv" if name.endswith("_csv") else ".json")


def capture_output(argv) -> str:
    """Run one command and return its stdout; the command must succeed."""
    import io

    buffer = io.StringIO()
    stdout, sys.stdout = sys.stdout, buffer
    try:
        code = parse_and_dispatch(list(argv))
    finally:
        sys.stdout = stdout
    if code != 0:
        raise ValueError(f"golden command {argv!r} exited {code}")
    return buffer.getvalue()


def _run_golden(ns: argparse.Namespace):
    drifted, files = [], [golden_name(name) for name, _ in GOLDEN_CASES]
    for file, (_, argv) in zip(files, GOLDEN_CASES):
        text, path = capture_output(argv), os.path.join(ns.dir, file)
        if ns.check:
            with open(path) as fh:
                if fh.read() != text:
                    drifted.append(file)
        else:
            os.makedirs(ns.dir, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
    return {"mode": "check" if ns.check else "write", "directory": ns.dir,
            "files": files, "drifted": drifted}, int(bool(drifted))


def estimate(ns: argparse.Namespace) -> float:
    """The parsed command's estimated seconds; inf once a count overflows."""
    try:
        return ns.cost(ns) if ns.cost else 0.0
    except OverflowError:
        return math.inf


def parse_and_dispatch(argv: list[str]) -> int:
    """Run one subcommand.  Returns 0 on success, 1 on a domain error
    or failed batch check, 2 on flag grammar errors."""
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if not exc.code else 2
    # a command is named by its parser path, as in the reports
    ns.command = f"{ns.group} {ns.sub}" if "sub" in ns else ns.group
    # Exact values print in full: the interpreter's cap on int/str
    # conversion (Python 3.11 and later) is lifted while the command
    # runs and renders.
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        seconds = estimate(ns)  # the one cost rule, before any work
        if seconds > BUDGET_S:
            about = "far" if seconds == math.inf else f"{seconds:.3g} s,"
            raise ValueError(f"the estimated work of {ns.command} is "
                             f"{about} over the budget of {BUDGET_S:g} s")
        payload, code = ns.run(ns)
        _emit(payload | {"command": ns.command}, ns)
        return code
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

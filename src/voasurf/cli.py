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

Exit codes: 0 on success, 1 when a module rejects the request (window
too small, order constraints violated, an order over a stated budget,
a failed batch check), 2 on flag grammar errors.  Exact values print
in full, however many digits they have.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The library layers load inside the handlers that run them, so a
# command pays only for its own layers' import.
from .series import MultiSeries

# Reference Schottky coordinate tuples (w_-1, w_1, ..., w_-g, w_g) used
# when --coordinates is not given.
DEFAULT_COORDINATES = {1: (3, 1), 2: (3, 1, -2, 6)}

# Largest --k that elliptic eisenstein accepts.  The Bernoulli number
# B_k and the printed digits both grow with k: on a 2-core machine
# (Python 3.11) --order 1 takes 0.6 s at 1600, 1.2 s at 2000 and 3.6 s at
# 3000.
EISENSTEIN_INDEX_BUDGET = 2000

# Largest --zorder + --qorder that elliptic pm accepts.  The kernel
# needs E_k for m <= k <= zorder + m, each to q-order, so work and output
# grow with both: on a 2-core machine (Python 3.11) the worst split at
# the budget, (250, 250), prints 17.5 MB in 1.3-1.7 s at m = 1, and
# (499, 1) takes 0.14-0.19 s, its B_k read off one growing tangent table.
PM_ORDER_BUDGET = 500

# Largest --m that elliptic pm accepts.  The closed form builds every
# term once whatever m is; what still grows with m is the Eisenstein
# index m + zorder of the last term.  At the order budget's worst split
# m = 16 and m = 24 both take 1.4-1.8 s on the same machine.
PM_INDEX_BUDGET = 16

# Largest --zorder (the mode window half-width) that npoint and residual
# accept.  Work grows like a power of it with the number of points, which
# BOX_BUDGET bounds together with it: a genus-0 four-point oracle of
# currents takes 7 s at 50 and over 60 s at 100.
ZORDER_BUDGET = 50

# Largest window box (2 zorder + 1)^g that npoint and residual accept,
# three currents at the window budget.  g counts the generator modes
# a(-n) of each insertion's longest basis state (a 1, omega 2, the vacuum
# 1), residual's direction included: the recursions and oracles grow with
# those, not with the weight.  So 12 generators fit at zorder 1, 6 at 4
# and 3 from 16.  On the machine above, twelve currents at zorder 1 take
# 6 s at genus 1 and 9 s in the genus-0 oracle; six take 5 s at zorder
# 10 and over 20 s at 50, and six omega insertions over 30 s at 4.
BOX_BUDGET = (2 * ZORDER_BUDGET + 1) ** 3

# Largest --qorder (the q truncation order) that npoint and residual
# accept.  A genus-1 trace runs over every Fock state up to that weight,
# p(32) = 8 349 at the top level.  At 32 a genus-1 two-point reduction of
# currents takes 0.8 s, its oracle 4 s and the omega two-point function
# 5 s; at 40 they take 3 s, 24 s and 27 s.
QORDER_BUDGET = 32

# Largest --rho-order that schottky psi accepts.  The moment matrix
# cutoff defaults to twice the order, and the Neumann sum runs to it: at
# genus 2 in a fresh process on the machine above, --p 1 takes 2.6 s at
# 7, 5.0 s at 8 and 8.2 s at 9.  The work also grows with the genus, so
# the genus times the rho powers per handle (the order + 1) is held to
# its genus-2 value 2 * (RHO_ORDER_BUDGET + 1) = 16.  In fresh processes
# on a 2-core VM, --p 1 takes 4.3 s at -g 3 --rho-order 4 (15), 8.7 s at
# -g 4 --rho-order 3 (16), 4.0 s at -g 5 --rho-order 2 (15) and 2.5 s at
# -g 8 --rho-order 1 (16); refused are -g 3 --rho-order 5 (18), 12.3 s,
# and -g 7 --rho-order 2 (21), past 40 s.
RHO_ORDER_BUDGET = 7

# Largest channel count (p(0) + ... + p(cutoff))^g that schottky
# partition accepts: its handle sum visits one dual-basis channel per
# handle and weight.  In fresh processes on the machine above, g = 2 at
# cutoff 7 (2025 channels) takes 4.2 s, g = 3 at 4 (1728) 4.9 s and g = 5
# at 2 (1024) 5.0 s; g = 4 at 3 (2401) takes 11.9 s, g = 2 at 8 (4489)
# 15 s, and g = 2 at 9 (9409) runs past 30 s.
CHANNEL_BUDGET = 2025


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
    if not text.strip():
        return ()
    return tuple(_insertion(part) for part in text.split(","))


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--approx", action="store_true",
                        help="add float display fields next to the exact "
                             "values")

    parser = argparse.ArgumentParser(
        prog="voasurf",
        description="Exact correlation function computations for the rank "
                    "one Heisenberg vertex operator algebra on genus 0, 1, "
                    "2 and Schottky surfaces.")
    groups = parser.add_subparsers(dest="group", metavar="COMMAND",
                                   required=True)

    ell = groups.add_parser("elliptic", help="Eisenstein series and "
                            "Weierstrass kernels")
    ell_sub = ell.add_subparsers(dest="sub", metavar="SUBCOMMAND",
                                 required=True)
    eis = ell_sub.add_parser("eisenstein", parents=[common],
                             help="E_k(q) expansion")
    eis.add_argument("--k", type=_positive_int, required=True,
                     help="Eisenstein index (even, at least 2; at most "
                          f"{EISENSTEIN_INDEX_BUDGET})")
    eis.add_argument("--order", type=_positive_int, default=10,
                     help="q truncation order (default 10)")
    eis.set_defaults(command="elliptic eisenstein")

    pm = ell_sub.add_parser("pm", parents=[common],
                            help="Weierstrass kernel P_m(z, q)")
    pm.add_argument("--m", type=_positive_int, required=True,
                    help=f"kernel index, 1 <= m <= {PM_INDEX_BUDGET}")
    pm.add_argument("--zorder", type=_positive_int, default=6,
                    help="z truncation order (default 6; with --qorder at "
                         f"most {PM_ORDER_BUDGET})")
    pm.add_argument("--qorder", type=_positive_int, default=8,
                    help="q truncation order (default 8; with --zorder at "
                         f"most {PM_ORDER_BUDGET})")
    pm.set_defaults(command="elliptic pm")

    npoint = groups.add_parser(
        "npoint", parents=[common],
        help="n-point function at genus 0 or 1")
    npoint.add_argument("--genus", type=int, choices=(0, 1), required=True)
    npoint.add_argument("--insertions", type=_insertion_list, default=(),
                        help="comma-separated state@point list; empty for "
                             "the partition function")
    npoint.add_argument("--qorder", type=_positive_int, default=4,
                        help="q truncation order at genus 1 (default 4; "
                             f"at most {QORDER_BUDGET})")
    npoint.add_argument("--zorder", type=_positive_int, default=4,
                        help="mode window half-width per point (default 4; "
                             f"at most {ZORDER_BUDGET}, and (2 zorder + "
                             f"1)^generators at most {BOX_BUDGET})")
    path = npoint.add_mutually_exclusive_group()
    path.add_argument("--reduce", dest="path", action="store_const",
                      const="reduce", help="iterate the reduction recursion "
                      "from the partition function (default)")
    path.add_argument("--oracle", dest="path", action="store_const",
                      const="oracle", help="brute-force mode expansion")
    npoint.set_defaults(command="npoint", path="reduce")

    residual = groups.add_parser(
        "residual", parents=[common],
        help="reduction residual of a correlation function in one direction")
    residual.add_argument("--genus", type=int, choices=(0, 1), default=1)
    residual.add_argument("--insertions", type=_insertion_list, default=(),
                          help="base correlation function insertions "
                               "(default: none, the partition function)")
    residual.add_argument("--direction", type=_insertion, required=True,
                          help="reduction direction as state@point")
    residual.add_argument("--qorder", type=_positive_int, default=4,
                          help="q truncation order at genus 1 (default 4; "
                               f"at most {QORDER_BUDGET})")
    residual.add_argument("--zorder", type=_positive_int, default=4,
                          help="mode window half-width per point (default "
                               f"4; at most {ZORDER_BUDGET}, and (2 zorder "
                               f"+ 1)^generators at most {BOX_BUDGET})")
    residual.set_defaults(command="residual")

    g2 = groups.add_parser("genus2", help="epsilon-sewn two-torus surface")
    g2_sub = g2.add_subparsers(dest="sub", metavar="SUBCOMMAND",
                               required=True)
    g2p = g2_sub.add_parser("partition", parents=[common],
                            help="genus-2 partition function expansion")
    g2p.add_argument("--eps-order", type=_positive_int, default=4,
                     help="epsilon truncation order (default 4)")
    g2p.add_argument("--q1-order", type=_positive_int, default=6)
    g2p.add_argument("--q2-order", type=_positive_int, default=6)
    g2p.add_argument("-N", "--matrix-cutoff", type=_positive_int, default=8,
                     help="moment matrix cutoff, at least twice the epsilon "
                          "order (default 8); the Hafnian channel sum "
                          "builds no matrix, so no coefficient depends on it")
    g2p.set_defaults(command="genus2 partition")

    g2w = g2_sub.add_parser("pweier", parents=[common],
                            help="generalized Weierstrass kernel")
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
    g2w.set_defaults(command="genus2 pweier")

    sch = groups.add_parser("schottky", help="genus-g Schottky surface")
    sch_sub = sch.add_subparsers(dest="sub", metavar="SUBCOMMAND",
                                 required=True)
    psi = sch_sub.add_parser("psi", parents=[common],
                             help="dressed kernel Psi_p expansion")
    psi.add_argument("--p", type=_positive_int, required=True,
                     help="kernel weight, at most 3: the expansion's fixed "
                          "y window 0..4 must cover the degrees 0..2p-2 "
                          "of the seed's f-part")
    psi.add_argument("-g", "--genus", type=_positive_int, required=True)
    psi.add_argument("--rho-order", type=_positive_int, default=2,
                     help="rho truncation order per handle (default 2; at "
                          f"most {RHO_ORDER_BUDGET}, and the genus times "
                          f"(the order + 1) at most "
                          f"{2 * (RHO_ORDER_BUDGET + 1)})")
    psi.add_argument("--coordinates", type=_int_list,
                     help="comma-separated fixed points w_-1,w_1,...,"
                          "w_-g,w_g (defaults: genus 1 -> 3,1; genus 2 -> "
                          "3,1,-2,6)")
    psi.add_argument("-N", "--matrix-cutoff", type=_positive_int,
                     help="moment matrix cutoff (default: max of twice the "
                          "rho order and 2p-1; at most "
                          f"{2 * RHO_ORDER_BUDGET}, the largest default: "
                          "a larger cutoff changes no coefficient)")
    psi.set_defaults(command="schottky psi")

    spart = sch_sub.add_parser("partition", parents=[common],
                               help="genus-g partition handle sum")
    spart.add_argument("-g", "--genus", type=_positive_int, required=True)
    spart.add_argument("--weight-cutoff", type=_positive_int, default=3,
                       help="weight cutoff per handle of the handle sum "
                            "(default 3; the channel count (p(0) + ... + "
                            "p(cutoff))^genus, p the partition numbers, at "
                            f"most {CHANNEL_BUDGET})")
    spart.add_argument("--coordinates", type=_int_list,
                       help="fixed points as for schottky psi")
    spart.set_defaults(command="schottky partition")

    coh = groups.add_parser("cohomology",
                            help="reduction cohomology of graded slices")
    coh_sub = coh.add_subparsers(dest="sub", metavar="SUBCOMMAND",
                                 required=True)
    rank = coh_sub.add_parser("rank", parents=[common],
                              help="chain, kernel, image and cohomology "
                                   "ranks of one slice")
    rank.add_argument("--genus", type=int, choices=(0, 1), default=1)
    rank.add_argument("-n", type=_nonneg_int, required=True,
                      help="number of insertion slots")
    rank.add_argument("-m", type=_nonneg_int, required=True,
                      help="total weight of the slice")
    rank.add_argument("--direction", type=_insertion, action="append",
                      required=True,
                      help="reduction direction state@point; repeat for a "
                           "family")
    rank.add_argument("--combine", choices=("sum", "stack"), default="sum",
                      help="how a direction family acts (default sum)")
    rank.add_argument("--window", type=_positive_int, default=4,
                      help="mode window half-width (default 4)")
    rank.add_argument("--qorder", type=_positive_int, default=4)
    rank.add_argument("--boundary", type=_state_list,
                      help="two comma-separated boundary states at genus 0")
    rank.set_defaults(command="cohomology rank")

    euler = coh_sub.add_parser("euler", parents=[common],
                               help="Euler-Poincare ledger over a weight "
                                    "ladder")
    euler.add_argument("--genus", type=int, choices=(0, 1), default=1)
    euler.add_argument("-m", type=_nonneg_int, required=True,
                       help="weight of the level-0 slice")
    euler.add_argument("-N", type=_nonneg_int, required=True, dest="levels",
                       help="top chain level of the ladder")
    euler.add_argument("--direction", type=_insertion, action="append",
                       help="reduction direction (default a@w)")
    euler.add_argument("--combine", choices=("sum", "stack"), default="sum")
    euler.add_argument("--window", type=_positive_int, default=4)
    euler.add_argument("--qorder", type=_positive_int, default=4)
    euler.add_argument("--boundary", type=_state_list,
                       help="two comma-separated boundary states at genus 0")
    euler.set_defaults(command="cohomology euler")

    cluster = groups.add_parser("cluster",
                                help="cluster seed mutation checks")
    cluster_sub = cluster.add_subparsers(dest="sub", metavar="SUBCOMMAND",
                                         required=True)
    check = cluster_sub.add_parser(
        "check", parents=[common],
        help="run a deterministic batch of double-mutation involution "
             "trials")
    check.add_argument("--trials", type=_positive_int, default=60)
    check.add_argument("--seed", type=_nonneg_int, default=7,
                       help="random generator seed (default 7)")
    check.add_argument("--genus", type=int, choices=(0, 1),
                       help="restrict trials to one genus (default: both)")
    check.set_defaults(command="cluster check")

    golden = groups.add_parser(
        "golden", parents=[common],
        help="write or check the golden regression files for every "
             "documented example command")
    golden.add_argument("--dir", default="tests/golden", metavar="PATH",
                        help="golden file directory (default tests/golden)")
    golden.add_argument("--check", action="store_true",
                        help="compare against the stored files instead of "
                             "rewriting them; exit 1 on any drift")
    golden.set_defaults(command="golden")

    return parser


# -- serialization ---------------------------------------------------------


def _series_payload(s: MultiSeries, approx: bool) -> dict:
    """The JSON shape of a series: variables, windows and the nonzero
    terms in exponent order."""
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
        with_approx = any("approx" in t for t in body["terms"])
        header = list(body["variables"]) + ["value"]
        if with_approx:
            header.append("approx")
        writer.writerow(header)
        for term in body["terms"]:
            row = list(term["exponents"]) + [term["value"]]
            if with_approx:
                row.append(term["approx"])
            writer.writerow(row)
    else:
        writer.writerow(["key", "value"])
        rows = []
        _flatten(payload, "", rows)
        for key, value in rows:
            writer.writerow([key, value])
    return buf.getvalue()


def _emit(payload: dict, ns: argparse.Namespace):
    if ns.format == "csv":
        text = _csv_text(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- handlers --------------------------------------------------------------


def _run_eisenstein(ns: argparse.Namespace):
    _check_budget("--k", ns.k, "index", EISENSTEIN_INDEX_BUDGET,
                  "elliptic eisenstein")
    from .elliptic import eisenstein

    ts = eisenstein(ns.k, ns.order)
    return {"command": "elliptic eisenstein", "k": ns.k, "order": ns.order,
            "pretty": ts.pretty(sep=""),
            "series": _series_payload(ts, ns.approx)}, 0


def _check_budget(flag: str, value: int, kind: str, budget: int,
                  command: str) -> None:
    """Refuse a request whose ``flag`` value is over its budget, before
    any work."""
    if value > budget:
        raise ValueError(f"{flag} is {value}, over the {kind} budget "
                         f"{budget} of {command}")


def _check_correlation_budgets(ns: argparse.Namespace, command: str,
                               insertions: tuple, flags: str) -> None:
    """The window, box and q-order budgets of npoint and residual."""
    _check_budget("--zorder", ns.zorder, "window", ZORDER_BUDGET, command)
    most = 0  # generators whose box (2 zorder + 1)^g fits the budget
    while (2 * ns.zorder + 1) ** (most + 1) <= BOX_BUDGET:
        most += 1
    _check_budget(f"the generator count of {flags} at --zorder {ns.zorder}",
                  sum(max(1, max(map(len, ins.state.t), default=0))
                      for ins in insertions), "generator", most, command)
    _check_budget("--qorder", ns.qorder, "order", QORDER_BUDGET, command)


def _run_pm(ns: argparse.Namespace):
    _check_budget("--m", ns.m, "index", PM_INDEX_BUDGET, "elliptic pm")
    _check_budget("--zorder + --qorder", ns.zorder + ns.qorder, "order",
                  PM_ORDER_BUDGET, "elliptic pm")
    from .elliptic import weierstrass_p

    ms = weierstrass_p(ns.m, ns.zorder, ns.qorder)
    return {"command": "elliptic pm", "m": ns.m,
            "series": _series_payload(ms, ns.approx)}, 0


def _run_npoint(ns: argparse.Namespace):
    _check_correlation_budgets(ns, "npoint", ns.insertions, "--insertions")
    from .reduction import direct, unwind_to_partition
    from .voa import render_state

    genus = ns.genus
    window = (-ns.zorder, ns.zorder)
    q_order = ns.qorder
    if ns.path == "oracle":
        F = direct(genus, ns.insertions, window, q_order)
    else:
        F = unwind_to_partition(tuple(reversed(ns.insertions)), genus,
                                window=window, q_order=q_order)
    payload = {"command": "npoint", "genus": genus,
               "path": ns.path,
               "insertions": [str(i) for i in ns.insertions],
               "value": _series_payload(F.value, ns.approx)}
    if genus == 0:
        payload["boundary"] = [render_state(s) for s in F.boundary_states]
    else:
        payload["qorder"] = q_order
        payload["q_shift"] = str(F.q_shift)
    if ns.path == "reduce":
        payload["degenerate_steps"] = list(F.degenerate_steps)
    return payload, 0


def _run_residual(ns: argparse.Namespace):
    _check_correlation_budgets(ns, "residual",
                               ns.insertions + (ns.direction,),
                               "--insertions and --direction")
    from .reduction import direct, reduce_step

    res = reduce_step(ns.direction, direct(
        ns.genus, ns.insertions, (-ns.zorder, ns.zorder), ns.qorder)).value
    return {"command": "residual", "genus": ns.genus,
            "direction": str(ns.direction),
            "insertions": [str(i) for i in ns.insertions],
            "is_zero": res.is_zero(),
            "residual": _series_payload(res, ns.approx)}, 0


def _run_g2_partition(ns: argparse.Namespace):
    from .genus2 import HALF_POWERS, SewingModuli, z2_partition
    from .sewing import renamed

    moduli = SewingModuli(ns.q1_order, ns.q2_order, ns.eps_order,
                          ns.matrix_cutoff)
    ms = renamed(z2_partition(moduli), HALF_POWERS)
    return {"command": "genus2 partition", "eps_order": ns.eps_order,
            "matrix_cutoff": ns.matrix_cutoff,
            "q_shift": {"q1": "-1/24", "q2": "-1/24"},
            "series": _series_payload(ms, ns.approx)}, 0


def _run_g2_pweier(ns: argparse.Namespace):
    from .genus2 import HALF_POWERS, SewingModuli, gen_weierstrass
    from .sewing import renamed

    cutoff = ns.matrix_cutoff or 2 * ns.eps_order
    moduli = SewingModuli(ns.q1_order, ns.q2_order, ns.eps_order, cutoff)
    x_chart, y_chart = ns.charts
    ms = renamed(gen_weierstrass(ns.p, ns.j, x_chart, y_chart, moduli),
                 HALF_POWERS)
    return {"command": "genus2 pweier", "p": ns.p, "j": ns.j,
            "charts": [x_chart, y_chart],
            "eps_order": ns.eps_order, "matrix_cutoff": cutoff,
            "series": _series_payload(ms, ns.approx)}, 0


def _schottky_data(ns: argparse.Namespace, rho_order: int, cutoff: int):
    from .schottky import SchottkyData

    coordinates = ns.coordinates
    if coordinates is None:
        coordinates = DEFAULT_COORDINATES.get(ns.genus)
        if coordinates is None:
            raise ValueError(f"no default coordinates at genus {ns.genus}; "
                             "pass --coordinates")
    return SchottkyData(ns.genus, coordinates, rho_order, cutoff)


def _run_schottky_psi(ns: argparse.Namespace):
    _check_budget("--rho-order", ns.rho_order, "order", RHO_ORDER_BUDGET,
                  "schottky psi")
    _check_budget("the genus times (--rho-order + 1)",
                  ns.genus * (ns.rho_order + 1), "order",
                  2 * (RHO_ORDER_BUDGET + 1), "schottky psi")
    if ns.matrix_cutoff is not None:
        _check_budget("-N", ns.matrix_cutoff, "cutoff",
                      2 * RHO_ORDER_BUDGET, "schottky psi")
    from .schottky import psi_full
    from .sewing import renamed

    cutoff = ns.matrix_cutoff or max(2 * ns.rho_order, 2 * ns.p - 1)
    data = _schottky_data(ns, ns.rho_order, cutoff)
    ms = renamed(psi_full(ns.p, data), data.half_powers)
    return {"command": "schottky psi", "p": ns.p, "genus": data.genus,
            "coordinates": [str(w) for w in data.coordinates],
            "rho_order": ns.rho_order, "matrix_cutoff": cutoff,
            "series": _series_payload(ms, ns.approx)}, 0


def _run_schottky_partition(ns: argparse.Namespace):
    from .schottky import genus_g_partition
    from .sewing import renamed
    from .voa import basis

    # the handle sum is cut by weight alone; the payload reports the
    # surface truncations it is built with
    cutoff = ns.weight_cutoff
    data = _schottky_data(ns, cutoff, 2 * cutoff)
    per_handle = 0  # p(0) + ... + p(m); stops once over budget
    for m in range(cutoff + 1):
        per_handle += len(basis(m))
        if per_handle ** data.genus > CHANNEL_BUDGET:
            raise ValueError(
                f"the channel count (p(0) + ... + p({cutoff}))^{data.genus} "
                f"is over the channel budget {CHANNEL_BUDGET} of schottky "
                "partition")
    ms = renamed(genus_g_partition(data, cutoff), data.half_powers)
    return {"command": "schottky partition", "genus": data.genus,
            "coordinates": [str(w) for w in data.coordinates],
            "weight_cutoff": cutoff, "rho_order": cutoff,
            "matrix_cutoff": 2 * cutoff,
            "series": _series_payload(ms, ns.approx)}, 0


def _direction_args(ns: argparse.Namespace):
    """The direction family as the computation uses it (every member
    moved to the first member's point) and the mode window."""
    from .cohomology import _direction_family

    family, _ = _direction_family(ns.direction or [_insertion("a@w")],
                                  ns.combine)
    return family, (-ns.window, ns.window)


def _run_cohomology_rank(ns: argparse.Namespace):
    from .cohomology import cohomology_rank

    family, window = _direction_args(ns)
    result = cohomology_rank(ns.n, ns.m, ns.genus, family, window=window,
                             q_order=ns.qorder, boundary=ns.boundary,
                             combine=ns.combine)
    return {"command": "cohomology rank", "genus": ns.genus,
            "n": ns.n, "m": ns.m,
            "direction": [str(d) for d in family],
            "combine": ns.combine,
            "window": list(window), "qorder": ns.qorder,
            "q": result.q, "p": result.p,
            "kernel_rank": result.kernel_rank,
            "image_rank": result.image_rank,
            "certified": "within window"}, 0


def _run_cohomology_euler(ns: argparse.Namespace):
    from .cohomology import euler_poincare

    family, window = _direction_args(ns)
    result = euler_poincare(ns.m, ns.levels, ns.genus, family,
                            window=window, q_order=ns.qorder,
                            boundary=ns.boundary, combine=ns.combine)
    return {"command": "cohomology euler", "genus": ns.genus,
            "m": ns.m, "N": ns.levels,
            "direction": [str(d) for d in family],
            "combine": ns.combine,
            "window": list(window), "qorder": ns.qorder,
            "total": result.total,
            "ledger": [dict(row) for row in result.ledger],
            "certified": "within window"}, 0


def _random_state(rng):
    """A random state of weight at most 3 drawn from ``rng``, a
    ``random.Random``."""
    from fractions import Fraction

    from .voa import GradedVector, basis, vacuum

    coeffs = (1, -1, Fraction(1, 2), -2, Fraction(3, 7))
    v = GradedVector({})
    for _ in range(rng.randint(1, 2)):
        w = rng.randint(0, 3)
        part = rng.choice(basis(w))
        v = v + GradedVector.basis_state(part) * rng.choice(coeffs)
    if v.is_zero():
        v = vacuum()
    return v


def _run_cluster_check(ns: argparse.Namespace):
    import random

    from .cohomology import ClusterSetting, involution_check, make_seed
    from .voa import render_state

    rng = random.Random(ns.seed)
    genera = (ns.genus,) if ns.genus is not None else (0, 1)
    failures = 0
    sample = []
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
        if not ok:
            failures += 1
        if len(sample) < 5 or not ok:
            sample.append({"genus": genus, "m": grade, "slot": slot,
                           "states": [render_state(v) for v in states],
                           "xi": "support signs" if xi else "trivial",
                           "ok": ok})
    payload = {"command": "cluster check", "trials": ns.trials,
               "seed": ns.seed, "failures": failures,
               "involutive": failures == 0, "sample": sample}
    return payload, 0 if failures == 0 else 1


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
    """Run one command and return its stdout text; the command must
    succeed."""
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
    directory = ns.dir
    checking = ns.check
    drifted, files = [], []
    for name, argv in GOLDEN_CASES:
        text = capture_output(argv)
        path = os.path.join(directory, golden_name(name))
        files.append(golden_name(name))
        if checking:
            with open(path) as fh:
                if fh.read() != text:
                    drifted.append(golden_name(name))
        else:
            os.makedirs(directory, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
    payload = {"command": "golden",
               "mode": "check" if checking else "write",
               "directory": directory, "files": files,
               "drifted": drifted}
    return payload, 0 if not drifted else 1


_HANDLERS = {
    "elliptic eisenstein": _run_eisenstein,
    "elliptic pm": _run_pm,
    "npoint": _run_npoint,
    "residual": _run_residual,
    "genus2 partition": _run_g2_partition,
    "genus2 pweier": _run_g2_pweier,
    "schottky psi": _run_schottky_psi,
    "schottky partition": _run_schottky_partition,
    "cohomology rank": _run_cohomology_rank,
    "cohomology euler": _run_cohomology_euler,
    "cluster check": _run_cluster_check,
    "golden": _run_golden,
}


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
    # Exact values print in full: the interpreter's cap on int/str
    # conversion (Python 3.11 and later) is lifted while the command
    # runs and renders.
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        payload, code = _HANDLERS[ns.command](ns)
        _emit(payload, ns)
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

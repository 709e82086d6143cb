"""Spans around the public functions of every voasurf layer.

A traced process wraps each function in ``TARGETS`` and rebinds the
wrapper in every ``voasurf.*`` namespace that holds the original, since
modules import each other's functions by name (``voa`` holds
``linalg.inverse`` as ``mat_inverse``).  The two series products are
wrapped on their classes.  Each call records a span (name, start, end,
parent, job); spans stay in memory and are written out when the process
ends.  Self time is a span's duration minus the durations of its child
spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# The statistics every wrapped function reports; TARGETS names the
# ones a traced run publishes as ``<name>.<stat>``.
ALL = ("calls", "self_s", "errors")

# metric prefix -> (module, attribute path, published statistics)
TARGETS = {
    "series.MultiSeries.mul": ("series", "MultiSeries.__mul__",
                               ("calls", "self_s", "terms_out")),
    "series.TruncatedSeries.mul": ("series", "TruncatedSeries.__mul__",
                                   ("calls", "self_s")),
    "voa.vertex_mode": ("voa", "vertex_mode", ALL),
    "voa.zero_mode": ("voa", "zero_mode", ALL),
    "voa.dual_basis": ("voa", "dual_basis", ALL),
    "elliptic.eisenstein": ("elliptic", "eisenstein", ALL),
    "elliptic.weierstrass_p": ("elliptic", "weierstrass_p", ("self_s",)),
    "elliptic.weierstrass_p_qz": ("elliptic", "weierstrass_p_qz",
                                  ("self_s",)),
    "reduction.genus1_direct": ("reduction", "genus1_direct", ALL),
    "reduction.genus0_direct": ("reduction", "genus0_direct", ALL),
    "reduction.unwind_to_partition": ("reduction", "unwind_to_partition",
                                      ALL),
    "reduction.genus1_reduce": ("reduction", "genus1_reduce", ("calls",)),
    "reduction.genus0_reduce": ("reduction", "genus0_reduce", ("calls",)),
    "reduction.genus1_onepoint": ("reduction", "genus1_onepoint", ALL),
    "genus2.kernel_mul": ("genus2", "kernel_mul", ALL),
    "genus2.neumann_inverse": ("genus2", "neumann_inverse",
                               ("calls", "self_s", "depth")),
    "genus2.z2_partition": ("genus2", "z2_partition", ("self_s",)),
    "genus2.gen_weierstrass": ("genus2", "gen_weierstrass", ("self_s",)),
    "schottky.handle_mul": ("schottky", "handle_mul", ALL),
    "schottky.neumann_inverse": ("schottky", "neumann_inverse",
                                 ("calls", "self_s", "depth")),
    "schottky.genus0_rational_value": ("schottky", "genus0_rational_value",
                                       ("calls", "nonzero_ratio")),
    "schottky.genus_g_npoint": ("schottky", "genus_g_npoint", ("self_s",)),
    "schottky.genus_g_reduce": ("schottky", "genus_g_reduce", ("self_s",)),
    "schottky.psi_full": ("schottky", "psi_full", ("self_s",)),
    "cohomology.build_coboundary": ("cohomology", "build_coboundary", ALL),
    "cohomology.cohomology_rank": ("cohomology", "cohomology_rank",
                                   ("self_s",)),
    "cohomology.euler_poincare": ("cohomology", "euler_poincare",
                                  ("self_s",)),
    "cohomology.involution_check": ("cohomology", "involution_check", ALL),
    "linalg.row_echelon": ("linalg", "row_echelon",
                           ("calls", "self_s", "cells", "rank_ratio")),
    "linalg.kernel_basis": ("linalg", "kernel_basis", ALL),
    "linalg.inverse": ("linalg", "inverse", ALL),
    "cli.parse_and_dispatch": ("cli", "parse_and_dispatch", ("self_s",)),
}

# A call of the key made while the value's span is open adds one to the
# value's ``depth``.
DEPTH_OF = {"genus2.kernel_mul": "genus2.neumann_inverse",
            "schottky.handle_mul": "schottky.neumann_inverse"}


def _terms_out(stats, args, out):
    stats["terms_out"] += len(out.c)


def _nonzero(stats, args, out):
    stats["nonzero"] += bool(out)


def _echelon_shape(stats, args, out):
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    stats["cells"] += rows * cols
    stats["rank_sum"] += out[2]
    stats["min_dim_sum"] += min(rows, cols)


OBSERVERS = {"series.MultiSeries.mul": _terms_out,
             "schottky.genus0_rational_value": _nonzero,
             "linalg.row_echelon": _echelon_shape}


class TraceSetupError(RuntimeError):
    """A traced name no longer resolves."""


def resolve(name: str):
    """The (owner, attribute, function) a target names; raises
    TraceSetupError when a rename has made it disappear."""
    module, path, _ = TARGETS[name]
    try:
        owner = importlib.import_module(f"voasurf.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise TraceSetupError(
            f"traced name {name} no longer resolves: {exc}") from exc


class Tracer:
    """Records spans and per-name statistics for one process."""

    def __init__(self, names=tuple(TARGETS)):
        self.spans = []      # [name, start, end, parent, job, child_time]
        self.stack = []
        self.job = -1
        self.active = {name: 0 for name in names}
        self.stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0,
                             "depth": 0, "terms_out": 0, "nonzero": 0,
                             "cells": 0, "rank_sum": 0, "min_dim_sum": 0}
                      for name in names}

    def wrap(self, name, fn):
        stats = self.stats[name]
        observe = OBSERVERS.get(name)
        depth_of = DEPTH_OF.get(name)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.job, 0.0]
            spans.append(span)
            stack.append(index)
            active[name] += 1
            stats["calls"] += 1
            if depth_of is not None and active[depth_of]:
                self.stats[depth_of]["depth"] += 1
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                span[2] = end
                stack.pop()
                active[name] -= 1
                duration = end - span[1]
                stats["self_s"] += duration - span[5]
                if parent >= 0:
                    spans[parent][5] += duration
                if failed:
                    stats["errors"] += 1
            if observe is not None:
                observe(stats, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; every name is resolved before anything is
        rebound, so a missing one fails before timing starts."""
        found = {name: resolve(name) for name in TARGETS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "voasurf" or n.startswith("voasurf.")]
        for name, (owner, attr, fn) in found.items():
            wrapper = self.wrap(name, fn)
            for holder in [owner] + modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)

    def summary(self) -> dict:
        return {name: dict(s) for name, s in self.stats.items()}

    def write_spans(self, path: str, tag: dict) -> None:
        """Append the spans as JSON lines (name, start, end, parent,
        job) tagged with the pass they belong to."""
        with open(path, "a") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([tag, name, start, end, parent, job]))
                fh.write("\n")

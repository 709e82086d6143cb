"""The voasurf benchmark runner.

    python3 bench/run.py --workload torus-oracle --seed 1 --seconds 20 \\
        --trace 0

runs one workload for about ``--seconds`` seconds and prints one line per
metric, then, as its last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).

The runner is one process using only the standard library.  It builds
the seeded job list, then runs passes one after another, each pass
being the whole job list (a closed loop with one client).  A library
pass runs in a fresh child process, so memo caches start cold and warm
up across the pass; a ``cli-docs`` pass starts one child per command.
Every pass of a run replays the same job list, and the metrics are
medians over passes and jobs.  Every time is scaled to a reference
speed of the machine by probes taken around it (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import probe, scaled
from tracer import TARGETS
from workloads import SIZES, WORKLOADS, make_jobs, tail_block

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mib": "MiB"}
STAT_UNITS = {"calls": "count", "self_s": "s", "errors": "count",
              "terms_out": "count", "depth": "count",
              "nonzero_ratio": "ratio", "cells": "count",
              "rank_ratio": "ratio"}
PASS_METRICS = {"elliptic.cache.files": "count",
                "elliptic.cache.bytes": "bytes",
                "cli.stdout_bytes": "bytes"}
PER_LAYER = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, (_, _, stats) in TARGETS.items() for stat in stats}
PER_LAYER.update(PASS_METRICS)
PASS_ZEROS = {name: 0 for name in PASS_METRICS}
PER_LAYER["trace.overhead_s"] = "s"

SETUP_PROBES = 5       # import-only launches made before measuring
HARD_LIMIT_S = 150.0   # no job starts later than this into a run
TRACE_BROKEN = 3       # child exit code: a traced name does not resolve


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Launch:
    code: int
    stdout: bytes
    stderr: str
    setup_s: float          # scaled; None when the child never got ready
    setup_raw_s: float
    elapsed_s: float        # scaled, spawn to exit less the child's probes
    elapsed_raw_s: float
    timed_out: bool


@dataclass
class PassResult:
    job_s: list             # scaled job times
    job_raw_s: list
    errors: list            # one entry per job, None when it passed
    layers: dict = None     # per-layer values of a traced pass

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)

    @property
    def wall_raw_s(self) -> float:
        return sum(self.job_raw_s)


def child_env(extra: dict = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "VOASURF_CACHE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def launch(args: list, env: dict, cwd: Path, timeout: float,
           stdin: bytes = None) -> Launch:
    """Start ``child.py`` and wait for it; set-up is the time from spawn
    to the child's ``bench-ready`` mark, scaled by the probes just before
    the spawn and in the child, and the elapsed time is scaled by all
    probes: those before the spawn, in the child, sampled while a CLI
    command ran, and just after the exit."""
    before = probe()
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)] + args, env=env, cwd=cwd,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = False
    try:
        out, err = proc.communicate(stdin, timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    elapsed = time.monotonic() - started
    after = probe()
    text = err.decode(errors="replace")
    first, _, rest = text.partition("\n")
    setup = setup_raw = None
    probes = [before, after]
    if first.startswith("bench-ready "):
        ready, child_probe = (float(x) for x in first.split()[1:3])
        setup_raw = ready - started
        setup = scaled(setup_raw, before, child_probe)
        elapsed -= child_probe
        probes.append(child_probe)
    else:
        rest = text
    rest, _, last = rest.rstrip("\n").rpartition("\n")
    if last.startswith("bench-samples "):
        spent, *samples = (float(x) for x in last.split()[1:])
        elapsed -= spent
        probes += samples
    else:
        rest = f"{rest}\n{last}"
    if proc.returncode == TRACE_BROKEN:
        raise BenchError(rest.strip() or "tracing could not be set up")
    return Launch(proc.returncode, out, rest, setup, setup_raw,
                  scaled(elapsed, *probes), elapsed, timed_out)


class Run:
    """One invocation: a workload, its job list and the passes made."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, size: str):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.jobs = make_jobs(workload, seed, size, ROOT)
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.spans_out = ROOT / ".bench_out" / f"spans-{workload}.jsonl"
        self.setups = []
        self.setups_raw = []
        self.passes = []
        self.traced = []
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.goldens = {}
        if workload == "cli-docs":
            golden_dir = ROOT / "tests" / "golden"
            for job in self.jobs:
                self.goldens[job["golden"]] = \
                    (golden_dir / job["golden"]).read_bytes()

    def remaining(self) -> float:
        return self.hard_deadline - time.monotonic()

    def _setup(self, result: Launch) -> None:
        if result.setup_s is not None:
            self.setups.append(result.setup_s)
            self.setups_raw.append(result.setup_raw_s)

    # -- passes ------------------------------------------------------------

    def library_pass(self, index: int, traced: bool) -> PassResult:
        spec = {"jobs": self.jobs, "trace": traced, "pass": index,
                "budget_s": self.spec["budget_s"],
                "deadline": self.hard_deadline,
                "spans_out": str(self.spans_out) if traced else None}
        result = launch(["pass"], child_env(), self.work,
                        self.remaining() + 10, json.dumps(spec).encode())
        self._setup(result)
        try:
            data = json.loads(result.stdout.decode().splitlines()[-1])
        except (IndexError, ValueError):
            reason = "pass process failed: " + (
                "timed out" if result.timed_out else
                f"exit {result.code}: {result.stderr.strip()[-300:]}")
            n = len(self.jobs)
            return PassResult([result.elapsed_s / n] * n,
                              [result.elapsed_raw_s / n] * n, [reason] * n,
                              layer_values({}) | PASS_ZEROS if traced
                              else None)
        layers = None
        if traced:
            layers = layer_values(data["layers"]) | PASS_ZEROS
        return PassResult([j["s"] for j in data["jobs"]],
                          [j["raw_s"] for j in data["jobs"]],
                          [j["error"] for j in data["jobs"]], layers)

    def cli_pass(self, index: int, traced: bool) -> PassResult:
        cache = self.work / f"cache-{index}"
        cache.mkdir()
        extra = {"VOASURF_CACHE": str(cache)}
        layers_file = self.work / "layers.json"
        if traced:
            extra.update(BENCH_LAYERS_OUT=str(layers_file),
                         BENCH_SPANS_OUT=str(self.spans_out),
                         BENCH_PASS=str(index))
        totals = None
        job_s, job_raw_s, errors, stdout_bytes = [], [], [], 0
        for i, job in enumerate(self.jobs):
            if self.remaining() <= 0:
                job_s.append(0.0)
                job_raw_s.append(0.0)
                errors.append("run deadline passed before start")
                continue
            env = child_env(dict(extra, BENCH_JOB=str(i)))
            result = launch(["cli"] + job["argv"], env, self.work,
                            min(self.spec["budget_s"], self.remaining()))
            self._setup(result)
            job_s.append(result.elapsed_s)
            job_raw_s.append(result.elapsed_raw_s)
            stdout_bytes += len(result.stdout)
            if result.timed_out:
                errors.append("over its time budget")
            elif result.code != 0:
                errors.append(f"exit {result.code}: "
                              f"{result.stderr.strip()[-300:]}")
            elif result.stdout != self.goldens[job["golden"]]:
                errors.append(f"stdout differs from {job['golden']}")
            else:
                errors.append(None)
            if traced and layers_file.exists():
                stats = json.loads(layers_file.read_text())
                layers_file.unlink()
                totals = stats if totals is None else add_stats(totals,
                                                                stats)
        layers = None
        if traced:
            layers = layer_values(totals or {})
            files = [p for p in cache.iterdir() if p.is_file()]
            layers["elliptic.cache.files"] = len(files)
            layers["elliptic.cache.bytes"] = sum(p.stat().st_size
                                                 for p in files)
            layers["cli.stdout_bytes"] = stdout_bytes
        return PassResult(job_s, job_raw_s, errors, layers)

    def one_pass(self, traced: bool) -> PassResult:
        index = len(self.passes) + len(self.traced)
        if self.workload == "cli-docs":
            return self.cli_pass(index, traced)
        return self.library_pass(index, traced)

    # -- the run -----------------------------------------------------------

    def _more(self, done: list, deadline: float, least: int) -> bool:
        """Start another pass while the measuring time lasts, or until
        ``least`` passes are done, if one more still fits the hard
        limit."""
        if not done:
            return True
        if len(done) >= least and time.monotonic() >= deadline:
            return False
        return self.remaining() > 2 * max(p.wall_raw_s for p in done)

    def execute(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        if self.trace:
            self.spans_out.parent.mkdir(exist_ok=True)
            self.spans_out.write_text("")
        for _ in range(SETUP_PROBES):
            result = launch(["probe"], child_env(), self.work,
                            min(30.0, self.remaining()))
            if result.code != 0:
                raise BenchError(f"the library does not import: "
                                 f"{result.stderr.strip()[-500:]}")
            self._setup(result)
        deadline = time.monotonic() + self.seconds
        if self.trace:
            # one untraced pass as the baseline of the tracing overhead
            self.passes.append(self.one_pass(False))
            while self._more(self.traced, deadline, 2):
                self.traced.append(self.one_pass(True))
        else:
            while self._more(self.passes, deadline, 1):
                self.passes.append(self.one_pass(False))

    # -- results -----------------------------------------------------------

    def counts(self) -> tuple:
        errors = [e for p in self.passes + self.traced for e in p.errors]
        return len(errors), sum(e is not None for e in errors)

    def end_to_end(self) -> dict:
        job_s = [s for p in self.passes for s in p.job_s]
        rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"setup_s": statistics.median(self.setups),
                "wall_s": statistics.median(p.wall_s for p in self.passes),
                "job_p50_s": statistics.median(job_s),
                "job_tail_s": tail_block(job_s, len(self.jobs))[0],
                "peak_rss_mib": rss_kib / 1024}

    def per_layer(self) -> dict:
        out = {name: statistics.median(p.layers[name] for p in self.traced)
               for name in PER_LAYER if name != "trace.overhead_s"}
        out["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in self.traced)
            - statistics.median(p.wall_s for p in self.passes))
        return out

    def notes(self) -> list:
        attempted, failed = self.counts()
        lines = [f"# workload {self.workload}: {len(self.jobs)} jobs per "
                 f"pass, {len(self.passes)} untraced and {len(self.traced)} "
                 f"traced passes, {len(self.setups)} process launches",
                 f"# fail_ratio {failed / attempted!r} "
                 f"({failed} of {attempted} jobs)"]
        if not self.trace:
            job_s = [s for p in self.passes for s in p.job_s]
            pct = tail_block(job_s, len(self.jobs))[1]
            lines.append(f"# job_tail_s is the p{pct:.1f} of "
                         f"{len(job_s)} job times")
            job_raw_s = [s for p in self.passes for s in p.job_raw_s]
            raw = {"setup_s": statistics.median(self.setups_raw),
                   "wall_s": statistics.median(p.wall_raw_s
                                               for p in self.passes),
                   "job_p50_s": statistics.median(job_raw_s),
                   "job_tail_s": tail_block(job_raw_s, len(self.jobs))[0]}
            lines.append("# times are scaled to the reference speed "
                         "(speed.py); unscaled: " + ", ".join(
                             f"{k} {v!r}" for k, v in raw.items()))
        else:
            lines.append("# tracing overhead (traced minus untraced "
                         "wall_s) is trace.overhead_s")
            counts = [{k: v for k, v in p.layers.items()
                       if not k.endswith(("self_s", "overhead_s"))}
                      for p in self.traced]
            if any(c != counts[0] for c in counts):
                lines.append("# warning: layer counts differ between "
                             "traced passes")
        for p in self.passes + self.traced:
            for i, error in enumerate(p.errors):
                if error is not None:
                    lines.append(f"# failed job {i} "
                                 f"({self.jobs[i]['kind']}): {error}")
        return lines


def add_stats(a: dict, b: dict) -> dict:
    return {name: {k: a[name][k] + b[name][k] for k in a[name]}
            for name in a}


def layer_values(stats: dict) -> dict:
    """Published per-layer values from one pass's summed statistics."""
    out = {}
    for name, (_, _, published) in TARGETS.items():
        s = stats.get(name)
        for stat in published:
            key = f"{name}.{stat}"
            if s is None:
                out[key] = 0
            elif stat == "nonzero_ratio":
                out[key] = s["nonzero"] / s["calls"] if s["calls"] else 0.0
            elif stat == "rank_ratio":
                out[key] = (s["rank_sum"] / s["min_dim_sum"]
                            if s["min_dim_sum"] else 0.0)
            else:
                out[key] = s[stat]
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' runs a few small jobs, for smoke tests")
    return parser.parse_args(argv)


def check_checkout() -> None:
    for needed in (ROOT / "src" / "voasurf" / "cli.py",
                   ROOT / "tests" / "golden"):
        if not needed.exists():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing; run "
                             "from a full checkout of the repository")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size)
        try:
            run.execute()
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
            try:
                run.work.parent.rmdir()
            except OSError:
                pass        # another run is using it
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, units = run.per_layer(), PER_LAYER
    else:
        values, units = run.end_to_end(), END_TO_END
    for line in run.notes():
        print(line)
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    attempted, failed = run.counts()
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

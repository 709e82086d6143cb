"""Tests of the benchmark itself.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_plain():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    names += [w["name"] for w in CONFIG["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name


def test_config_matches_the_runner():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in CONFIG["workloads"]] == \
        list(workloads.WORKLOADS)
    assert all(m["unit"] for m in CONFIG["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_seed_gives_one_job_list(workload):
    lists = {}
    for seed in (1, 2):
        first = workloads.make_jobs(workload, seed, "full", ROOT)
        again = workloads.make_jobs(workload, seed, "full", ROOT)
        assert workloads.job_list_bytes(first) == \
            workloads.job_list_bytes(again)
        lists[seed] = workloads.job_list_bytes(first)
    assert lists[1] != lists[2]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tail_leaves_ten_jobs_beyond_in_three_passes(workload):
    jobs_per_pass = len(workloads.make_jobs(workload, 1, "full", ROOT))
    n = 3 * jobs_per_pass
    times = [float(i % jobs_per_pass) for i in range(n)]
    tail, pct = workloads.tail_block(times, jobs_per_pass)
    assert n - 1 - pct / 100 * (n - 1) >= 10
    assert tail == jobs_per_pass - 1 - workloads.TAIL_BEYOND
    # the median job time lies in the middle of a block too
    assert jobs_per_pass % 2 == 1


def test_scaling_divides_by_the_mean_probe():
    ref = speed.REFERENCE_S
    assert speed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # a machine at half speed: probes take twice as long
    assert speed.scaled(2.0, 2 * ref, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert speed.scaled(3.0, ref, 3 * ref) == pytest.approx(1.5)


def test_sampler_probes_while_a_job_runs():
    sampler = speed.Sampler()
    sampler.start()
    end = time.process_time() + 3 * speed.SAMPLE_EVERY_S
    while time.process_time() < end:
        pass
    sampler.stop()
    assert len(sampler.probes) >= 2
    assert sampler.spent_s >= sum(sampler.probes)


def test_tracer_self_time_and_counts():
    t = tracer.Tracer(("inner", "outer"))

    def inner_fn(x):
        time.sleep(0.02)
        if x < 0:
            raise ValueError(x)
        return x

    inner = t.wrap("inner", inner_fn)
    outer = t.wrap("outer", lambda: [inner(1), inner(2)])
    assert outer() == [1, 2]
    with pytest.raises(ValueError):
        inner(-1)
    assert t.stats["inner"]["calls"] == 3
    assert t.stats["inner"]["errors"] == 1
    assert t.stats["outer"]["self_s"] < 0.01
    assert t.stats["inner"]["self_s"] >= 0.06
    assert [s[3] for s in t.spans] == [-1, 0, 0, -1]


def test_a_renamed_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "voa.gone",
                        ("voa", "no_such_function", ("calls",)))
    sys.path.insert(0, str(ROOT / "src"))
    with pytest.raises(tracer.TraceSetupError):
        tracer.resolve("voa.gone")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(workload):
    out = result(bench("--workload", workload, "--seed", "3",
                       "--seconds", "1", "--size", "tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    out = result(bench("--workload", "sewing", "--seed", "3",
                       "--seconds", "1", "--size", "tiny", "--trace", "1"))
    assert out["correct"]
    assert set(out["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    for name in ("genus2.z2_partition", "schottky.psi_full",
                 "schottky.genus_g_reduce"):
        assert metrics[f"{name}.self_s"] > 0
    assert metrics["schottky.neumann_inverse.depth"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "torus-oracle", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

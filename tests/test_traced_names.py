"""Every function the benchmark's traced mode wraps still exists, and
every name its jobs import.

``bench/tracer.py`` names its targets by module and attribute path; a
rename in the package would make ``bench/run.py --trace 1`` refuse to
start.  This resolves each name through the tracer's own ``resolve``.
``bench/jobs.py`` imports library names directly, so a deletion there
would fail every benchmark job.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from voasurf import reduction
from voasurf.voa import vacuum

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("voasurf_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.TARGETS))
def test_traced_name_resolves(name):
    owner, attr, fn = tracer.resolve(name)
    assert callable(fn) and getattr(owner, attr) is fn


def test_benchmark_job_imports_resolve():
    tree = ast.parse((BENCH / "jobs.py").read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "voasurf"
             for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    # the jobs still wrap each direction in this identity
    ins = reduction.Insertion(vacuum(), "w")
    assert reduction.ReductionDirection(ins) is ins

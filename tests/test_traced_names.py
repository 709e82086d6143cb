"""Every function the benchmark's traced mode wraps still exists.

``bench/tracer.py`` names its targets by module and attribute path; a
rename in the package would make ``bench/run.py --trace 1`` refuse to
start.  This resolves each name through the tracer's own ``resolve``.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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

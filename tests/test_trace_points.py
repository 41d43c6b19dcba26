"""The benchmark's trace points still name real attributes of fedsim.

perfbench/tracing.py wraps fedsim functions and methods by module and
attribute path. A rename under src/ that one of those paths misses would
crash every traced benchmark run; this test fails first instead.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, path", [
    (point[0], point[1]) for point in load_tracing().TRACE_POINTS
])
def test_trace_point_resolves(module_name, path):
    # the lookup Tracer.install makes before it wraps the attribute
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

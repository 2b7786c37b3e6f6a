"""The benchmark's tracer must still find every library function it wraps."""

import importlib.util
from pathlib import Path

import fingen.cli  # noqa: F401  (loads every traced module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.assert_untraced()

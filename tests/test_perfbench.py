"""The benchmark's tracer must still find every library function it wraps,
and every benchmark op must pass its own output check."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fingen.cli  # noqa: F401  (loads every traced module)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.assert_untraced()


@pytest.mark.parametrize("workload", ["recode-family", "tower-scale", "cli-suite"])
def test_workload_ops_pass_their_checks(workload, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclass resolves its annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    ops = workloads.WORKLOADS[workload](ROOT, 0, tmp_path)
    assert ops
    for op in ops:
        assert op.check(op.run(), None) is None, op.name

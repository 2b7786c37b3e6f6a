"""The benchmark's tracer must still find every library function it wraps
and measure every workload, and every benchmark op must pass its own output
check."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import fingen.cli  # noqa: F401  (loads every traced module)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a module's dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    load(TRACER, "perfbench_tracer", monkeypatch).assert_untraced()


@pytest.mark.parametrize("workload", ["recode-family", "tower-scale", "cli-suite"])
def test_workload_ops_pass_their_checks(workload, tmp_path, monkeypatch):
    workloads = load(WORKLOADS, "perfbench_workloads", monkeypatch)
    ops = workloads.WORKLOADS[workload](ROOT, 0, tmp_path)
    assert ops
    for op in ops:
        assert op.check(op.run(), None) is None, op.name


@pytest.mark.parametrize(
    "workload, count",
    [
        ("recode-family", "typical.packing.used_ratio"),
        ("tower-scale", "system.pseudomap.constructed"),
        ("cli-suite", "recoder.oracle.partitions"),
    ],
)
def test_traced_ops_yield_layer_metrics(workload, count, tmp_path, monkeypatch):
    tracer = load(TRACER, "perfbench_tracer", monkeypatch)
    workloads = load(WORKLOADS, "perfbench_workloads", monkeypatch)
    ops = workloads.WORKLOADS[workload](ROOT, 0, tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        for i, op in enumerate(ops):
            t.op = i
            op.run()
    finally:
        t.uninstall()
    assert tracer.work_counts(t.spans, [0] * len(ops))[0][count] > 0
    if count == "recoder.oracle.partitions":
        # the oracle checks its one closed-form witness, whatever N is
        per_op = tracer.work_counts(t.spans, list(range(len(ops))))
        assert {op.name: per_op[i][count] for i, op in enumerate(ops)} == {
            op.name: int(op.name.startswith("oracle")) for op in ops
        }
    metrics = tracer.layer_metrics(t.spans, len(ops))
    assert all(math.isfinite(v) for v in metrics.values())


def test_recode_stages_open_spans_under_the_recode(tmp_path, monkeypatch):
    # krieger_recode looks each stage up by its module name when it runs, so
    # the tracer's wrappers of those names see every stage
    tracer = load(TRACER, "perfbench_tracer", monkeypatch)
    workloads = load(WORKLOADS, "perfbench_workloads", monkeypatch)
    op = workloads.WORKLOADS["recode-family"](ROOT, 0, tmp_path)[0]
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 0
        op.run()
    finally:
        t.uninstall()
    (top,) = [r for r in t.spans if r[tracer.NAME] == "recoder.krieger_recode"]
    stages = [
        r[tracer.NAME] for r in t.spans
        if r[tracer.PARENT] == top[tracer.ID] and r[tracer.NAME].startswith("recoder.")
    ]
    assert stages == [
        "recoder.encode_names", "recoder.synthesize_prepartition", "recoder.refine_to_p",
        "recoder.decode", "recoder.theta_algebra",
    ]

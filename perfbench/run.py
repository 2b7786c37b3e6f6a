"""fingen benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is
imported from its ``src/`` directory.  Workloads (see perfbench/README.md):
recode-family, tower-scale and cli-suite.  Each has one client, one
process and one thread.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Set-up time is
the median over three fresh processes: two that only set up and the one
that then runs the timed closed loop for S seconds, whose peak RSS is
reported.  Times are calibrated to a reference CPU speed (worker.HostSpeed);
the raw times are printed beside them.

--trace 1 prints the per-layer metrics of BENCHMARK.json.  One process
runs S/2 seconds untraced, then S/2 seconds (at least two passes) with
timing wrappers installed from perfbench/tracer.py, and writes the spans
to .perfbench/trace-W.jsonl.  Counts must be identical on every pass.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("recode-family", "tower-scale", "cli-suite")
SETUP_ONLY_PROCESSES = 2
MAX_SEED = 2**64
# a worker must end well inside the benchmark's 180 s limit
WORKER_TIMEOUT_S = 150


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def preflight() -> list:
    """What a checkout must hold for the benchmark to run."""
    need = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "fingen" / "__init__.py",
        ROOT / "tests" / "recode_instances.py",
        *(ROOT / "configs" / f"{c}.json" for c in
          ("codebook", "count", "decompose", "oracle", "recode", "reduce", "tower")),
    ]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def worker(workload: str, seed: int, seconds: float, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    setups = [
        worker(workload, seed, seconds, "setup", WORKER_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_ONLY_PROCESSES)
    ]
    res = worker(workload, seed, seconds, "timed", WORKER_TIMEOUT_S)
    setups.append(res["setup_s"])
    run = res["timed"]
    n = len(run["latencies_s"])
    failed = len(run["failures"])
    failures = res["warm_failures"] + run["failures"]
    both = {}
    for kind, lat_key, busy_key in (
        ("calibrated", "calibrated_latencies_s", "calibrated_busy_s"),
        ("raw", "latencies_s", "busy_s"),
    ):
        lat_ms = [t * 1e3 for t in run[lat_key]]
        both[kind] = {
            "throughput_ops_s": (n - failed) / run[busy_key],
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p95_ms": percentile(lat_ms, 95),
            "setup_s": statistics.median(s[kind] for s in setups),
            "peak_rss_mb": res["rss_kb"] / 1024,
        }
    metrics, raw = both["calibrated"], both["raw"]
    p95 = metrics["latency_p95_ms"]
    beyond = sum(t * 1e3 > p95 for t in run["calibrated_latencies_s"])

    def show(name, unit, samples):
        return (f"{name} {metrics[name]:.4f} {unit} (raw {raw[name]:.4f}; {samples})")

    lines = [
        f"ops per pass: {', '.join(res['ops_per_pass'])}",
        f"timed phase: {n} ops in {run['passes']} passes over {run['wall_s']:.3f} s wall,"
        f" {run['busy_s']:.3f} s busy; mean host speed"
        f" {run['calibrated_busy_s'] / run['busy_s']:.4f} of the reference",
        show("throughput_ops_s", "ops/s", f"n={n - failed} certified ops"),
        show("latency_p50_ms", "ms", f"n={n}"),
        show("latency_p95_ms", "ms", f"n={n}, {beyond} beyond"),
        f"fail_ratio {failed / n:.4f} ratio (n={n}, {failed} failed)",
        show("setup_s", "s", f"n={len(setups)} fresh processes: "
             + ", ".join(f"{s['calibrated']:.4f}" for s in setups)),
        f"peak_rss_mb {metrics['peak_rss_mb']:.4f} MB (n=1 process)",
    ]
    return metrics, n, failed, failures, lines


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    res = worker(workload, seed, seconds, "traced", WORKER_TIMEOUT_S)
    plain, traced = res["timed"], res["traced"]
    n_plain, n_traced = len(plain["latencies_s"]), len(traced["latencies_s"])
    metrics = dict(res["layers"])
    metrics["trace.op_ms"] = sum(traced["latencies_s"]) * 1e3 / n_traced
    metrics["trace.overhead_ratio"] = (
        (n_plain / plain["calibrated_busy_s"]) / (n_traced / traced["calibrated_busy_s"])
    )
    per_pass = res["counts"]["per_pass"]
    failures = res["warm_failures"] + plain["failures"] + traced["failures"]
    if any(c != per_pass[0] for c in per_pass):
        failures.append({"op": "*", "phase": "traced",
                         "reason": "work counts differ between passes of the same ops"})
    lines = [
        f"ops per pass: {', '.join(res['ops_per_pass'])}",
        f"untraced: {n_plain} ops over {plain['wall_s']:.3f} s;"
        f" traced: {n_traced} ops in {traced['passes']} passes over {traced['wall_s']:.3f} s",
        f"work counts identical on all {len(per_pass)} traced passes:"
        f" {all(c == per_pass[0] for c in per_pass)}",
        f"spans written to {(ROOT / '.perfbench' / f'trace-{workload}.jsonl').relative_to(ROOT)}",
    ]
    for name, counts in sorted(res["counts"]["first_pass_by_op"].items()):
        nonzero = {k: v for k, v in counts.items() if v and not k.endswith("_ratio")}
        lines.append(f"counts op={name}: " + json.dumps(nonzero, sort_keys=True))
    attempted = n_plain + n_traced
    failed = len(plain["failures"]) + len(traced["failures"])
    return metrics, attempted, failed, failures, lines


def _group_failures(failures: list) -> dict:
    grouped: dict = {}
    for f in failures:
        grouped.setdefault((f["op"], f["reason"]), []).append(f["phase"])
    return grouped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (0 <= args.seed < MAX_SEED):
        ap.error("--seed must fit in 64 unsigned bits")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = preflight()
    if missing:
        sys.stderr.write("not a fingen checkout; missing: " + ", ".join(missing) + "\n")
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, failures, lines = measure(
            args.workload, args.seed, args.seconds
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        sys.stderr.write(f"benchmark run failed: {e}\n")
        return 1
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        sys.stderr.write(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(metrics))},"
            f" extra {sorted(set(metrics) - names)}\n"
        )
        return 1

    info = machine()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} closed loop, 1 client, 1 process, 1 thread")
    print(f"machine: nproc={info['nproc']} python={info['python']} cpu={info['cpu']}")
    for line in lines:
        print(line)
    for (op, reason), phases in _group_failures(failures).items():
        print(f"FAILED op={op} x{len(phases)} ({', '.join(phases)}): {reason}")
    if args.trace:
        for m in wanted:
            print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes:
  setup   set up once and report the set-up time;
  timed   set up, then run whole passes of the op list untraced until
          S seconds have passed;
  traced  set up, run untraced for S/2 seconds, then install the tracer
          and run at least two whole passes for S/2 more seconds.

Set-up is the import of fingen, construction of the op list, and one
warm-up pass whose outputs become each op's reference.  The last line of
standard output is one JSON object with the results.

Every time is reported twice, raw and calibrated; see ``HostSpeed``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SAMPLE_INTERVAL_S = 0.02
REF_PROBE_S = 2.5e-4
PROBE_WORDS = tuple(tuple((i >> b) & 1 for b in range(12)) for i in range(96))


def _probe() -> int:
    """First-fit packing of 96 binary words at distance 3.

    It is written like the library's hot loops (tuples drawn from a
    generator, compared element by element with early exits), so its speed
    follows the library's speed when the host slows down.
    """
    chosen: list = []

    def words():
        yield from PROBE_WORDS

    for w in words():
        for c in chosen:
            miss = 0
            for x, y in zip(w, c):
                if x != y:
                    miss += 1
                    if miss >= 3:
                        break
            if miss < 3:
                break
        else:
            chosen.append(w)
    return len(chosen)


class HostSpeed:
    """Samples the host's CPU speed while the workload runs.

    On a shared host the speed of the same code drifts by up to a factor of
    two within seconds, also in the middle of a long op.  Every
    SAMPLE_INTERVAL_S of wall time a SIGALRM handler times ``_probe`` in
    this thread; a sample is REF_PROBE_S ÷ the probe's time, so 1.0 is the
    reference speed.  A calibrated time is the raw time times the mean of
    the samples taken while it ran and the one just before.  Raw times
    exclude the time spent sampling (about 1%).
    """

    def __init__(self):
        self.samples = [self._sample()]
        self.spent = 0.0

    @staticmethod
    def _sample() -> float:
        t = perf_counter()
        _probe()
        return REF_PROBE_S / (perf_counter() - t)

    def _tick(self, signum, frame):
        t = perf_counter()
        self.samples.append(self._sample())
        self.spent += perf_counter() - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.samples), self.spent, perf_counter()

    def since(self, mark: tuple) -> tuple:
        """(raw, calibrated) seconds since ``mark``."""
        n, spent, t = mark
        raw = perf_counter() - t - (self.spent - spent)
        return raw, raw * statistics.fmean(self.samples[n - 1:])


def setup(workload: str, seed: int, meter: HostSpeed):
    mark = meter.mark()
    sys.path.insert(0, str(ROOT / "src"))
    import fingen

    if Path(fingen.__file__).resolve().parent != ROOT / "src" / "fingen":
        raise RuntimeError(f"imported fingen from {fingen.__file__}, not from src/")
    import workloads

    ops = workloads.WORKLOADS[workload](ROOT, seed, OUT_DIR)
    refs, failures = {}, []
    for op in ops:
        try:
            out = op.run()
            why = op.check(out, None)
        except Exception as e:  # a failing op is counted, never fatal
            why = f"{type(e).__name__}: {e}"
        if why is None:
            refs[op.name] = out
        else:
            failures.append({"op": op.name, "phase": "warm-up", "reason": why})
    raw, calibrated = meter.since(mark)
    return ops, refs, failures, {"raw": raw, "calibrated": calibrated}


def closed_loop(ops, refs, rng, seconds, meter, min_passes=1, on_op=None):
    """Whole passes in a seed-permuted order until ``seconds`` have passed.

    An op's latency is its call; its busy time adds the output check.
    """
    latencies, busy, failures, op_pass = [], [], [], []
    start = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - start < seconds:
        order = ops[:]
        rng.shuffle(order)
        for op in order:
            if on_op is not None:
                on_op(len(op_pass))
            op_pass.append((passes, op.name))
            mark = meter.mark()
            try:
                out = op.run()
                latencies.append(meter.since(mark))
                ref = refs.get(op.name)
                why = op.check(out, ref) if ref is not None else (
                    op.check(out, None) or "no warm-up reference"
                )
            except Exception as e:  # a failing op is counted, never fatal
                latencies.append(meter.since(mark))
                why = f"{type(e).__name__}: {e}"
            busy.append(meter.since(mark))
            if why is not None:
                failures.append({"op": op.name, "phase": f"pass {passes}", "reason": why})
        passes += 1
    return {
        "latencies_s": [raw for raw, _ in latencies],
        "calibrated_latencies_s": [cal for _, cal in latencies],
        "busy_s": sum(raw for raw, _ in busy),
        "calibrated_busy_s": sum(cal for _, cal in busy),
        "wall_s": perf_counter() - start,
        "passes": passes,
        "failures": failures,
        "op_pass": op_pass,
    }


def traced_phase(ops, refs, rng, seconds, meter, trace_file):
    """Closed loop with the tracer installed: (run, layer metrics, counts)."""
    import tracer as tr

    t = tr.Tracer()

    def on_op(op_id):
        t.op = op_id

    t.install()
    try:
        run = closed_loop(ops, refs, rng, seconds, meter, min_passes=2, on_op=on_op)
    finally:
        t.uninstall()
    t.write_jsonl(trace_file, run["op_pass"])
    per_pass = tr.work_counts(t.spans, [p for p, _ in run["op_pass"]])
    by_op = tr.work_counts(t.spans, run["op_pass"])
    counts = {
        "per_pass": [per_pass[p] for p in sorted(per_pass)],
        "first_pass_by_op": {name: c for (p, name), c in by_op.items() if p == 0},
    }
    metrics = tr.layer_metrics(t.spans, len(run["op_pass"]))
    metrics.update(counts["per_pass"][0])
    return run, metrics, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    with HostSpeed() as meter:
        ops, refs, warm_failures, setup_s = setup(args.workload, args.seed, meter)
        result = {"setup_s": setup_s, "ops_per_pass": [op.name for op in ops]}
        if args.mode != "setup":
            import tracer as tr

            rng = random.Random(args.seed)
            tr.assert_untraced()
            seconds = args.seconds if args.mode == "timed" else args.seconds / 2
            run = closed_loop(ops, refs, rng, seconds, meter)
            tr.assert_untraced()
            result["timed"] = {k: v for k, v in run.items() if k != "op_pass"}
            if args.mode == "traced":
                traced, metrics, counts = traced_phase(
                    ops, refs, rng, seconds, meter, OUT_DIR / f"trace-{args.workload}.jsonl"
                )
                result["traced"] = {k: v for k, v in traced.items() if k != "op_pass"}
                result["layers"] = metrics
                result["counts"] = counts
            result["warm_failures"] = warm_failures
            result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

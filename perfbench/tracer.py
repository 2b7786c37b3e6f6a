"""Span tracing of fingen taken from outside the library.

``Tracer.install`` replaces each traced function with a timing wrapper on
every name where a caller looks it up: module globals in every loaded
``fingen`` module (so ``fingen.cli.build_tower`` and ``fingen.recoder.
build_tower`` are both covered) and class attributes for methods such as
``FiniteSystem.group``.  ``uninstall`` puts the original objects back.
Nothing is installed unless ``install`` is called; ``assert_untraced``
checks that.

A span records its name, parent span, op id, start, end, busy time and an
integer ``items`` whose meaning depends on the span (see ``TARGETS``).
Generator functions are timed only while the generator runs, so a consumer
such as ``greedy_packing`` keeps its own comparison time as self time.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

MARK = "__perfbench_span__"

# record fields
ID, NAME, PARENT, OP, START, END, BUSY, CHILD, ITEMS = range(9)


def _arg0_points(args, kwargs, result, pre):
    return args[0].n_points


def _typical_len(args, kwargs, result, pre):
    return args[0].n


def _largest_book(args, kwargs, result, pre):
    return max((len(entries) for _, entries in result.books), default=0)


def _group_cache(args, kwargs):
    return args[0]._cache.get("group")


def _group_elements(args, kwargs, result, pre):
    # a miss stores a fresh cache entry; a hit returns the cached enumeration
    return len(result.elements) if _group_cache(args, kwargs) is not pre else 0


def _generating(args, kwargs, result, pre):
    return int(len(result) == args[0].n_points)


# (module, attribute or Class.method, span name, items measure, pre-call hook)
TARGETS = (
    ("fingen.probvec", "entropy", "probvec.entropy", None, None),
    ("fingen.probvec", "cond_entropy", "probvec.cond_entropy", None, None),
    ("fingen.probvec", "ratcomb_decompose", "probvec.ratcomb_decompose", None, None),
    ("fingen.typical", "count_typical", "typical.count_typical", None, None),
    ("fingen.typical", "iter_typical", "typical.iter_typical", None, None),
    ("fingen.typical", "iter_fiber", "typical.iter_fiber", None, None),
    ("fingen.typical", "greedy_packing", "typical.greedy_packing", _typical_len, None),
    ("fingen.typical", "build_injections", "typical.build_injections", _largest_book, None),
    ("fingen.coding", "build_code", "coding.build_code", None, None),
    ("fingen.coding", "FiberDistribution.from_labels", "coding.fiber_distribution", None, None),
    ("fingen.system", "FiniteSystem.__post_init__", "system.finite_system", None, None),
    ("fingen.system", "FiniteSystem.group", "system.group", _group_elements, _group_cache),
    ("fingen.system", "PseudoMap.__post_init__", "system.pseudomap", None, None),
    ("fingen.system", "generated_algebra", "system.generated_algebra", _generating, None),
    ("fingen.system", "simplemix", "system.simplemix", None, None),
    ("fingen.system", "make_equal_partition", "system.make_equal_partition", None, None),
    ("fingen.system", "cyclic_permute", "system.cyclic_permute", None, None),
    ("fingen.system", "avgmix", "system.avgmix", None, None),
    ("fingen.tower", "build_tower", "tower.build_tower", _arg0_points, None),
    ("fingen.tower", "audit_tower", "tower.audit_tower", None, None),
    ("fingen.recoder", "reduce_alphabet", "recoder.reduce_alphabet", None, None),
    ("fingen.recoder", "encode_names", "recoder.encode_names", None, None),
    ("fingen.recoder", "synthesize_prepartition", "recoder.synthesize_prepartition", None, None),
    ("fingen.recoder", "refine_to_p", "recoder.refine_to_p", None, None),
    ("fingen.recoder", "decode", "recoder.decode", None, None),
    ("fingen.recoder", "theta_algebra", "recoder.theta_algebra", None, None),
    ("fingen.recoder", "krieger_recode", "recoder.krieger_recode", None, None),
    ("fingen.recoder", "brute_force_generator_search", "recoder.oracle", _arg0_points, None),
    ("fingen.cli", "main", "cli.main", None, None),
    ("fingen.cli", "render", "cli.render", None, None),
)


def _fingen_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "fingen" or name.startswith("fingen."))
    ]


def _owner(module: str, path: str):
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for c in classes:
        owner = getattr(owner, c)
    return owner, attr


def assert_untraced() -> None:
    """Raise unless every traced name holds the library's own object."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        raise RuntimeError("a profile or trace hook is set")
    for mod in _fingen_modules():
        for key, val in vars(mod).items():
            if hasattr(val, MARK):
                raise RuntimeError(f"{mod.__name__}.{key} is a trace wrapper")
    for module, path, *_ in TARGETS:
        owner, attr = _owner(module, path)
        obj = owner.__dict__[attr]
        func = getattr(obj, "__func__", obj)
        if hasattr(func, MARK) or not func.__module__.startswith("fingen"):
            raise RuntimeError(f"{module}.{path} is not the library function")


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` bracket a traced phase."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else -1
        rec = [len(self.spans), name, parent, self.op, 0.0, 0.0, 0.0, 0.0, 0]
        self.spans.append(rec)
        return rec

    def _wrap_function(self, fn, name, measure, pre_hook):
        stack = self.stack

        def traced(*args, **kwargs):
            rec = self._open(name)
            pre = pre_hook(args, kwargs) if pre_hook is not None else None
            stack.append(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[START], rec[END], rec[BUSY] = t0, t1, t1 - t0
                if stack:
                    stack[-1][CHILD] += t1 - t0
            if measure is not None:
                rec[ITEMS] = measure(args, kwargs, result, pre)
            return result

        setattr(traced, MARK, name)
        return traced

    def _wrap_generator(self, fn, name):
        stack = self.stack

        def traced(*args, **kwargs):
            rec = self._open(name)
            gen = fn(*args, **kwargs)

            def run():
                try:
                    while True:
                        stack.append(rec)
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf_counter()
                            stack.pop()
                            if not rec[START]:
                                rec[START] = t0
                            rec[END] = t1
                            rec[BUSY] += t1 - t0
                            if stack:
                                stack[-1][CHILD] += t1 - t0
                        rec[ITEMS] += 1
                        yield item
                finally:
                    gen.close()

            return run()

        setattr(traced, MARK, name)
        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _fingen_modules()
        for module, path, name, measure, pre_hook in TARGETS:
            owner, attr = _owner(module, path)
            orig = owner.__dict__[attr]
            if isinstance(orig, classmethod):
                wrapper = classmethod(self._wrap_function(orig.__func__, name, measure, pre_hook))
            elif inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(orig, name)
            else:
                wrapper = self._wrap_function(orig, name, measure, pre_hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, orig))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        assert_untraced()

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path, op_meta: list) -> None:
        """One JSON object per span, times in ms from the first span."""
        t0 = min((r[START] for r in self.spans if r[START]), default=0.0)
        with open(path, "w") as fh:
            for r in self.spans:
                pass_idx, op_name = op_meta[r[OP]]
                fh.write(json.dumps({
                    "id": r[ID], "name": r[NAME], "parent": r[PARENT], "op": r[OP],
                    "pass": pass_idx, "op_name": op_name,
                    "start_ms": (r[START] - t0) * 1e3 if r[START] else None,
                    "end_ms": (r[END] - t0) * 1e3 if r[START] else None,
                    "busy_ms": r[BUSY] * 1e3, "self_ms": (r[BUSY] - r[CHILD]) * 1e3,
                    "items": r[ITEMS],
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("probvec", "typical", "coding", "system", "tower", "recoder", "cli")
SELF_MS = (
    "typical.greedy_packing", "typical.iter_typical", "typical.iter_fiber",
    "typical.count_typical", "typical.build_injections", "system.group", "system.simplemix",
    "system.generated_algebra", "system.cyclic_permute", "system.make_equal_partition",
    "system.avgmix", "tower.build_tower", "tower.audit_tower",
    "recoder.krieger_recode", "recoder.encode_names", "recoder.decode",
    "recoder.theta_algebra", "recoder.synthesize_prepartition", "recoder.refine_to_p",
    "recoder.reduce_alphabet", "recoder.oracle", "coding.build_code",
    "coding.fiber_distribution", "probvec.entropy", "probvec.cond_entropy",
    "probvec.ratcomb_decompose", "cli.main", "cli.render",
)
INIT_MS = {
    "system.pseudomap.init_ms": "system.pseudomap",
    "system.finite_system.init_ms": "system.finite_system",
}


def work_counts(spans: list, op_key: list) -> dict:
    """Exact work counters, summed over the ops that share a key.

    ``op_key[op_id]`` is the key of each op, such as its pass index.
    """
    names = [r[NAME] for r in spans]
    raw: dict = defaultdict(Counter)
    for r in spans:
        c = raw[op_key[r[OP]]]
        c[r[NAME] + ".calls"] += 1
        c[r[NAME] + ".items"] += r[ITEMS]
        parent = names[r[PARENT]] if r[PARENT] >= 0 else None
        if r[NAME] == "typical.iter_typical" and parent == "typical.greedy_packing":
            c["packing.words_scanned"] += r[ITEMS]
        elif r[NAME] == "system.generated_algebra" and parent == "recoder.oracle":
            c["oracle.partitions"] += 1
            c["oracle.generating"] += r[ITEMS]
    return {key: _counters(c) for key, c in raw.items()}


def _counters(c: Counter) -> dict:
    words = c["packing.words_scanned"]
    partitions = c["oracle.partitions"]
    return {
        "typical.packing.words_scanned": words,
        "typical.packing.used_ratio": c["typical.build_injections.items"] / words if words else 0.0,
        "typical.iter_fiber.words": c["typical.iter_fiber.items"],
        "system.group.calls": c["system.group.calls"],
        "system.group.elements": c["system.group.items"],
        "system.simplemix.calls": c["system.simplemix.calls"],
        "system.pseudomap.constructed": c["system.pseudomap.calls"],
        "system.generated_algebra.calls": c["system.generated_algebra.calls"],
        "recoder.oracle.partitions": partitions,
        "recoder.oracle.generating_ratio": (
            c["oracle.generating"] / partitions if partitions else 0.0
        ),
        "probvec.entropy.calls": c["probvec.entropy.calls"],
    }


def _slope(xs: list, ys: list) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def _mean_busy_by_items(spans: list, name: str) -> dict:
    acc: dict = defaultdict(list)
    for r in spans:
        if r[NAME] == name:
            acc[r[ITEMS]].append(r[BUSY])
    return {k: sum(v) / len(v) for k, v in acc.items()}


def layer_metrics(spans: list, n_ops: int) -> dict:
    """Per-op times of a traced phase in ms, and the fitted growth metrics."""
    self_total: Counter = Counter()
    for r in spans:
        self_total[r[NAME]] += r[BUSY] - r[CHILD]
    metrics = {f"{n}.self_ms": self_total[n] * 1e3 / n_ops for n in SELF_MS}
    for key, n in INIT_MS.items():
        metrics[key] = self_total[n] * 1e3 / n_ops
    packing = sum(r[BUSY] for r in spans if r[NAME] == "typical.greedy_packing")
    metrics["typical.greedy_packing.total_ms"] = packing * 1e3 / n_ops
    for layer in LAYERS:
        total = sum(v for n, v in self_total.items() if n.startswith(layer + "."))
        metrics[f"layer.{layer}.self_ms"] = total * 1e3 / n_ops

    towers = _mean_busy_by_items(spans, "tower.build_tower")
    ns = sorted(towers)
    metrics["tower.build_tower.growth_exp"] = (
        _slope([math.log(n) for n in ns], [math.log(towers[n]) for n in ns])
        if len(ns) >= 2 else 0.0
    )
    packs = _mean_busy_by_items(spans, "typical.greedy_packing")
    ks = sorted(packs)
    metrics["typical.greedy_packing.growth_per_k2"] = (
        math.exp(2 * _slope(ks, [math.log(packs[k]) for k in ks])) if len(ks) >= 2 else 0.0
    )
    oracle = _mean_busy_by_items(spans, "recoder.oracle")
    metrics["recoder.oracle.growth_per_point"] = (
        oracle[8] / oracle[7] if 7 in oracle and 8 in oracle else 0.0
    )
    return metrics

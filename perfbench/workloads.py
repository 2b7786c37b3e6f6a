"""The benchmark's three closed-loop workloads.

Each workload is a list of ops.  An op builds its own inputs (including its
own ``FiniteSystem``, because users pay for group enumeration on every
construction), calls the library, and returns its output.  ``check`` turns
an output into a failure reason or None; with a reference it also demands
equality with that op's warm-up output.

Library entry points are looked up on their modules at call time, so a
traced run sees the top-level call as a span too.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fingen.cli
import fingen.recoder
import fingen.system
import fingen.tower

CONFIGS = ("codebook", "count", "decompose", "oracle", "recode", "reduce", "tower")
ORACLE_POINTS = (7, 8)
TOWER_POINTS = (120, 240, 480)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, object], "str | None"]


def _load_instances(root: Path):
    path = root / "tests" / "recode_instances.py"
    spec = importlib.util.spec_from_file_location("recode_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_recode(out, ref):
    alpha, cert = out
    if cert["decode"]["status"] != "exact":
        return f"decode status {cert['decode']['status']!r}"
    if not cert["masses"]["exact"]:
        return "cell masses are not exact"
    if not cert["algebra"]["refines_xi"]:
        return "generated algebra does not refine xi"
    if ref is not None and out != ref:
        return "certificate differs from the warm-up certificate"
    return None


def recode_family(root: Path, seed: int, scratch: Path) -> list:
    """krieger_recode over the 10 instances of tests/recode_instances.FAMILY."""
    instances = _load_instances(root)

    def op(entry):
        def run():
            sysn, xi, falg, params, kwargs = instances.build(entry)
            return fingen.recoder.krieger_recode(sysn, xi, falg, params, **kwargs)
        return Op(entry[0], run, _check_recode)

    return [op(entry) for entry in instances.FAMILY]


def _check_tower(out, ref):
    audit = out[-1]
    bad = sorted(k for k, v in audit.items() if isinstance(v, bool) and not v)
    if bad:
        return "audit failed: " + ", ".join(bad)
    if ref is not None and out != ref:
        return "tower differs from the warm-up tower"
    return None


def tower_scale(root: Path, seed: int, scratch: Path) -> list:
    """cyclic(N), build_tower(mod-2 labels, eps=2, nmin=1, m=20), audit_tower."""

    def op(n):
        def run():
            sysn = fingen.system.FiniteSystem.cyclic(n)
            tw = fingen.tower.build_tower(sysn, tuple(x % 2 for x in range(n)), 2, 1, 20)
            audit = fingen.tower.audit_tower(tw)
            return tw.m, tw.k, tw.n, tw.transversal, tw.s2, audit
        return Op(f"tower-N{n}", run, _check_tower)

    return [op(n) for n in TOWER_POINTS]


def _check_cli(out, ref):
    code, data = out
    if code != 0:
        return f"exit code {code}"
    try:
        json.loads(data)
    except ValueError as e:
        return f"report does not parse: {e}"
    if ref is not None and data != ref[1]:
        return "report bytes differ from the warm-up report"
    return None


def cli_suite(root: Path, seed: int, scratch: Path) -> list:
    """fingen.cli.main in-process on the 7 bundled configs and oracle N=7, 8."""

    def op(name, argv):
        out = scratch / f"cli-{name}.json"

        def run():
            code = fingen.cli.main(argv + ["--seed", str(seed), "--out", str(out)])
            return code, out.read_bytes() if code == 0 else b""
        return Op(name, run, _check_cli)

    ops = [
        op(c, [c, "--config", str(root / "configs" / f"{c}.json")]) for c in CONFIGS
    ]
    ops += [op(f"oracle-N{n}", ["oracle", "--points", str(n)]) for n in ORACLE_POINTS]
    return ops


WORKLOADS = {
    "recode-family": recode_family,
    "tower-scale": tower_scale,
    "cli-suite": cli_suite,
}

"""Deterministic experiment driver over the library.

Subcommands mirror the library surface: typical-set count windows, rational
mixes, fiber codebooks, towers, alphabet reductions, the full recoding
pipeline, and the minimum-generator oracle (its closed form, checked by one
``generated_algebra`` call).  Reports are JSON with sorted keys or RFC-4180
CSV, and are byte-identical for identical (config, seed) pairs.  Randomness
exists only in instance sampling and is derived from the seed through
labeled hash splits, never inside the core algorithms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction

from .errors import FingenError, _Record
from .probvec import Coarsening, ProbVec, cond_entropy, ratcomb_decompose
from .recoder import (
    RecodeParams,
    brute_force_generator_search,
    krieger_recode,
    reduce_alphabet,
)
from .system import FiniteSystem, GAlgebra, generated_algebra
from .tower import audit_tower, build_tower
from .typical import PackingBudget, build_injections, stirling_window

SCHEMA = "1"
MAX_SEED = 2**64


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _fr(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    try:
        return Fraction(str(v).strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"not a rational: {v!r} ({e})")


def _int(v) -> int:
    """An int (not a bool) or a string spelling one; anything else is refused."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise ConfigError(f"not an integer: {v!r}")


def _ints(items, what: str) -> list:
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{what} must be a list")
    return [_int(v) for v in items]


def _req(spec: dict, key: str):
    if key not in spec:
        raise ConfigError(f"missing required key {key!r}")
    return spec[key]


def _opt(spec: dict, key: str, convert):
    return None if spec.get(key) is None else convert(spec[key])


def _vec(items) -> ProbVec:
    if isinstance(items, str):
        items = items.split(",")
    if not isinstance(items, (list, tuple)) or not items:
        raise ConfigError("vector must be a non-empty list")
    return ProbVec(tuple(_fr(v) for v in items))


def child_seed(seed: int, label: str) -> int:
    import hashlib  # loads OpenSSL: imported here, by the one command that derives seeds
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ExperimentConfig(_Record):
    """Resolved run description: merged file options, seed, output routing."""

    _fields = ("command", "options", "seed", "fmt", "out", "max_points")

    def __post_init__(self):
        if not (0 <= self.seed < MAX_SEED):
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.max_points < 1:
            raise ConfigError("max-points must be positive")


def make_system(spec, cap: int) -> FiniteSystem:
    if not isinstance(spec, dict):
        raise ConfigError("system must be an object")
    if "weights" in spec:
        raise ConfigError("a transitive system's weights are uniform; drop 'weights'")
    keys = [key for key in ("cyclic", "points") if key in spec]
    if len(keys) != 1:
        raise ConfigError("system needs exactly one of 'cyclic' and 'points'")
    key = keys[0]
    n = _int(spec[key])
    if n < 1:
        raise ConfigError(f"system size {n} must be positive")
    if n > cap:
        raise ConfigError(f"system size {n} exceeds max-points {cap}")
    if key == "cyclic":
        if "generators" in spec:
            raise ConfigError("system names both 'cyclic' and 'generators'; keep one")
        return FiniteSystem.cyclic(n)
    gens = _req(spec, "generators")
    if not isinstance(gens, dict):
        raise ConfigError("generators must be an object")
    return FiniteSystem.make(n, {name: _ints(perm, "permutation") for name, perm in gens.items()})


def parse_labels(spec, n: int) -> tuple:
    if isinstance(spec, (list, tuple)):
        if len(spec) != n:
            raise ConfigError("one label per point")
        return tuple(_ints(spec, "labels"))
    if isinstance(spec, dict):
        for pair in (("modulus", "sizes"), ("sizes", "exceptions")):
            if all(key in spec for key in pair):
                raise ConfigError("labels name both '%s' and '%s'; keep one" % pair)
        if "modulus" in spec:
            d = _int(spec["modulus"])
            if d < 1:
                raise ConfigError("modulus must be positive")
            exc = set(_ints(spec.get("exceptions", []), "exceptions"))
            if any(not (0 <= x < n) for x in exc):
                raise ConfigError("exceptions live on the points")
            return tuple(d if x in exc else x % d for x in range(n))
        if "sizes" in spec:
            sizes = _ints(spec["sizes"], "sizes")
            if sum(sizes) != n or any(s < 1 for s in sizes):
                raise ConfigError("sizes must be positive and sum to the point count")
            return tuple(c for c, sz in enumerate(sizes) for _ in range(sz))
    raise ConfigError("labels need an explicit list, 'modulus', or 'sizes'")


def parse_blocks(spec, size: int) -> Coarsening:
    if not isinstance(spec, list):
        raise ConfigError("blocks must be a list")
    try:
        return Coarsening(tuple(tuple(_ints(b, "block")) for b in spec), size)
    except FingenError as e:
        raise ConfigError(f"bad blocks: {e}")


def expand_range(spec) -> list:
    if isinstance(spec, int):
        return [_int(spec)]
    if isinstance(spec, list):
        values = _ints(spec, "range")
    else:
        if isinstance(spec, str):
            parts = [_int(p) for p in spec.split(":")]
            if len(parts) > 3:
                raise ConfigError(f"range {spec!r} has more than three ':' parts")
            if len(parts) == 1:
                return parts
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
        elif isinstance(spec, dict):
            start, stop = _int(_req(spec, "start")), _int(_req(spec, "stop"))
            step = _int(spec.get("step", 1))
        else:
            raise ConfigError("range needs an int, 'a:b:c', a list, or start/stop/step")
        if step == 0:
            raise ConfigError("range step must be nonzero")
        values = list(range(start, stop + (1 if step > 0 else -1), step))
    if not values:
        raise ConfigError("range is empty")
    return values


def jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    q = _vec(o.get("q", ["1/2", "1/2"]))
    eps_list = o.get("eps", ["0"])
    if not isinstance(eps_list, list):
        eps_list = [eps_list]
    if not eps_list:
        raise ConfigError("eps list is empty")
    eps_list = [_fr(e) for e in eps_list]
    delta = _fr(o.get("delta", "1/10"))
    rows = []
    for n in expand_range(o.get("n", 24)):
        for eps in eps_list:
            rep = stirling_window(q, delta, eps, n)
            rows.append(
                {
                    "n": n,
                    "eps": str(eps),
                    "delta": str(delta),
                    "count": rep.count,
                    "log_count": rep.log_count,
                    "log_lower": rep.log_lower,
                    "log_upper": rep.log_upper,
                    "holds": rep.holds,
                }
            )
    columns = ["n", "eps", "delta", "count", "log_count", "log_lower", "log_upper", "holds"]
    return {"columns": columns, "rows": rows}


def _composition(rng: random.Random, total: int, parts: int) -> list:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _decompose_row(rid: str, a: ProbVec, eps: Fraction) -> dict:
    dec = ratcomb_decompose(a, eps)
    return {
        "id": rid,
        "a": ",".join(a.to_strings()),
        "n": dec.n,
        "components": len(dec.vectors),
        "mixing": ",".join(dec.mixing.to_strings()),
        "max_dev": str(dec.facts["max_dev"]),
        "identity": dec.facts["identity"],
        "within_eps": dec.facts["within_eps"],
    }


def cmd_decompose(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    eps = _fr(o.get("eps", "3/10"))
    rows = []
    if o.get("a") is not None:
        rows.append(_decompose_row("given", _vec(o["a"]), eps))
    samples, max_len = _int(o.get("samples", 0)), _int(o.get("max_len", 5))
    if samples < 0:
        raise ConfigError("samples must be nonnegative")
    if samples > 0 and max_len < 2:
        raise ConfigError("max_len must be at least 2")
    for i in range(samples):
        rng = random.Random(child_seed(cfg.seed, f"decompose:{i}"))
        parts = rng.randint(2, max_len)
        den = rng.choice((12, 24, 36, 60, 120))
        if parts > den:
            raise ConfigError(f"max_len {max_len} exceeds the sampled denominator {den}")
        a = ProbVec(tuple(Fraction(c, den) for c in _composition(rng, den, parts)))
        rows.append(_decompose_row(f"sample-{i:03d}", a, eps))
    rows.sort(key=lambda r: r["id"])
    columns = ["id", "a", "n", "components", "mixing", "max_dev", "identity", "within_eps"]
    return {"columns": columns, "rows": rows}


def cmd_codebook(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    xi = _vec(_req(o, "xi"))
    blocks = parse_blocks(_req(o, "blocks"), len(xi))
    q = _vec(_req(o, "q"))
    budget = PackingBudget(_fr(o.get("delta", "1/1000")), _fr(o.get("r", "1/2")))
    book = build_injections(xi, blocks, q, budget, _fr(o.get("eps", "0")), _int(_req(o, "n")))
    return {"certificate": book.summary()}


def cmd_tower(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    sysn = make_system(_req(o, "system"), cfg.max_points)
    labels = parse_labels(_req(o, "labels"), sysn.n_points)
    tw = build_tower(
        sysn, labels, _fr(o.get("eps", "2")), _int(o.get("nmin", 1)), _opt(o, "m", _int)
    )
    return {
        "certificate": {
            "m": tw.m,
            "k": tw.k,
            "n": tw.n,
            "ell": tw.ell,
            "classes": len(tw.transversal),
            "transversal": list(tw.transversal),
            "profiles": len(tw.profiles),
            "s2_size": len(tw.s2),
            "audit": audit_tower(tw),
        }
    }


def cmd_reduce(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    for key in ("delta", "cutoff"):
        if key in o:
            raise ConfigError(f"reduce chooses delta and cutoff itself; drop {key!r}")
    sysn = make_system(_req(o, "system"), cfg.max_points)
    xi = parse_labels(_req(o, "labels"), sysn.n_points)
    falg = GAlgebra(parse_labels(o.get("factor", {"modulus": 1}), sysn.n_points))
    eps = _fr(o.get("eps", "1"))
    alpha, plan = reduce_alphabet(sysn, xi, falg, eps)
    ga = generated_algebra(sysn, zip(alpha, falg.labels))
    gx = generated_algebra(sysn, zip(xi, falg.labels))
    return {
        "certificate": {
            "cells_before": len(set(xi)),
            "cells_after": len(set(alpha)),
            "h_before": cond_entropy(xi, falg.labels),
            "h_after": cond_entropy(alpha, falg.labels),
            "eps": str(eps),
            "algebra_equal": ga.labels == gx.labels,
            "plan": plan.to_json(),
        },
        "alpha": list(alpha),
    }


def cmd_recode(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    if "nmin" in o:
        raise ConfigError("recode fixes nmin at 1; drop 'nmin'")
    sysn = make_system(_req(o, "system"), cfg.max_points)
    xi = parse_labels(_req(o, "xi"), sysn.n_points)
    falg = GAlgebra(parse_labels(_req(o, "factor"), sysn.n_points))
    p = _vec(_req(o, "p"))
    params = RecodeParams(
        p, parse_blocks(_req(o, "blocks"), len(p)), _fr(_req(o, "r")),
        _fr(_req(o, "delta")), _fr(o.get("eps", "0")),
    )
    alpha, cert = krieger_recode(
        sysn, xi, falg, params,
        reserved=tuple(_ints(o.get("reserved", []), "reserved")),
        tower_eps=_opt(o, "tower_eps", _fr),
        m=_opt(o, "m", _int),
        pack_delta=_opt(o, "pack_delta", _fr),
    )
    return {"certificate": cert, "alpha": list(alpha)}


def cmd_oracle(cfg: ExperimentConfig) -> dict:
    o = cfg.options
    sysn = make_system(o.get("system", {"cyclic": 4}), cfg.max_points)
    k_max = _int(o.get("k_max", sysn.n_points))
    if k_max < 1:
        raise ConfigError("k_max must be positive")
    h, witness = brute_force_generator_search(sysn, k_max)
    found = witness is not None
    return {
        "certificate": {
            "points": sysn.n_points,
            "k_max": k_max,
            "found": found,
            "min_entropy": h if found else None,
            "witness": [list(c) for c in witness] if found else None,
        }
    }


COMMANDS = {
    "count": cmd_count,
    "decompose": cmd_decompose,
    "codebook": cmd_codebook,
    "tower": cmd_tower,
    "reduce": cmd_reduce,
    "recode": cmd_recode,
    "oracle": cmd_oracle,
}


# ---------------------------------------------------------------------------
# rendering


def _cell(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flatten(prefix: str, v, rows: list):
    if isinstance(v, dict):
        for k in sorted(v, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v[k], rows)
    elif isinstance(v, (list, tuple)):
        for i, item in enumerate(v):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, _cell(v)))


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    if "rows" in report:
        columns = report["columns"]
        writer.writerow(columns)
        for row in report["rows"]:
            writer.writerow([_cell(row[c]) for c in columns])
    else:
        writer.writerow(["key", "value"])
        rows: list = []
        _flatten("", jsonable(report), rows)
        for key, val in rows:
            writer.writerow([key, val])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="fingen", description="finite recoding experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--max-points", type=int, default=1024)
        if name == "count":
            p.add_argument("--q", help="comma-separated weights")
            p.add_argument("--eps", help="comma-separated tolerances")
            p.add_argument("--delta")
            p.add_argument("--n", help="single value or start:stop:step")
        if name == "decompose":
            p.add_argument("--a", help="comma-separated weights")
            p.add_argument("--eps")
            p.add_argument("--samples", type=int)
        if name == "oracle":
            p.add_argument("--points", type=int, help="cyclic system size")
            p.add_argument("--k-max", type=int)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    options: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                options = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
        if not isinstance(options, dict):
            raise ConfigError("config must be a JSON object")
    for key in ("q", "eps", "delta", "n", "a", "samples", "k_max"):
        if getattr(args, key, None) is not None:
            options[key] = getattr(args, key)
    if getattr(args, "points", None) is not None:
        options["system"] = {"cyclic": args.points}
    if args.command in ("codebook", "recode") and "capacity" in options:  # one gate, no mode
        raise ConfigError(f"{args.command} gates on the exact capacity checks; drop 'capacity'")
    if args.command == "count" and isinstance(options.get("eps"), str):
        options["eps"] = options["eps"].split(",")
    return ExperimentConfig(
        args.command, options, args.seed, args.format, args.out, args.max_points
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        report = {"schema": SCHEMA, "command": cfg.command, "seed": cfg.seed}
        report.update(COMMANDS[cfg.command](cfg))
        text = render(report, cfg.fmt)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except FingenError as e:
        err = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"type": type(e).__name__, "message": str(e)},
        }
        if getattr(e, "constraint", None):
            err["error"]["name"] = e.constraint
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 1
    if cfg.out:
        try:
            with open(cfg.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as e:
            sys.stderr.write(f"config error: cannot write report: {e}\n")
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

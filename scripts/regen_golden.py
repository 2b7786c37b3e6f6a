"""Regenerate the golden reports under tests/golden/.

The snapshots pin report content across commits: the JSON and CSV report of
every subcommand in fingen.cli.COMMANDS on its bundled config at --seed 0,
and the JSON-rendered (alpha, certificate) of every recode FAMILY instance
in tests/recode_instances.py.
tests/test_golden.py compares them byte for byte, so regenerate only when a
report is meant to change, and say why in CHANGES.md.  A golden file is
written only when its bytes differ, and only those files are printed.

    PYTHONPATH=src python scripts/regen_golden.py
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from fingen.cli import COMMANDS, render
from fingen.cli import main as cli_main
from fingen.recoder import krieger_recode

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ROOT / "configs"


def _instances():
    spec = importlib.util.spec_from_file_location(
        "recode_instances", ROOT / "tests" / "recode_instances.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_report(command: str, fmt: str) -> str:
    argv = [command, "--config", str(CONFIGS / f"{command}.json"),
            "--seed", "0", "--format", fmt]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"fingen {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _recode_report(build, entry) -> str:
    sysn, xi, falg, params, kwargs = build(entry)
    alpha, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
    return render({"alpha": list(alpha), "certificate": cert}, "json")


def golden_cases() -> dict:
    """Golden file name -> zero-argument function producing its text."""
    cases = {}
    for command in COMMANDS:
        for fmt in ("json", "csv"):
            cases[f"cli-{command}.{fmt}"] = (
                lambda c=command, f=fmt: _cli_report(c, f)
            )
    instances = _instances()
    for entry in instances.FAMILY:
        cases[f"recode-{entry[0]}.json"] = (
            lambda e=entry: _recode_report(instances.build, e)
        )
    return cases


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, make in golden_cases().items():
        path, text = GOLDEN / name, make().encode()
        if not path.exists() or path.read_bytes() != text:
            path.write_bytes(text)
            print(f"wrote tests/golden/{name}")


if __name__ == "__main__":
    main()

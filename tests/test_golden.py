"""Report bytes pinned against tests/golden/ (see scripts/regen_golden.py)."""

import importlib.util
from pathlib import Path

import pytest

from fingen.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "regen_golden", ROOT / "scripts" / "regen_golden.py"
)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)
CASES = regen_golden.golden_cases()


def test_golden_set_is_complete():
    on_disk = sorted(p.name for p in regen_golden.GOLDEN.iterdir())
    assert on_disk == sorted(CASES)


def test_every_subcommand_has_golden_reports():
    cli_cases = {name for name in CASES if name.startswith("cli-")}
    assert cli_cases == {f"cli-{c}.{fmt}" for c in COMMANDS for fmt in ("json", "csv")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    # decoded without newline translation, so the check stays byte-exact while
    # a mismatch prints as a line diff naming the changed field
    expected = (regen_golden.GOLDEN / name).read_bytes().decode("utf-8")
    assert CASES[name]() == expected

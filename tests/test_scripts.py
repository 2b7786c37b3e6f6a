"""The experiment scripts still import and run against the library."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["packing_scan", "window_sweep", "subadditivity_scan"])
def test_script_imports(name):
    assert callable(load(name).main)


def test_subadditivity_scan_small():
    rows = load("subadditivity_scan").scan(5)
    assert [(r["n"], r["d"]) for r in rows] == [(4, 2)]
    assert all(r["holds"] for r in rows)

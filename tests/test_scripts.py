"""The experiment scripts still import and run against the library."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from fingen.probvec import ProbVec
from fingen.typical import TypicalSpec, greedy_packing

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(path.stem for path in SCRIPTS.glob("*.py")))
def test_script_imports(name):
    assert callable(load(name).main)


@pytest.mark.parametrize(
    "q, tol, n_min",
    [((F(1, 2), F(1, 2)), F(1, 10), 5), ((F(1, 4), F(3, 4)), F(1, 20), 14)],
)
def test_window_sweep_minimal_n(q, tol, n_min):
    assert load("window_sweep").minimal_n(ProbVec(q), tol, tol, 400) == n_min


def test_packing_scan_min_separation():
    words = greedy_packing(TypicalSpec(ProbVec((F(1, 2), F(1, 2))), 0, 8), F(1, 5))
    assert load("packing_scan").min_separation(words) == F(1, 4)

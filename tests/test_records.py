"""The library's records are frozen plain classes with one constructor,
``errors._Record.__init__``: it binds one argument to each field, refuses a
field missing, unknown or given twice, and runs the record's
``__post_init__`` once.  After that ``_Record._set`` is the one write:
``__post_init__`` writes derived state with it, and a value taken on first
read is memoized with it into a class default.  No record writes its own
``__init__`` or is a ``typing.NamedTuple``, and no module uses
``object.__setattr__``, ``object.__new__``, ``__dict__``, ``vars`` or
``functools.cached_property``.  Importing the library runs no generated
code, a field cannot be assigned or deleted, and a record is rebuilt with
changed fields through its constructor."""

import ast
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from recode_instances import FAMILY, pipeline_parts

from fingen.cli import ExperimentConfig
from fingen.coding import FiberDistribution, build_code, code_length_bound
from fingen.errors import _Record
from fingen.probvec import Coarsening, ProbVec, ratcomb_decompose
from fingen.recoder import encode_names, reduce_alphabet
from fingen.system import FiniteSystem, GAlgebra, PseudoMap, avgmix
from fingen.tower import build_tower
from fingen.typical import PackingBudget, TypicalSpec, stirling_window

SRC = Path(__file__).resolve().parent.parent / "src"
HALF = ProbVec((F(1, 2), F(1, 2)))
P3 = ProbVec((F(1, 4), F(1, 4), F(1, 2)))
Z4 = FiniteSystem.cyclic(4)


def rebuilt(record, **changes):
    """``record`` built again through its constructor, with ``changes`` to its fields."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def records() -> dict:
    """One record of each class, by class name."""
    sysn, _, falg, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan, _ = encode_names(tower, fine, beta, codebook, r=params.r, delta=params.delta)
    mix = avgmix(Z4, range(4), (0, 0, 1, 1), 0)
    fd = FiberDistribution(HALF, (HALF, HALF))
    out = [
        HALF, Coarsening(((0, 1), (2,)), 3), ratcomb_decompose(P3, F(1, 2)),
        fd, code_length_bound(fd, build_code(fd)),
        ExperimentConfig("count", {}, 0, "json", None, 10),
        params, reduce_alphabet(Z4, (0, 1, 0, 1), GAlgebra((0,) * 4), F(1, 2))[1], plan,
        sysn, falg, mix.theta, mix, build_tower(FiniteSystem.cyclic(60), (0, 1) * 30, 2, 1),
        TypicalSpec(HALF, 0, 4), stirling_window(HALF, F(1, 10), 0, 4),
        PackingBudget(F(1, 1000), F(1, 2)), codebook,
    ]
    return {type(r).__name__: r for r in out}


RECORDS = records()


def test_every_record_class_is_listed():
    assert set(RECORDS) == {cls.__name__ for cls in _Record.__subclasses__()}
    assert len(RECORDS) == 18


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_assignment_and_deletion_of_each_field(name):
    record = RECORDS[name]
    assert record._fields
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


# one record of each shape: fields kept as given, checked fields, a field
# stored in another form, derived state, and a field set after construction
SHAPES = ["MixResult", "ExperimentConfig", "Coarsening", "FiniteSystem", "CodeBook"]


@pytest.mark.parametrize("name", SHAPES)
def test_the_constructor_binds_each_field_once(name):
    record = RECORDS[name]
    cls, fields = type(record), record._fields
    values = [getattr(record, f) for f in fields]
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    bad = [
        lambda: cls(*values[:-1]),  # the last field missing
        lambda: cls(**dict(zip(fields[1:], values[1:]))),  # the first field missing
        lambda: cls(*values, None),  # one argument more than there are fields
        lambda: cls(*values, extra=None),  # an unknown field
        lambda: cls(*values, **{fields[0]: values[0]}),  # the first field twice
    ]
    for call in bad:
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) takes one argument per field"):
            call()


def test_no_record_writes_its_own_constructor():
    assert [cls.__name__ for cls in _Record.__subclasses__() if "__init__" in vars(cls)] == []


# cached_property writes into __dict__, and a NamedTuple is built by generated code
ROUND_WRITES = ("cached_property", "NamedTuple")


def record_writes(tree: ast.Module) -> list:
    """Line numbers of ``object.__setattr__``, ``object.__new__``, every
    ``__dict__``, every ``vars(...)`` and every ``cached_property`` or
    ``NamedTuple``, bare or dotted: the ways round a record's constructor,
    its ``_set`` and its frozen fields."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            node.attr == "__dict__" or node.attr in ROUND_WRITES
            or node.attr in ("__setattr__", "__new__") and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )
        or isinstance(node, ast.Name) and node.id in ROUND_WRITES
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"
    )


def test_no_module_writes_a_record_round_its_constructor():
    # _Record stores each field through super().__setattr__; PseudoMap.then builds its
    # checked result with PseudoMap.__new__ and _set, the one record made without __init__
    found = {path.name: record_writes(ast.parse(path.read_text()))
             for path in (SRC / "fingen").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_record_guard_sees_each_write():
    code = """
out = object.__new__(PseudoMap)
object.__setattr__(out, "pairs", ())
out.__dict__.update(pairs=())
out.__dict__["moves"] = ()
vars(out).update(moves=())
object.__getattribute__(out, "pairs")
out.pairs
class Bound(NamedTuple):
    holds: bool
class Dotted(typing.NamedTuple):
    holds: bool
class Column(_Record):
    @cached_property
    def cells(self):
        return ()
    @functools.cached_property
    def marks(self):
        return ()
"""
    assert record_writes(ast.parse(code)) == [2, 3, 4, 5, 6, 9, 11, 14, 17]


@pytest.mark.parametrize("cls, name", [(FiniteSystem, "FiniteSystem"), (PseudoMap, "PseudoMap")])
def test_building_a_record_runs_its_check_once(monkeypatch, cls, name):
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    assert rebuilt(RECORDS[name]) == RECORDS[name]
    assert len(calls) == 1


def test_records_compare_and_hash_by_their_fields():
    assert ProbVec((F(1, 2), F(1, 2))) == HALF and hash(ProbVec((F(1, 2), F(1, 2)))) == hash(HALF)
    assert hash(HALF) == hash(HALF.weights)
    params = RECORDS["RecodeParams"]
    assert rebuilt(params) == params and hash(rebuilt(params)) == hash(params)
    assert rebuilt(params, r=F(1, 3)) != params
    assert PackingBudget(F(1, 1000), F(1, 2)) != (F(1, 1000), F(1, 2))
    assert repr(Coarsening(((0,), (1,)), 2)) == "Coarsening(blocks=((0,), (1,)), size=2)"


def test_importing_the_cli_runs_no_generated_code():
    # dataclasses runs generated code for each class, and imports inspect
    code = "import sys, fingen.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"

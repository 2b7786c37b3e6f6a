"""Numeric parameters are read by ``errors.rational`` and ``errors.integer``
alone: every entry point refuses a bool, nan, an infinity, a non-number and
None by the parameter's name, and no function reads one of its own
parameters with a bare ``Fraction(...)`` or ``float(...)``.  Point sets and
labelings are read by ``errors.points``, ``errors.labeling`` and
``errors.ordered_labeling``: no other function applies ``set``,
``frozenset`` or ``sorted(set(...))`` to one of its own parameters, nor a
record's ``__post_init__`` to one of its fields."""

import ast
import math
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import pytest
from recode_instances import FAMILY, build, pipeline_parts

from fingen.coding import ternary
from fingen.errors import InvalidParamsError, integer, rational
from fingen.probvec import Coarsening, ProbVec, ratcomb_decompose
from fingen.recoder import (
    RecodeParams,
    brute_force_generator_search,
    decode,
    encode_names,
    join_factor,
    krieger_recode,
    recode_codebook,
    reduce_alphabet,
    refine_to_p,
    scan_towers,
    synthesize_prepartition,
)
from fingen.system import FiniteSystem, GAlgebra, avgmix, make_equal_partition
from fingen.tower import admissible_m, build_tower
from fingen.typical import (
    PackingBudget,
    TypicalSpec,
    binomial_bound_report,
    build_injections,
    choose_J,
    count_fiber,
    count_typical,
    greedy_packing,
    iter_typical,
    stirling_window,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "fingen"
HALF = ProbVec((F(1, 2), F(1, 2)))
SPEC = TypicalSpec(HALF, 0, 4)
Z4 = FiniteSystem.cyclic(4)
Z60 = FiniteSystem.cyclic(60)
ALPHA60 = tuple(0 if x < 30 else 1 for x in range(60))
P3 = ProbVec((F(1, 4), F(1, 4), F(1, 2)))
BLOCKS3 = Coarsening(((0, 1), (2,)), 3)
XI3 = ProbVec((F(22, 24), F(1, 24), F(1, 24)))
XI3_BLOCKS = Coarsening(((0,), (1, 2)), 3)
ONE_BLOCK = Coarsening(((0, 1),), 2)
TRIVIAL4 = GAlgebra((0,) * 4)
BUDGET = PackingBudget(F(1, 1000), F(1, 2))
BAD = [True, math.nan, math.inf, "x", None]


@cache
def parts() -> dict:
    """The pipeline stages of the first family instance, up to the
    pre-partition labeling that its decoder reads."""
    sysn, xi, falg, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    _, _, blocks, dist = join_factor(xi, falg)
    plan, _ = encode_names(tower, fine, beta, codebook, r=params.r, delta=params.delta)
    alpha = [None] * sysn.n_points
    cells_q, _ = synthesize_prepartition(plan, params)
    for i, cell in enumerate(refine_to_p(sysn, cells_q, params)):
        for x in cell:
            alpha[x] = i
    return dict(params=params, fine=fine, beta=beta, blocks=blocks, dist=dist, tower=tower,
                codebook=codebook, alpha=alpha)


def recode_call(**kwargs):
    sysn, xi, falg, params, _ = build(FAMILY[0])
    return krieger_recode(sysn, xi, falg, params, **kwargs)


def codebook_call(v):
    d = parts()
    return recode_codebook(d["tower"], d["beta"], d["dist"], d["blocks"], d["params"], v)


def encode_call(**kwargs):
    d = parts()
    kwargs = {"r": d["params"].r, "delta": d["params"].delta, **kwargs}
    return encode_names(d["tower"], d["fine"], d["beta"], d["codebook"], **kwargs)


def decode_call(v):
    d = parts()
    tower = d["tower"]
    codebook, blocks = d["codebook"], d["params"].blocks
    return decode(d["alpha"], d["beta"], tower.transversal, tower.theta, codebook, v, blocks)


# (entry point, parameter, call with the value); the parameters of NONE_OK
# take None as "not given"
ENTRIES = [
    ("TypicalSpec", "eps", lambda v: TypicalSpec(HALF, v, 4)),
    ("TypicalSpec", "n", lambda v: TypicalSpec(HALF, 0, v)),
    ("count_fiber", "eps", lambda v: count_fiber(HALF, ONE_BLOCK, v, 4, (0,) * 4)),
    ("PackingBudget", "delta", lambda v: PackingBudget(v, F(1, 2))),
    ("PackingBudget", "r", lambda v: PackingBudget(F(1, 1000), v)),
    ("choose_J", "delta", lambda v: choose_J((0, 1) * 5, (), v, F(1, 10), HALF)),
    ("choose_J", "eps", lambda v: choose_J((0, 1) * 5, (), F(3, 10), v, HALF)),
    ("stirling_window", "delta", lambda v: stirling_window(HALF, v, 0, 4)),
    ("stirling_window", "eps", lambda v: stirling_window(HALF, F(1, 10), v, 4)),
    ("stirling_window", "n", lambda v: stirling_window(HALF, F(1, 10), 0, v)),
    ("binomial_bound_report", "n", lambda v: binomial_bound_report(F(1, 2), v)),
    ("build_injections", "eps", lambda v: build_injections(XI3, XI3_BLOCKS, HALF, BUDGET, v, 24)),
    ("build_injections", "n", lambda v: build_injections(XI3, XI3_BLOCKS, HALF, BUDGET, 0, v)),
    ("iter_typical", "rho", lambda v: next(iter_typical(SPEC, v))),
    ("greedy_packing", "rho", lambda v: greedy_packing(SPEC, v)),
    ("greedy_packing-limit-0", "rho", lambda v: greedy_packing(SPEC, v, 0)),
    ("greedy_packing", "limit", lambda v: greedy_packing(SPEC, F(1, 2), v)),
    ("FiniteSystem", "n_points", lambda v: FiniteSystem(v, (("r", (0,)),))),
    ("FiniteSystem.cyclic", "n", FiniteSystem.cyclic),
    ("ternary", "n", ternary),
    ("make_equal_partition", "n", lambda v: make_equal_partition(Z4, (0, 2), range(4), v)),
    ("avgmix", "eps", lambda v: avgmix(Z4, range(4), (0, 0, 1, 1), v)),
    ("build_tower", "eps", lambda v: build_tower(Z60, ALPHA60, v, 1)),
    ("build_tower", "nmin", lambda v: build_tower(Z60, ALPHA60, 2, v)),
    ("build_tower", "m", lambda v: build_tower(Z60, ALPHA60, 2, 1, v)),
    ("admissible_m", "eps", lambda v: admissible_m(60, 2, v, 1, 20)),
    ("admissible_m", "nmin", lambda v: admissible_m(60, 2, 2, v, 20)),
    ("admissible_m", "m", lambda v: admissible_m(60, 2, 2, 1, v)),
    ("ratcomb_decompose", "eps", lambda v: ratcomb_decompose(P3, v)),
    ("Coarsening", "size", lambda v: Coarsening(((0,), (1,)), v)),
    ("RatDecomposition.verify", "eps", lambda v: ratcomb_decompose(P3, F(1, 2)).verify(v)),
    ("RecodeParams", "r", lambda v: RecodeParams(P3, BLOCKS3, v, F(1, 8), 0)),
    ("RecodeParams", "delta", lambda v: RecodeParams(P3, BLOCKS3, F(1, 2), v, 0)),
    ("RecodeParams", "eps", lambda v: RecodeParams(P3, BLOCKS3, F(1, 2), F(1, 8), v)),
    ("reduce_alphabet", "eps", lambda v: reduce_alphabet(Z4, (0, 1, 0, 1), TRIVIAL4, v)),
    ("encode_names", "r", lambda v: encode_call(r=v)),
    ("encode_names", "delta", lambda v: encode_call(delta=v)),
    ("decode", "delta", decode_call),
    ("recode_codebook", "pack_delta", codebook_call),
    ("scan_towers", "tower_eps", lambda v: scan_towers(Z60, ALPHA60, v)),
    ("scan_towers", "m", lambda v: scan_towers(Z60, ALPHA60, m=v)),
    ("krieger_recode", "tower_eps", lambda v: recode_call(tower_eps=v)),
    ("krieger_recode", "m", lambda v: recode_call(m=v)),
    ("krieger_recode", "pack_delta", lambda v: recode_call(pack_delta=v)),
    ("brute_force_generator_search", "k_max", lambda v: brute_force_generator_search(Z4, v)),
]
INTEGERS = {"n", "n_points", "nmin", "m", "limit", "k_max", "size"}
NONE_OK = {
    ("greedy_packing", "limit"), ("build_tower", "m"), ("recode_codebook", "pack_delta"),
    ("scan_towers", "tower_eps"), ("scan_towers", "m"), ("krieger_recode", "tower_eps"),
    ("krieger_recode", "m"), ("krieger_recode", "pack_delta"),
}
CASES = [
    pytest.param(name, call, v, id=f"{entry}-{name}-{v!r}")
    for entry, name, call in ENTRIES
    for v in BAD
    if not (v is None and (entry, name) in NONE_OK)
]


@pytest.mark.parametrize("name, call, value", CASES)
def test_entry_points_refuse_what_is_no_number_by_name(name, call, value):
    with pytest.raises(InvalidParamsError) as err:
        call(value)
    noun = "an integer" if name in INTEGERS else "a rational number"
    assert err.value.constraint == f"{name} is {noun}"


def test_readers_keep_what_they_accept():
    half = F(1, 2)
    assert rational("eps", half) is half  # the pipeline's own values cost nothing
    assert [rational("eps", v) for v in (2, "1/3", 0.5)] == [2, F(1, 3), half]
    assert integer("n", 7) == 7
    with pytest.raises(InvalidParamsError, match=r"^eps is a rational number: eps='1/0'$"):
        rational("eps", "1/0")
    with pytest.raises(InvalidParamsError, match=r"^n is an integer: n=2\.0$"):
        integer("n", 2.0)


def test_spec_refuses_a_bool_or_float_after_the_equal_key_is_cached():
    # True hashes as 1 and 4.0 as 4, so the count-range cache would take
    # them for the specs built first
    for good, bad, name in [((1, 4), (True, 4), "eps"), ((0, 4), (0, 4.0), "n")]:
        assert count_typical(TypicalSpec(HALF, *good)) >= 1
        with pytest.raises(InvalidParamsError) as err:
            TypicalSpec(HALF, *bad)
        assert err.value.constraint.startswith(name + " is ")


# where a bare read is the rule: the readers themselves, the CLI's reader of
# config text (it exits 2), ProbVec's exact weights, and the delta of
# binomial_bound_report, whose "0 <= delta <= 1" names a nan delta
OWN_READS = {("errors", "rational", "v"), ("cli", "_fr", "v"), ("probvec", "_exact", "v"),
             ("typical", "binomial_bound_report", "delta")}


NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def bare_reads(tree: ast.Module, module: str):
    """(module, function, parameter) for each ``Fraction(p)`` or ``float(p)``
    that reads a parameter p of the enclosing function before p is rebound;
    in ``__post_init__`` the fields read as ``self.f`` or ``getattr(self, ...)``
    count as parameters.  ``float(p)`` of a parameter annotated ``Fraction``,
    a value its callers have read, converts it and reads nothing."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        params = {a.arg for a in args}
        exact = {a.arg for a in args if a.annotation and ast.unparse(a.annotation) == "Fraction"}
        calls, bound = own_calls(fn, ("Fraction", "float"))
        for node in calls:
            arg = node.args[0]
            if node.func.id == "float" and isinstance(arg, ast.Name) and arg.id in exact:
                continue
            if isinstance(arg, ast.Name) and arg.id in params:
                if node.lineno <= bound.get(arg.id, node.lineno):
                    yield module, fn.name, arg.id
            elif fn.name == "__post_init__" and _reads_self(arg):
                yield module, fn.name, "self"


def own_calls(fn, names) -> tuple:
    """The calls with arguments of a function in ``names`` in ``fn``'s own
    body, not its nested functions, and the first line binding each name."""
    nodes, stack = [], list(fn.body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, NESTED):
            stack.extend(ast.iter_child_nodes(node))
    bound: dict = {}
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound[node.id] = min(bound.get(node.id, node.lineno), node.lineno)
    calls = [node for node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in names and node.args]
    return calls, bound


def _reads_self(node) -> bool:
    """Whether ``node`` is ``self.f`` or ``getattr(self, ...)``."""
    if isinstance(node, ast.Attribute):
        return _is_self(node.value)
    getattr_call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    return getattr_call and node.func.id == "getattr" and bool(node.args) and _is_self(node.args[0])


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def test_no_function_reads_its_own_parameter_bare():
    found = set()
    for path in SRC.glob("*.py"):
        found.update(bare_reads(ast.parse(path.read_text()), path.stem))
    assert found - OWN_READS == set()
    assert OWN_READS <= found  # each exception is still where it is named


def test_the_guard_sees_a_bare_read():
    code = """
def entry(eps, n):
    eps = Fraction(eps)
    return float(eps), float(n)

def later(eps, rho: Fraction):
    eps = rational("eps", eps)
    return float(eps), float(rho), Fraction(rho)

class Spec:
    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(getattr(self, "r")))
"""
    assert set(bare_reads(ast.parse(code), "m")) == {
        ("m", "entry", "eps"), ("m", "entry", "n"), ("m", "later", "rho"),
        ("m", "__post_init__", "self"),
    }


# where a set of a parameter is the rule: _check_moves reads moves, pairs of
# walk indices and not points, into a set and names an unhashable one itself
OWN_SETS = {("system", "_check_moves", "moves")}
READERS = {("errors", "points"), ("errors", "labeling"), ("errors", "ordered_labeling")}


def set_reads(tree: ast.Module, module: str):
    """(module, function, parameter) for each ``set(p)`` or ``frozenset(p)``,
    ``sorted(set(p))`` included, that reads a parameter p of the enclosing
    function before p is rebound, in any function but the readers; in
    ``__post_init__`` the fields read as ``self.f`` or ``getattr(self, ...)``
    count as parameters."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or (module, fn.name) in READERS:
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        calls, bound = own_calls(fn, ("set", "frozenset"))
        for node in calls:
            arg = node.args[0]
            if isinstance(arg, ast.Name) and arg.id in params:
                if node.lineno <= bound.get(arg.id, node.lineno):
                    yield module, fn.name, arg.id
            elif fn.name == "__post_init__" and _reads_self(arg):
                yield module, fn.name, "self"


def test_no_function_but_the_readers_sets_its_own_parameter():
    found = set()
    for path in SRC.glob("*.py"):
        found.update(set_reads(ast.parse(path.read_text()), path.stem))
    assert found - OWN_SETS == set()
    assert OWN_SETS <= found  # each exception is still where it is named


def test_the_guard_sees_a_set_of_a_parameter():
    code = """
def entry(A, B, reserved, xi):
    A, B = set(A), frozenset(B)
    return sorted(set(xi)), points("reserved", reserved, 4)

def later(A, labels):
    A = points("A", A, 4)
    return set(A), set(labels[0]), [set(x) for x in labels]

def points(name, points, n):
    return set(points)

class Cells:
    def __post_init__(self):
        return sorted(set(self.labels)), set(self.labels[0]), len(self.labels)

    def later(self):
        return set(self.labels)
"""
    assert set(set_reads(ast.parse(code), "m")) == {
        ("m", "entry", "A"), ("m", "entry", "B"), ("m", "entry", "xi"), ("m", "points", "points"),
        ("m", "__post_init__", "self"),
    }
    assert ("errors", "points", "points") not in set(set_reads(ast.parse(code), "errors"))
    for read in ("frozenset(self.labels)", "set(getattr(self, 'labels'))"):
        snippet = f"class Cells:\n    def __post_init__(self):\n        return {read}\n"
        assert set(set_reads(ast.parse(snippet), "m")) == {("m", "__post_init__", "self")}

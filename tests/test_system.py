import contextlib
import gc
import io
import math
import random
import weakref
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from fingen.errors import DivisibilityError, InvalidParamsError, InvalidPartitionError
from fingen import cli, system, tower
from fingen.probvec import canon_labels, label_cells
from fingen.system import (
    FiniteSystem,
    GAlgebra,
    PseudoMap,
    avgmix,
    cyclic_permute,
    generated_algebra,
    make_equal_partition,
    refine_partition,
    simplemix,
)
from fingen.tower import build_tower
from labelings import membership

Z4 = FiniteSystem.cyclic(4)
Z6 = FiniteSystem.cyclic(6)
Z8 = FiniteSystem.cyclic(8)
Z12 = FiniteSystem.cyclic(12)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PARITY8 = GAlgebra(tuple(x % 2 for x in range(8)))


def walked(sysn, end=None) -> list:
    """The group walk of ``sysn`` as (word, table) pairs in walk order, each
    table read point by point through ``image``: its first ``end`` elements,
    walking no further, or by default every element, to the walk's end."""
    enum = sysn.group()
    out, i = [], 0
    while i != end and enum.reach(i):
        word, _ = enum.elements[i]
        out.append((word, tuple(enum.image(i, x) for x in range(sysn.n_points))))
        i += 1
    return out


def element_map(sys, i, points=None):
    """The map moving each point (all of them by default) by walk element i."""
    pts = sorted(range(sys.n_points) if points is None else points)
    _, perm = walked(sys, i + 1)[i]
    return PseudoMap(sys, tuple((x, perm[x]) for x in pts), ((0, i),) * len(pts))


def tau_even_up(sysn=Z8):
    # swaps {0,1},{2,3},...: needs the parity cells to express over rot1; the
    # odd points undo r, so the map names only walk elements 0 and 1
    perm = tuple(x + 1 if x % 2 == 0 else x - 1 for x in range(8))
    moves = tuple((0, 1) if x % 2 == 0 else (1, 0) for x in range(8))
    return PseudoMap(sysn, tuple(zip(range(8), perm)), moves)


def undo_word(word):
    return tuple(t[1:] if t.startswith("~") else "~" + t for t in reversed(word))


def words_of(m):
    """Each point's word, derived from the walk words its move names: the pair
    (i, j) undoes element i's word, then applies element j's."""
    words = [w for w, _ in m.system.group().elements]
    return tuple(
        sum((undo_word(words[i]) + words[j] for i, j in zip(mv[::2], mv[1::2])), ())
        for mv in m.moves
    )


def test_system_validation():
    with pytest.raises(InvalidPartitionError):
        FiniteSystem.make(3, {"a": [0, 0, 1]})
    with pytest.raises(InvalidParamsError):
        FiniteSystem.make(4, {"a": [1, 0, 3, 2]})  # two orbits, not transitive
    with pytest.raises(InvalidParamsError):
        FiniteSystem.make(2, {"~a": [1, 0]})


@pytest.mark.parametrize(
    "call, constraint",
    [
        (lambda: FiniteSystem.make(4, [("r", [1, 2, 3, 0])]), "generators is a mapping"),
        (lambda: FiniteSystem("4", (("r", (1, 2, 3, 0)),)), "n_points is an integer"),
        (lambda: FiniteSystem(True, (("r", (0,)),)), "n_points is an integer"),
        (lambda: FiniteSystem(4, "r"), "generators are (name, permutation) pairs"),
        (
            lambda: FiniteSystem(4, (("r", (1, 2, 3, 0), 1),)),
            "generators are (name, permutation) pairs",
        ),
        (lambda: FiniteSystem(1, iter(())), "at least one generator"),
    ],
    ids=[
        "list-generators", "string-n", "bool-n", "string-generators", "three-item-entry",
        "empty-iterator",
    ],
)
def test_system_names_malformed_input(call, constraint):
    with pytest.raises(InvalidParamsError) as err:
        call()
    assert err.value.constraint == constraint


@pytest.mark.parametrize(
    "call, constraint",
    [
        (lambda: simplemix(Z4, ["a"], [0]), "A holds int points"),
        (lambda: simplemix(Z4, [True], [0]), "A holds int points"),
        (lambda: cyclic_permute(Z4, [("a",), (1,)]), "B holds int points"),
        (lambda: make_equal_partition(Z4, (0, 2), range(4), 2.0), "n is an integer"),
        (lambda: make_equal_partition(Z4, (True,), range(4), 4), "C holds int points"),
        (lambda: avgmix(Z4, [0.5], (0,) * 4, 1), "B holds int points"),
        (lambda: simplemix(Z4, [[0]], [1]), "A holds int points"),
        (lambda: simplemix(Z4, [0], 5), "B holds int points"),
        (lambda: make_equal_partition(Z4, [[0]], range(4), 2), "C holds int points"),
        (lambda: make_equal_partition(Z4, [0], 4, 2), "B holds int points"),
        (lambda: avgmix(Z4, [[0]], (0, 1, 0, 1), 1), "B holds int points"),
        (lambda: avgmix(Z4, 3, (0, 1, 0, 1), 1), "B holds int points"),
        (lambda: cyclic_permute(Z4, [0, 1]), "B holds int points"),
        (lambda: cyclic_permute(Z4, 5), "B holds int points"),
        (lambda: avgmix(Z4, range(4), 5, 1), "one label per point"),
    ],
    ids=["str-A", "bool-A", "str-piece", "float-n", "bool-C", "float-B", "list-A", "int-B",
         "list-C", "int-B-partition", "list-B", "int-B-avgmix", "int-pieces", "no-pieces",
         "int-labels-avgmix"],
)
def test_mixing_names_malformed_points(call, constraint):
    with pytest.raises(InvalidParamsError) as err:
        call()
    assert err.value.constraint == constraint


def test_system_reads_its_generators_once():
    once = FiniteSystem(4, (pair for pair in [("r", (1, 2, 3, 0))]))
    assert once == FiniteSystem.cyclic(4)
    assert simplemix(once, [0], [2]).pairs == ((0, 2),)


def test_system_refuses_a_generator_name_that_is_not_a_string():
    with pytest.raises(InvalidParamsError, match="nonempty strings"):
        FiniteSystem.make(3, {1: [1, 2, 0]})


def test_system_refuses_a_permutation_that_is_not_a_sequence():
    with pytest.raises(InvalidPartitionError, match="not a permutation"):
        FiniteSystem.make(3, {"r": 5})


@pytest.mark.parametrize(
    "perm", [[1.0, 2, 0], ["1", 2, 0], [True, 2, 0]], ids=["float", "str", "bool"]
)
def test_system_refuses_entries_that_are_not_ints(perm):
    with pytest.raises(InvalidPartitionError, match="not a permutation"):
        FiniteSystem.make(3, {"r": perm})


def test_group_enumeration_order():
    assert [w for w, _ in walked(Z4)] == [(), ("r",), ("~r",), ("r", "r")]


def regular(gens):
    """The group generated by ``gens`` (permutations of one range) acting on
    itself by left multiplication."""
    ident = tuple(range(len(next(iter(gens.values())))))
    elems, index = [ident], {ident: 0}
    for g in elems:
        for p in gens.values():
            h = tuple(p[y] for y in g)
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    return FiniteSystem.make(
        len(elems),
        {name: [index[tuple(p[y] for y in g)] for g in elems] for name, p in gens.items()},
    )


def full_bfs(sysn):
    """Eager breadth-first enumeration: the order the lazy walk must keep."""
    tables = dict(sysn.generators)
    for name, p in sysn.generators:
        tables["~" + name] = tuple(sorted(range(len(p)), key=p.__getitem__))
    ident = tuple(range(sysn.n_points))
    order, seen = [((), ident)], {ident}
    for word, perm in order:
        for tok, p in tables.items():
            q = tuple(p[y] for y in perm)
            if q not in seen:
                seen.add(q)
                order.append((word + (tok,), q))
    return order


# fresh systems per test, since a system's walk is memoized
WALKED = {
    "cyclic9": lambda: FiniteSystem.cyclic(9),
    "z4xz2": lambda: regular({"a": (1, 2, 3, 0, 4, 5), "b": (0, 1, 2, 3, 5, 4)}),
    "s4": lambda: regular({"s": (1, 0, 2, 3), "c": (1, 2, 3, 0)}),
    "d7": lambda: regular({"r": (1, 2, 3, 4, 5, 6, 0), "f": (0, 6, 5, 4, 3, 2, 1)}),
}


@pytest.mark.parametrize("name", sorted(WALKED))
def test_lazy_walk_matches_full_bfs(name):
    sysn = WALKED[name]()
    ref = full_bfs(sysn)
    assert len(ref) == sysn.n_points  # regular actions: one element per point
    enum = sysn.group()
    assert walked(sysn, 1) == ref[:1]
    assert len(enum.elements) == 1
    assert walked(sysn, 3) == ref[:3]
    assert len(enum.elements) == 3
    assert walked(sysn) == ref
    assert not enum.reach(len(ref))
    assert len(enum.elements) == len(ref) and walked(sysn) == ref
    assert sysn.group() is enum


@pytest.mark.parametrize("n", [120, 480, 10_000])
def test_tower_walks_only_the_elements_it_reads(n):
    sysn = FiniteSystem.cyclic(n)
    build_tower(sysn, tuple(x % 2 for x in range(n)), 2, 1, 20)
    # shifts 0, ±1, ..., ±9 and +10 reach the 20 pieces; nothing past the last
    assert len(sysn.group().elements) == 20


def test_dropped_system_frees_its_walk():
    gc.disable()
    try:
        sysn = FiniteSystem.cyclic(12)
        enum = sysn.group()
        assert enum.reach(1)
        refs = [weakref.ref(sysn), weakref.ref(enum), weakref.ref(enum._walk)]
        del sysn, enum
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


# A system caches its group enumeration, so every capped case below builds
# a fresh system after patching the cap.


def sweep_onto_every_point(sysn):
    """Sweep {0} onto each point in turn, which needs every element of a
    regular action's walk."""
    return make_equal_partition(sysn, (0,), range(sysn.n_points), sysn.n_points)


def test_group_cap_marks_incomplete(monkeypatch):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 3)
    capped = FiniteSystem.cyclic(8)
    enum = capped.group()
    assert not enum.reach(3)
    assert len(enum.elements) == 3
    with pytest.raises(InvalidParamsError, match="group enumeration exhausted"):
        sweep_onto_every_point(capped)
    monkeypatch.undo()
    full = FiniteSystem.cyclic(8)
    assert len(walked(full)) == 8
    sweep_onto_every_point(full)


def test_group_cap_at_group_order_is_complete(monkeypatch):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 4)
    z4 = FiniteSystem.cyclic(4)
    assert [w for w, _ in walked(z4)] == [(), ("r",), ("~r",), ("r", "r")]
    sweep_onto_every_point(z4)
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 8)
    z8 = FiniteSystem.cyclic(8)
    assert len(walked(z8)) == 8 and not z8.group().reach(8)
    sweep_onto_every_point(z8)
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 7)
    capped = FiniteSystem.cyclic(8)
    assert len(walked(capped)) == 7 and not capped.group().reach(7)
    with pytest.raises(InvalidParamsError, match="group enumeration exhausted"):
        sweep_onto_every_point(capped)


def test_move_application():
    # Z6 walks (), r, ~r, rr, ~r~r, rrr; a pair (i, j) undoes i, then applies j
    sysn = FiniteSystem.cyclic(6)
    m = PseudoMap(sysn, ((2, 5), (4, 3)), ((3, 2), (0, 3, 4, 1)))
    assert len(sysn.group().elements) == 5  # walked only as far as index 4
    assert words_of(m) == (("~r", "~r", "~r"), ("r", "r", "r", "r", "r"))
    enum = sysn.group()
    perms = [perm for _, perm in walked(sysn)]
    for i, perm in enumerate(perms):
        assert tuple(enum.image(i, x) for x in range(6)) == perm
    assert tuple(enum.inverse_image(3, x) for x in range(6)) == perms[4]


def test_generated_algebra_examples():
    assert generated_algebra(Z4, membership(4, [range(4)])).cells == ((0, 1, 2, 3),)
    assert generated_algebra(Z4, membership(4, [{0}])).cells == ((0,), (1,), (2,), (3,))
    assert generated_algebra(Z6, membership(6, [{0, 3}])).cells == ((0, 3), (1, 4), (2, 5))


def test_generated_algebra_idempotent_and_monotone():
    alg = generated_algebra(Z6, membership(6, [{0, 3}]))
    again = generated_algebra(Z6, membership(6, alg.cells))
    assert again.labels == alg.labels
    finer = generated_algebra(Z6, membership(6, [{0, 3}, {1}]))
    assert finer.refines(alg)
    assert alg.invariant_under(Z6) and finer.invariant_under(Z6)


def reference_fixpoint(sysn, labels):
    """Coarsest generator-stable partition refining ``labels``, as the set of
    related pairs: x ~ y while they share a label and each generator maps
    them to related points."""
    n = sysn.n_points
    related = {(x, y) for x in range(n) for y in range(n) if labels[x] == labels[y]}
    while True:
        kept = {
            (x, y) for x, y in related
            if all((p[x], p[y]) in related for _, p in sysn.generators)
        }
        if kept == related:
            return related
        related = kept


def one_pass_invariant(alg, sysn):
    """The generator-by-generator check ``invariant_under`` made before it
    became one refinement round."""
    for _, perm in sysn.generators:
        image: dict = {}
        for x in range(sysn.n_points):
            if image.setdefault(alg.labels[x], alg.labels[perm[x]]) != alg.labels[perm[x]]:
                return False
    return True


ACTIONS = {
    "cyclic12": lambda: Z12,
    "z4xz2": lambda: regular({"a": (1, 2, 3, 0, 4, 5), "b": (0, 1, 2, 3, 5, 4)}),
    "s3": lambda: regular({"s": (1, 0, 2), "c": (1, 2, 0)}),
}


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_generated_algebra_matches_reference_fixpoint(name):
    sysn = ACTIONS[name]()
    n = sysn.n_points
    rng = random.Random(len(name) * 1000 + n)
    for _ in range(80):
        seeds = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        labels = membership(n, seeds)
        alg = generated_algebra(sysn, labels)
        same = {(x, y) for x in range(n) for y in range(n) if alg.labels[x] == alg.labels[y]}
        assert same == reference_fixpoint(sysn, labels)
        assert alg.invariant_under(sysn)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_invariant_under_agrees_with_one_pass_check(name):
    sysn = ACTIONS[name]()
    n = sysn.n_points
    rng = random.Random(len(name) * 1000 + n)
    verdicts = []
    for i in range(300):
        period, k = rng.randint(1, n), rng.randint(1, 3)
        word = [rng.randrange(k) for _ in range(period)]
        labels = tuple(word[x % period] for x in range(n))
        if i % 3:
            labels = generated_algebra(sysn, labels).labels
        if i % 3 == 2:
            # a coarsening of an invariant partition is invariant only sometimes
            merge = [rng.randrange(2) for _ in range(max(labels) + 1)]
            labels = tuple(merge[c] for c in labels)
        alg = GAlgebra(labels)
        verdicts.append(alg.invariant_under(sysn))
        assert verdicts[-1] == one_pass_invariant(alg, sysn)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("labels", [(0, 1, 0), (0,) * 7])
def test_generated_algebra_rejects_a_labeling_of_the_wrong_length(labels):
    with pytest.raises(InvalidParamsError, match="one label per point"):
        generated_algebra(Z6, labels)


def moore_refine(labels, perms) -> GAlgebra:
    """The round-by-round fixpoint ``refine_partition`` ran before Hopcroft
    splitting: split each cell by the cells its images land in until the
    cell count stops growing."""
    labels = canon_labels(labels)
    if any(len(p) != len(labels) for p in perms):
        raise InvalidParamsError("one label per point")
    while True:
        nxt = canon_labels(zip(labels, *([labels[y] for y in p] for p in perms)))
        if len(set(nxt)) == len(set(labels)):
            return GAlgebra(labels)
        labels = nxt


MIXED_LABELS = (0, 1, 2, "a", "b", (0, 1), ("a",), (1, "b"))


def test_refine_partition_matches_the_round_loop_on_random_tables():
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randint(1, 40)
        perms = [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]
        pool = rng.sample(MIXED_LABELS, rng.randint(1, len(MIXED_LABELS)))
        labels = [rng.choice(pool) for _ in range(n)]
        assert refine_partition(labels, perms).labels == moore_refine(labels, perms).labels
        # callers pass the join of two labelings as a zip iterator
        other = [rng.randrange(2) for _ in range(n)]
        assert (
            refine_partition(zip(labels, other), perms).labels
            == moore_refine(zip(labels, other), perms).labels
        )


@pytest.mark.parametrize("n", [7, 60, 250, 1000])
def test_generated_algebra_matches_the_round_loop_on_cyclic_systems(n):
    sysn = FiniteSystem.cyclic(n)
    rng = random.Random(n)
    cases = {
        "singleton": (0,) + (1,) * (n - 1),
        "mod2": tuple(x % 2 for x in range(n)),
        "random3": tuple(rng.randrange(3) for _ in range(n)),
        "constant": (0,) * n,
    }
    for labels in cases.values():
        # the round loop gets every generator and inverse table
        want = moore_refine(labels, list(sysn._tables.values())).labels
        assert generated_algebra(sysn, labels).labels == want


@pytest.mark.parametrize(
    "perm, match",
    [
        ((0, 1, -1), "table entries lie on the points"),
        ((0, 1, 3), "table entries lie on the points"),
        ((0, 0, 0), "tables are permutations"),
    ],
)
def test_refine_partition_refuses_a_table_that_is_not_a_permutation(perm, match):
    with pytest.raises(InvalidParamsError, match=match):
        refine_partition((0, 1, 0), [perm])


@pytest.mark.parametrize("perms", [5, [5], [{0, 1, 2}], [None]], ids=repr)
def test_refine_partition_names_tables_that_are_not_sequences(perms):
    with pytest.raises(InvalidParamsError) as err:
        refine_partition((0, 1, 0), perms)
    assert err.value.constraint == "tables are permutations"


@pytest.mark.parametrize("perm", ["abc", (0, 1, 2.0), (True, 0, 2)], ids=repr)
def test_refine_partition_names_table_entries_that_are_not_ints(perm):
    with pytest.raises(InvalidParamsError) as err:
        refine_partition((0, 0, 0), [perm])
    assert err.value.constraint == "table entries are int points"


def test_refinement_relabels_once_not_once_per_round(monkeypatch):
    # the labeling is read once, into cells; GAlgebra numbers the fixpoint once
    calls = Counter()

    def counted(fn):
        def wrapped(raw):
            calls[fn.__name__] += 1
            return fn(raw)

        return wrapped

    monkeypatch.setattr(system, "canon_labels", counted(canon_labels))
    monkeypatch.setattr(system, "label_cells", counted(label_cells))
    counted_refine(monkeypatch, calls)
    # cell sizes 1 and 999 have gcd 1: decided without refining; sizes 2
    # and 998 have gcd 2, so Hopcroft splits them, point by point
    for labels, refined in [((0,) + (1,) * 999, 0), ((0, 0) + (1,) * 998, 1)]:
        calls.clear()
        alg = generated_algebra(FiniteSystem.cyclic(1000), labels)
        assert len(alg) == 1000
        assert (calls["canon_labels"], calls["label_cells"], calls["_refine"]) == (1, 1, refined)


def counted_refine(monkeypatch, calls):
    """Count the Hopcroft splitter loop's runs in ``calls["_refine"]``."""
    core = system._refine

    def refine(*args):
        calls["_refine"] += 1
        return core(*args)

    monkeypatch.setattr(system, "_refine", refine)


def labelings_by_gcd(rng, n):
    """A labeling of n points whose cell sizes have gcd 1, labelings whose
    sizes share the factor d for the two least divisors 1 < d < n, and the
    one-cell labeling."""
    k = rng.randint(2, 4)
    while True:
        labels = tuple(rng.randrange(k) for _ in range(n))
        if math.gcd(*Counter(labels).values()) == 1:
            break
    yield "gcd1", labels
    for d in [d for d in range(2, n) if n % d == 0][:2]:
        points = rng.sample(range(n), n)
        k = rng.randint(2, 3)
        blocks = [rng.randrange(k) for _ in range(n // d)]  # d points per block
        yield "gcd>1", tuple(blocks[points.index(x) // d] for x in range(n))
    yield "one-cell", (0,) * n


TRANSITIVE = {
    **ACTIONS,
    "dihedral10": lambda: dihedral(10),
    "dihedral9": lambda: dihedral(9),
    "random12": lambda: random_transitive(random.Random(5), 12),
}


@pytest.mark.parametrize("name", sorted(TRANSITIVE))
def test_generated_algebra_cells_have_one_size(name):
    # a transitive group permutes the cells of an invariant partition
    # transitively, so the gcd-1 shortcut and Hopcroft agree on every kind
    sysn = TRANSITIVE[name]()
    n = sysn.n_points
    rng = random.Random(len(name) * 100 + n)
    kinds = set()
    for _ in range(25):
        for kind, labels in labelings_by_gcd(rng, n):
            kinds.add(kind)
            alg = generated_algebra(sysn, labels)
            assert len(set(map(len, alg.cells))) == 1
            same = {(x, y) for x in range(n) for y in range(n) if alg.labels[x] == alg.labels[y]}
            assert same == reference_fixpoint(sysn, labels)
            hopcroft = refine_partition(labels, [p for _, p in sysn.generators])
            assert alg.labels == hopcroft.labels
            assert alg.invariant_under(sysn)
    assert kinds == {"gcd1", "gcd>1", "one-cell"}


def test_transitive_decisions_skip_the_splitter(monkeypatch):
    calls = Counter()
    counted_refine(monkeypatch, calls)
    inside = []  # per wrapped call: the set B it mixes inside, and the splitter's runs

    def tracked(fn):
        def wrapped(sysn, labels_or_B, *rest):
            before = calls["_refine"]
            out = fn(sysn, labels_or_B, *rest)
            B = labels_or_B if rest else None  # avgmix takes (sys, B, labels, eps)
            inside.append((B, calls["_refine"] - before))
            return out

        return wrapped

    # reduce's certificate: both labelings have a singleton cell
    monkeypatch.setattr(cli, "generated_algebra", tracked(generated_algebra))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reduce", "--config", str(CONFIGS / "reduce.json")]) == 0
    assert inside == [(None, 0), (None, 0)]
    # the recode demo's tower has one column, S1 = {0}: its class-stage
    # labeling has cells of 1 and N - 1 points
    inside.clear()
    monkeypatch.setattr(tower, "avgmix", tracked(tower.avgmix))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["recode", "--config", str(CONFIGS / "recode.json")]) == 0
    assert inside == [((0,), 0)]
    # cyclic(480), m = 20: S1's levels take 24 and 456 points, gcd 24
    inside.clear()
    build_tower(FiniteSystem.cyclic(480), tuple(x % 2 for x in range(480)), 2, 1, 20)
    assert inside == [(tuple(range(0, 480, 20)), 1)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: generated_algebra(Z4, [[0], [1], [0], [1]]),
        lambda: GAlgebra([[0], [1]]),
        lambda: refine_partition([[0], [1]], [(1, 0)]),
    ],
    ids=["generated_algebra", "GAlgebra", "refine_partition"],
)
def test_unhashable_labels_are_named(call):
    with pytest.raises(InvalidPartitionError, match="labels are hashable"):
        call()


def test_galgebra_basics():
    alg = GAlgebra((0, 1, 0, 1, 0, 1))
    assert alg.cells[alg.labels[2]] == (0, 2, 4)
    joined = GAlgebra(tuple(zip(alg.labels, (0, 0, 0, 1, 1, 1))))
    assert len(joined) == 4
    assert joined.refines(alg)


@pytest.mark.parametrize("other", [(0, 0), (0, 0, 1, 1)])
def test_refines_rejects_a_labeling_of_another_length(other):
    with pytest.raises(InvalidPartitionError, match="labeling length mismatch"):
        GAlgebra((0, 1, 2)).refines(GAlgebra(other))


def test_pseudomap_validation():
    with pytest.raises(InvalidParamsError):
        PseudoMap(Z4, ((0, 1), (2, 1)), ((0, 1), (0, 2)))
    with pytest.raises(InvalidParamsError):
        PseudoMap(Z4, ((0, 2),), ((0, 1),))  # r sends 0 to 1, not 2


def test_pseudomap_pairs_live_on_the_points():
    with pytest.raises(InvalidParamsError, match="pairs live on the points"):
        PseudoMap(Z4, ((-1, 0),), ((0, 1),))
    with pytest.raises(InvalidParamsError, match="pairs live on the points"):
        PseudoMap(Z4, ((4, 0),), ((0, 1),))
    # Z4's walk has 4 elements; a negative index must not wrap to the last
    for moves, name in [
        (((0, -1),), "move indices lie on the group walk"),
        (((0, 4),), "move indices lie on the group walk"),
        (((0, 1, 2),), "moves are pairs of walk indices"),
        (((0, 3), (0, 3)), "one move per pair"),
    ]:
        with pytest.raises(InvalidParamsError, match=name):
            PseudoMap(Z4, ((1, 0),), moves)
    for stray in (-1, 4):
        with pytest.raises(InvalidParamsError, match="on the points"):
            simplemix(Z4, [stray], [0, 1])


def test_pseudomap_refuses_malformed_moves_by_name():
    # the move (0, 1) carries 0 to 1 on Z4; none of these spellings of it is a move
    assert PseudoMap(Z4, ((0, 1),), ((0, 1),)).apply(0) == 1
    for move in (5, [0, 1], (0, "1"), (0, 1.0), (0, True), ((0, 1),)):
        with pytest.raises(InvalidParamsError, match="moves are pairs of walk indices"):
            PseudoMap(Z4, ((0, 1),), (move,))


@pytest.mark.parametrize(
    "pair", [(0, 1.0), (True, 2), (0.0, 1), ("0", 1), (0, 1, 2)], ids=repr
)
def test_pseudomap_refuses_malformed_pairs_by_name(pair):
    # each spelling of the pair (0, 1), which the move (0, 1) certifies on Z4
    with pytest.raises(InvalidParamsError, match="pairs are pairs of points"):
        PseudoMap(Z4, (pair,), ((0, 1),))


def test_pseudomap_decomposition_and_orbit():
    tau = tau_even_up()
    words = dict(zip(tau.domain, words_of(tau)))
    assert [x for x in tau.domain if words[x] == ("r",)] == [0, 2, 4, 6]
    assert [x for x in tau.domain if words[x] == ("~r",)] == [1, 3, 5, 7]
    assert tau.orbit(0) == (0, 1)
    part = PseudoMap(Z8, tau.pairs[:2], tau.moves[:2])
    with pytest.raises(InvalidParamsError):
        part.orbit(2)
    with pytest.raises(InvalidParamsError):
        element_map(Z4, 1, points=(0,)).orbit(0)


def reference_check(sysn, pairs, moves) -> tuple:
    """The map check as a per-point loop, every pair's move undone and
    applied element by element: the sorted pairs and moves, or the refusal,
    that the constructor must give too."""
    try:  # unpacking refuses a pair of another length
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
    except (TypeError, ValueError):
        raise InvalidParamsError("pairs are pairs of points") from None
    if set(map(type, pairs)) - {tuple} or set(map(type, xs + ys)) - {int}:
        raise InvalidParamsError("pairs are pairs of points")
    order = sorted(range(len(pairs)), key=lambda i: pairs[i])
    pairs = tuple(pairs[i] for i in order)
    if len(moves) != len(pairs):
        raise InvalidParamsError("one move per pair")
    moves = tuple(moves[i] for i in order)
    if any(not (0 <= x < sysn.n_points) for x in xs + ys):
        raise InvalidParamsError("pairs live on the points")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise InvalidParamsError("map must be a bijection")
    enum = sysn.group()
    steps = {}
    try:
        distinct = set(moves)
    except TypeError:
        raise InvalidParamsError("moves are pairs of walk indices") from None
    for mv in distinct:
        if not isinstance(mv, tuple) or len(mv) % 2 or any(type(i) is not int for i in mv):
            raise InvalidParamsError("moves are pairs of walk indices")
        if any(i < 0 or not enum.reach(i) for i in mv):
            raise InvalidParamsError("move indices lie on the group walk")
        steps[mv] = tuple(zip(mv[::2], mv[1::2]))
    for (x, y), mv in zip(pairs, moves):
        z = x
        for i, j in steps[mv]:
            z = enum.image(j, enum.inverse_image(i, z))
        if z != y:
            raise InvalidParamsError("move certificate mismatch", f"at point {x}")
    return pairs, moves


def check_outcome(call):
    """The pairs and moves a check accepts, or the class, constraint and
    message of its refusal."""
    try:
        got = call()
    except InvalidParamsError as err:
        return type(err), err.constraint, str(err)
    return (got.pairs, got.moves) if isinstance(got, PseudoMap) else got


def dihedral(n):
    """D_n on Z_n: r is x -> x+1 and s is x -> -x, which do not commute."""
    return FiniteSystem.make(
        n, {"r": [(x + 1) % n for x in range(n)], "s": [-x % n for x in range(n)]}
    )


def sweep_maps(sysn, rng):
    """Checked maps from sweeps: equal partitions whose moves are shared by
    many points and by one each, a cyclic map and a greedy matching."""
    n = sysn.n_points
    maps = [make_equal_partition(sysn, range(0, n, m), range(n), m)[1] for m in (3, n // 2, n)]
    B = rng.sample(range(n), n // 2)
    maps.append(cyclic_permute(sysn, [B[k::3] for k in range(3)]))
    maps.append(simplemix(sysn, rng.sample(range(n), n // 4), rng.sample(range(n), n // 3)))
    return maps


def mutate(rng, walk: int, pairs: list, moves: list) -> None:
    """Change one image, one move index or one pair's type or arity."""
    k = rng.randrange(len(pairs))
    x, y = pairs[k]
    kind = rng.randrange(5)
    if kind == 0:  # one image: a repeat of another image or a free point
        pairs[k] = (x, rng.choice([z for z in range(walk) if z != y]))
    elif kind == 1:  # two images swapped keep the map a bijection
        j = rng.randrange(len(pairs))
        pairs[k], pairs[j] = (x, pairs[j][1]), (pairs[j][0], y)
    elif kind == 2:  # one index off the walk
        mv = list(moves[k])
        mv[rng.randrange(len(mv))] = rng.choice([-1, walk, walk + 3])
        moves[k] = tuple(mv)
    elif kind == 3:  # one index to another element of the walk
        mv = list(moves[k])
        i = rng.randrange(len(mv))
        mv[i] = rng.choice([j for j in range(walk) if j != mv[i]])
        moves[k] = tuple(mv)
    else:  # one pair of another type or arity
        pairs[k] = rng.choice([(x, float(y)), (x, y, 0), (x,), [x, y], (str(x), y)])


@pytest.mark.parametrize("abelian, build", [(True, FiniteSystem.cyclic), (False, dihedral)])
def test_map_check_refuses_as_the_per_point_loop(abelian, build):
    # the cyclic system takes the point walk, the dihedral one the tuple walk
    rng = random.Random(29)
    for n in (12, 24, 36):
        sysn = build(n)
        walk = len(walked(sysn))
        assert sysn.group().abelian is abelian and walk == (n if abelian else 2 * n)
        for valid in sweep_maps(sysn, rng):
            want = check_outcome(lambda: reference_check(sysn, valid.pairs, valid.moves))
            assert check_outcome(lambda: PseudoMap(sysn, valid.pairs, valid.moves)) == want
            assert want == (valid.pairs, valid.moves)
            for _ in range(25):
                pairs, moves = list(valid.pairs), list(valid.moves)
                mutate(rng, walk, pairs, moves)
                order = list(range(len(pairs)))
                rng.shuffle(order)
                pairs = tuple(pairs[k] for k in order)
                moves = tuple(moves[k] for k in order)
                want = check_outcome(lambda: reference_check(sysn, pairs, moves))
                assert check_outcome(lambda: PseudoMap(sysn, pairs, moves)) == want


def test_then_reroutes_only_where_the_second_map_is_defined():
    # rot1 on Z6 followed by the swap of 2 and 4: 1 -> 2 -> 4 and 3 -> 4 -> 2
    swap = PseudoMap(Z6, ((2, 4), (4, 2)), ((0, 3), (0, 4)))
    rot = element_map(Z6, 1)
    both = rot.then(swap)
    assert both.pairs == ((0, 1), (1, 4), (2, 3), (3, 2), (4, 5), (5, 0))
    assert both.moves == ((0, 1), (0, 1, 0, 3), (0, 1), (0, 1, 0, 4), (0, 1), (0, 1))
    assert check_outcome(lambda: PseudoMap(Z6, both.pairs, both.moves)) == (both.pairs, both.moves)
    assert both == PseudoMap(Z6, both.pairs, both.moves)
    assert both.orbit(0) == (0, 1, 4, 5)
    # rot1 on {0, 1}, then 1 -> 2: both 0 and 1 land on 2
    with pytest.raises(InvalidParamsError, match="map must be a bijection"):
        element_map(Z6, 1, (0, 1)).then(element_map(Z6, 1, (1,)))
    with pytest.raises(InvalidParamsError, match="maps on one system"):
        rot.then(element_map(Z8, 1))


def test_simplemix_identity_when_equal():
    sm = simplemix(Z4, {1, 2}, {1, 2})
    assert all(sm.apply(x) == x for x in (1, 2))
    assert words_of(sm) == ((), ())


def test_simplemix_singletons():
    sm = simplemix(Z4, {1}, {3})
    assert sm.pairs == ((1, 3),)
    assert words_of(sm) == (("r", "r"),)


def test_simplemix_weight_error():
    with pytest.raises(InvalidParamsError):
        simplemix(Z4, {0, 1}, {3})


@pytest.mark.parametrize(
    "call",
    [
        lambda: simplemix(Z4, [0], [5]),
        lambda: make_equal_partition(Z6, (0,), [0, 7], 2),
        lambda: cyclic_permute(Z6, [(0,), (7,)]),
        lambda: cyclic_permute(Z6, [(7,), (0,)]),
        lambda: make_equal_partition(Z6, (7,), [7], 1),
        lambda: cyclic_permute(Z6, [(7,)]),
    ],
    ids=[
        "simplemix",
        "make_equal_partition",
        "cyclic_permute",
        "cyclic_permute-first-piece",
        "make_equal_partition-n1",
        "cyclic_permute-n1",
    ],
)
def test_mixing_rejects_b_off_the_points(call):
    with pytest.raises(InvalidParamsError, match="B lives on the points"):
        call()


@pytest.mark.parametrize("n", [1, 3])
def test_make_equal_partition_names_an_empty_first_piece(n):
    with pytest.raises(InvalidParamsError, match="C nonempty"):
        make_equal_partition(Z6, (), [], n)


def assert_moved_by_cells(m, algebra):
    """``m`` is expressible over ``algebra``, read off its moves: its domain
    and range are unions of cells, and each cell inside the domain carries
    one move, so one group element moves the whole cell."""
    moves = dict(zip(m.domain, m.moves))
    images = {y for _, y in m.pairs}
    for cell in algebra.cells:
        assert len({x in moves for x in cell}) == 1
        assert len({y in images for y in cell}) == 1
        if cell[0] in moves:
            assert len({moves[x] for x in cell}) == 1


def test_simplemix_expressible_over_seed_algebra():
    rng = random.Random(9)
    for _ in range(25):
        a = set(rng.sample(range(12), rng.randrange(1, 5)))
        b = set(rng.sample(range(12), rng.randrange(len(a), 9)))
        sm = simplemix(Z12, a, b)
        assert set(sm.domain) == a
        assert {y for _, y in sm.pairs} <= b
        alg = generated_algebra(Z12, membership(12, [a, b]))
        assert_moved_by_cells(sm, alg)


def periodic(rng, n, k):
    """A labeling of range(n) by k labels that repeats with a random period
    dividing n; the period n gives any labeling."""
    d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    word = [rng.randrange(k) for _ in range(d)]
    return tuple(word[x % d] for x in range(n))


MIXED_SYSTEMS = {
    "cyclic": lambda rng: FiniteSystem.cyclic(rng.choice([8, 10, 12])),
    "dihedral": lambda rng: dihedral(rng.choice([6, 8, 10, 12])),
    "random": lambda rng: random_transitive(rng, rng.choice([6, 8, 10, 12])),
}


@pytest.mark.parametrize("name", sorted(MIXED_SYSTEMS))
def test_mixing_moves_each_algebra_cell_by_one_element(name):
    # sets and labelings of a random period give algebras with cells of
    # several points; the dihedral and random systems take the tuple walk
    rng = random.Random(len(name))
    widest = 1
    for _ in range(40):
        sysn = MIXED_SYSTEMS[name](rng)
        n = sysn.n_points
        a, b = sorted(
            ({x for x, lab in enumerate(periodic(rng, n, 2)) if lab} or {0} for _ in range(2)),
            key=len,
        )
        sm = simplemix(sysn, a, b)
        alg = generated_algebra(sysn, membership(n, [a, b]))
        assert_moved_by_cells(sm, alg)
        B = [x for x, lab in enumerate(periodic(rng, n, 2)) if lab] or [0]
        res = avgmix(sysn, B, periodic(rng, n, 3), F(rng.randrange(1, 6), 10))
        assert_moved_by_cells(res.theta, res.algebra)
        widest = max(widest, *map(len, res.algebra.cells), *map(len, alg.cells))
    assert widest > 1


def test_make_equal_partition_examples():
    pieces, h = make_equal_partition(Z6, range(6), range(6), 1)
    assert pieces == [tuple(range(6))]
    assert h.pairs == tuple((x, x) for x in range(6)) and set(words_of(h)) == {()}
    pieces, h = make_equal_partition(Z6, (0, 3), range(6), 3)
    assert pieces[0] == (0, 3)
    assert h == cyclic_permute(Z6, pieces)  # the same pairs and words, one sweep
    assert sorted(x for p in pieces for x in p) == list(range(6))
    assert all(len(p) == 2 for p in pieces)
    with pytest.raises(DivisibilityError):
        make_equal_partition(Z6, (0, 3), range(6), 4)
    with pytest.raises(InvalidParamsError):
        make_equal_partition(Z6, (0, 7), range(6), 3)


def test_cyclic_permute_small():
    single = cyclic_permute(Z6, [tuple(range(6))])
    assert all(single.apply(x) == x for x in range(6))
    z2 = FiniteSystem.cyclic(2)
    swap = cyclic_permute(z2, [(0,), (1,)])
    assert swap.apply(0) == 1 and swap.apply(1) == 0


def test_cyclic_permute_exact_order():
    pieces, _ = make_equal_partition(Z6, (0, 3), range(6), 3)
    th = cyclic_permute(Z6, pieces)
    cur = {x: x for x in range(6)}
    for step in range(1, 4):
        cur = {x: th.apply(y) for x, y in cur.items()}
        if step < 3:
            assert any(cur[x] != x for x in range(6))
    assert all(cur[x] == x for x in range(6))
    for k in range(3):
        src = set(pieces[k])
        assert {th.apply(x) for x in src} == set(pieces[(k + 1) % 3])
    with pytest.raises(InvalidParamsError):
        cyclic_permute(Z6, [(0, 3), (1,)])


def test_cyclic_permute_certificate_words():
    th = cyclic_permute(Z6, [(0, 3), (1, 4), (2, 5)])
    assert th.pairs == ((0, 1), (1, 5), (2, 3), (3, 4), (4, 2), (5, 0))
    assert words_of(th) == (("r",), ("~r", "~r"), ("r",), ("r",), ("~r", "~r"), ("r",))


def restarted_sweep(sysn, A, B) -> tuple:
    """The sweep each matching ran before walk pointers: it starts again at
    element 0, and element i claims every unmatched point of A it sends into
    the unclaimed part of B.  Images and claiming indices, aligned with the
    sorted A."""
    enum = sysn.group()
    rem_dom, rem_rng, claims = set(A), set(B), []
    i = 0
    while rem_dom and enum.reach(i):
        for x in sorted(rem_dom):
            y = enum.image(i, x)
            if y in rem_rng:
                claims.append((x, y, i))
                rem_dom.discard(x)
                rem_rng.discard(y)
        i += 1
    if rem_dom:
        raise InvalidParamsError(
            "group enumeration exhausted before matching", f"left {sorted(rem_dom)}"
        )
    claims.sort()
    images = tuple(y for _, y, _ in claims)
    index = tuple(i for _, _, i in claims)
    PseudoMap(sysn, tuple(zip(sorted(A), images)), tuple((0, i) for i in index))
    return images, index


def reference_cycle(sysn, first, legs) -> PseudoMap:
    legs = [(tuple(first), (0,) * len(first))] + legs
    pairs, moves = [], []
    for k, (src, src_idx) in enumerate(legs):
        dst, dst_idx = legs[(k + 1) % len(legs)]
        pairs.extend(zip(src, dst))
        moves.extend(zip(src_idx, dst_idx))
    return PseudoMap(sysn, tuple(pairs), tuple(moves))


def reference_equal_partition(sysn, C, B, n) -> tuple:
    """``make_equal_partition`` before walk pointers: n-1 checked sweeps of C,
    each restarted at the identity, into what the pieces before it left."""
    C = sorted(set(C))
    pieces, legs, used = [tuple(C)], [], set(C)
    for _ in range(n - 1):
        legs.append(restarted_sweep(sysn, C, set(B) - used))
        pieces.append(tuple(sorted(legs[-1][0])))
        used.update(pieces[-1])
    return pieces, reference_cycle(sysn, C, legs)


def reference_cyclic_permute(sysn, pieces) -> PseudoMap:
    """``cyclic_permute`` before walk pointers: one checked sweep per piece."""
    pieces = [tuple(sorted(p)) for p in pieces]
    legs = [restarted_sweep(sysn, pieces[0], p) for p in pieces[1:]]
    return reference_cycle(sysn, pieces[0], legs)


def outcome(call):
    """The pieces, pairs and moves a call returns, or the error it raises."""
    try:
        got = call()
    except InvalidParamsError as err:
        return type(err), str(err)
    if isinstance(got, PseudoMap):
        return got.pairs, got.moves
    pieces, h = got
    return pieces, h.pairs, h.moves


def random_transitive(rng, n):
    while True:
        try:
            return FiniteSystem.make(n, {g: rng.sample(range(n), n) for g in "ab"})
        except InvalidParamsError:
            pass


def product(a, b):
    """Z_a x Z_b on the points i*b + j, generated by the two coordinate shifts."""
    return FiniteSystem.make(a * b, {
        "a": [(x + b) % (a * b) for x in range(a * b)],
        "b": [x - x % b + (x + 1) % b for x in range(a * b)],
    })


def shifts(n, *steps):
    """Z_n generated by the named shifts x -> x + step."""
    return FiniteSystem.make(n, {f"s{k}": [(x + k) % n for x in range(n)] for k in steps})


# commuting systems, each built fresh, since a system's walk is memoized
COMMUTING = {
    "cyclic": [lambda n=n: FiniteSystem.cyclic(n) for n in range(1, 61)],
    "products": [
        lambda a=a, b=b: product(a, b)
        for a in range(2, 31)
        for b in range(2, 60 // a + 1)
    ],
    # r and r^2 generate Z_12, so one element has many exponent vectors
    "z12-r-r2": [lambda: shifts(12, 1, 2), lambda: shifts(12, 2, 1)],
    # the identity generator's tokens reach nothing new
    "identity": [lambda: shifts(10, 0, 1), lambda: shifts(10, 3, 0), lambda: product(4, 3)],
}


def walk_and_sweeps(sysn, rng):
    """The walk's words and tables and its length, then the pieces, pairs
    and moves (or the error) of equal partitions and cyclic maps on random
    sets, drawn from ``rng``."""
    got = [walked(sysn), len(sysn.group().elements)]
    B = rng.sample(range(sysn.n_points), rng.randint(1, sysn.n_points))
    for n in (d for d in range(1, len(B) + 1) if len(B) % d == 0):
        C = rng.sample(B, len(B) // n)
        got.append(outcome(lambda: make_equal_partition(sysn, C, B, n)))
        rng.shuffle(B)
        got.append(outcome(lambda: cyclic_permute(sysn, [B[k::n] for k in range(n)])))
    return got


def on_both_walks(monkeypatch, build, read):
    """``read(sysn)`` on a fresh ``build()`` system, first on the point walk
    and then on the tuple walk, which it takes when its generators are not
    taken to commute."""
    sysn = build()
    assert sysn.group().abelian
    point = read(sysn)
    with monkeypatch.context() as patch:
        patch.setattr(system, "_commute", lambda perms: False)
        sysn = build()
        assert not sysn.group().abelian
        return point, read(sysn)


@pytest.mark.parametrize("family", sorted(COMMUTING))
def test_point_walk_matches_the_tuple_walk(monkeypatch, family):
    for k, build in enumerate(COMMUTING[family]):
        point, tables = on_both_walks(
            monkeypatch, build, lambda sysn: walk_and_sweeps(sysn, random.Random(k))
        )
        assert point == tables


@pytest.mark.parametrize("cap", [2, 3, 5])
def test_point_walk_fails_like_the_tuple_walk_on_a_capped_walk(monkeypatch, cap):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", cap)
    builds = [lambda: FiniteSystem.cyclic(12), lambda: product(3, 4), *COMMUTING["z12-r-r2"]]
    builds += COMMUTING["identity"]

    def read(sysn):
        n_points = sysn.n_points
        got = walk_and_sweeps(sysn, random.Random(cap))
        for C in [(0,), (0, n_points // 2), (0, 1, 2)][: 2 + (n_points % 3 == 0)]:
            n = n_points // len(C)
            got.append(outcome(lambda: make_equal_partition(sysn, C, range(n_points), n)))
            pieces = [tuple(range(k, n_points, n)) for k in range(n)]
            got.append(outcome(lambda: cyclic_permute(sysn, pieces)))
        return got

    for build in builds:
        point, tables = on_both_walks(monkeypatch, build, read)
        assert point == tables
        assert point[1] == cap  # the capped walk stops at the cap
        assert any(
            o[0] is InvalidParamsError and "group enumeration exhausted" in o[1]
            for o in point[2:]
        )


def test_non_commuting_systems_take_the_tuple_walk():
    rng = random.Random(7)
    for build in [WALKED["d7"], WALKED["s4"], lambda: random_transitive(rng, 12)]:
        assert not build().group().abelian


def test_pointer_sweeps_match_the_restarted_sweeps():
    rng = random.Random(20)
    cases = [FiniteSystem.cyclic(n) for n in range(1, 41)]
    cases += [random_transitive(rng, rng.randint(1, 16)) for _ in range(60)]
    for sysn in cases:
        B = rng.sample(range(sysn.n_points), rng.randint(1, sysn.n_points))
        for n in (d for d in range(1, len(B) + 1) if len(B) % d == 0):
            C = rng.sample(B, len(B) // n)
            want = outcome(lambda: reference_equal_partition(sysn, C, B, n))
            assert outcome(lambda: make_equal_partition(sysn, C, B, n)) == want
            rng.shuffle(B)
            pieces = [B[k::n] for k in range(n)]
            want = outcome(lambda: reference_cyclic_permute(sysn, pieces))
            assert outcome(lambda: cyclic_permute(sysn, pieces)) == want


@pytest.mark.parametrize("cap", [2, 3, 5])
def test_pointer_sweeps_fail_like_the_restarted_sweeps_on_a_capped_walk(monkeypatch, cap):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", cap)
    rng = random.Random(cap)
    for sysn in [FiniteSystem.cyclic(12), random_transitive(rng, 12)]:
        for C in [(0,), (0, 6), (0, 1, 2)]:
            n = 12 // len(C)
            want = outcome(lambda: reference_equal_partition(sysn, C, range(12), n))
            assert want[0] is InvalidParamsError
            assert "group enumeration exhausted before matching" in want[1]
            assert outcome(lambda: make_equal_partition(sysn, C, range(12), n)) == want
            pieces = [tuple(range(k, 12, n)) for k in range(n)]
            want = outcome(lambda: reference_cyclic_permute(sysn, pieces))
            assert outcome(lambda: cyclic_permute(sysn, pieces)) == want


def count_reads(enum, counts: Counter) -> None:
    """Count ``enum``'s point reads in ``counts["reads"]``: one per ``image``
    and ``inverse_image`` call, and for ``move_images`` two per index pair of
    the move per point, the reads of a per-point check that undoes and
    applies each element.  The counting wrappers shadow the three methods."""
    def counted(read):
        def call(i, x):
            counts["reads"] += 1
            return read(i, x)
        return call

    def counted_move(move, xs):
        counts["reads"] += len(move) * len(xs)
        return move_images(move, xs)

    move_images = enum.move_images
    enum.image = counted(enum.image)
    enum.inverse_image = counted(enum.inverse_image)
    enum.move_images = counted_move


def element_reads(sysn, call) -> int:
    """Point reads of walk elements while ``call`` runs on a fully walked
    ``sysn``: the sweeps' (walk index, point) probes plus, per pair in the
    check of the map they build, one ``inverse_image`` and one ``image``
    read for each index pair of its move."""
    assert len(walked(sysn)) == sysn.n_points
    enum = sysn.group()
    counts = Counter()
    count_reads(enum, counts)
    call()
    return counts["reads"]


@pytest.mark.parametrize("n", [60, 240])
def test_equal_partition_probes_grow_with_walk_length_not_its_square(n):
    # m = N: C = {0} is swept onto every point.  The shared pointer probes
    # element 0 (a miss) and then each element once, a claim each time: N
    # probes.  The cycle check undoes and applies one element per pair: 2N
    # reads.  So 3N reads, within a small multiple of walk length + n.
    # Sweeps restarted at the identity read about N^2/2.
    sysn = FiniteSystem.cyclic(n)
    reads = element_reads(sysn, lambda: make_equal_partition(sysn, (0,), range(n), n))
    assert reads == 3 * n
    restarted = element_reads(sysn, lambda: reference_equal_partition(sysn, (0,), range(n), n))
    assert restarted > n * n // 2


@pytest.mark.parametrize("n, m", [(500, 20), (2000, 40)])
def test_atomic_route_reads_elements_only_where_it_probes(monkeypatch, n, m):
    # The tower's maps are checked with two reads per index pair of each
    # move, so every read beyond the sweeps' probes is one of at most 5N.
    # The point walk stores no table: each element is its image of 0 and
    # one exponent.
    sysn = FiniteSystem.cyclic(n)
    counts = Counter()
    count_reads(sysn.group(), counts)
    routes = []
    sweep, mix = system._sweep, tower.avgmix

    def counted_sweep(*args):
        before = counts["reads"]
        try:
            return sweep(*args)
        finally:
            counts["probes"] += counts["reads"] - before

    def traced_mix(*args):
        res = mix(*args)
        routes.append(res.route)
        return res

    monkeypatch.setattr(system, "_sweep", counted_sweep)
    monkeypatch.setattr(tower, "avgmix", traced_mix)
    build_tower(sysn, tuple(int(x % 7 == 0) for x in range(n)), 3, 1, m)
    assert routes == ["atomic"]
    assert counts["probes"] > n
    assert counts["reads"] - counts["probes"] <= 5 * n
    assert all(type(y) is int and len(shifts) == 1 for _, (y, shifts) in sysn.group().elements)


def test_avgmix_trivial_labeling():
    res = avgmix(Z6, range(6), (0,) * 6, F(1, 2))
    for cl in res.classes:
        assert len(cl) == res.n
    assert sorted(x for cl in res.classes for x in cl) == list(range(6))


def test_avgmix_atomic_route():
    z10 = FiniteSystem.cyclic(10)
    res = avgmix(z10, range(10), tuple(x % 2 for x in range(10)), F(3, 10))
    assert res.route == "atomic"
    assert res.n == 2
    for cl in res.classes:
        assert sum(1 for x in cl if x % 2 == 0) == 1


def test_avgmix_ratcomb_route():
    z10 = FiniteSystem.cyclic(10)
    lab = tuple(0 if x < 5 else 1 for x in range(10))
    res = avgmix(z10, range(10), lab, F(3, 10))
    assert res.route == "ratcomb"
    assert res.n == 5
    freqs = sorted(
        F(sum(1 for x in cl if lab[x] == 0), 5) for cl in res.classes
    )
    assert freqs == [F(2, 5), F(3, 5)]
    for cl in res.classes:
        f = F(sum(1 for x in cl if lab[x] == 0), len(cl))
        assert abs(f - F(1, 2)) < F(3, 10)


def test_avgmix_theta_properties():
    z10 = FiniteSystem.cyclic(10)
    lab = tuple(0 if x < 5 else 1 for x in range(10))
    res = avgmix(z10, range(10), lab, F(3, 10))
    cur = {x: x for x in range(10)}
    for _ in range(res.n):
        cur = {x: res.theta.apply(y) for x, y in cur.items()}
    assert all(cur[x] == x for x in range(10))
    assert_moved_by_cells(res.theta, res.algebra)


def test_avgmix_ratcomb_certificate_words():
    # no golden reaches the ratcomb route, so its certificate is pinned here
    res = avgmix(FiniteSystem.cyclic(10), range(10), (0,) * 5 + (1,) * 5, F(3, 10))
    assert res.route == "ratcomb"
    assert res.classes == ((0, 1, 5, 6, 7), (2, 3, 4, 8, 9))
    assert res.theta.pairs == (
        (0, 1), (1, 5), (2, 3), (3, 4), (4, 8), (5, 6), (6, 7), (7, 0), (8, 9), (9, 2),
    )
    r, ir = "r", "~r"
    assert words_of(res.theta) == (
        (r,),
        (ir, r, r, r, r, r),
        (r,),
        (ir, r, r),
        (ir,) * 6,
        (ir,) * 9,
        (r, r, r, r, ir, ir, ir),
        (r, r, r),
        (r, r, r, r, ir, ir, ir),
        (r, r, r),
    )


def test_avgmix_random_within_eps():
    rng = random.Random(21)
    for _ in range(15):
        npts = rng.choice([8, 12, 16, 20])
        sys = FiniteSystem.cyclic(npts)
        labels = tuple(rng.randrange(3) for _ in range(npts))
        eps = F(rng.randrange(2, 6), 10)
        res = avgmix(sys, range(npts), labels, eps)
        base = {c: F(sum(1 for l in labels if l == c), npts) for c in set(labels)}
        for cl in res.classes:
            assert len(cl) == res.n
            for c, g in base.items():
                f = F(sum(1 for x in cl if labels[x] == c), len(cl))
                assert abs(f - g) < eps


@pytest.mark.parametrize(
    "B, labels, eps, name",
    [
        (range(6), (0, 1, 0), F(1, 2), "one label per point"),
        ([0, 9], (0,) * 6, F(1, 2), "B lives on the points"),
        (range(6), (0, 1) * 3, F(-1, 2), "eps >= 0"),
    ],
    ids=["labels", "B", "eps"],
)
def test_avgmix_rejects_bad_inputs_by_name(B, labels, eps, name):
    with pytest.raises(InvalidParamsError, match=name):
        avgmix(Z6, B, labels, eps)


def gamma_system():
    # same orbits as Z8 under rot1, generated by the two pair-swap maps
    tau = tuple(x + 1 if x % 2 == 0 else x - 1 for x in range(8))
    tau2 = tuple((x - 1) % 8 if x % 2 == 0 else (x + 1) % 8 for x in range(8))
    return FiniteSystem.make(8, {"t": tau, "u": tau2})


def test_orbit_equivalence_invariance():
    gamma = gamma_system()
    # each generator of either side moves parity cells by one element of the
    # other side's group, so joins with the parity algebra must agree
    rng = random.Random(4)
    for _ in range(20):
        labels = tuple(rng.randrange(3) for _ in range(8))
        cells = [
            {x for x in range(8) if labels[x] == c} for c in set(labels)
        ]
        left = generated_algebra(Z8, membership(8, cells + [PARITY8.cells[0]]))
        right = generated_algebra(gamma, membership(8, cells + [PARITY8.cells[0]]))
        assert left.labels == right.labels

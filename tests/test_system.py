import random
from fractions import Fraction as F

import pytest

from fingen.errors import (
    DivisibilityError,
    ExpressibilityUndecided,
    InvalidParamsError,
    InvalidPartitionError,
)
from fingen import system
from fingen.system import (
    FiniteSystem,
    GAlgebra,
    PseudoMap,
    avgfuncmix,
    avgmix,
    cyclic_permute,
    generated_algebra,
    invert_word,
    is_expressible,
    make_equal_partition,
    name_word,
    simplemix,
)

Z4 = FiniteSystem.cyclic(4)
Z6 = FiniteSystem.cyclic(6)
Z8 = FiniteSystem.cyclic(8)
Z12 = FiniteSystem.cyclic(12)

TRIV4 = GAlgebra((0,) * 4)
TRIV8 = GAlgebra((0,) * 8)
PARITY8 = GAlgebra(tuple(x % 2 for x in range(8)))


def word_map(sys, word, points=None):
    """The map moving each point (all of them by default) by one word."""
    pts = sorted(range(sys.n_points) if points is None else points)
    word = tuple(word)
    return PseudoMap(sys, tuple((x, sys.apply_word(word, x)) for x in pts), (word,) * len(pts))


def tau_even_up(sysn=Z8):
    # swaps {0,1},{2,3},...: needs the parity cells to express over rot1
    perm = tuple(x + 1 if x % 2 == 0 else x - 1 for x in range(8))
    words = tuple(("r",) if x % 2 == 0 else ("~r",) for x in range(8))
    return PseudoMap(sysn, tuple(zip(range(8), perm)), words)


def test_system_validation():
    with pytest.raises(InvalidPartitionError):
        FiniteSystem.make(3, {"a": [0, 0, 1]})
    with pytest.raises(InvalidParamsError):
        FiniteSystem.make(4, {"a": [1, 0, 3, 2]})  # two orbits, not transitive
    with pytest.raises(InvalidParamsError):
        FiniteSystem.make(2, {"~a": [1, 0]})


def test_group_enumeration_order():
    enum = Z4.group()
    assert [w for w, _ in enum.elements] == [(), ("r",), ("~r",), ("r", "r")]
    assert enum.complete


# A system caches its group enumeration, so every capped case below builds
# a fresh system after patching the cap.


def test_group_cap_marks_incomplete(monkeypatch):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 3)
    enum = FiniteSystem.cyclic(8).group()
    assert len(enum.elements) == 3
    assert not enum.complete
    monkeypatch.undo()
    full = FiniteSystem.cyclic(8).group()
    assert full.complete and len(full.elements) == 8


def test_group_cap_at_group_order_is_complete(monkeypatch):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 4)
    assert FiniteSystem.cyclic(4).group().complete
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 8)
    assert not is_expressible(tau_even_up(FiniteSystem.cyclic(8)), TRIV8)
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 7)
    with pytest.raises(ExpressibilityUndecided):
        is_expressible(tau_even_up(FiniteSystem.cyclic(8)), TRIV8)
    assert not FiniteSystem.cyclic(8).group().complete


def test_word_application():
    assert Z6.apply_word(("r", "r", "~r"), 2) == 3
    assert [Z6.apply_word(("r",), x) for x in range(6)] == [1, 2, 3, 4, 5, 0]
    assert invert_word(("r", "~r", "r")) == ("~r", "r", "~r")


def test_generated_algebra_examples():
    assert generated_algebra(Z4, [range(4)]).cells == ((0, 1, 2, 3),)
    assert generated_algebra(Z4, [{0}]).cells == ((0,), (1,), (2,), (3,))
    assert generated_algebra(Z6, [{0, 3}]).cells == ((0, 3), (1, 4), (2, 5))


def test_generated_algebra_idempotent_and_monotone():
    alg = generated_algebra(Z6, [{0, 3}])
    again = generated_algebra(Z6, list(alg.cells))
    assert again.labels == alg.labels
    finer = generated_algebra(Z6, [{0, 3}, {1}])
    assert finer.refines(alg)
    assert alg.invariant_under(Z6) and finer.invariant_under(Z6)


def test_galgebra_basics():
    alg = GAlgebra((0, 1, 0, 1, 0, 1))
    assert alg.measurable({1, 3, 5})
    assert not alg.measurable({1, 2})
    assert alg.cells[alg.labels[2]] == (0, 2, 4)
    joined = GAlgebra(tuple(zip(alg.labels, (0, 0, 0, 1, 1, 1))))
    assert len(joined) == 4
    assert joined.refines(alg)


def test_pseudomap_validation():
    with pytest.raises(InvalidParamsError):
        PseudoMap(Z4, ((0, 1), (2, 1)), ((("r",)), ("~r",)))
    with pytest.raises(InvalidParamsError):
        PseudoMap(Z4, ((0, 2),), (("r",),))  # word sends 0 to 1, not 2


def test_pseudomap_pairs_live_on_the_points():
    with pytest.raises(InvalidParamsError, match="pairs live on the points"):
        PseudoMap(Z4, ((-1, 0),), (("r",),))
    with pytest.raises(InvalidParamsError, match="pairs live on the points"):
        PseudoMap(Z4, ((4, 0),), (("r",),))
    for stray in (-1, 4):
        with pytest.raises(InvalidParamsError, match="on the points"):
            simplemix(Z4, [stray], [0, 1])


def test_pseudomap_decomposition_and_orbit():
    tau = tau_even_up()
    assert [x for x in tau.domain if tau.word_at(x) == ("r",)] == [0, 2, 4, 6]
    assert [x for x in tau.domain if tau.word_at(x) == ("~r",)] == [1, 3, 5, 7]
    assert tau.orbit(0) == (0, 1)
    part = PseudoMap(Z8, tau.pairs[:2], tau.words[:2])
    with pytest.raises(InvalidParamsError):
        part.orbit(2)
    with pytest.raises(InvalidParamsError):
        word_map(Z4, ("r",), points=(0,)).orbit(0)


def test_expressibility_examples():
    assert is_expressible(word_map(Z4, ()), TRIV4)
    assert is_expressible(word_map(Z4, ("r",)), TRIV4)
    tau = tau_even_up()
    assert is_expressible(tau, PARITY8)
    assert not is_expressible(tau, TRIV8)


def test_expressibility_requires_measurable_sets():
    half = word_map(Z8, ("r",), points=(0, 1, 2))
    assert not is_expressible(half, PARITY8)


def test_expressibility_undecided_on_cap(monkeypatch):
    monkeypatch.setattr(system, "DEFAULT_GROUP_CAP", 2)
    tau = tau_even_up(FiniteSystem.cyclic(8))
    with pytest.raises(ExpressibilityUndecided):
        is_expressible(tau, PARITY8)


def test_simplemix_identity_when_equal():
    sm = simplemix(Z4, {1, 2}, {1, 2})
    assert all(sm.apply(x) == x for x in (1, 2))
    assert sm.words == ((), ())


def test_simplemix_singletons():
    sm = simplemix(Z4, {1}, {3})
    assert sm.pairs == ((1, 3),)
    assert sm.words == (("r", "r"),)


def test_simplemix_weight_error():
    with pytest.raises(InvalidParamsError):
        simplemix(Z4, {0, 1}, {3})


def test_simplemix_expressible_over_seed_algebra():
    rng = random.Random(9)
    for _ in range(25):
        a = set(rng.sample(range(12), rng.randrange(1, 5)))
        b = set(rng.sample(range(12), rng.randrange(len(a), 9)))
        sm = simplemix(Z12, a, b)
        assert set(sm.domain) == a
        assert set(sm.range) <= b
        alg = generated_algebra(Z12, [a, b])
        assert is_expressible(sm, alg)


def test_make_equal_partition_examples():
    assert make_equal_partition(Z6, range(6), range(6), 1) == [tuple(range(6))]
    pieces = make_equal_partition(Z6, (0, 3), range(6), 3)
    assert pieces[0] == (0, 3)
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
    pieces = make_equal_partition(Z6, (0, 3), range(6), 3)
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
    assert th.words == (("r",), ("~r", "~r"), ("r",), ("r",), ("~r", "~r"), ("r",))


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
    assert is_expressible(res.theta, res.algebra)


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


def test_avgfuncmix_indicator():
    ind = {x: 1 if x < 3 else 0 for x in range(6)}
    res = avgfuncmix(Z6, range(6), {"f": ind}, F(1, 3))
    mean = F(1, 2)
    for cl in res.classes:
        avg = F(sum(ind[x] for x in cl), len(cl))
        assert abs(avg - mean) < F(1, 3)


def test_avgfuncmix_scales_large_values():
    f = {x: 100 if x < 6 else 0 for x in range(12)}
    res = avgfuncmix(Z12, range(12), {"f": f}, F(1, 2))
    mean = F(50)
    for cl in res.classes:
        avg = F(sum(f[x] for x in cl), len(cl))
        assert abs(avg - mean) < F(1, 2)


def test_name_word():
    rot = word_map(Z4, ("r",))
    assert name_word((7, 7, 7, 7), rot, 2) == (7, 7, 7, 7)
    assert name_word((0, 1, 2, 3), rot, 0) == (0, 1, 2, 3)
    assert name_word((0, 1, 2, 3), rot, 1) == (1, 2, 3, 0)


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
        left = generated_algebra(Z8, cells + [PARITY8.cells[0]])
        right = generated_algebra(gamma, cells + [PARITY8.cells[0]])
        assert left.labels == right.labels

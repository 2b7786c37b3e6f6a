import json
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from recode_instances import FAMILY, build, pipeline_parts

from fingen import typical
from fingen.cli import main
from fingen.errors import (
    AtypicalNameError,
    CapacityError,
    InvalidParamsError,
    InvalidPartitionError,
)
from fingen.probvec import Coarsening, ProbVec
from fingen.recoder import krieger_recode
from fingen.typical import (
    Fiber,
    PackingBudget,
    TypicalSpec,
    binomial_bound_report,
    build_injections,
    choose_J,
    count_fiber,
    count_typical,
    dbar,
    greedy_packing,
    is_typical,
    iter_fiber,
    iter_typical,
    stirling_window,
    verify_packing,
)

HALF = ProbVec((F(1, 2), F(1, 2)))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def brute_count(q, eps, n):
    spec = TypicalSpec(q, eps, n)
    return sum(1 for w in product(range(len(q)), repeat=n) if is_typical(w, spec))


def test_membership_boundary_inclusive():
    spec = TypicalSpec(HALF, 0.25, 4)
    assert is_typical((0, 0, 0, 1), spec)  # |3/4 - 1/2| = 1/4 exactly
    assert not is_typical((0, 0, 0, 0), spec)


def test_count_examples():
    assert count_typical(TypicalSpec(HALF, 0.25, 4)) == 14
    assert count_typical(TypicalSpec(HALF, 0, 4)) == 6
    assert count_typical(TypicalSpec(HALF, 0, 5)) == 0  # odd length, exact half


def test_count_matches_brute_force_small():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randrange(1, 4)
        raw = [rng.randrange(1, 6) for _ in range(k)]
        tot = sum(raw)
        q = ProbVec(tuple(F(x, tot) for x in raw))
        n = rng.randrange(1, 8)
        eps = rng.choice([0, F(1, 10), F(1, 4)])
        assert count_typical(TypicalSpec(q, eps, n)) == brute_count(q, eps, n)


def test_iter_typical_lex_and_complete():
    spec = TypicalSpec(HALF, 0.25, 4)
    words = list(iter_typical(spec))
    assert len(words) == 14
    assert words == sorted(words)
    assert all(is_typical(w, spec) for w in words)


def test_fiber_example():
    xi = ProbVec((F(1, 4),) * 4)
    bl = Coarsening(((0, 1), (2, 3)), 4)
    assert count_fiber(xi, bl, 0.25, 4, (0, 0, 1, 1)) == 16
    assert len(list(iter_fiber(xi, bl, 0.25, 4, (0, 0, 1, 1)))) == 16


def test_fiber_identity_blocks_is_indicator():
    idb = Coarsening(((0,), (1,)), 2)
    assert count_fiber(HALF, idb, 0, 4, (0, 0, 1, 1)) == 1
    assert count_fiber(HALF, idb, 0, 4, (0, 1, 1, 1)) == 0


def test_fiber_additivity_small():
    xi = ProbVec((F(1, 2), F(1, 4), F(1, 4)))
    bl = Coarsening(((0,), (1, 2)), 3)
    for n in (3, 4, 6):
        for eps in (0, F(1, 10), F(1, 4)):
            total = sum(
                count_fiber(xi, bl, eps, n, b)
                for b in product(range(len(bl)), repeat=n)
            )
            assert total == count_typical(TypicalSpec(xi, eps, n))


def test_fiber_enumeration_matches_count():
    xi = ProbVec((F(1, 2), F(1, 4), F(1, 4)))
    bl = Coarsening(((0, 1), (2,)), 3)
    for b in product(range(2), repeat=6):
        cnt = count_fiber(xi, bl, F(1, 8), 6, b)
        words = list(iter_fiber(xi, bl, F(1, 8), 6, b))
        assert len(words) == cnt
        assert words == sorted(words)

    # random instances against a brute-force filter, blocks in shuffled order
    rng = random.Random(23)
    for _ in range(150):
        k = rng.randint(1, 4)
        den = rng.choice((4, 6, 8))
        cuts = sorted(rng.choices(range(den + 1), k=k - 1))
        q = ProbVec(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))
        eps = F(rng.randint(0, 5), 16)
        n = rng.randint(1, 7)
        spec = TypicalSpec(q, eps, n)
        brute = [w for w in product(range(k), repeat=n) if is_typical(w, spec)]
        assert list(iter_typical(spec)) == brute
        assert count_typical(spec) == len(brute)

        symbols = rng.sample(range(k), k)
        nb = rng.randint(1, k)
        edges = [0] + sorted(rng.sample(range(1, k), nb - 1)) + [k]
        bl = Coarsening(tuple(tuple(symbols[a:b]) for a, b in zip(edges, edges[1:])), k)
        b = tuple(rng.randrange(nb) for _ in range(n))
        choices = [bl.blocks[j] for j in b]
        brute = [w for w in product(*choices) if is_typical(w, spec)]
        assert list(iter_fiber(q, bl, eps, n, b)) == brute
        assert count_fiber(q, bl, eps, n, b) == len(brute)


@pytest.mark.parametrize(
    "b, error",
    [
        ((0, 0, 1, 1, 1), InvalidParamsError),
        ((0, -1, 1, 1), InvalidPartitionError),
        ((0, 0, 1), InvalidParamsError),
        ((0, 2, 1, 1), InvalidPartitionError),
    ],
)
def test_fiber_rejects_bad_block_words(b, error):
    xi = ProbVec((F(1, 4),) * 4)
    bl = Coarsening(((0, 1), (2, 3)), 4)
    with pytest.raises(error):
        count_fiber(xi, bl, F(1, 4), 4, b)
    with pytest.raises(error):
        list(iter_fiber(xi, bl, F(1, 4), 4, b))


def random_fiber_instance(rng):
    """A seeded (xi, blocks, eps, n) with blocks in shuffled order and at most
    3000 typical words, so every fiber of it can be listed."""
    while True:
        k = rng.randint(1, 4)
        den = rng.choice((4, 6, 8, 10))
        cuts = sorted(rng.choices(range(den + 1), k=k - 1))
        xi = ProbVec(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))
        eps = rng.choice((F(0), F(1, 8), F(1, 4)))
        n = rng.randint(1, 10)
        nb = rng.randint(1, k)
        if nb**n <= 1024 and count_typical(TypicalSpec(xi, eps, n)) <= 3000:
            break
    symbols = rng.sample(range(k), k)
    edges = [0] + sorted(rng.sample(range(1, k), nb - 1)) + [k]
    bl = Coarsening(tuple(tuple(symbols[a:b]) for a, b in zip(edges, edges[1:])), k)
    return xi, bl, eps, n


def test_fiber_ranks_and_unranks_in_iter_fiber_order():
    # the reference is the search: typical words grouped by block word, each
    # group sorted by every position's index in its block
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        xi, bl, eps, n = random_fiber_instance(rng)
        spec = TypicalSpec(xi, eps, n)
        block_of = bl.block_of()
        place = {t: i for block in bl.blocks for i, t in enumerate(block)}
        refinements: dict = {}
        for w in iter_typical(spec):
            refinements.setdefault(tuple(block_of[s] for s in w), []).append(w)
        for b in product(range(len(bl)), repeat=n):
            fiber = Fiber(spec, bl, b)
            listed = sorted(refinements.get(b, []), key=lambda w: [place[s] for s in w])
            assert len(fiber) == count_fiber(xi, bl, eps, n, b) == len(listed)
            assert [fiber[i] for i in range(len(fiber))] == listed == list(fiber)
            assert list(iter_fiber(xi, bl, eps, n, b)) == listed
            assert all(fiber.index(fiber[i]) == i for i in range(len(fiber)))
            checked += len(fiber)
            # refinements of b that miss the typical set are refused by name
            members = set(listed)
            for _ in range(20):
                w = tuple(rng.choice(bl.blocks[j]) for j in b)
                assert (w in fiber) == (w in members)
                if w not in members:
                    with pytest.raises(AtypicalNameError):
                        fiber.index(w)
            with pytest.raises(IndexError):
                fiber[len(fiber)]
            if listed:
                assert fiber[-1] == listed[-1]
                with pytest.raises(AtypicalNameError):
                    fiber.index(listed[0] + (listed[0][0],))
                if len(bl) > 1:
                    outside = next(t for t in range(len(xi)) if t not in bl.blocks[b[0]])
                    with pytest.raises(AtypicalNameError):
                        fiber.index((outside,) + listed[0][1:])
    assert checked > 2_000


def test_large_fiber_ranks_without_listing():
    # 30 positions of a three-cell block, each cell 9..11 times: about 3.6e13 names
    xi = ProbVec((F(1, 10), F(1, 10), F(1, 10), F(7, 10)))
    bl = Coarsening(((0, 1, 2), (3,)), 4)
    eps, n = F(1, 100), 100
    b = (1,) * 35 + (0,) * 30 + (1,) * 35
    typical._fill_count.cache_clear()
    started = time.perf_counter()
    fiber = Fiber(TypicalSpec(xi, eps, n), bl, b)
    assert len(fiber) == count_fiber(xi, bl, eps, n, b) > 10**12
    rng = random.Random(7)
    for _ in range(100):
        i = rng.randrange(len(fiber))
        assert fiber.index(fiber[i]) == i
    stranger = tuple(1 if s == 0 else s for s in fiber[0])  # 0 occurs 9..11 times
    with pytest.raises(AtypicalNameError):
        fiber.index(stranger)
    assert time.perf_counter() - started < 1.0
    # a fiber past the index range keeps its exact size
    huge = Fiber(
        TypicalSpec(ProbVec((F(1, 4),) * 4), 0, 100), Coarsening(((0, 1, 2, 3),), 4), (0,) * 100
    )
    assert huge.size == math.factorial(100) // math.factorial(25) ** 4
    assert huge.index(huge[huge.size - 1]) == huge.size - 1


def test_typical_set_is_the_one_block_fiber():
    # the one test that pits the search against the unranker
    rng = random.Random(23)
    specs = [TypicalSpec(HALF, 0.25, 4), TypicalSpec(HALF, 0, 4), TypicalSpec(HALF, 0, 5)]
    while len(specs) < 80:
        k = rng.randint(1, 4)
        den = rng.choice((4, 6, 8))
        cuts = sorted(rng.choices(range(den + 1), k=k - 1))
        q = ProbVec(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))
        specs.append(TypicalSpec(q, F(rng.randint(0, 5), 16), rng.randint(1, 8)))
    for spec in specs:
        k, n = len(spec.q), spec.n
        one_block = Fiber(spec, Coarsening((tuple(range(k)),), k), (0,) * n)
        assert list(one_block) == list(iter_typical(spec))
        assert one_block.size == count_typical(spec)


def test_codebooks_and_recodes_list_no_fiber(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a fiber was listed")

    monkeypatch.setattr(typical, "iter_fiber", refuse)
    monkeypatch.setattr(typical.Fiber, "__iter__", refuse)
    golden = Path(__file__).resolve().parent / "golden" / "cli-codebook.json"
    assert main(["codebook", "--config", str(CONFIGS / "codebook.json"), "--seed", "0"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()
    for entry in FAMILY:
        sysn, xi, falg, params, kwargs = build(entry)
        alpha, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
        assert len(alpha) == sysn.n_points


def test_stirling_window_example():
    rep = stirling_window(HALF, 0.2, 0.05, 60)
    assert rep.holds
    assert rep.count == sum(math.comb(60, k) for k in range(27, 34))


def test_binomial_bound_sweep():
    for delta in (0.05, 0.1, 0.2):
        for n in range(50, 201, 25):
            assert binomial_bound_report(delta, n)["holds"]


@pytest.mark.parametrize(
    "delta", [1.5, -0.1, F(3, 2), float("nan")], ids=["1.5", "-0.1", "3/2", "nan"]
)
def test_binomial_bound_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(InvalidParamsError) as info:
        binomial_bound_report(delta, 20)
    assert info.value.constraint == "0 <= delta <= 1"


def test_dbar_examples():
    assert dbar((0, 1, 1, 0), (0, 1, 1, 0)) == 0
    assert dbar((0, 0), (1, 1)) == 1
    assert dbar((0, 1, 1), (0, 1, 0, 1, 1)) == F(1, 3)
    with pytest.raises(InvalidParamsError):
        dbar((), (0,))


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
        )
    )
)
def test_dbar_metric(words):
    a, b, c = (tuple(w) for w in words)
    assert dbar(a, b) == dbar(b, a)
    assert (dbar(a, b) == 0) == (a == b)
    assert dbar(a, c) <= dbar(a, b) + dbar(b, c)


def test_greedy_packing_example():
    K = greedy_packing(TypicalSpec(HALF, 0, 4), F(1, 2))
    assert K == [(0, 0, 1, 1), (1, 1, 0, 0)]
    res = verify_packing(TypicalSpec(HALF, 0, 4), F(1, 2), K)
    assert res["separation_ok"] and res["maximal"]


def test_packing_covering_bound():
    # every typical word sits within rho of some packed word, so the packing
    # size times a Hamming-ball cardinality dominates the typical count
    spec = TypicalSpec(HALF, F(1, 8), 8)
    rho = F(1, 4)
    K = greedy_packing(spec, rho)
    res = verify_packing(spec, rho, K)
    assert res["separation_ok"] and res["maximal"]
    radius = math.floor(rho * 8)
    ball = sum(math.comb(8, j) * (1 ** j) for j in range(radius + 1))
    assert count_typical(spec) <= len(K) * ball


def naive_first_fit(spec, rho, limit=None):
    chosen = []
    for w in iter_typical(spec):
        if len(chosen) == limit:
            break
        if all(F(sum(x != y for x, y in zip(w, c)), spec.n) > rho for c in chosen):
            chosen.append(w)
    return chosen


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=4),
    st.sampled_from((0, F(1, 8), F(1, 4), F(1, 3))),
    st.integers(1, 10),
    st.sampled_from((0, F(1, 5), F(2, 5), F(1, 2))),
)
def test_greedy_packing_matches_naive_first_fit_and_prefixes(raw, eps, n, rho):
    # 3 or 4 symbols at eps > 0 leave the counts loose enough for the
    # composition bound to cut where the distance bound does not
    spec = TypicalSpec(ProbVec(tuple(F(x, sum(raw)) for x in raw)), eps, n)
    assume(count_typical(spec) <= 150)
    full = greedy_packing(spec, rho)
    assert full == naive_first_fit(spec, rho)
    for limit in range(len(full) + 2):
        assert greedy_packing(spec, rho, limit) == full[:limit]


@pytest.mark.parametrize("entry", FAMILY, ids=[e[0] for e in FAMILY])
def test_recode_family_packings_match_naive_first_fit(entry):
    book = pipeline_parts(entry)[-1]
    spec = TypicalSpec(book.q, book.eps, book.k)
    limit = len(book.packing)
    first_fit = naive_first_fit(spec, book.rho, limit)
    assert greedy_packing(spec, book.rho, limit) == first_fit == list(book.packing)


def brute_reach(spec, apart, codewords, prefix):
    """Whether every codeword has a typical completion of ``prefix`` with at
    least ``apart`` mismatches against it."""
    completions = [w for w in iter_typical(spec) if w[: len(prefix)] == prefix]
    return all(
        any(sum(x != y for x, y in zip(w, c)) >= apart for w in completions)
        for c in codewords
    )


def test_prefix_cut_is_exact():
    # both bounds together are tight: a prefix survives exactly when each
    # codeword, taken alone, has a typical completion far enough from it
    rng = random.Random(31)
    cases = cuts = 0
    while cases < 400:
        k = rng.randint(2, 4)
        raw = [rng.randint(1, 4) for _ in range(k)]
        q = ProbVec(tuple(F(x, sum(raw)) for x in raw))
        spec = TypicalSpec(q, rng.choice((0, F(1, 8), F(1, 4))), rng.randint(2, 7))
        words = list(iter_typical(spec))
        if not words:
            continue
        cases += 1
        n = spec.n
        apart = rng.randint(1, n)
        lo, hi = zip(*spec.count_ranges())
        code = typical._Codewords(n, list(lo), list(hi), apart)
        codewords = rng.sample(words, rng.randint(1, min(3, len(words))))
        for c in codewords:
            code.add(c)
        prefix = rng.choice(words)[: rng.randint(0, n)]
        d = sum(code.mismatch[p][t] for p, t in enumerate(prefix))
        counts = [prefix.count(t) for t in range(k)]
        expected = brute_reach(spec, apart, codewords, prefix)
        assert code.reach(d, len(prefix), counts) == expected, (spec, apart, codewords, prefix)
        cuts += not expected
    assert 0 < cuts < cases


@pytest.fixture
def drawn(monkeypatch):
    """Words each ``iter_typical`` call yields, as [spec, count] pairs."""
    calls = []
    real = typical.iter_typical

    def counting(spec, *args):
        call = [spec, 0]
        calls.append(call)
        for w in real(spec, *args):
            call[1] += 1
            yield w

    monkeypatch.setattr(typical, "iter_typical", counting)
    return calls


def test_limited_packing_stops_its_scan(drawn):
    # the target words of recode instance z36-wide-prefix, whose largest
    # fiber has 18 names
    spec = TypicalSpec(HALF, 0, 18)
    assert len(greedy_packing(spec, F(2, 5), 18)) == 18
    assert len(greedy_packing(spec, F(2, 5))) == 30
    assert greedy_packing(spec, F(2, 5), 0) == []
    # every word drawn is kept, and the limit-0 call never starts a scan,
    # so there is no third call
    assert [count for _, count in drawn] == [18, 30]


def test_codebook_config_draws_two_target_words(drawn, capsys):
    assert main(["codebook", "--config", str(CONFIGS / "codebook.json")]) == 0
    k = json.loads(capsys.readouterr().out)["certificate"]["k"]
    assert [count for spec, count in drawn if spec.n == k] == [2]


@pytest.mark.parametrize("limit", [-1, 2.0, "2", True, F(2)], ids=repr)
def test_greedy_packing_rejects_bad_limit(limit):
    with pytest.raises(InvalidParamsError):
        greedy_packing(TypicalSpec(HALF, 0, 4), F(1, 2), limit)


def test_choose_J_worked_example():
    word = (0, 1) * 5
    J = choose_J(word, frozenset(), 0.3, 0.1, HALF)
    for t in (0, 1):
        kept = sum(1 for i, s in enumerate(word) if s == t and i not in J)
        assert kept < min((0.5 + 0.1) * 0.7, 0.5) * 10
    assert len(J) < 3 * 0.3 * 2 * 10


def test_choose_J_respects_reserved_and_lowest_first():
    word = (0,) * 6 + (1,) * 4
    M = frozenset({0, 1})
    J = choose_J(word, M, F(1, 3), F(1, 10), ProbVec((F(3, 5), F(2, 5))))
    assert J.isdisjoint(M)
    for t in (0, 1):
        pos = [i for i, s in enumerate(word) if s == t and i not in M]
        removed = sorted(i for i in J if word[i] == t)
        assert removed == pos[: len(removed)]


def test_choose_J_random_instances():
    # the trim size bound is promised for words typical for q, so sample
    # words with exact letter frequencies and shuffle
    rng = random.Random(11)
    done = 0
    while done < 200:
        k = rng.randrange(2, 4)
        raw = [rng.randrange(1, 5) for _ in range(k)]
        tot = sum(raw)
        q = ProbVec(tuple(F(x, tot) for x in raw))
        n = tot * rng.randrange(1, 4)
        letters = [t for t in range(k) for _ in range(int(q[t] * n))]
        rng.shuffle(letters)
        word = tuple(letters)
        eps = F(rng.randrange(0, 3), 20)
        delta = F(rng.randrange(int(eps * 20) + 1, 19), 20)
        if delta * n <= 1:
            continue
        M = frozenset(rng.sample(range(n), rng.randrange(0, max(1, n // 8))))
        J = choose_J(word, M, delta, eps, q)
        assert J.isdisjoint(M)
        assert len(J) < 3 * delta * k * n
        for t in range(k):
            # reserved positions count as already removed
            kept = sum(
                1 for i, s in enumerate(word) if s == t and i not in J and i not in M
            )
            assert kept < min((q[t] + eps) * (1 - delta), q[t]) * n
        done += 1


def test_choose_J_zero_mass_symbol_present_errors():
    q = ProbVec((F(1), F(0)))
    with pytest.raises(InvalidParamsError):
        choose_J((0, 1, 0, 0), frozenset(), F(1, 2), F(1, 4), q)


def test_choose_J_delta_preconditions():
    with pytest.raises(InvalidParamsError):
        choose_J((0, 1), frozenset(), F(1, 4), F(1, 2), HALF)  # eps >= delta
    with pytest.raises(InvalidParamsError):
        choose_J((0, 1), frozenset(), F(1, 4), F(1, 8), HALF)  # delta*n <= 1


def test_packing_budget_invariant():
    b = PackingBudget(delta=F(1, 100), r=F(1, 2))
    assert b.k(24) == 12
    assert b.rho(2) == F(20, 100) * 2
    with pytest.raises(InvalidParamsError):
        PackingBudget(delta=F(1, 50), r=F(1, 2)).rho(2)


FEAS_XI = ProbVec((F(22, 24), F(1, 24), F(1, 24)))
FEAS_BLOCKS = Coarsening(((0,), (1, 2)), 3)
FEAS_BUDGET = PackingBudget(delta=F(1, 1000), r=F(1, 2))


def build_feasible():
    return build_injections(
        FEAS_XI, FEAS_BLOCKS, ProbVec((F(1, 2), F(1, 2))), FEAS_BUDGET, 0, 24
    )


def test_build_injections_feasible_instance():
    book = build_feasible()
    assert book.k == 12
    assert book.rho == F(1, 25)
    assert book.packing == tuple(greedy_packing(TypicalSpec(HALF, 0, 12), book.rho)[:2])
    assert len(book.books) == 276
    assert book.separation() == F(1, 6)
    packed = set(book.packing)
    for b, fiber in book.books:
        entries = tuple(zip(fiber, book.packing))
        assert len(entries) == 2
        codes = [cw for _, cw in entries]
        assert len(set(codes)) == len(codes)
        for cell_word, code in entries:
            # fiber words coarsen to their book under the block map
            assert tuple(0 if s == 0 else 1 for s in cell_word) == b
            assert code in packed
    checks = {c["name"]: c for c in book.checks}
    for name in ("entropy-gap", "separation-bound", "fiber-window-upper",
                 "delta-margin", "capacity-exact"):
        assert checks[name]["holds"], name


def test_build_injections_decode_roundtrip():
    # every book is injective: distinct fiber words get distinct codewords,
    # so each codeword decodes to exactly one fiber word
    book = build_feasible()
    for b, fiber in book.books:
        entries = tuple(zip(fiber, book.packing))
        cell_words = [c for c, _ in entries]
        codes = [w for _, w in entries]
        assert len(set(cell_words)) == len(cell_words)
        assert len(set(codes)) == len(codes)
        assert book.mapping(b) == dict(entries)


@pytest.mark.parametrize("eps, sep", [(F(1, 12), F(1, 3)), (F(1, 6), F(1, 6))])
def test_separation_matches_per_book_minimum_on_unequal_fibers(eps, sep):
    xi = ProbVec((F(10, 12), F(1, 12), F(1, 12)))
    book = build_injections(
        xi, FEAS_BLOCKS, HALF, FEAS_BUDGET, eps, 12, capacity="exact"
    )
    assert len({len(fiber) for _, fiber in book.books}) > 1
    per_book = min(
        (dbar(a, c) for b, _ in book.books for a, c in combinations(book.mapping(b).values(), 2)),
        default=F(1),
    )
    assert book.separation() == per_book == sep


def test_build_injections_entropy_gap_errors():
    # one block over a uniform four-cell refinement: the fiber has 2520
    # members at n = 8 but the target capacity is far smaller
    xi = ProbVec((F(1, 4),) * 4)
    bl = Coarsening(((0, 1, 2, 3),), 4)
    budget = PackingBudget(delta=F(1, 1000), r=F(1, 2))
    with pytest.raises(CapacityError):
        build_injections(xi, bl, HALF, budget, 0, 8)


def test_build_injections_trivial_fibers():
    # single-cell blocks make every fiber a singleton; the codebook then
    # pairs each admissible name with the first packed word
    xi = ProbVec((F(9, 10), F(1, 20), F(1, 20)))
    bl = Coarsening(((0,), (1,), (2,)), 3)
    budget = PackingBudget(delta=F(1, 1000), r=F(1, 2))
    book = build_injections(xi, bl, ProbVec((F(1, 2), F(1, 2))), budget, 0, 20)
    for _, fiber in book.books:
        entries = tuple(zip(fiber, book.packing))
        assert len(entries) == 1
        assert entries[0][1] == book.packing[0]


def test_equal_vectors_share_a_hash_and_a_count_cache_entry():
    from_ints = ProbVec((0, 1, 0))
    from_fractions = ProbVec((F(0), F(1), F(0)))
    assert from_ints == from_fractions
    assert hash(from_ints) == hash(from_fractions) == hash(from_ints.weights)
    typical._count_ranges.cache_clear()
    TypicalSpec(from_ints, F(1, 4), 5)
    TypicalSpec(from_fractions, F(1, 4), 5)
    info = typical._count_ranges.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

import json
import math
import random
import re
import time
from fractions import Fraction as F
from itertools import combinations, islice, product
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
from fingen.probvec import Coarsening, ProbVec, coarsen
from fingen.recoder import krieger_recode
from fingen.typical import (
    UNASSIGNED,
    CodeBook,
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
    min_dbar,
    stirling_window,
)

HALF = ProbVec((F(1, 2), F(1, 2)))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def brute_count(q, eps, n):
    spec = TypicalSpec(q, eps, n)
    return sum(1 for w in product(range(len(q)), repeat=n) if is_typical(w, spec))


def one_block(spec):
    """The typical set of ``spec`` as the one-block ``Fiber``."""
    k = len(spec.q)
    return Fiber(spec, Coarsening((tuple(range(k)),), k), (0,) * spec.n)


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
    # at rho = 0 any two distinct words are farther apart than rho, so the
    # first-fit code is the whole typical set, in the order the walk lists it
    spec = TypicalSpec(HALF, 0.25, 4)
    words = list(one_block(spec))
    assert len(words) == 14
    assert words == [bytes(w) for w in product(range(2), repeat=4) if is_typical(w, spec)]
    assert list(iter_typical(spec, 0)) == words


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
        brute = [bytes(w) for w in product(range(k), repeat=n) if is_typical(w, spec)]
        assert list(one_block(spec)) == brute
        assert count_typical(spec) == len(brute)

        symbols = rng.sample(range(k), k)
        nb = rng.randint(1, k)
        edges = [0] + sorted(rng.sample(range(1, k), nb - 1)) + [k]
        bl = Coarsening(tuple(tuple(symbols[a:b]) for a, b in zip(edges, edges[1:])), k)
        b = tuple(rng.randrange(nb) for _ in range(n))
        choices = [bl.blocks[j] for j in b]
        brute = [bytes(w) for w in product(*choices) if is_typical(w, spec)]
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
        for w in one_block(spec):
            refinements.setdefault(bytes(block_of[s] for s in w), []).append(w)
        for b in product(range(len(bl)), repeat=n):
            fiber = Fiber(spec, bl, b)
            listed = sorted(refinements.get(bytes(b), []), key=lambda w: [place[s] for s in w])
            assert len(fiber) == count_fiber(xi, bl, eps, n, b) == len(listed)
            assert [fiber[i] for i in range(len(fiber))] == listed == list(fiber)
            assert list(iter_fiber(xi, bl, eps, n, b)) == listed
            assert all(fiber.index(fiber[i]) == i for i in range(len(fiber)))
            checked += len(fiber)
            # refinements of b that miss the typical set are refused by name
            members = set(listed)
            for _ in range(20):
                w = bytes(rng.choice(bl.blocks[j]) for j in b)
                assert (w in fiber) == (w in members)
                if w not in members:
                    with pytest.raises(AtypicalNameError):
                        fiber.index(w)
            with pytest.raises(IndexError):
                fiber[len(fiber)]
            if listed:
                assert fiber[-1] == listed[-1]
                with pytest.raises(AtypicalNameError):
                    fiber.index(listed[0] + listed[0][:1])
                if len(bl) > 1:
                    outside = next(t for t in range(len(xi)) if t not in bl.blocks[b[0]])
                    with pytest.raises(AtypicalNameError):
                        fiber.index(bytes([outside]) + listed[0][1:])
    assert checked > 2_000


def test_fiber_walk_counts_once_per_symbol_tried(monkeypatch):
    # a one-cell block's position is forced and reads no count; any other reads
    # one per symbol tried, in rank and in unrank alike
    xi = ProbVec((F(1, 2), F(1, 4), F(1, 4)))
    fiber = Fiber(TypicalSpec(xi, 0, 4), Coarsening(((0,), (1, 2)), 3), (0, 1, 0, 1))
    assert list(fiber) == [bytes((0, 1, 0, 2)), bytes((0, 2, 0, 1))]
    calls = []
    fill = typical._fill_count
    monkeypatch.setattr(typical, "_fill_count", lambda *args: calls.append(args) or fill(*args))
    assert fiber[1] == bytes((0, 2, 0, 1)) and len(calls) == 3  # symbols 1, 2, then 1
    assert fiber.index((0, 2, 0, 1)) == 1 and len(calls) == 6


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
    # the walk against the unrank, and against the brute-force filter where
    # the instance is small
    rng = random.Random(23)
    specs = [TypicalSpec(HALF, 0.25, 4), TypicalSpec(HALF, 0, 4), TypicalSpec(HALF, 0, 5)]
    while len(specs) < 80:
        k = rng.randint(1, 4)
        den = rng.choice((4, 6, 8))
        cuts = sorted(rng.choices(range(den + 1), k=k - 1))
        q = ProbVec(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))
        specs.append(TypicalSpec(q, F(rng.randint(0, 5), 16), rng.randint(1, 8)))
    brute = 0
    for spec in specs:
        k, n = len(spec.q), spec.n
        fiber = one_block(spec)
        words = list(fiber)
        assert words == [fiber[i] for i in range(fiber.size)]
        assert fiber.size == count_typical(spec)
        if k**n <= 5000:
            assert words == [bytes(w) for w in product(range(k), repeat=n) if is_typical(w, spec)]
            brute += 1
    assert brute > 60


def test_fiber_walk_matches_the_unrank_and_reads_no_count():
    # every fiber of every INJECTION_CASES build (a fiber does not depend
    # on q), with the one-block fiber of its typical block words
    from test_acceptance import INJECTION_CASES

    def counts_read():
        info = typical._fill_count.cache_info()
        return info.hits + info.misses

    families = dict.fromkeys((counts, blocks, n) for counts, blocks, _, n in INJECTION_CASES)
    for counts, blocks, n in families:
        xi = ProbVec(tuple(F(v, n) for v in counts))
        spec = TypicalSpec(xi, 0, n)
        block_words = one_block(TypicalSpec(coarsen(xi, blocks), 0, n))
        if counts == (20, 3, 1):
            assert block_words.size == 10_626
        for fiber in [block_words] + [Fiber(spec, blocks, b) for b in block_words]:
            before = counts_read()
            words = list(fiber)
            assert counts_read() == before
            assert words == [fiber[i] for i in range(fiber.size)]


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


def verify_packing(spec, rho, packing):
    """Separation and maximality of a claimed packing.  Maximality holds
    only for an unlimited ``greedy_packing``, not for a prefix."""
    rho = F(rho)
    return {
        "separation_ok": all(dbar(a, c) > rho for a, c in combinations(packing, 2)),
        "maximal": all(any(dbar(w, c) <= rho for c in packing) for w in one_block(spec)),
    }


def test_greedy_packing_example():
    K = greedy_packing(TypicalSpec(HALF, 0, 4), F(1, 2))
    assert K == [bytes((0, 0, 1, 1)), bytes((1, 1, 0, 0))]
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
    for w in one_block(spec):
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
    completions = [w for w in one_block(spec) if w[: len(prefix)] == prefix]
    return all(
        any(sum(x != y for x, y in zip(w, c)) >= apart for w in completions)
        for c in codewords
    )


def test_prefix_cut_is_exact():
    # the memoized bound is tight: for each codeword it is the most
    # mismatches any typical completion has with it, and a prefix survives
    # exactly when each codeword, taken alone, has a completion far enough
    rng = random.Random(31)
    cases = cuts = 0
    while cases < 400:
        k = rng.randint(2, 4)
        raw = [rng.randint(1, 4) for _ in range(k)]
        q = ProbVec(tuple(F(x, sum(raw)) for x in raw))
        spec = TypicalSpec(q, rng.choice((0, F(1, 8), F(1, 4))), rng.randint(2, 7))
        words = list(one_block(spec))
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
        pos = len(prefix)
        d = sum(code.mismatch[p][t] for p, t in enumerate(prefix))
        counts = [prefix.count(t) for t in range(k)]
        state = sum(c * (n + 1) ** s for s, c in enumerate(counts))
        G = code.bound(state, pos, counts)[0]
        completions = [w for w in words if w[:pos] == prefix]
        for j, c in enumerate(codewords):
            most = max(sum(x != y for x, y in zip(w[pos:], c[pos:])) for w in completions)
            assert (G >> (code.width * j)) & (code.bias - 1) == most, (spec, c, prefix)
        expected = brute_reach(spec, apart, codewords, prefix)
        assert ((d + G + code.thresh) & code.guard == code.guard) == expected, (
            spec, apart, codewords, prefix,
        )
        cuts += not expected
    assert 0 < cuts < cases


def test_search_works_out_each_bound_once(monkeypatch):
    # the z36-wide-prefix target search works out each (prefix state, tail
    # counts) pair once: 200 calls.  Without the memo by tail counts it
    # makes one per (state, codeword) pair, 998, and without the state memo
    # one per codeword at every node it tries
    calls = []
    real = typical._most_mismatches

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(typical, "_most_mismatches", counted)
    assert len(greedy_packing(TypicalSpec(HALF, 0, 18), F(2, 5), 18)) == 18
    assert len(calls) == 200


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


@pytest.mark.parametrize(
    "entry",
    [greedy_packing, lambda spec, rho: next(iter_typical(spec, rho))],
    ids=["greedy_packing", "iter_typical"],
)
@pytest.mark.parametrize("rho", [None, [1], "x", math.nan, math.inf, True], ids=repr)
def test_malformed_rho_is_named(entry, rho):
    with pytest.raises(InvalidParamsError) as err:
        entry(TypicalSpec(HALF, 0, 4), rho)
    assert err.value.constraint == "rho is a rational number"


def uniform_book(alphabet, k, packing):
    """A ``CodeBook`` of the given packing over the uniform vector on
    range(alphabet), with no books: enough for its separation and scan."""
    return CodeBook(ProbVec((F(1, alphabet),) * alphabet), 0, k, F(0), tuple(packing), ())


def per_symbol_hits(book, prefix, radius, count):
    """The decoder's per-symbol scan: the indices i < count whose word has
    fewer than radius * min(len) mismatches with the prefix."""
    limit = radius * min(len(prefix), book.k)
    return [
        i for i, w in enumerate(book.packing[:count])
        if sum(x != t for x, t in zip(prefix, w)) < limit
    ]


def test_packed_words_count_agreements_per_symbol():
    # past 8 symbols a field is wider than a byte; 255 symbols is the widest
    # alphabet, and 300 is refused, since byte 255 is UNASSIGNED
    rng = random.Random(34)
    for alphabet in [*range(2, 11), 255]:
        for _ in range(30):
            k = rng.randint(1, 30)
            words = [
                tuple(rng.randrange(alphabet) for _ in range(k)) for _ in range(rng.randint(1, 6))
            ]
            book = uniform_book(alphabet, k, words)
            base = rng.choice(words)
            prefix = [
                UNASSIGNED if rng.random() < 0.25
                else t if rng.random() < 0.6 else rng.randrange(alphabet)
                for t in base[: rng.randint(0, k)]
            ]
            packed = book._packed
            p = book._pack(prefix, True)
            for a, pa in zip(words, packed):
                assert (p & pa).bit_count() == sum(x == t for x, t in zip(prefix, a))
                for b, pb in zip(words, packed):
                    assert (pa & pb).bit_count() == sum(x == t for x, t in zip(a, b))
            closest = min((dbar(a, b) for a, b in combinations(words, 2)), default=None)
            assert min_dbar(words, alphabet) == closest
            assert book.separation() == (F(1) if closest is None else closest)
            for radius in (F(0), F(1, 4), F(1, 3), F(1, 2), F(1)):
                count = rng.randint(0, len(words))
                hits = book.within(prefix, radius, count)
                assert hits == per_symbol_hits(book, prefix, radius, count)
    for refused in (lambda: uniform_book(300, 1, [(0,), (1,)]).separation(),
                    lambda: min_dbar([(0,), (299,)], 300)):
        with pytest.raises(InvalidParamsError, match="^an alphabet of at most 255 symbols"):
            refused()


@pytest.mark.parametrize(
    "book",
    [
        CodeBook(HALF, 0, 3, 0, ((0, 1, 5), (1, 0, 0)), ()),  # 5 set no bit in 2 symbols
        uniform_book(9, 3, ((0, 1, 9), (1, 0, 0))),  # 9 read the field of -1
        uniform_book(9, 3, ((0, 1, -2), (1, 0, 0))),  # -2 read the field of 8
        uniform_book(2, 2, ((0, 200), (1, 0))),  # past the signed byte range
    ],
    ids=["2-symbols-5", "9-symbols-9", "9-symbols--2", "2-symbols-200"],
)
def test_packed_words_refuse_a_symbol_outside_the_alphabet(book):
    with pytest.raises(InvalidPartitionError, match="outside alphabet of size"):
        book.separation()
    with pytest.raises(InvalidPartitionError, match="outside alphabet of size"):
        min_dbar(book.packing, len(book.q))


@pytest.mark.parametrize("alphabet", [2, 9])
def test_a_prefix_may_leave_positions_unassigned_but_holds_no_stray_symbol(alphabet):
    top = alphabet - 1
    book = uniform_book(alphabet, 3, ((0, top, 0), (top, 0, top)))
    assert book.within([UNASSIGNED, top, UNASSIGNED], F(1), 2) == [0]  # agrees with no word
    for stray in (-2, -1, alphabet):
        with pytest.raises(InvalidPartitionError, match=f"symbol {stray} outside"):
            book.within([0, stray, UNASSIGNED], F(1, 2), 2)


def test_min_dbar_refuses_words_of_unequal_length():
    with pytest.raises(InvalidParamsError) as err:
        min_dbar([(0, 1), (0, 1, 1)], 2)
    assert err.value.constraint == "words of one length"


@pytest.mark.parametrize(
    "call",
    [lambda: dbar(b"", b""), lambda: min_dbar([b"", b""], 2), lambda: min_dbar([(), ()], 2),
     lambda: min_dbar([b""], 2)],
    ids=["dbar", "min_dbar", "min_dbar-tuples", "min_dbar-one-word"],
)
def test_dbar_and_min_dbar_refuse_empty_words(call):
    # min_dbar divided by the word length: Fraction(0, 0)
    with pytest.raises(InvalidParamsError) as err:
        call()
    assert err.value.constraint == "empty word"


IDENTITY2 = Coarsening(((0,), (1,)), 2)
ONE_BLOCK2 = Coarsening(((0, 1),), 2)
SPEC4 = TypicalSpec(HALF, 0, 4)

# (public function, a call on a word of length 4 over its alphabet, the
# alphabet); an observed prefix may hold UNASSIGNED, the other words not
WORD_READERS = [
    ("is_typical", lambda w: is_typical(w, SPEC4), 2),
    ("count_fiber", lambda w: count_fiber(HALF, IDENTITY2, 0, 4, w), 2),
    ("iter_fiber", lambda w: next(iter_fiber(HALF, IDENTITY2, 0, 4, w)), 2),
    ("Fiber", lambda w: Fiber(SPEC4, IDENTITY2, w), 2),
    ("Fiber.index", lambda w: Fiber(SPEC4, ONE_BLOCK2, bytes(4)).index(w), 2),
    ("choose_J", lambda w: choose_J(w, (), F(3, 10), F(1, 10), HALF), 2),
    ("dbar", lambda w: dbar(bytes(4), w), UNASSIGNED),
    ("min_dbar", lambda w: min_dbar([bytes(4), w], 2), 2),
    ("CodeBook.within", lambda w: uniform_book(2, 4, [bytes(4)]).within(w, F(1, 2), 1), 2),
    ("build_injections-only", lambda w: build_injections(
        FEAS_XI, FEAS_BLOCKS, HALF, FEAS_BUDGET, 0, 24, only=[w * 6]), 2),
]
PREFIX_READERS = {"CodeBook.within"}


@pytest.mark.parametrize("call, symbol", [
    pytest.param(call, t, id=f"{name}-{t!r}")
    for name, call, alphabet in WORD_READERS
    for t in dict.fromkeys(["a", 0.5, -1, alphabet, UNASSIGNED])
    if not (t == UNASSIGNED and name in PREFIX_READERS)
])
def test_every_word_reader_refuses_a_bad_symbol_by_name(call, symbol):
    word = (0, symbol, 1, 1)
    for form in [word, bytes(word)] if symbol in range(256) else [word]:
        with pytest.raises(InvalidPartitionError, match=f"^symbol {re.escape(repr(symbol))} outside"):
            call(form)


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except (AtypicalNameError, InvalidParamsError) as err:
        return type(err), str(err)


def test_word_readers_agree_on_tuple_list_and_bytes_forms():
    rng = random.Random(36)
    forms = (tuple, list, bytes)
    for _ in range(80):
        k = rng.randint(2, 10)
        raw = [rng.randint(1, 4) for _ in range(k)]
        q = ProbVec(tuple(F(x, sum(raw)) for x in raw))
        n, eps = rng.randint(4, 9), F(rng.randint(0, 4), 8)
        spec = TypicalSpec(q, eps, n)
        symbols = rng.sample(range(k), k)
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1)))
        bl = Coarsening(tuple(tuple(symbols[a:b]) for a, b in zip([0] + cuts, cuts + [k])), k)
        word, other = ([rng.randrange(k) for _ in range(n)] for _ in range(2))
        prefix = [UNASSIGNED if rng.random() < 0.3 else s for s in word]
        blocks = [bl.block_of()[s] for s in word]
        book = uniform_book(k, n, [bytes(other), bytes(word)])

        def results(form):
            w, o, p, b = form(word), form(other), form(prefix), form(blocks)
            fiber = Fiber(spec, bl, b)
            ends = [fiber[0], fiber[-1]] if fiber.size else []
            return [
                is_typical(w, spec), count_fiber(q, bl, eps, n, b), fiber.size, ends,
                list(islice(iter_fiber(q, bl, eps, n, b), 20)), outcome(lambda: fiber.index(w)),
                outcome(lambda: choose_J(w, range(0, n, 3), F(1, 2), F(1, 10), q)),
                dbar(w, o), dbar(p, o), min_dbar([w, o], k), book.within(p, F(1, 2), 2),
            ]

        assert results(tuple) == results(list) == results(bytes)
    for _ in range(4):
        ones = rng.sample(range(24), 2)
        b = [int(i in ones) for i in range(24)]
        books = [
            build_injections(FEAS_XI, FEAS_BLOCKS, HALF, FEAS_BUDGET, 0, 24, only=[form(b)])
            for form in forms
        ]
        assert len({(book.packing, tuple(w for w, _ in book.books)) for book in books}) == 1


def test_packed_scan_finds_a_planted_word_among_4096():
    # 4096 balanced words of length 4096, held as bytes (16 MB, where
    # tuples would take 130), are packed and scanned once for a noisy
    # prefix of one of them with every 7th position unassigned
    rng = random.Random(15)
    k = half = 4096
    half //= 2
    bits = bytes.maketrans(b"01", b"\0\1")
    flip = bytes.maketrans(b"\0\1", b"\1\0")
    words = []
    for _ in range(4096):
        first = format(rng.getrandbits(half), f"0{half}b").encode().translate(bits)
        words.append(first + first.translate(flip))
    planted = rng.randrange(len(words))
    prefix = list(words[planted])
    for i in rng.sample(range(k), 200):
        prefix[i] ^= 1
    prefix[::7] = [UNASSIGNED] * len(prefix[::7])
    book = uniform_book(2, k, words)
    started = time.perf_counter()
    hits = book.within(prefix, F(1, 4), len(words))
    assert time.perf_counter() - started < 0.5
    assert hits == [planted]


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
            assert bytes(0 if s == 0 else 1 for s in cell_word) == b
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
        assert dict(zip(book.fiber(b), book.packing)) == dict(entries)


@pytest.mark.parametrize("eps, sep", [(F(1, 12), F(1, 3)), (F(1, 6), F(1, 6))])
def test_separation_matches_per_book_minimum_on_unequal_fibers(eps, sep):
    xi = ProbVec((F(10, 12), F(1, 12), F(1, 12)))
    book = build_injections(
        xi, FEAS_BLOCKS, HALF, FEAS_BUDGET, eps, 12, capacity="exact"
    )
    assert len({len(fiber) for _, fiber in book.books}) > 1
    per_book = min(
        (
            dbar(a, c)
            for _, fiber in book.books
            for a, c in combinations(dict(zip(fiber, book.packing)).values(), 2)
        ),
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


def listed_books(xi, blocks, eps, n):
    # the books as a listing build makes them: every typical block word in
    # lexicographic order, one Fiber each
    fine = TypicalSpec(xi, eps, n)
    coarse = TypicalSpec(coarsen(xi, blocks), eps, n)
    return [(b, Fiber(fine, blocks, b)) for b in one_block(coarse)]


def bundled_codebook_case():
    blob = json.loads((CONFIGS / "codebook.json").read_text())
    xi = ProbVec(tuple(F(w) for w in blob["xi"]))
    blocks = Coarsening(tuple(map(tuple, blob["blocks"])), len(xi))
    budget = PackingBudget(F(blob["delta"]), F(blob["r"]))
    q = ProbVec(tuple(F(w) for w in blob["q"]))
    return xi, blocks, q, budget, F(blob["eps"]), blob["n"], blob["capacity"]


def injection_cases():
    from test_acceptance import INJECTION_CASES

    budget = PackingBudget(F(1, 1000), F(1, 2))
    cases = [
        (ProbVec(tuple(F(v, n) for v in counts)), blocks, q, budget, F(0), n, "analytic")
        for counts, blocks, q, n in INJECTION_CASES
    ]
    cases.append(bundled_codebook_case())
    xi = ProbVec((F(10, 12), F(1, 12), F(1, 12)))
    cases += [(xi, FEAS_BLOCKS, HALF, FEAS_BUDGET, eps, 12, "exact") for eps in (F(1, 12), F(1, 6))]
    return cases


@pytest.mark.parametrize("case", injection_cases(), ids=lambda case: f"n{case[5]}-eps{case[4]}")
def test_ranked_books_match_the_listed_books(case):
    xi, blocks, q, budget, eps, n, capacity = case
    ref = listed_books(xi, blocks, eps, n)
    book = build_injections(*case)
    ranked = list(book.books)
    assert book.summary()["books"] == len(book.books) == len(ranked) == len(ref)
    assert [b for b, _ in ranked] == [b for b, _ in ref]
    assert [f.size for _, f in ranked] == [f.size for _, f in ref]
    for i in range(-1, len(ref), max(1, len(ref) // 7)):
        assert book.books[i][0] == ref[i][0]
    largest = max(f.size for _, f in ref)
    capacity_exact = {c["name"]: c for c in book.checks}["capacity-exact"]
    assert capacity_exact["lhs"] == largest == len(book.packing)
    for b, f in ref[:: max(1, len(ref) // 7)]:
        assert book.fiber(b).size == f.size
        assert list(book.fiber(b)) == list(f)
    # every block lies in the last block: a word outside the typical block set
    atypical = (len(blocks) - 1,) * n
    assert not is_typical(atypical, TypicalSpec(coarsen(xi, blocks), eps, n))
    for b in (atypical, ref[0][0][:-1], ref[0][0] + b"\0"):
        with pytest.raises(KeyError, match="no book for block word"):
            book.fiber(b)


def test_build_injections_lists_no_typical_set(monkeypatch):
    # a Fiber is the one lister of typical words, and no build iterates one
    searched = []
    search = typical.iter_typical

    def counted(spec, rho):
        searched.append(rho)
        return search(spec, rho)

    def refuse(*args, **kwargs):
        raise AssertionError("a typical set was listed")

    monkeypatch.setattr(typical, "iter_typical", counted)
    monkeypatch.setattr(typical.Fiber, "__iter__", refuse)
    for case in injection_cases():
        book = build_injections(*case)
        build_injections(*case, only=[book.books[i][0] for i in range(3)])
    assert searched


def test_empty_typical_block_set_is_refused_before_any_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(typical, "iter_typical", refuse)
    for only in (None, [(0,) * 25]):
        with pytest.raises(InvalidParamsError) as info:
            build_injections(FEAS_XI, FEAS_BLOCKS, HALF, FEAS_BUDGET, 0, 25, only=only)
        assert info.value.constraint == "a typical block word exists"


UNEQUAL_CASE = (
    ProbVec((F(10, 12), F(1, 12), F(1, 12))), FEAS_BLOCKS, HALF, FEAS_BUDGET, F(1, 12), 12, "exact",
)


def test_both_book_modes_refuse_a_word_without_a_book():
    full = build_injections(*UNEQUAL_CASE)
    words = [b for b, _ in full.books]
    only = build_injections(*UNEQUAL_CASE, only=words[1:3])
    atypical = (1,) * 12
    assert not is_typical(atypical, TypicalSpec(coarsen(UNEQUAL_CASE[0], FEAS_BLOCKS), F(1, 12), 12))
    for b in (atypical, words[0][:-1], words[0] + b"\0"):
        messages = set()
        for book in (full, only):
            with pytest.raises(KeyError, match="no book for block word") as info:
                book.fiber(b)
            messages.add(str(info.value))
        assert messages == {str(KeyError(f"no book for block word {list(b)}"))}
    # typical, but not one of the only words
    for b in (words[0], words[3], words[-1]):
        with pytest.raises(KeyError, match=f"no book for block word {re.escape(str(list(b)))}"):
            only.fiber(b)


def test_only_books_are_the_fibers_of_their_words():
    xi, blocks, _, _, eps, n, _ = UNEQUAL_CASE
    spec = TypicalSpec(xi, eps, n)
    full = build_injections(*UNEQUAL_CASE)
    sizes = {b: len(f) for b, f in full.books}
    # words with fibers of different sizes, given out of order and repeated
    some = [b for b in sizes if sizes[b] == max(sizes.values())][:2]
    some += [b for b in sizes if sizes[b] == min(sizes.values())][:2]
    assert len(some) == 4 and len({sizes[b] for b in some}) == 2
    book = build_injections(*UNEQUAL_CASE, only=some[::-1] + some[:1])
    assert book.books.size == len(book.books) == 4
    assert [b for b, _ in book.books] == sorted(some)
    for b in some + some[::-1]:
        ref = Fiber(spec, blocks, b)
        for fiber in (book.fiber(b), dict(book.books)[b]):
            assert fiber.size == ref.size
            assert list(fiber) == list(ref)
            assert all(fiber.index(w) == i for i, w in enumerate(ref))


def test_empty_only_is_refused_by_name_before_any_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(typical, "iter_typical", refuse)
    for only in ([], (), iter([])):
        with pytest.raises(InvalidParamsError) as info:
            build_injections(FEAS_XI, FEAS_BLOCKS, HALF, FEAS_BUDGET, 0, 24, only=only)
        assert info.value.constraint == "only lists a block word"
    # an empty typical block set is still named first
    with pytest.raises(InvalidParamsError) as info:
        build_injections(FEAS_XI, FEAS_BLOCKS, HALF, FEAS_BUDGET, 0, 25, only=[])
    assert info.value.constraint == "a typical block word exists"


def test_build_injections_counts_only_the_target_set(monkeypatch):
    counted = []
    count = typical.count_typical

    def recorded(spec):
        counted.append(spec)
        return count(spec)

    monkeypatch.setattr(typical, "count_typical", recorded)
    for case in (UNEQUAL_CASE, bundled_codebook_case()):
        xi, _, q, budget, eps, n, _ = case
        words = [b for b, _ in build_injections(*case).books]
        build_injections(*case, only=words[:2])
        target = TypicalSpec(q, eps, budget.k(n))
        assert counted == [target, target]
        counted.clear()

"""Acceptance suite: one test per headline guarantee.

Every test re-derives its expected values independently of the code under
test (exhaustive enumeration, exact rational arithmetic, or frozen closed
forms) and asserts an explicit wall-clock budget at the end.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from labelings import cells_of, membership
from recode_instances import FAMILY, build, pipeline_parts

from fingen.cli import main
from fingen.errors import DecodeError
from fingen.probvec import Coarsening, ProbVec, cond_entropy, ratcomb_decompose
from fingen.recoder import (
    brute_force_generator_search,
    decode,
    krieger_recode,
    reduce_alphabet,
)
from fingen.system import FiniteSystem, GAlgebra, generated_algebra
from fingen.tower import build_tower
from fingen.typical import (
    PackingBudget,
    TypicalSpec,
    binomial_bound_report,
    build_injections,
    count_fiber,
    count_typical,
    dbar,
    greedy_packing,
    stirling_window,
)

TOL = 1e-10
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def check_budget(started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{elapsed:.1f}s exceeds the {limit}s budget"


def plain_entropy(labels, weights):
    return cond_entropy(labels, (0,) * len(weights), weights)


def join_labels(a, b):
    seen = {}
    return tuple(seen.setdefault(pair, len(seen)) for pair in zip(a, b))


def coarsenings(labels):
    """All relabelings obtained by merging cells, via restricted growth strings."""
    vals = sorted(set(labels))
    n = len(vals)
    rgs = [0] * n

    def rec(i, top):
        if i == n:
            lut = {vals[j]: rgs[j] for j in range(n)}
            yield tuple(lut[v] for v in labels)
            return
        for v in range(top + 2):
            rgs[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(0, -1)


# ---------------------------------------------------------------------------
# 1. entropy identities on weighted labelings


def test_entropy_identities():
    started = time.monotonic()
    rng = random.Random(0xE417)

    def labeling(npts, max_cells=6):
        c = rng.randint(1, max_cells)
        return tuple(rng.randrange(c) for _ in range(npts))

    def coarsen(labels):
        vals = sorted(set(labels))
        k = rng.randint(1, len(vals))
        lut = {v: rng.randrange(k) for v in vals}
        return tuple(lut[v] for v in labels)

    for _ in range(1000):
        npts = rng.randint(1, 64)
        raw = [rng.randint(1, 9) for _ in range(npts)]
        tot = sum(raw)
        w = tuple(Fraction(v, tot) for v in raw)
        a, b, f = labeling(npts), labeling(npts), labeling(npts)

        h_a_f = cond_entropy(a, f, w)
        assert h_a_f <= math.log(len(set(a))) + TOL
        assert cond_entropy(coarsen(a), f, w) <= h_a_f + TOL
        assert cond_entropy(a, coarsen(f), w) >= h_a_f - TOL

        ab = join_labels(a, b)
        h_ab = plain_entropy(ab, w)
        h_b = plain_entropy(b, w)
        assert abs(h_ab - h_b - cond_entropy(a, b, w)) < TOL
        assert h_ab >= h_b - TOL

        h_ab_f = cond_entropy(ab, f, w)
        chained = cond_entropy(b, f, w) + cond_entropy(a, join_labels(b, f), w)
        assert abs(h_ab_f - chained) < TOL
        assert h_ab_f <= cond_entropy(b, f, w) + plain_entropy(a, w) + TOL

    # the sup/inf characterizations, exhaustively over merges of small alphabets
    for _ in range(150):
        npts = rng.randint(2, 16)
        raw = [rng.randint(1, 9) for _ in range(npts)]
        tot = sum(raw)
        w = tuple(Fraction(v, tot) for v in raw)
        a, f = labeling(npts, 4), labeling(npts, 4)
        base = cond_entropy(a, f, w)
        assert abs(max(cond_entropy(xi, f, w) for xi in coarsenings(a)) - base) < TOL
        assert abs(min(cond_entropy(a, xi, w) for xi in coarsenings(f)) - base) < TOL

    check_budget(started, 10)


# ---------------------------------------------------------------------------
# 2. exact convex decomposition into denominator-n vectors


def test_rational_decomposition():
    started = time.monotonic()
    rng = random.Random(0xA2C1)
    for _ in range(200):
        p = rng.randint(1, 5)
        raw = [rng.randint(1, 30) for _ in range(p)]
        tot = sum(raw)
        a = ProbVec(tuple(Fraction(v, tot) for v in raw))
        eps = rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)])
        dec = ratcomb_decompose(a, eps)

        acc = [Fraction(0)] * p
        for c, r in zip(dec.mixing.weights, dec.vectors):
            for i in range(p):
                acc[i] += c * r.weights[i]
        assert tuple(acc) == a.weights

        for r in dec.vectors:
            assert all((v * dec.n).denominator == 1 for v in r.weights)
            for i in range(p):
                assert abs(r.weights[i] - a.weights[i]) < eps
    check_budget(started, 5)


# ---------------------------------------------------------------------------
# 3. typical counting against exhaustive word enumeration

QS_BY_LEN = {
    1: [ProbVec((Fraction(1),))],
    2: [
        ProbVec((Fraction(1, 2), Fraction(1, 2))),
        ProbVec((Fraction(1, 3), Fraction(2, 3))),
    ],
    3: [
        ProbVec((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
        ProbVec((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
        ProbVec((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
    ],
}
BLOCKS_BY_LEN = {1: ((0,),), 2: ((0,), (1,)), 3: ((0,), (1, 2))}


def test_typical_count_matches_enumeration():
    started = time.monotonic()
    epses = (Fraction(0), Fraction(1, 10), Fraction(1, 4))
    for t, qs in QS_BY_LEN.items():
        blocks = Coarsening(BLOCKS_BY_LEN[t], t)
        nb = len(BLOCKS_BY_LEN[t])
        for n in range(1, 13):
            tally = Counter(
                tuple(word.count(s) for s in range(t))
                for word in product(range(t), repeat=n)
            )
            for q in qs:
                for eps in epses:
                    expected = sum(
                        mult
                        for counts, mult in tally.items()
                        if all(
                            abs(Fraction(c, n) - qi) <= eps
                            for c, qi in zip(counts, q.weights)
                        )
                    )
                    assert count_typical(TypicalSpec(q, eps, n)) == expected
                    fibered = sum(
                        count_fiber(q, blocks, eps, n, b)
                        for b in product(range(nb), repeat=n)
                    )
                    assert fibered == expected
    check_budget(started, 60)


# ---------------------------------------------------------------------------
# 4. counting windows around the entropy rate

WINDOW_QS = [
    ProbVec((Fraction(1, 2), Fraction(1, 2))),
    ProbVec((Fraction(1, 3), Fraction(2, 3))),
    ProbVec((Fraction(1, 4), Fraction(3, 4))),
    ProbVec((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
    ProbVec((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
    ProbVec((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))),
]


def test_counting_windows():
    started = time.monotonic()
    report = []
    for q in WINDOW_QS:
        for delta in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
            for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
                n_min = None
                for n in range(1, 101):
                    if stirling_window(q, delta, eps, n).holds:
                        n_min = n
                        break
                assert n_min is not None, (q.weights, delta, eps)
                rep = stirling_window(q, delta, eps, n_min)
                assert rep.holds
                assert rep.log_lower <= rep.log_count <= rep.log_upper
                report.append(
                    {"q": q.weights, "delta": delta, "eps": eps, "n_min": n_min}
                )
    assert len(report) >= 50

    for delta in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        for n in range(50, 201):
            rep = binomial_bound_report(delta, n)
            k = math.floor(float(delta) * n)
            assert rep["binomial"] == math.comb(n, k)
            assert rep["holds"]
    check_budget(started, 60)


# ---------------------------------------------------------------------------
# 5. packings and per-block-word injection books

B2 = Coarsening(((0,), (1, 2)), 3)
B3 = Coarsening(((0,), (1, 2, 3)), 4)
HALF = ProbVec((Fraction(1, 2), Fraction(1, 2)))
Q13 = ProbVec((Fraction(1, 3), Fraction(2, 3)))
Q14 = ProbVec((Fraction(1, 4), Fraction(3, 4)))
Q25 = ProbVec((Fraction(2, 5), Fraction(3, 5)))
Q512 = ProbVec((Fraction(5, 12), Fraction(7, 12)))

PACKING_CASES = [
    (HALF, 8, Fraction(3, 10)),
    (HALF, 10, Fraction(2, 5)),
    (HALF, 12, Fraction(9, 20)),
    (Q13, 12, Fraction(2, 5)),
    (ProbVec((Fraction(1, 3),) * 3), 9, Fraction(2, 5)),
]

INJECTION_CASES = (
    [((10, 1, 1), B2, q, 12) for q in (HALF, Q13)]
    + [((14, 1, 1), B2, q, 16) for q in (HALF, Q14)]
    + [((18, 1, 1), B2, q, 20) for q in (HALF, Q25)]
    + [((22, 1, 1), B2, q, 24) for q in (HALF, Q13, Q14, Q512)]
    + [((21, 2, 1), B2, q, 24) for q in (HALF, Q13, Q14, Q512)]
    + [((20, 2, 2), B2, q, 24) for q in (HALF, Q13, Q512)]
    + [((20, 3, 1), B2, q, 24) for q in (HALF, Q13, Q14, Q512)]
    + [((21, 1, 1, 1), B3, HALF, 24)]
)


def word_counts(word, t):
    out = [0] * t
    for s in word:
        out[s] += 1
    return out


def in_ranges(counts, ranges):
    return all(lo <= c <= hi for c, (lo, hi) in zip(counts, ranges))


def test_packings_and_codebooks():
    started = time.monotonic()

    for q, k, rho in PACKING_CASES:
        spec = TypicalSpec(q, Fraction(0), k)
        words = greedy_packing(spec, rho)
        need = math.floor(rho * k) + 1
        chosen = set(words)
        for a, b in combinations(words, 2):
            assert sum(x != y for x, y in zip(a, b)) >= need
        ranges = spec.count_ranges()
        for w in product(range(len(q.weights)), repeat=k):
            if bytes(w) in chosen or not in_ranges(word_counts(w, len(q.weights)), ranges):
                continue
            assert any(
                sum(x != y for x, y in zip(w, c)) < need for c in words
            ), "packing is not maximal"

    assert len(INJECTION_CASES) >= 20
    budget = PackingBudget(Fraction(1, 1000), Fraction(1, 2))
    for counts, blocks, q, n in INJECTION_CASES:
        xi = ProbVec(tuple(Fraction(v, n) for v in counts))
        cb = build_injections(xi, blocks, q, budget, Fraction(0), n, capacity="analytic")

        q_ranges = TypicalSpec(q, Fraction(0), cb.k).count_ranges()
        pack = set(cb.packing)
        for w in cb.packing:
            assert in_ranges(word_counts(w, len(q.weights)), q_ranges)

        xi_ranges = TypicalSpec(xi, Fraction(0), n).count_ranges()
        blk = blocks.block_of()
        for b, fiber in cb.books:
            entries = tuple(zip(fiber, cb.packing))
            codes = [w for _, w in entries]
            assert len(set(codes)) == len(codes)
            assert all(w in pack for w in codes)
            assert len(entries) == count_fiber(xi, blocks, Fraction(0), n, b)
            for c, _ in entries:
                assert bytes(blk[s] for s in c) == b
                assert in_ranges(word_counts(c, len(xi.weights)), xi_ranges)

        sep = cb.separation()
        assert sep > 20 * budget.delta * max(len(q.weights), len(xi.weights))
    check_budget(started, 60)


# ---------------------------------------------------------------------------
# 6. tower constructions

TOWER_CASES = [
    (60, lambda x: x % 2, Fraction(2), 1, None),
    (60, lambda x: 0, Fraction(2), 1, None),
    (60, lambda x: x % 2, Fraction(5, 2), 1, 30),
    (90, lambda x: 0 if x % 9 < 4 else 1, Fraction(2), 5, None),
    (96, lambda x: (x // 2) % 4, Fraction(2), 4, None),
    (120, lambda x: x % 3, Fraction(3, 2), 10, None),
    (150, lambda x: x % 5, Fraction(2), 5, None),
    (180, lambda x: (x // 5) % 2, Fraction(1), 20, None),
    (210, lambda x: (x // 7) % 3, Fraction(3, 2), 10, None),
    (240, lambda x: (x // 3) % 2, Fraction(1), 15, None),
    (300, lambda x: x % 2, Fraction(2), 5, None),
]


def test_tower_audits():
    started = time.monotonic()
    assert len(TOWER_CASES) >= 10
    for npts, lab, eps, nmin, m in TOWER_CASES:
        sysn = FiniteSystem.cyclic(npts)
        alpha = tuple(lab(x) for x in range(npts))
        tw = build_tower(sysn, alpha, eps, nmin, m)

        for x in range(npts):
            y = x
            for _ in range(tw.n):
                y = tw.theta.apply(y)
            assert y == x

        classes = tw.classes()
        assert all(len(cl) == tw.n for cl in classes)
        assert sorted(x for cl in classes for x in cl) == list(range(npts))

        assert sysn.total_weight(tw.s1) + sysn.total_weight(tw.s2) < eps

        cells = tw.cells
        global_freq = {
            c: Fraction(sum(1 for v in alpha if v == c), npts) for c in cells
        }
        for cl in classes:
            for c in cells:
                f = Fraction(sum(1 for x in cl if alpha[x] == c), len(cl))
                assert abs(f - global_freq[c]) <= eps

        for s in tw.s1:
            assert tw.decode_profile(s) == tw.profile_of(s)
    check_budget(started, 30)


# ---------------------------------------------------------------------------
# 7. end-to-end recode with exact decode


def test_recode_round_trip():
    started = time.monotonic()
    assert len(FAMILY) >= 10
    for entry in FAMILY:
        sysn, xi, falg, params, kwargs = build(entry)
        alpha, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
        npts = sysn.n_points
        r = Fraction(params.r)

        for i, wgt in enumerate(params.p.weights):
            assert Fraction(alpha.count(i), npts) == r * wgt

        _, _, _, _, fine, beta, tower, codebook = pipeline_parts(entry)
        radius = codebook.separation() / 2
        got = decode(
            list(alpha), beta, tower.transversal, tower.theta,
            codebook, radius, params.blocks,
        )
        assert got == fine
        pairs = sorted({(falg.labels[x], xi[x]) for x in range(npts)})
        assert all(pairs[got[x]][1] == xi[x] for x in range(npts))

        acells = [c for c in cells_of(alpha) if alpha[c[0]] is not None]
        bcells = cells_of(beta)
        alg = generated_algebra(sysn, membership(npts, acells + bcells + [tower.transversal]))
        assert alg.refines(GAlgebra(xi))

    # corrupting more name positions than the budget tolerates must be caught
    entry = FAMILY[0]
    sysn, xi, falg, params, kwargs = build(entry)
    alpha, _ = krieger_recode(sysn, xi, falg, params, **kwargs)
    _, _, _, _, fine, beta, tower, codebook = pipeline_parts(entry)
    radius = codebook.separation() / 2
    bad = list(alpha)
    wiped = 0
    for x in tower.theta.orbit(tower.transversal[0])[: codebook.k]:
        if bad[x] is not None and wiped < 3:
            bad[x] = None
            wiped += 1
    assert wiped == 3
    with pytest.raises(DecodeError):
        decode(
            bad, beta, tower.transversal, tower.theta,
            codebook, radius, params.blocks,
        )
    check_budget(started, 120)


# ---------------------------------------------------------------------------
# 8. alphabet reductions

REDUCTION_CASES = [
    (12, [4, 4, 4], 1, Fraction(1, 2)),
    (6, [1, 1, 1, 1, 1, 1], 6, Fraction(1, 2)),
    (20, [15, 3, 1, 1], 1, Fraction(1)),
    (30, [24, 2, 2, 1, 1], 1, Fraction(1)),
    (36, [30, 2, 2, 1, 1], 2, Fraction(1)),
    (40, [29, 4, 4, 2, 1], 1, Fraction(1)),
    (50, [40, 5, 3, 1, 1], 1, Fraction(1)),
    (60, [48, 6, 3, 2, 1], 2, Fraction(1)),
    (80, [66, 7, 4, 2, 1], 1, Fraction(1)),
    (100, [85, 8, 4, 2, 1], 1, Fraction(1)),
    (250, None, 1, Fraction(1)),
]


def heavy_tail_labeling():
    labels = []
    for x in range(250):
        if x < 195:
            labels.append(0)
        elif x < 223:
            labels.append(1 + (x - 195) // 4)
        else:
            labels.append(8 + (x - 223))
    return tuple(labels)


def test_alphabet_reductions():
    started = time.monotonic()
    assert len(REDUCTION_CASES) >= 10
    for npts, sizes, fmod, eps in REDUCTION_CASES:
        sysn = FiniteSystem.cyclic(npts)
        if sizes is None:
            xi = heavy_tail_labeling()
        else:
            xi = tuple(i for i, s in enumerate(sizes) for _ in range(s))
        falg = GAlgebra(tuple(x % fmod for x in range(npts)))
        alpha, plan = reduce_alphabet(sysn, xi, falg, eps)

        before = generated_algebra(sysn, membership(npts, cells_of(xi) + cells_of(falg.labels)))
        after = generated_algebra(sysn, membership(npts, cells_of(alpha) + cells_of(falg.labels)))
        assert before == after

        h_alpha = cond_entropy(alpha, falg.labels)
        h_xi = cond_entropy(xi, falg.labels)
        assert h_alpha < h_xi + float(eps)
    check_budget(started, 30)


# ---------------------------------------------------------------------------
# 9. exhaustive minimum-generator oracle


def test_minimum_generator_oracle():
    started = time.monotonic()
    value, witness = brute_force_generator_search(FiniteSystem.cyclic(4), 4)
    assert abs(value - (2 * math.log(2) - 0.75 * math.log(3))) < 1e-9
    assert witness == ((0,), (1, 2, 3))
    check_budget(started, 5)


# ---------------------------------------------------------------------------
# 10. byte-identical reports


def test_cli_determinism(tmp_path):
    for name in ("count", "decompose", "codebook", "tower", "reduce", "recode", "oracle"):
        for fmt in ("json", "csv"):
            payloads = []
            for run in (1, 2):
                out = tmp_path / f"{name}-{fmt}-{run}"
                code = main(
                    [
                        name,
                        "--config", str(CONFIGS / f"{name}.json"),
                        "--seed", "11",
                        "--format", fmt,
                        "--out", str(out),
                    ]
                )
                assert code == 0
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1]
            assert payloads[0]

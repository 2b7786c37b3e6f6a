import ast
import inspect
import json
import math
import random
import textwrap
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelings import cells_of, membership
from recode_instances import FAMILY, build, pipeline_parts
from test_records import rebuilt

from fingen.coding import FiberDistribution, build_code
from fingen.errors import (
    AtypicalNameError,
    CapacityError,
    DecodeError,
    DivisibilityError,
    FingenError,
    InvalidParamsError,
    InvalidPartitionError,
)
from fingen import recoder
from fingen.cli import parse_labels
from fingen.probvec import (
    Coarsening,
    ProbVec,
    canon_labels,
    coarsen,
    cond_entropy,
    entropy,
    entropy_pair,
    label_cells,
)
from fingen.recoder import (
    RecodeParams,
    brute_force_generator_search,
    decode,
    decoder_budget,
    encode_names,
    join_factor,
    krieger_recode,
    reduce_alphabet,
    refine_to_p,
    synthesize_prepartition,
    theta_algebra,
)
from fingen.system import FiniteSystem, GAlgebra, PseudoMap, generated_algebra, simplemix
from fingen.tower import build_tower
from fingen.typical import (Fiber, PackingBudget, TypicalSpec, build_injections, choose_J, dbar,
                            inequality, is_typical)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    p = ProbVec((F(1, 4), F(1, 4), F(1, 2)))
    blocks = Coarsening(((0, 1), (2,)), 3)
    good = RecodeParams(p, blocks, F(1, 2), F(1, 8), 0)
    assert good.q.weights == (F(1, 2), F(1, 2))
    with pytest.raises(InvalidPartitionError):
        RecodeParams(p, Coarsening(((0, 1),), 2), F(1, 2), F(1, 8), 0)
    for r in (0, 2):
        with pytest.raises(InvalidParamsError):
            RecodeParams(p, blocks, r, F(1, 8), 0)
    with pytest.raises(InvalidParamsError):
        RecodeParams(p, blocks, F(1, 2), 1, 0)
    with pytest.raises(InvalidParamsError):
        RecodeParams(p, blocks, F(1, 2), F(1, 8), -1)


def test_params_coarsen_p_once():
    p = ProbVec((F(1, 4), F(1, 4), F(1, 2)))
    blocks = Coarsening(((0, 1), (2,)), 3)
    params = RecodeParams(p, blocks, F(1, 2), F(1, 8), 0)
    assert params.q is params.q
    assert params.q == coarsen(p, blocks)


# ---------------------------------------------------------------------------
# translate fixpoint of a single map


def test_theta_algebra_translation_by_three():
    s6 = FiniteSystem.cyclic(6)
    # Z6 walks (), r, ~r, rr, ~r~r, rrr: element 5 is rrr
    rot3 = PseudoMap(s6, tuple((x, (x + 3) % 6) for x in range(6)), ((0, 5),) * 6)
    alg = theta_algebra(rot3, membership(6, [(0, 1)]))
    assert alg.cells == ((0, 1), (2, 5), (3, 4))


def test_theta_algebra_full_shift_separates():
    s6 = FiniteSystem.cyclic(6)
    shift = PseudoMap(s6, tuple((x, (x + 1) % 6) for x in range(6)), ((0, 1),) * 6)
    assert len(theta_algebra(shift, membership(6, [(0,)]))) == 6


def test_theta_algebra_rejects_a_labeling_of_the_wrong_length():
    s6 = FiniteSystem.cyclic(6)
    shift = PseudoMap(s6, tuple((x, (x + 1) % 6) for x in range(6)), ((0, 1),) * 6)
    for labels in [(0, 1), (0,) * 7]:
        with pytest.raises(InvalidParamsError, match="one label per point"):
            theta_algebra(shift, labels)


# ---------------------------------------------------------------------------
# alphabet reduction


def reduce_postconditions(sysn, xi, falg, eps, alpha, plan):
    n = sysn.n_points
    ga = generated_algebra(sysn, membership(n, cells_of(alpha) + cells_of(falg.labels)))
    gx = generated_algebra(sysn, membership(n, cells_of(xi) + cells_of(falg.labels)))
    assert ga.labels == gx.labels
    h_a = cond_entropy(alpha, falg.labels)
    h_x = cond_entropy(xi, falg.labels)
    assert h_a < h_x + float(eps)
    gamma_cells = len(set(plan.gamma))
    assert len(set(alpha)) <= 7 * gamma_cells
    # images never land on the surviving tail set or on each other
    blocked = set(plan.p_sets[plan.cutoff - 1]) if plan.cutoff <= len(plan.p_sets) else set()
    seen = set()
    for n, th in plan.thetas:
        img = {th.apply(x) for x, _ in th.pairs}
        assert not img & blocked
        assert not img & seen
        seen |= img
    assert set(plan.relocated) == seen
    assert set(plan.q_set) <= seen


def test_reduce_without_relocation_keeps_everything():
    s12 = FiniteSystem.cyclic(12)
    xi = tuple(0 if x < 6 else (1 if x < 10 else 2) for x in range(12))
    falg = GAlgebra((0,) * 12)
    alpha, plan = reduce_alphabet(s12, xi, falg, F(1, 2))
    assert plan.thetas == ()
    assert plan.cutoff == max(len(w) for w in plan.words) + 1
    assert len(set(alpha)) == 3
    h_a = cond_entropy(alpha, falg.labels)
    h_x = cond_entropy(xi, falg.labels)
    assert abs(h_a - h_x) < 1e-12
    reduce_postconditions(s12, xi, falg, F(1, 2), alpha, plan)


def test_reduce_over_discrete_factor_collapses():
    s6 = FiniteSystem.cyclic(6)
    xi = (0, 1, 0, 2, 1, 0)
    falg = GAlgebra(tuple(range(6)))
    alpha, plan = reduce_alphabet(s6, xi, falg, F(1, 2))
    assert len(set(alpha)) == 1
    assert cond_entropy(alpha, falg.labels) == 0.0
    reduce_postconditions(s6, xi, falg, F(1, 2), alpha, plan)


def test_reduce_single_relocation_level():
    s36 = FiniteSystem.cyclic(36)
    xi = tuple(x % 9 for x in range(36))
    falg = GAlgebra(tuple(x % 2 for x in range(36)))
    alpha, plan = reduce_alphabet(s36, xi, falg, 1)
    assert [n for n, _ in plan.thetas] == [3]
    assert plan.q_set == ()
    assert len(plan.relocated) == 4
    assert sum(map(len, plan.digit_sets)) == 4
    reduce_postconditions(s36, xi, falg, 1, alpha, plan)


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


def test_reduce_two_levels_with_chain_set():
    s = FiniteSystem.cyclic(250)
    xi = heavy_tail_labeling()
    falg = GAlgebra((0,) * 250)
    alpha, plan = reduce_alphabet(s, xi, falg, 1)
    assert plan.cutoff == 3
    assert [n for n, _ in plan.thetas] == [3, 4]
    # nine words survive to length four, so nine chain markers
    assert len(plan.q_set) == 9
    # the chain marks are exactly the level-3 images of the deeper points
    lvl3 = dict(plan.thetas)[3]
    deeper = {lvl3.apply(x) for x, _ in lvl3.pairs if len(plan.words[x]) >= 4}
    assert set(plan.q_set) == deeper
    reduce_postconditions(s, xi, falg, 1, alpha, plan)
    assert json.dumps(plan.to_json())


def test_reduce_requires_invariant_factor():
    s12 = FiniteSystem.cyclic(12)
    xi = tuple(x % 2 for x in range(12))
    with pytest.raises(InvalidPartitionError):
        reduce_alphabet(s12, xi, GAlgebra((0,) * 11 + (1,)), 1)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_reduce(sysn, xi, falg, eps):
    """``reduce_alphabet`` as it ran before its sweep: the tail weight summed
    again for every candidate cutoff, and each level relocated into an
    ``avail`` list rebuilt over all points next to a ``blocked`` set.  Only
    the first cutoff - 1 digits go into gamma; deeper digits are relocated."""
    xi = canon_labels(xi)
    eps = F(eps)
    code = build_code(FiberDistribution.from_labels(xi, falg.labels))
    words = tuple(code[falg.labels[x]][xi[x]] for x in range(sysn.n_points))
    max_len = max(len(w) for w in words)
    d = min(F(1, 5), eps / 2)
    while not entropy_pair(float(d), 1.0 - float(d)) + float(d) * math.log(7.0) < float(eps):
        d /= 2
    p_sets = [
        tuple(x for x in range(sysn.n_points) if len(words[x]) >= n)
        for n in range(1, max_len + 1)
    ]

    def tail(level):
        return sum(
            (sysn.total_weight(p_sets[n - 1]) for n in range(level, max_len + 1)), F(0)
        )

    cut = next(n for n in range(1, max_len + 2) if tail(n) < d)
    blocked = set(p_sets[cut - 1]) if cut <= max_len else set()
    thetas = []
    for n in range(cut, max_len + 1):
        dom = p_sets[n - 1]
        if not dom:
            continue
        avail = [x for x in range(sysn.n_points) if x not in blocked]
        th = simplemix(sysn, dom, avail)
        thetas.append((n, th))
        blocked.update(th.apply(x) for x in dom)
    digit_sets, q_pts, relocated = ([], [], []), [], []
    for n, th in thetas:
        for x, _ in th.pairs:
            y = th.apply(x)
            relocated.append(y)
            digit_sets[words[x][n - 1]].append(y)
            if len(words[x]) >= n + 1:
                q_pts.append(y)
    gamma = canon_labels(w[: cut - 1] for w in words)
    moved = {y: i for i, ys in enumerate(digit_sets) for y in ys}
    alpha = canon_labels(
        (gamma[x], moved.get(x, -1), x in set(q_pts)) for x in range(sysn.n_points)
    )
    return alpha, {
        "delta": d,
        "cutoff": cut,
        "tail": tail(cut),
        "thetas": [(n, th.pairs, th.moves) for n, th in thetas],
        "relocated": tuple(sorted(relocated)),
        "digit_sets": tuple(tuple(sorted(b)) for b in digit_sets),
        "q_set": tuple(sorted(q_pts)),
    }


def seeded_reduce_cases():
    """The bundled reduce config, the heavy tail, and seeded labelings with
    one dominant cell and many light ones over cyclic systems with a mod-d
    factor."""
    blob = json.loads((CONFIGS / "reduce.json").read_text())
    n = blob["system"]["cyclic"]
    cases = [
        (FiniteSystem.cyclic(n), parse_labels(blob["labels"], n), (0,) * n, F(blob["eps"])),
        (FiniteSystem.cyclic(250), heavy_tail_labeling(), (0,) * 250, 1),
    ]
    rng = random.Random(0x5EED)
    for _ in range(40):
        n = rng.choice((24, 60, 90, 120, 180, 250))
        d = rng.choice([v for v in (1, 2, 3) if n % v == 0])
        cells, big = rng.randint(2, 60), rng.uniform(0.5, 0.9)
        xi = tuple(0 if rng.random() < big else rng.randint(1, cells) for _ in range(n))
        eps = rng.choice((F(1, 2), F(1), F(2)))
        cases.append((FiniteSystem.cyclic(n), xi, tuple(x % d for x in range(n)), eps))
    return cases


def test_reduce_matches_the_reference_relocation():
    levels = []
    for sysn, xi, flabels, eps in seeded_reduce_cases():
        falg = GAlgebra(flabels)
        alpha, plan = reduce_alphabet(sysn, xi, falg, eps)
        ref_alpha, ref = reference_reduce(sysn, xi, falg, eps)
        assert alpha == ref_alpha
        got = {
            "delta": plan.delta,
            "cutoff": plan.cutoff,
            "tail": plan.tail,
            "thetas": [(n, th.pairs, th.moves) for n, th in plan.thetas],
            "relocated": plan.relocated,
            "digit_sets": plan.digit_sets,
            "q_set": plan.q_set,
        }
        assert got == ref
        levels.append([n for n, _ in plan.thetas])
    assert levels[:2] == [[3, 4], [3, 4]]
    assert sum(len(lv) >= 2 for lv in levels) >= 5  # the seeds reach deep tails


def test_reduce_gamma_keeps_only_the_digits_above_the_cutoff():
    # digit `cutoff` and deeper live in the relocated digit cells, so gamma
    # must not store digit `cutoff` a second time
    for sysn, xi, flabels, eps in seeded_reduce_cases():
        _, plan = reduce_alphabet(sysn, xi, GAlgebra(flabels), eps)
        assert plan.gamma == canon_labels(w[: plan.cutoff - 1] for w in plan.words)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_reduce_random_contiguous_instances(data):
    n = data.draw(st.integers(8, 48))
    k = data.draw(st.integers(2, min(n, 12)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    sizes = sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)
    labels = []
    for c, sz in enumerate(sizes):
        labels += [c] * sz
    sysn = FiniteSystem.cyclic(n)
    falg = GAlgebra((0,) * n)
    eps = data.draw(st.sampled_from((F(1, 2), F(1), F(2))))
    alpha, plan = reduce_alphabet(sysn, tuple(labels), falg, eps)
    reduce_postconditions(sysn, tuple(labels), falg, eps, alpha, plan)


# ---------------------------------------------------------------------------
# restricted codebooks

FEAS_XI = ProbVec((F(22, 24), F(1, 24), F(1, 24)))
FEAS_BLOCKS = Coarsening(((0,), (1, 2)), 3)
FEAS_BUDGET = PackingBudget(delta=F(1, 1000), r=F(1, 2))
FEAS_Q = ProbVec((F(1, 2), F(1, 2)))


def test_restricted_books_match_full_build():
    full = build_injections(FEAS_XI, FEAS_BLOCKS, FEAS_Q, FEAS_BUDGET, 0, 24)
    some = [b for b, _ in full.books][:2] + [full.books[-1][0]]
    part = build_injections(FEAS_XI, FEAS_BLOCKS, FEAS_Q, FEAS_BUDGET, 0, 24, only=some)
    assert part.packing == full.packing
    assert len(part.books) == 3
    for b in some:
        assert dict(zip(part.fiber(b), part.packing)) == dict(zip(full.fiber(b), full.packing))


def test_restricted_books_without_the_largest_fiber_use_a_packing_prefix():
    xi = ProbVec((F(10, 12), F(1, 12), F(1, 12)))
    args = (xi, FEAS_BLOCKS, FEAS_Q, FEAS_BUDGET, F(1, 12), 12, "exact")
    full = build_injections(*args)
    largest = max(len(fiber) for _, fiber in full.books)
    some = [b for b, fiber in full.books if len(fiber) < largest]
    part = build_injections(*args, only=some)
    assert len(part.packing) < len(full.packing)
    assert part.packing == full.packing[: len(part.packing)]
    for b in some:
        assert dict(zip(part.fiber(b), part.packing)) == dict(zip(full.fiber(b), full.packing))


def test_restriction_rejects_atypical_word():
    with pytest.raises(AtypicalNameError):
        build_injections(
            FEAS_XI, FEAS_BLOCKS, FEAS_Q, FEAS_BUDGET, 0, 24, only=[(0,) * 24]
        )
    with pytest.raises(InvalidParamsError):
        build_injections(
            FEAS_XI, FEAS_BLOCKS, FEAS_Q, FEAS_BUDGET, 0, 24, only=[(0,) * 23]
        )


# ---------------------------------------------------------------------------
# name encoding and synthesis


def test_encode_names_plan_shape():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan, checks = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    classes = len(tower.transversal)
    assert len(plan.codewords) == len(plan.m_full) == len(plan.j_idx) == classes
    for mf, j in zip(plan.m_full, plan.j_idx):
        assert not {i for i in mf if i < codebook.k} & set(j)
    radius = codebook.separation() / 2
    assert decoder_budget(plan) == (radius, (inequality("decoder-budget", 1 / 6, radius, True),))
    for t, z in enumerate(plan.zeta):
        assert F(len(z), sysn.n_points) < params.r * params.q.weights[t]
    assert [c["name"] for c in checks] == ["reserved-density", "trim-bound"]
    assert all(c["holds"] for c in checks)
    assert checks[1]["lhs"] == max(map(len, plan.j_idx))


def test_encode_names_reserved_indices_tracked():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[2])
    plan, _ = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta, reserved=(5,)
    )
    assert sum(len(m) for m in plan.m_full) == 1
    claimed = set().union(*map(set, plan.zeta))
    assert 5 not in claimed


def excluded_budget(plan):
    # the budget as max |M_y ∪ J_y| / k over explicit excluded-index sets
    k = plan.codebook.k
    excluded = [{i for i in mf if i < k} | set(j) for mf, j in zip(plan.m_full, plan.j_idx)]
    return F(max(map(len, excluded)), k)


def budget_lhs(plan):
    # the mismatch side of the record the decoder-budget stage returns
    _, (record,) = decoder_budget(plan)
    assert record["name"] == "decoder-budget" and record["holds"]
    return record["lhs"]


def test_budget_matches_the_excluded_sets():
    for entry in FAMILY:
        sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(entry)
        plan, _ = encode_names(
            tower, fine, beta, codebook, r=params.r, delta=params.delta, reserved=entry[9]
        )
        assert budget_lhs(plan) == float(excluded_budget(plan)), entry[0]
    # z32 with reserved points inside and past the first codeword prefix
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[2])
    orbit = tower.theta.orbit(tower.transversal[0])
    k = codebook.k
    for picks in ((0,), (1, 4), (0, 2, 7), (3, k), (k, k + 1)):
        reserved = tuple(orbit[i] for i in picks)
        plan, _ = encode_names(
            tower, fine, beta, codebook, r=params.r, delta=params.delta, reserved=reserved
        )
        assert plan.m_full[0] == picks
        assert budget_lhs(plan) == float(excluded_budget(plan)), picks


def test_encode_names_atypical_fine_name():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    broken = list(fine)
    broken[3] = fine[0]  # a second exception point skews the fiber counts
    with pytest.raises(AtypicalNameError):
        encode_names(
            tower, tuple(broken), beta, codebook, r=params.r, delta=params.delta
        )


def test_encode_names_atypical_coarse_name():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    broken = list(beta)
    broken[1] = 1 - broken[1]
    with pytest.raises(AtypicalNameError):
        encode_names(
            tower, fine, tuple(broken), codebook, r=params.r, delta=params.delta
        )


def test_encode_names_reserved_density_gate():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    with pytest.raises(InvalidParamsError, match="reserved density"):
        encode_names(
            tower, fine, beta, codebook,
            r=params.r, delta=params.delta, reserved=(1, 2, 3),
        )


def test_encode_names_trim_bound_gate(monkeypatch):
    # choose_J does not compare the trim bound; encode_names owns that gate
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    monkeypatch.setattr(
        recoder, "choose_J",
        lambda word, reserved, *args: frozenset(range(len(word))) - set(reserved),
    )
    # at delta = 1 / (3 |q|) the bound 3 delta |q| k is k itself, so |J| = k fails
    edge = F(1, 3 * len(codebook.q))
    for delta in (params.delta, edge):
        with pytest.raises(InvalidParamsError, match="trim size bound") as err:
            encode_names(tower, fine, beta, codebook, r=params.r, delta=delta)
        assert err.value.constraint == "trim size bound |J| < 3 delta |q| n"
    monkeypatch.setattr(recoder, "choose_J", lambda word, *args: frozenset(range(len(word) - 1)))
    _, checks = encode_names(tower, fine, beta, codebook, r=params.r, delta=edge)
    assert checks[1] == inequality("trim-bound", codebook.k - 1, float(codebook.k), True)


def test_synthesize_and_refine_exact_masses():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan, _ = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    cells_q, records = synthesize_prepartition(plan, params)
    assert [c["name"] for c in records] == ["name-distance", "claimed-margin"]
    assert records[1] == plan.claimed_margin(params)
    n = sysn.n_points
    for t, cell in enumerate(cells_q):
        assert F(len(cell), n) == params.r * params.q.weights[t]
        assert set(plan.zeta[t]) <= set(cell)
    assert not set(cells_q[0]) & set(cells_q[1])
    cells_p = refine_to_p(sysn, cells_q, params)
    for i, cell in enumerate(cells_p):
        assert F(len(cell), n) == params.r * params.p.weights[i]


def test_synthesize_rejects_full_claimed_cell():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan, _ = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    extra = next(x for x in range(sysn.n_points) if x not in plan.zeta[0])
    packed = rebuilt(plan, zeta=(plan.zeta[0] + (extra,), plan.zeta[1]))
    assert not packed.claimed_margin(params)["holds"]
    with pytest.raises(InvalidParamsError, match="completion room"):
        synthesize_prepartition(packed, params)


def test_claimed_margin_sides_come_from_the_deciding_symbol():
    # the record shows the symbol with the least room, so its sides agree with holds
    for entry in FAMILY:
        sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(entry)
        plan, _ = encode_names(
            tower, fine, beta, codebook, r=params.r, delta=params.delta, reserved=entry[9]
        )
        record = plan.claimed_margin(params)
        assert (record["lhs"] < record["rhs"]) == record["holds"], entry[0]
    # z24-skew-target: q = (1/3, 2/3), r = 1/2, so the targets are 4 and 8 of 24
    entry = next(e for e in FAMILY if e[0] == "z24-skew-target")
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(entry)
    plan, _ = encode_names(tower, fine, beta, codebook, r=params.r, delta=params.delta)
    used = set().union(*plan.zeta)
    spare = [x for x in range(sysn.n_points) if x not in used]
    filled = plan.zeta[0] + tuple(spare[: 4 - len(plan.zeta[0])])
    full = rebuilt(plan, zeta=(filled,) + plan.zeta[1:])
    assert len(full.zeta[0]) == 4 and len(full.zeta[1]) < 8
    record = full.claimed_margin(params)
    assert not record["holds"] and not record["lhs"] < record["rhs"]
    assert (record["lhs"], record["rhs"]) == (4 / 24, 0.5 * float(F(1, 3)))


def test_synthesize_requires_integral_targets():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan, _ = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    with pytest.raises(DivisibilityError):
        synthesize_prepartition(plan, rebuilt(params, r=F(1, 5)))


def test_refine_rejects_unbalanced_cells():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan, _ = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    cells_q, _ = synthesize_prepartition(plan, params)
    bloated = (cells_q[0] + (cells_q[1][0],), cells_q[1])
    with pytest.raises(InvalidPartitionError):
        refine_to_p(sysn, bloated, params)


@pytest.mark.parametrize("cells", [((0, 1), (2, 3), (4, 5)), ((0, 1),)])
def test_refine_wants_one_cell_per_block(cells):
    params = RecodeParams(
        ProbVec((F(1, 4), F(1, 4), F(1, 2))), Coarsening(((0, 1), (2,)), 3), F(1, 2), F(1, 8), 0
    )
    with pytest.raises(InvalidPartitionError, match="one cell per block"):
        refine_to_p(FiniteSystem.cyclic(8), cells, params)


@pytest.mark.parametrize("xi", [(0, 1, 0), (0, 1, 0, 1, 0)])
def test_join_factor_rejects_a_labeling_of_another_length(xi):
    with pytest.raises(InvalidPartitionError, match="labeling length mismatch"):
        join_factor(xi, GAlgebra((0, 0, 1, 1)))


# ---------------------------------------------------------------------------
# decoding


def decoded_setup(entry):
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(entry)
    plan, _ = encode_names(
        tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    cells_p = refine_to_p(sysn, synthesize_prepartition(plan, params)[0], params)
    alpha = [None] * sysn.n_points
    for i, cell in enumerate(cells_p):
        for x in cell:
            alpha[x] = i
    radius = codebook.separation() / 2
    return sysn, params, fine, beta, tower, codebook, alpha, radius


def test_decode_roundtrip():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    got = decode(
        alpha, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
    )
    assert got == fine


def test_decode_corruption_beyond_radius_fails():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    orbit = tower.theta.orbit(tower.transversal[0])
    bad = list(alpha)
    wiped = 0
    for x in orbit[: codebook.k]:
        if bad[x] is not None and wiped < 3:
            bad[x] = None
            wiped += 1
    assert wiped == 3
    with pytest.raises(DecodeError):
        decode(
            bad, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
        )


def test_decode_tolerates_corruption_inside_radius():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[7])
    assert radius == F(1, 2)
    orbit = tower.theta.orbit(tower.transversal[0])
    bad = list(alpha)
    wiped = 0
    for x in orbit[: codebook.k]:
        if bad[x] is not None and wiped < 3:
            bad[x] = None
            wiped += 1
    got = decode(
        bad, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
    )
    assert got == fine


def test_decode_requires_cover():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    with pytest.raises(InvalidParamsError):
        decode(alpha, beta, (), tower.theta, codebook, radius, params.blocks)


def test_decode_refuses_labelings_of_the_wrong_length():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    for a, b in ((alpha[:-1], beta), (alpha, beta[:-1])):
        with pytest.raises(InvalidParamsError, match="one label per point"):
            decode(a, b, tower.transversal, tower.theta, codebook, radius, params.blocks)


def test_decode_refuses_alpha_labels_outside_the_target_alphabet():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    assert 7 not in params.blocks.block_of()
    bad = [7] + list(alpha[1:])
    with pytest.raises(InvalidPartitionError, match="target alphabet"):
        decode(bad, beta, tower.transversal, tower.theta, codebook, radius, params.blocks)


def test_one_word_type_from_the_fiber_to_the_decoder(monkeypatch):
    # every word the pipeline holds is bytes, so a book or decoder that
    # brings back a second word type fails here
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    assert codebook.packing and all(type(w) is bytes for w in codebook.packing)
    for b, fiber in codebook.books:
        assert type(b) is bytes and type(fiber[len(fiber) - 1]) is bytes
        assert all(type(w) is bytes and type(fiber[fiber.index(w)]) is bytes for w in fiber)
    plan, _ = encode_names(tower, fine, beta, codebook, r=params.r, delta=params.delta)
    assert all(type(w) is bytes for w in plan.codewords)
    prefixes = []
    observe = recoder._observed_prefix

    def observed(*args):
        prefixes.append(observe(*args))
        return prefixes[-1]

    monkeypatch.setattr(recoder, "_observed_prefix", observed)
    cells_q, _ = synthesize_prepartition(plan, params)
    assert len(prefixes) == len(tower.transversal)  # the name-distance record's prefixes
    cells_p = refine_to_p(sysn, cells_q, params)
    label_of = {x: i for i, cell in enumerate(cells_p) for x in cell}
    alpha = [label_of.get(x) for x in range(sysn.n_points)]
    radius = codebook.separation() / 2
    got = decode(alpha, beta, tower.transversal, tower.theta, codebook, radius, params.blocks)
    assert got == fine
    assert len(prefixes) == 2 * len(tower.transversal)
    assert all(type(p) is bytes for p in prefixes)


# ---------------------------------------------------------------------------
# the full pipeline


@pytest.mark.parametrize("entry", FAMILY, ids=[e[0] for e in FAMILY])
def test_krieger_recode_family(entry):
    sysn, xi, falg, params, kwargs = build(entry)
    alpha, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
    assert cert["decode"]["status"] == "exact"
    assert cert["masses"]["exact"]
    assert cert["algebra"]["refines_xi"]
    assert cert["assisted_decode"] is True
    for ineq in cert["inequalities"]:
        assert ineq["holds"], ineq["name"]
    assigned = [i for i in alpha if i is not None]
    assert F(len(assigned), sysn.n_points) == F(params.r)
    for i, w in enumerate(params.p.weights):
        assert F(alpha.count(i), sysn.n_points) == F(params.r) * w
    assert json.dumps(cert, sort_keys=True)


def test_krieger_reserved_point_stays_unassigned():
    sysn, xi, falg, params, kwargs = build(FAMILY[2])
    alpha, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
    assert alpha[5] is None
    assert cert["params"]["reserved"] == [5]


def test_krieger_entropy_precondition():
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    with pytest.raises(InvalidParamsError):
        krieger_recode(sysn, xi, falg, rebuilt(params, r=F(1, 12)), **kwargs)


def test_krieger_budget_gate():
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    with pytest.raises(CapacityError) as err:
        krieger_recode(sysn, xi, falg, rebuilt(params, delta=F(1, 4)), **kwargs)
    assert err.value.inequality == "decoder-budget"


def test_krieger_tolerance_scan_recorded():
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    kwargs["tower_eps"] = None
    alpha, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
    assert [s["ok"] for s in cert["scan"]] == [False, False, False, True]
    assert cert["scan"][-1]["m"] == 24
    assert cert["decode"]["status"] == "exact"


def test_krieger_rejects_nonpositive_m():
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    kwargs["m"] = 0
    with pytest.raises(InvalidParamsError) as err:
        krieger_recode(sysn, xi, falg, params, **kwargs)
    assert err.value.constraint == "m >= 1"


def test_krieger_rejects_factor_of_wrong_length():
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    short = GAlgebra(falg.labels[:-1])
    with pytest.raises(InvalidParamsError) as err:
        krieger_recode(sysn, xi, short, params, **kwargs)
    assert err.value.constraint == "F lives on the points"


# krieger_recode's stages in their order, and the records each one returns
# beside its values; the certificate lists "entropy-precondition" first
STAGES = ("join_factor", "scan_towers", "recode_codebook", "encode_names", "decoder_budget",
          "synthesize_prepartition", "refine_to_p", "decode", "theta_algebra")
RECORDS = {
    "encode_names": ("reserved-density", "trim-bound"),
    "decoder_budget": ("decoder-budget",),
    "synthesize_prepartition": ("name-distance", "claimed-margin"),
}


@pytest.mark.parametrize("entry", FAMILY, ids=[e[0] for e in FAMILY])
def test_each_record_is_built_once_by_the_stage_that_decides_it(entry, monkeypatch):
    calls, returned, margins = [], {}, []

    def recorded(name, stage):
        def run(*args, **kwargs):
            calls.append(name)
            out = stage(*args, **kwargs)
            returned[name] = tuple(out[1]) if name in RECORDS else ()
            return out
        return run

    # the stages are looked up by their module names when they run
    for name in STAGES:
        monkeypatch.setattr(recoder, name, recorded(name, getattr(recoder, name)))
    margin = recoder.RecodePlan.claimed_margin

    def counted(plan, params):
        margins.append(plan)
        return margin(plan, params)

    monkeypatch.setattr(recoder.RecodePlan, "claimed_margin", counted)
    sysn, xi, falg, params, kwargs = build(entry)
    _, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
    assert calls == list(STAGES)
    assert len(margins) == 1
    for name in STAGES:
        assert [r["name"] for r in returned[name]] == list(RECORDS.get(name, ())), name
    opening, *rest = cert["inequalities"]
    assert opening["name"] == "entropy-precondition"
    listed = [r for name in STAGES for r in returned[name]]
    assert rest == listed
    assert all(a is b for a, b in zip(rest, listed))  # the records themselves, built once
    assert len({id(r) for r in [opening, *listed]}) == len(cert["inequalities"])


def test_krieger_recode_builds_only_the_opening_record():
    tree = ast.parse(textwrap.dedent(inspect.getsource(recoder.krieger_recode)))
    built = [
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "inequality"
    ]
    assert built == ["entropy-precondition"]


@pytest.mark.parametrize(
    "reserved, constraint",
    [((True,), "holds int"), ((5.0,), "holds int"), (("a",), "holds int"), ((None,), "holds int"),
     (5, "holds int"), (([5],), "holds int"), ((-1,), "lives on"), ((32,), "lives on")],
    ids=repr,
)
def test_reserved_points_are_int_points_by_name(reserved, constraint):
    sysn, xi, falg, params, kwargs = build(FAMILY[2])
    with pytest.raises(InvalidParamsError) as err:
        krieger_recode(sysn, xi, falg, params, **{**kwargs, "reserved": reserved})
    assert err.value.constraint == {
        "holds int": "reserved holds int points", "lives on": "reserved lives on the points",
    }[constraint]


@pytest.mark.parametrize("bad", [[0], None, "a"], ids=repr)
def test_labels_that_do_not_sort_are_refused_by_name(bad):
    # an unhashable label reached cond_entropy, canon_labels and the join's
    # set; a None or str among ints reached the join's sort
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    xi = (bad,) + xi[1:]
    for call in (
        lambda: krieger_recode(sysn, xi, falg, params, **kwargs),
        lambda: reduce_alphabet(sysn, xi, falg, F(1, 2)),
        lambda: join_factor(xi, falg),
    ):
        with pytest.raises(InvalidPartitionError, match="^labels are hashable and mutually ordered$"):
            call()


@pytest.mark.parametrize(
    "reserved, constraint",
    [([[0]], "holds int"), ((True,), "holds int"), ((1.0,), "holds int"), ((99,), "lives on")],
    ids=repr,
)
def test_reserved_positions_are_int_points_by_name(reserved, constraint):
    # choose_J reads its reserved positions as encode_names reads its reserved
    # points; True and 1.0 reserved position 1 and 99 was ignored
    word, half = bytes([0] * 6 + [1] * 4), ProbVec((F(1, 2), F(1, 2)))
    with pytest.raises(InvalidParamsError) as err:
        choose_J(word, reserved, F(3, 10), 0, half)
    assert err.value.constraint == {
        "holds int": "reserved holds int points", "lives on": "reserved lives on the points",
    }[constraint]


WORD_5 = "words are sequences of symbols: word=5"


def decode_with(label=None, Y=None):
    """``decode`` on the first family instance, with its first alpha label
    or its transversal replaced."""
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    alpha = alpha if label is None else [label] + alpha[1:]
    Y = tower.transversal if Y is None else Y
    return decode(alpha, beta, Y, tower.theta, codebook, radius, params.blocks)


def recode_with(xi):
    sysn, _, falg, params, kwargs = build(FAMILY[0])
    return krieger_recode(sysn, xi, falg, params, **kwargs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_tower(build(FAMILY[0])[0], 5, 2), "one label per point"),
        (lambda: recode_with(5), "one label per point"),
        (lambda: decode_with(label=[1]), "labels are hashable"),
        (lambda: decode_with(Y=5), "Y holds int points"),
        (lambda: join_factor(5, GAlgebra((0,) * 4)), "one label per point"),
        (lambda: choose_J(5, (), F(3, 10), 0, FEAS_Q), WORD_5),
        (lambda: is_typical(5, TypicalSpec(FEAS_Q, 0, 4)), WORD_5),
        (lambda: Fiber(TypicalSpec(FEAS_Q, 0, 4), Coarsening(((0,), (1,)), 2), 5), WORD_5),
        (lambda: dbar(5, (0, 1)), WORD_5),
        (lambda: Fiber(TypicalSpec(FEAS_Q, 0, 4), Coarsening(((0, 1),), 2), bytes(4)).index(5),
         WORD_5),
    ],
    ids=["build_tower", "krieger_recode", "decode-alpha", "decode-Y", "join_factor", "choose_J",
         "is_typical", "Fiber", "dbar", "Fiber.index"],
)
def test_labelings_and_transversals_are_read_by_name(call, message):
    # each raised a bare TypeError: an int is no labeling, no point set and
    # no word, and a list label reached decode's alphabet check
    with pytest.raises(FingenError, match=f"^{message}$"):
        call()


@st.composite
def small_recode_instances(draw):
    """A cyclic system of at most 30 points with a mod-d factor broken at up
    to three exception points, a random 3-symbol target split into a pair
    block and a single block, and r <= 1/2, so the codeword length stays at
    most 15.  Half the draws lean towards instances that can succeed: an
    even size of 18 or more, few exceptions, r = 1/2, balanced blocks and
    the default tower scan."""
    lean = draw(st.booleans())
    n = draw(st.sampled_from(range(18, 31, 2)) if lean else st.integers(4, 30))
    d = draw(st.sampled_from([v for v in ((2, 3) if lean else (1, 2, 3, 4)) if n % v == 0]))
    size = draw(st.integers(0, 1 if lean else 3))
    exc = set(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)))
    xi = tuple(d if x in exc else x % d for x in range(n))
    falg = GAlgebra(tuple(x % d for x in range(n)))
    r = F(1, 2) if lean else draw(st.sampled_from((F(1, 2), F(2, 5), F(1, 3), F(1, 4), F(1, 6))))
    # point counts of the three target cells, integral whenever r n is
    total = int(r * n) if (r * n).denominator == 1 and r * n >= 3 else 12
    pair = total // 2 if lean else draw(st.integers(2, total - 1))
    first = draw(st.integers(1, pair - 1))
    a, b, c = draw(st.permutations(range(3)))
    counts = {a: first, b: pair - first, c: total - pair}
    p = ProbVec(tuple(F(counts[i], total) for i in range(3)))
    blocks = draw(st.sampled_from((((a, b), (c,)), ((c,), (a, b)))))
    delta = draw(st.sampled_from((F(1, 8), F(1, 10)) + (() if lean else (F(1, 6),))))
    params = RecodeParams(p, Coarsening(blocks, 3), r, delta, 0)
    divisors = [v for v in range(1, n + 1) if n % v == 0]
    kwargs = {
        "tower_eps": None if lean else draw(st.none() | st.sampled_from((2, F(5, 2), F(7, 2)))),
        "m": None if lean else draw(st.none() | st.sampled_from([0] + divisors)),
        "reserved": tuple(draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))),
    }
    pack_delta = draw(st.none() | st.sampled_from((F(1, 100), F(1, 200), F(3, 400))))
    if pack_delta is not None:
        kwargs["pack_delta"] = pack_delta
    return FiniteSystem.cyclic(n), xi, falg, params, kwargs


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_recode_instances())
def test_recode_decodes_exactly_or_fails_by_name(instance):
    sysn, xi, falg, params, kwargs = instance
    try:
        _, cert = krieger_recode(sysn, xi, falg, params, **kwargs)
    except FingenError:
        return
    assert cert["decode"]["status"] == "exact"
    assert cert["masses"]["exact"] is True


# ---------------------------------------------------------------------------
# exhaustive search oracle


def recursive_growth_strings(n, k_max):
    # reference: the plain recursive walk over restricted growth strings
    out = []
    labels = [0] * n

    def rec(i, top):
        if i == n:
            out.append(tuple(labels))
            return
        for v in range(min(top + 1, k_max - 1) + 1):
            labels[i] = v
            rec(i + 1, max(top, v))

    rec(1 if n else 0, 0)
    return out


def is_growth_string(labels):
    top = -1
    for v in labels:
        if v > top + 1:
            return False
        top = max(top, v)
    return True


def test_growth_strings_match_recursive_walk():
    # against the growth strings filtered from every label tuple, which
    # product lists in lexicographic order
    for n in range(7):
        for k_max in range(1, n + 2):
            every = product(range(min(n, k_max)), repeat=n)
            assert recursive_growth_strings(n, k_max) == list(filter(is_growth_string, every))
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
    for n in range(9):
        assert len(recursive_growth_strings(n, n + 1)) == bell[n]


def bell_walk_search(sys, k_max):
    # reference: the exhaustive walk over all Bell(N) partitions; ties keep
    # the witness whose cells, ordered by size then least element, come first
    npts = sys.n_points
    if npts > 10:
        raise InvalidParamsError("N <= 10 for exhaustive partition search")
    if k_max < 1:
        raise InvalidParamsError("k_max >= 1")
    best_h = math.inf
    best: tuple | None = None
    for labels in recursive_growth_strings(npts, k_max):
        if len(generated_algebra(sys, labels)) != npts:
            continue
        cells = label_cells(labels)
        h = entropy(ProbVec(tuple(sys.total_weight(c) for c in cells)))
        witness = tuple(sorted(cells, key=lambda c: (len(c), c)))
        if h < best_h - 1e-12 or (abs(h - best_h) <= 1e-12 and witness < best):
            best_h, best = h, witness
    return best_h, best


def random_transitive_system(rng, n):
    # two uniform permutations, redrawn until they act transitively
    while True:
        gens = {name: rng.sample(range(n), n) for name in ("a", "b")}
        try:
            return FiniteSystem.make(n, gens)
        except InvalidParamsError:
            continue


def closed_form(n):
    return entropy(ProbVec((F(1, n), F(n - 1, n)))), ((0,), tuple(range(1, n)))


def test_oracle_closed_form_matches_bell_walk():
    rng = random.Random(0x0EAC1E)
    cases = [(FiniteSystem.cyclic(n), range(1, n + 2)) for n in range(1, 9)]
    cases.append((FiniteSystem.cyclic(9), (1, 2, 9)))
    cases += [
        (random_transitive_system(rng, n), range(1, n + 2))
        for n in range(3, 9) for _ in range(3 if n <= 6 else 1)
    ]
    for sysn, k_maxes in cases:
        for k_max in k_maxes:
            h, witness = brute_force_generator_search(sysn, k_max)
            h_ref, witness_ref = bell_walk_search(sysn, k_max)
            assert h.hex() == h_ref.hex(), (sysn.n_points, k_max)
            assert witness == witness_ref, (sysn.n_points, k_max)


def test_brute_force_one_three_split():
    s4 = FiniteSystem.cyclic(4)
    h, witness = brute_force_generator_search(s4, 4)
    assert abs(h - (2 * math.log(2) - 0.75 * math.log(3))) < 1e-9
    assert witness == ((0,), (1, 2, 3))
    h2, w2 = brute_force_generator_search(s4, 2)
    assert h2 == h and w2 == witness


def test_brute_force_small_systems():
    h, witness = brute_force_generator_search(FiniteSystem.cyclic(2), 2)
    assert abs(h - math.log(2)) < 1e-12
    assert witness == ((0,), (1,))
    h1, w1 = brute_force_generator_search(FiniteSystem.cyclic(1), 1)
    assert h1 == 0.0 and w1 == ((0,),)
    none_h, none_w = brute_force_generator_search(FiniteSystem.cyclic(2), 1)
    assert none_h == math.inf and none_w is None


def test_brute_force_guards(monkeypatch):
    calls = []

    def counted(sys, labels):
        calls.append(labels)
        return generated_algebra(sys, labels)

    monkeypatch.setattr(recoder, "generated_algebra", counted)
    big = (
        FiniteSystem.cyclic(11),
        FiniteSystem.cyclic(1000),
        random_transitive_system(random.Random(500), 500),
    )
    for sysn in big:
        for k_max in (2, sysn.n_points):
            calls.clear()
            assert brute_force_generator_search(sysn, k_max) == closed_form(sysn.n_points)
            assert len(calls) == 1  # one certificate check per search
    with pytest.raises(InvalidParamsError):
        brute_force_generator_search(FiniteSystem.cyclic(4), 0)
    # a witness that fails its check is refused by name, not returned
    monkeypatch.setattr(recoder, "generated_algebra", lambda sys, labels: GAlgebra(labels))
    with pytest.raises(InvalidParamsError, match="generators act transitively"):
        brute_force_generator_search(FiniteSystem.cyclic(4), 2)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 6))
def test_brute_force_witness_consistency(n):
    sysn = FiniteSystem.cyclic(n)
    h, witness = brute_force_generator_search(sysn, n)
    assert witness is not None
    assert len(generated_algebra(sysn, membership(n, witness))) == n
    hw = entropy(ProbVec(tuple(sysn.total_weight(c) for c in witness)))
    assert abs(h - hw) < 1e-12
    h2, _ = brute_force_generator_search(sysn, 2)
    assert h <= h2 + 1e-12

import json
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recode_instances import FAMILY, build, pipeline_parts

from fingen.errors import (
    AtypicalNameError,
    CapacityError,
    DecodeError,
    DivisibilityError,
    FingenError,
    InvalidParamsError,
    InvalidPartitionError,
)
from fingen.probvec import Coarsening, ProbVec, cond_entropy, entropy
from fingen.recoder import (
    RecodeParams,
    brute_force_generator_search,
    decode,
    encode_names,
    krieger_recode,
    reduce_alphabet,
    refine_to_p,
    synthesize_prepartition,
    theta_algebra,
)
from fingen.system import FiniteSystem, GAlgebra, PseudoMap, generated_algebra
from fingen.tower import build_tower
from fingen.typical import PackingBudget, build_injections


def cells_of(labels):
    out = {}
    for x, c in enumerate(labels):
        out.setdefault(c, []).append(x)
    return [tuple(v) for v in out.values()]


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


# ---------------------------------------------------------------------------
# translate fixpoint of a single map


def test_theta_algebra_translation_by_three():
    s6 = FiniteSystem.cyclic(6)
    rot3 = PseudoMap.from_word(s6, ("r",) * 3)
    alg = theta_algebra(rot3, [(0, 1)])
    assert alg.cells == ((0, 1), (2, 5), (3, 4))


def test_theta_algebra_full_shift_separates():
    s6 = FiniteSystem.cyclic(6)
    shift = PseudoMap.from_word(s6, ("r",))
    assert len(theta_algebra(shift, [(0,)])) == 6


# ---------------------------------------------------------------------------
# alphabet reduction


def reduce_postconditions(sysn, xi, falg, eps, alpha, plan):
    ga = generated_algebra(sysn, cells_of(alpha) + cells_of(falg.labels))
    gx = generated_algebra(sysn, cells_of(xi) + cells_of(falg.labels))
    assert ga.labels == gx.labels
    h_a = cond_entropy(alpha, falg.labels, sysn.weights.weights)
    h_x = cond_entropy(xi, falg.labels, sysn.weights.weights)
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
    h_a = cond_entropy(alpha, falg.labels, s12.weights.weights)
    h_x = cond_entropy(xi, falg.labels, s12.weights.weights)
    assert abs(h_a - h_x) < 1e-12
    reduce_postconditions(s12, xi, falg, F(1, 2), alpha, plan)


def test_reduce_over_discrete_factor_collapses():
    s6 = FiniteSystem.cyclic(6)
    xi = (0, 1, 0, 2, 1, 0)
    falg = GAlgebra(tuple(range(6)))
    alpha, plan = reduce_alphabet(s6, xi, falg, F(1, 2))
    assert len(set(alpha)) == 1
    assert cond_entropy(alpha, falg.labels, s6.weights.weights) == 0.0
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


def test_reduce_explicit_delta_and_cutoff():
    s = FiniteSystem.cyclic(250)
    xi = heavy_tail_labeling()
    falg = GAlgebra((0,) * 250)
    auto_alpha, auto_plan = reduce_alphabet(s, xi, falg, 1)
    alpha, plan = reduce_alphabet(s, xi, falg, 1, delta=F(1, 5), cutoff=3)
    assert alpha == auto_alpha and plan.cutoff == auto_plan.cutoff
    with pytest.raises(InvalidParamsError):
        reduce_alphabet(s, xi, falg, 1, cutoff=9)
    with pytest.raises(InvalidParamsError):
        reduce_alphabet(s, xi, falg, 1, cutoff=2)  # tail still too heavy
    with pytest.raises(InvalidParamsError):
        reduce_alphabet(s, xi, falg, 1, delta=F(1, 3))
    with pytest.raises(InvalidParamsError):
        reduce_alphabet(s, xi, falg, F(1, 10), delta=F(1, 5))


def test_reduce_requires_invariant_factor():
    s12 = FiniteSystem.cyclic(12)
    xi = tuple(x % 2 for x in range(12))
    with pytest.raises(InvalidPartitionError):
        reduce_alphabet(s12, xi, GAlgebra((0,) * 11 + (1,)), 1)


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
        assert part.mapping(b) == full.mapping(b)


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
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    classes = len(tower.transversal)
    assert len(plan.b_words) == len(plan.codewords) == classes
    for i in range(classes):
        assert not set(plan.m_idx[i]) & set(plan.j_idx[i])
    assert plan.budget() == F(1, 6)
    for t, z in enumerate(plan.zeta):
        assert F(len(z), sysn.n_points) < params.r * params.q.weights[t]
    assert json.dumps(plan.to_json())


def test_encode_names_reserved_indices_tracked():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[2])
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta, reserved=(5,)
    )
    assert sum(len(m) for m in plan.m_full) == 1
    claimed = set().union(*map(set, plan.zeta))
    assert 5 not in claimed


def test_encode_names_atypical_fine_name():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    broken = list(fine)
    broken[3] = fine[0]  # a second exception point skews the fiber counts
    with pytest.raises(AtypicalNameError):
        encode_names(
            sysn, tower, tuple(broken), beta, codebook, r=params.r, delta=params.delta
        )


def test_encode_names_atypical_coarse_name():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    broken = list(beta)
    broken[1] = 1 - broken[1]
    with pytest.raises(AtypicalNameError):
        encode_names(
            sysn, tower, fine, tuple(broken), codebook, r=params.r, delta=params.delta
        )


def test_encode_names_reserved_density_gate():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    with pytest.raises(InvalidParamsError):
        encode_names(
            sysn, tower, fine, beta, codebook,
            r=params.r, delta=params.delta, reserved=(1, 2, 3),
        )


def test_synthesize_and_refine_exact_masses():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    cells_q = synthesize_prepartition(plan, params)
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
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    extra = next(x for x in range(sysn.n_points) if x not in plan.zeta[0])
    packed = replace(plan, zeta=(plan.zeta[0] + (extra,), plan.zeta[1]))
    with pytest.raises(InvalidParamsError):
        synthesize_prepartition(packed, params)


def test_synthesize_requires_integral_targets():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    with pytest.raises(DivisibilityError):
        synthesize_prepartition(plan, replace(params, r=F(1, 5)))


def test_refine_rejects_unbalanced_cells():
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(FAMILY[0])
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    cells_q = synthesize_prepartition(plan, params)
    bloated = (cells_q[0] + (cells_q[1][0],), cells_q[1])
    with pytest.raises(InvalidPartitionError):
        refine_to_p(sysn, bloated, params)


# ---------------------------------------------------------------------------
# decoding


def decoded_setup(entry):
    sysn, _, _, params, fine, beta, tower, codebook = pipeline_parts(entry)
    plan = encode_names(
        sysn, tower, fine, beta, codebook, r=params.r, delta=params.delta
    )
    cells_p = refine_to_p(sysn, synthesize_prepartition(plan, params), params)
    alpha = [None] * sysn.n_points
    for i, cell in enumerate(cells_p):
        for x in cell:
            alpha[x] = i
    radius = codebook.separation() / 2
    return sysn, params, fine, beta, tower, codebook, alpha, radius


def test_decode_roundtrip():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    got = decode(
        sysn, alpha, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
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
            sysn, bad, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
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
        sysn, bad, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
    )
    assert got == fine


def test_decode_requires_cover():
    sysn, params, fine, beta, tower, codebook, alpha, radius = decoded_setup(FAMILY[0])
    with pytest.raises(InvalidParamsError):
        decode(sysn, alpha, beta, (), tower.theta, codebook, radius, params.blocks)


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
        krieger_recode(sysn, xi, falg, replace(params, r=F(1, 12)), **kwargs)


def test_krieger_budget_gate():
    sysn, xi, falg, params, kwargs = build(FAMILY[0])
    with pytest.raises(CapacityError) as err:
        krieger_recode(sysn, xi, falg, replace(params, delta=F(1, 4)), **kwargs)
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


def test_brute_force_guards():
    with pytest.raises(InvalidParamsError):
        brute_force_generator_search(FiniteSystem.cyclic(11), 2)
    with pytest.raises(InvalidParamsError):
        brute_force_generator_search(FiniteSystem.cyclic(4), 0)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 6))
def test_brute_force_witness_consistency(n):
    sysn = FiniteSystem.cyclic(n)
    h, witness = brute_force_generator_search(sysn, n)
    assert witness is not None
    assert len(generated_algebra(sysn, witness)) == n
    hw = entropy(ProbVec(tuple(sysn.total_weight(c) for c in witness)))
    assert abs(h - hw) < 1e-12
    h2, _ = brute_force_generator_search(sysn, 2)
    assert h <= h2 + 1e-12

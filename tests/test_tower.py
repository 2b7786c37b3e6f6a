import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from fingen import system, tower
from fingen.errors import DivisibilityError, InvalidParamsError, InvalidPartitionError
from fingen.probvec import canon_labels, label_cells
from fingen.system import FiniteSystem, PseudoMap
from fingen.tower import Tower, admissible_m, audit_tower, build_tower
from test_acceptance import TOWER_CASES
from test_records import rebuilt

Z60 = FiniteSystem.cyclic(60)
ALPHA60 = tuple(0 if x < 30 else 1 for x in range(60))


def assert_all_ok(report: dict):
    for key, val in report.items():
        if isinstance(val, bool):
            assert val, key


def test_smallest_admissible_m():
    tw = build_tower(Z60, ALPHA60, 2, 1)
    assert tw.m == 20
    for cand in range(1, 20):
        if 60 % cand == 0:
            assert admissible_m(60, 2, F(2), 1, cand) is not None


def test_named_constraint_violations():
    assert admissible_m(60, 2, F(2), 1, 7) == "m divides N"
    assert admissible_m(60, 2, F(1, 10), 1, 20) == "m > 4/eps"
    assert admissible_m(60, 2, F(2), 30, 20) == "m > Nmin"
    assert admissible_m(60, 2, F(2), 1, 12) == "cells * log2(m+1) < (eps/4) * m"
    assert admissible_m(60, 2, F(39, 10), 1, 20) == "ell < m"
    with pytest.raises(InvalidParamsError):
        build_tower(Z60, ALPHA60, 2, 1, m=7)
    with pytest.raises(DivisibilityError):
        build_tower(FiniteSystem.cyclic(300), ALPHA60 * 5, F(1, 100), 10)


def test_divisibility_error_names_its_constraint():
    with pytest.raises(DivisibilityError) as err:
        build_tower(FiniteSystem.cyclic(7), tuple(x % 2 for x in range(7)), 2, 1)
    assert err.value.constraint == "no admissible column count m"
    assert str(err.value) == "no admissible column count m: N=7 eps=2 nmin=1"


def test_nonpositive_m_is_a_named_constraint():
    assert admissible_m(60, 2, F(2), 1, 0) == "m >= 1"
    for m in (0, -3):
        with pytest.raises(InvalidParamsError) as err:
            build_tower(Z60, ALPHA60, 2, 1, m=m)
        assert err.value.constraint == "m >= 1"


def test_audit_z60():
    tw = build_tower(Z60, ALPHA60, 2, 1)
    rep = audit_tower(tw)
    assert_all_ok(rep)
    assert rep["side_weight"] < F(2)
    assert rep["freq_deviation"] <= F(2)


def test_trivial_labeling_empty_side_channel():
    tw = build_tower(Z60, (0,) * 60, 2, 1)
    assert tw.s2 == ()
    assert len(tw.profiles) == 1
    assert_all_ok(audit_tower(tw))


def test_tower_shape_and_orbits():
    tw = build_tower(Z60, ALPHA60, 2, 1)
    assert tw.n == tw.k * tw.m
    assert len(tw.s1) == 60 // tw.m
    assert len(tw.column(0)) == tw.m
    classes = tw.classes()
    assert len(classes) * tw.n == 60
    assert sorted(x for cl in classes for x in cl) == list(range(60))


def test_profile_roundtrip_and_errors():
    tw = build_tower(Z60, ALPHA60, 2, 1)
    for s in tw.s1:
        assert tw.decode_profile(s) == tw.profile_of(s)
    with pytest.raises(InvalidParamsError):
        tw.decode_profile(1)


def test_irregular_labeling_profiles():
    z300 = FiniteSystem.cyclic(300)
    marks = {0, 1, 2, 7, 11, 40, 41, 42, 43, 90, 91, 150, 151, 152, 153, 154, 200, 201, 250}
    alpha = tuple(1 if x in marks else 0 for x in range(300))
    tw = build_tower(z300, alpha, F(2), 5)
    assert len(tw.profiles) > 1
    assert tw.s2
    assert_all_ok(audit_tower(tw))


def test_explicit_m_override():
    tw = build_tower(Z60, ALPHA60, F(5, 2), 1, m=30)
    assert tw.m == 30
    assert_all_ok(audit_tower(tw))


def test_several_systems_audit():
    cases = [
        (FiniteSystem.cyclic(120), tuple(x % 3 for x in range(120)), F(3, 2), 10),
        (FiniteSystem.cyclic(180), tuple((x // 5) % 2 for x in range(180)), F(1), 20),
        (FiniteSystem.cyclic(90), tuple(0 if x % 9 < 4 else 1 for x in range(90)), F(2), 5),
    ]
    for sys, alpha, eps, nmin in cases:
        tw = build_tower(sys, alpha, eps, nmin)
        rep = audit_tower(tw)
        assert_all_ok(rep)
        assert rep["side_weight"] < eps
        assert rep["freq_deviation"] <= eps
        assert tw.n >= nmin


@pytest.mark.parametrize(
    "alpha, eps, nmin, m, error, constraint",
    [
        (("a",) * 30 + (1,) * 30, 2, 1, None, InvalidPartitionError, None),
        ((None,) + ALPHA60[1:], 2, 1, None, InvalidPartitionError, None),
        (ALPHA60, 2, 1, 20.0, InvalidParamsError, "m is an integer"),
        (ALPHA60, 2, "1", None, InvalidParamsError, "nmin is an integer"),
        (ALPHA60, 2, True, None, InvalidParamsError, "nmin is an integer"),
        (ALPHA60, 2, None, None, InvalidParamsError, "nmin is an integer"),
        (ALPHA60, float("nan"), 1, None, InvalidParamsError, "eps is a rational number"),
        (ALPHA60, float("inf"), 1, None, InvalidParamsError, "eps is a rational number"),
    ],
    ids=[
        "mixed-labels", "none-label", "float-m", "string-nmin", "bool-nmin", "none-nmin",
        "nan-eps", "inf-eps",
    ],
)
def test_build_tower_names_malformed_arguments(alpha, eps, nmin, m, error, constraint):
    with pytest.raises(error) as err:
        build_tower(Z60, alpha, eps, nmin, m)
    assert type(err.value) is error
    assert getattr(err.value, "constraint", None) == constraint


@pytest.mark.parametrize(
    "eps, nmin, m, constraint",
    [
        (2, 1, 20.0, "m is an integer"),
        (2, "1", 20, "nmin is an integer"),
        (2, True, 20, "nmin is an integer"),
        (2, 1, None, "m is an integer"),
        (2, None, 20, "nmin is an integer"),
        (float("nan"), 1, 20, "eps is a rational number"),
    ],
    ids=["float-m", "string-nmin", "bool-nmin", "none-m", "none-nmin", "nan-eps"],
)
def test_admissible_m_names_malformed_arguments(eps, nmin, m, constraint):
    with pytest.raises(InvalidParamsError) as err:
        admissible_m(60, 2, eps, nmin, m)
    assert err.value.constraint == constraint


def test_build_tower_checks_its_arguments_once(monkeypatch):
    # the search for m tries every divisor of N but reads each argument once
    calls = []
    for name in ("rational", "integer"):
        reader = getattr(tower, name)
        counted = lambda *args, reader=reader: calls.append(args) or reader(*args)
        monkeypatch.setattr(tower, name, counted)
    assert build_tower(Z60, ALPHA60, 2, 1).m == 20
    assert calls == [("eps", 2), ("nmin", 1)]
    calls.clear()
    assert build_tower(Z60, ALPHA60, 2, 1, 20).m == 20
    assert calls == [("eps", 2), ("nmin", 1), ("m", 20)]


def without(pm: PseudoMap, points) -> PseudoMap:
    """The map with the pairs that start at the given points dropped."""
    drop = set(points)
    keep = [(p, mv) for p, mv in zip(pm.pairs, pm.moves) if p[0] not in drop]
    return PseudoMap(pm.system, tuple(p for p, _ in keep), tuple(mv for _, mv in keep))


def test_audit_reports_broken_towers_as_false():
    # one postcondition broken at a time; the reference audit raises on each
    # of these towers, so the reports are pinned as they are
    tw = build_tower(FiniteSystem.cyclic(120), tuple(x % 2 for x in range(120)), 2, 1, 20)
    rt = build_tower(FiniteSystem.cyclic(132), RATCOMB_ALPHA, 3, 1, 11)
    assert (tw.transversal, rt.column(0)[2]) == ((0, 20, 40, 60, 80, 100), 131)
    whole = {
        "theta_order": True, "class_sizes": True, "classes_cover": True,
        "h_partitions": True, "side_weight": F(1, 20), "side_weight_ok": True,
        "freq_deviation": F(0), "freq_ok": True, "profile_roundtrip": True,
        "transversal_ok": True,
    }
    assert audit_tower(tw) == whole
    # a transversal that misses the class of 0
    missed = rebuilt(tw, transversal=tw.transversal[1:])
    assert audit_tower(missed) == {**whole, "classes_cover": False}
    # theta without the pairs of the class of 0: the walk from 0 leaves at once
    gap = rebuilt(tw, theta=without(tw.theta, tw.classes()[0]))
    assert audit_tower(gap) == {
        **whole, "theta_order": False, "class_sizes": False, "classes_cover": False,
        "transversal_ok": False,
    }
    # h without the pairs of column 0: no column of m points above 0
    gap = rebuilt(tw, h=without(tw.h, tw.column(0)))
    assert audit_tower(gap) == {**whole, "h_partitions": False, "profile_roundtrip": False}
    # an extra S2 mark at level 2 of column 0 spells rank 2, past the 2-profile table
    marked = rebuilt(rt, s2=tuple(sorted(rt.s2 + (131,))))
    with pytest.raises(InvalidParamsError, match="decoded rank outside the profile table"):
        marked.decode_profile(0)
    assert audit_tower(marked) == {
        **whole, "side_weight": F(1, 6), "freq_deviation": F(1, 44), "profile_roundtrip": False,
    }


def test_audit_flags_theta_of_the_wrong_order():
    # one 120-cycle through every point, against classes of n = 20
    z120 = FiniteSystem.cyclic(120)
    tw = build_tower(z120, tuple(x % 2 for x in range(120)), 2, 1, 20)
    shift = PseudoMap(z120, tuple((x, (x + 1) % 120) for x in range(120)), ((0, 1),) * 120)
    assert tw.n == 20
    assert audit_tower(rebuilt(tw, theta=shift))["theta_order"] is False


def test_tower_checks_each_map_once(monkeypatch):
    # the m-1 column matchings are sweeps with no checked map of their own;
    # h and v are constructed and checked, and theta = h then v evaluates
    # only the moves it reroutes: for cyclic(120), m=20 no simplemix call,
    # 2 constructed maps, and point evaluations h 120, v 6 and theta 6, the
    # column tops
    sweeps = []
    checks = []
    evaluated = []
    check = PseudoMap.__post_init__
    sweep = system.simplemix
    evaluate = system._check_moves

    def counted_check(self):
        checks.append(1)
        check(self)

    def counted_sweep(*args):
        sweeps.append(1)
        return sweep(*args)

    def counted_evaluate(enum, xs, moves, fwd):
        evaluated.append(len(xs))
        evaluate(enum, xs, moves, fwd)

    monkeypatch.setattr(PseudoMap, "__post_init__", counted_check)
    monkeypatch.setattr(system, "simplemix", counted_sweep)
    monkeypatch.setattr(system, "_check_moves", counted_evaluate)
    tw = build_tower(FiniteSystem.cyclic(120), tuple(x % 2 for x in range(120)), 2, 1, 20)
    assert len(sweeps) == 0
    assert len(checks) == 2
    assert evaluated == [120, 6, 6]
    assert len(tw.s1) == 6


class CountedDict(dict):
    """A dict that counts its lookups, by get, [] or in."""

    reads = 0

    def get(self, key, default=None):
        CountedDict.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        CountedDict.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        CountedDict.reads += 1
        return super().__contains__(key)


def counted_map(pm: PseudoMap) -> PseudoMap:
    """A copy of pm whose forward map counts its lookups."""
    out = object.__new__(PseudoMap)
    out.__dict__.update(vars(pm), _fwd=CountedDict(pm._fwd))
    return out


def test_audit_walks_each_map_once(monkeypatch):
    # one walk per column along h and one per class along theta: each reads
    # its map at most N times, and the audit calls nothing that walks again
    towers = [
        build_tower(FiniteSystem.cyclic(n), tuple(x % 2 for x in range(n)), 2, 1, 20)
        for n in (120, 480, 1920)
    ]
    reports = [audit_tower(tw) for tw in towers]

    def walks_again(*args):
        raise AssertionError("the audit walks a map again")

    for name in ("apply", "orbit"):
        monkeypatch.setattr(PseudoMap, name, walks_again)
    for name in ("classes", "column", "profile_of"):
        monkeypatch.setattr(Tower, name, walks_again)
    for tw, report in zip(towers, reports):
        n = tw.system.n_points
        for field in ("h", "theta"):
            CountedDict.reads = 0
            assert audit_tower(rebuilt(tw, **{field: counted_map(getattr(tw, field))})) == report
            assert 0 < CountedDict.reads <= n, (n, field, CountedDict.reads)


class CountedTuple(tuple):
    """A tuple that counts how often anything iterates it whole."""

    iterations = 0

    def __iter__(self):
        CountedTuple.iterations += 1
        return super().__iter__()


def test_audit_sweeps_do_not_grow_with_columns():
    # the cell list and the S1/S2 sets are built once per tower, not per column
    sweeps = []
    for n in (120, 480, 1920):
        tw = build_tower(FiniteSystem.cyclic(n), tuple(x % 2 for x in range(n)), 2, 1, 20)
        assert len(tw.s1) == n // 20
        counted = rebuilt(
            tw, alpha=CountedTuple(tw.alpha), s1=CountedTuple(tw.s1), s2=CountedTuple(tw.s2)
        )
        CountedTuple.iterations = 0
        assert audit_tower(counted) == audit_tower(tw)
        sweeps.append(CountedTuple.iterations)
    assert sweeps[0] == sweeps[1] == sweeps[2], sweeps


# cyclic(132), labels x % 5 == 0, eps 3, nmin 1, m 11: the one pinned tower
# whose classes come from avgmix's ratcomb route (k = 3, 4 classes, 2 profiles)
RATCOMB_ALPHA = tuple(x % 5 == 0 for x in range(132))
# theta as (image, move) for the points 0..131 in order
RATCOMB_THETA = (
    (1, (0, 1)), (131, (1, 2)), (130, (3, 4)), (129, (5, 6)), (128, (7, 8)), (127, (9, 10)),
    (22, (10, 0, 0, 21)), (16, (8, 9)), (15, (6, 7)), (14, (4, 5)), (13, (2, 3)), (12, (0, 1)),
    (10, (1, 2)), (9, (3, 4)), (8, (5, 6)), (7, (7, 8)), (6, (9, 10)), (33, (10, 0, 21, 43)),
    (27, (8, 9)), (26, (6, 7)), (25, (4, 5)), (24, (2, 3)), (23, (0, 1)), (21, (1, 2)),
    (20, (3, 4)), (19, (5, 6)), (18, (7, 8)), (17, (9, 10)), (11, (10, 0, 43, 0)), (38, (8, 9)),
    (37, (6, 7)), (36, (4, 5)), (35, (2, 3)), (34, (0, 1)), (32, (1, 2)), (31, (3, 4)),
    (30, (5, 6)), (29, (7, 8)), (28, (9, 10)), (99, (10, 0, 87, 66)), (49, (8, 9)),
    (48, (6, 7)), (47, (4, 5)), (46, (2, 3)), (45, (0, 1)), (43, (1, 2)), (42, (3, 4)),
    (41, (5, 6)), (40, (7, 8)), (39, (9, 10)), (66, (10, 0, 0, 21)), (60, (8, 9)), (59, (6, 7)),
    (58, (4, 5)), (57, (2, 3)), (56, (0, 1)), (54, (1, 2)), (53, (3, 4)), (52, (5, 6)),
    (51, (7, 8)), (50, (9, 10)), (88, (10, 0, 21, 65)), (71, (8, 9)), (70, (6, 7)),
    (69, (4, 5)), (68, (2, 3)), (67, (0, 1)), (65, (1, 2)), (64, (3, 4)), (63, (5, 6)),
    (62, (7, 8)), (61, (9, 10)), (121, (10, 0, 66, 21)), (82, (8, 9)), (81, (6, 7)),
    (80, (4, 5)), (79, (2, 3)), (78, (0, 1)), (76, (1, 2)), (75, (3, 4)), (74, (5, 6)),
    (73, (7, 8)), (72, (9, 10)), (55, (10, 0, 65, 0)), (93, (8, 9)), (92, (6, 7)), (91, (4, 5)),
    (90, (2, 3)), (89, (0, 1)), (87, (1, 2)), (86, (3, 4)), (85, (5, 6)), (84, (7, 8)),
    (83, (9, 10)), (0, (10, 0, 66, 0)), (104, (8, 9)), (103, (6, 7)), (102, (4, 5)),
    (101, (2, 3)), (100, (0, 1)), (98, (1, 2)), (97, (3, 4)), (96, (5, 6)), (95, (7, 8)),
    (94, (9, 10)), (77, (10, 0, 0, 66)), (115, (8, 9)), (114, (6, 7)), (113, (4, 5)),
    (112, (2, 3)), (111, (0, 1)), (109, (1, 2)), (108, (3, 4)), (107, (5, 6)), (106, (7, 8)),
    (105, (9, 10)), (110, (10, 0, 21, 0)), (126, (8, 9)), (125, (6, 7)), (124, (4, 5)),
    (123, (2, 3)), (122, (0, 1)), (120, (1, 2)), (119, (3, 4)), (118, (5, 6)), (117, (7, 8)),
    (116, (9, 10)), (44, (10, 0, 0, 87)), (5, (8, 9)), (4, (6, 7)), (3, (4, 5)), (2, (2, 3)),
)


def test_ratcomb_route_tower_is_pinned(monkeypatch):
    routes = []
    avgmix = tower.avgmix

    def traced(*args):
        mix = avgmix(*args)
        routes.append((mix.route, mix.n, len(mix.classes)))
        return mix

    monkeypatch.setattr(tower, "avgmix", traced)
    tw = build_tower(FiniteSystem.cyclic(132), RATCOMB_ALPHA, 3, 1, 11)
    assert routes == [("ratcomb", 3, 4)]
    assert (tw.k, tw.n, tw.ell, len(tw.profiles)) == (3, 33, 9, 2)
    assert tw.transversal == (0, 11, 55, 77)
    assert tw.s2 == (12, 23, 34, 45, 67, 78, 89, 100, 122)
    assert tw.theta.pairs == tuple(enumerate(y for y, _ in RATCOMB_THETA))
    assert tw.theta.moves == tuple(mv for _, mv in RATCOMB_THETA)
    assert_all_ok(audit_tower(tw))


def reference_audit(t: Tower) -> dict:
    """The audit counted with a Fraction per (class, cell) and a generator
    per cell, columns' profiles too: the reference for the integer counts."""
    sys = t.system
    n_pts = sys.n_points
    classes = t.classes()
    theta_order = all(t.n % len(cl) == 0 for cl in classes)
    class_sizes = all(len(cl) == t.n for cl in classes)
    covers = sorted(x for cl in classes for x in cl) == list(range(n_pts))
    level = list(t.s1)
    hseen = set(level)
    h_partitions = True
    for _ in range(t.m - 1):
        level = [t.h.apply(x) for x in level]
        if hseen & set(level):
            h_partitions = False
        hseen.update(level)
    h_partitions = h_partitions and len(hseen) == n_pts
    side_weight = sys.total_weight(t.s1) + sys.total_weight(t.s2)
    cells = t.cells
    global_freq = {c: F(sum(1 for x in t.alpha if x == c), n_pts) for c in cells}
    deviation = F(0)
    for cl in classes:
        for c in cells:
            f = F(sum(1 for x in cl if t.alpha[x] == c), len(cl))
            deviation = max(deviation, abs(f - global_freq[c]))

    def profile(s):
        col = t.column(s)
        return tuple(F(sum(1 for x in col if t.alpha[x] == c), t.m) for c in cells)

    assert all(t.profile_of(s) == profile(s) for s in t.s1)
    roundtrip = all(t.decode_profile(s) == profile(s) for s in t.s1)
    marks = set(t.transversal)
    transversal_ok = len(marks) == len(classes) and all(
        len(marks & set(cl)) == 1 for cl in classes
    )
    return {
        "theta_order": theta_order,
        "class_sizes": class_sizes,
        "classes_cover": covers,
        "h_partitions": h_partitions,
        "side_weight": side_weight,
        "side_weight_ok": side_weight < t.eps,
        "freq_deviation": deviation,
        "freq_ok": deviation <= t.eps,
        "profile_roundtrip": roundtrip,
        "transversal_ok": transversal_ok,
    }


def case_towers():
    for npts, lab, eps, nmin, m in TOWER_CASES:
        yield build_tower(FiniteSystem.cyclic(npts), tuple(map(lab, range(npts))), eps, nmin, m)
    yield build_tower(FiniteSystem.cyclic(132), RATCOMB_ALPHA, 3, 1, 11)


def test_theta_is_the_map_its_pairs_and_moves_construct():
    # h then v evaluates only the rerouted tops; the constructor, which
    # evaluates every pair, accepts the same pairs and moves and agrees
    for tw in case_towers():
        again = PseudoMap(tw.system, tw.theta.pairs, tw.theta.moves)
        assert again == tw.theta
        assert again.pairs == tw.theta.pairs and again.moves == tw.theta.moves
        assert again._fwd == tw.theta._fwd
        assert list(tw.theta._fwd) == [x for x, _ in tw.theta.pairs]


def test_integer_audit_matches_the_fraction_audit():
    deviations = set()
    for tw in case_towers():
        rep = audit_tower(tw)
        assert rep == reference_audit(tw)
        assert_all_ok(rep)
        assert type(rep["freq_deviation"]) is F
        deviations.add(rep["freq_deviation"])
    assert deviations == {0, F(1, 44)}  # the ratcomb tower's classes are off by 1/44


def test_integer_audit_matches_the_fraction_audit_on_failing_towers():
    # theta of the wrong order, as in test_audit_flags_theta_of_the_wrong_order
    z120 = FiniteSystem.cyclic(120)
    tw = build_tower(z120, tuple(x % 2 for x in range(120)), 2, 1, 20)
    shift = PseudoMap(z120, tuple((x, (x + 1) % 120) for x in range(120)), ((0, 1),) * 120)
    rep = audit_tower(rebuilt(tw, theta=shift))
    assert rep == reference_audit(rebuilt(tw, theta=shift))
    assert rep["theta_order"] is False
    # theta = x -> x+2: one class of the even points, one of the odd points
    skip = PseudoMap(z120, tuple((x, (x + 2) % 120) for x in range(120)), ((0, 3),) * 120)
    halves = rebuilt(tw, theta=skip, transversal=(0, 1))
    rep = audit_tower(halves)
    assert rep == reference_audit(halves)
    assert (rep["class_sizes"], rep["freq_deviation"]) == (False, F(1, 2))
    # classes of 10, 20 and 90 points holding 3, 8 and 1 of the 12 marked
    # points: the largest deviation, 3/10 in the middle class, has neither
    # the largest numerator nor the largest denominator
    enum = z120.group()
    step = {enum.image(i, 0): i for i in range(120) if enum.reach(i)}
    blocks = [range(0, 10), range(10, 30), range(30, 120)]
    cycle = [(b[k], b[(k + 1) % len(b)]) for b in blocks for k in range(len(b))]
    three = PseudoMap(z120, tuple(cycle), tuple((0, step[(y - x) % 120]) for x, y in cycle))
    marked = {0, 1, 2, *range(10, 18), 30}
    uneven = rebuilt(
        tw, theta=three, transversal=(0, 10, 30), alpha=tuple(int(x in marked) for x in range(120))
    )
    rep = audit_tower(uneven)
    assert rep == reference_audit(uneven)
    assert rep["freq_deviation"] == F(3, 10)
    # an S2 mark dropped: the column above it decodes rank 0, the other profile
    tw = build_tower(FiniteSystem.cyclic(132), RATCOMB_ALPHA, 3, 1, 11)
    flipped = rebuilt(tw, s2=tw.s2[1:])
    rep = audit_tower(flipped)
    assert rep == reference_audit(flipped)
    assert rep["profile_roundtrip"] is False


def reference_mix_args(t: Tower) -> tuple:
    """The (B, labels, eps) the tower's class stage took through a function
    per cell: each value row hashed once per function, the tolerance shrunk
    by the largest total amplitude, the reference for the column levels."""
    sysn = t.system
    B = tuple(sorted(set(t.s1)))
    funcs = {c: {s: t.profile_of(s)[j] for s in B} for j, c in enumerate(t.cells)}
    names = list(funcs)
    values = [tuple(F(funcs[f][x]) for f in names) for x in B]
    level = dict(zip(B, canon_labels(values)))
    labels = tuple(level[x] + 1 if x in level else 0 for x in range(sysn.n_points))
    scale = F(0)
    for i, _ in enumerate(names):
        scale = max(scale, sum(abs(v[i]) for v in set(values)))
    return B, labels, t.eps / scale if scale > 0 else t.eps


def seeded_towers():
    # random labelings of 2 to 4 cells: many distinct column profiles, so
    # many levels, under the smallest admissible m
    rng = random.Random(30)
    for _ in range(8):
        npts, n_cells = rng.choice([120, 240]), rng.randint(2, 4)
        alpha = tuple(rng.randrange(n_cells) for _ in range(npts))
        yield build_tower(FiniteSystem.cyclic(npts), alpha, 3)


def test_build_tower_hands_avgmix_the_reference_levels_and_tolerance(monkeypatch):
    seen = []
    avgmix = tower.avgmix

    def recorded(*args):
        seen.append(args[1:])
        return avgmix(*args)

    monkeypatch.setattr(tower, "avgmix", recorded)
    levels = set()
    for tw in itertools.chain(case_towers(), seeded_towers()):
        assert seen == [reference_mix_args(tw)]
        levels.add(max(seen.pop()[1]))
    assert max(levels) >= 8  # the seeded towers reach many levels


def test_class_stage_reads_each_labeling_once(monkeypatch):
    # one avgmix call; inside it the refinement reads its labeling once into
    # cells, GAlgebra numbers the fixpoint once, and avgmix reads the cells
    mixes, calls = [], Counter()
    avgmix = tower.avgmix

    def traced(*args):
        calls.clear()
        mix = avgmix(*args)
        mixes.append(dict(calls))
        return mix

    def counted(fn):
        def wrapped(raw):
            calls[fn.__name__] += 1
            return fn(raw)

        return wrapped

    monkeypatch.setattr(tower, "avgmix", traced)
    monkeypatch.setattr(system, "canon_labels", counted(canon_labels))
    monkeypatch.setattr(system, "label_cells", counted(label_cells))
    build_tower(FiniteSystem.cyclic(480), tuple(x % 2 for x in range(480)), 2, 1, 20)
    assert mixes == [{"canon_labels": 1, "label_cells": 2}]

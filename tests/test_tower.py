from fractions import Fraction as F

import pytest

from fingen.errors import DivisibilityError, InvalidParamsError
from fingen.system import FiniteSystem
from fingen.tower import Tower, admissible_m, audit_tower, build_tower

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


def test_tower_json_shape():
    tw = build_tower(Z60, ALPHA60, 2, 1)
    blob = tw.to_json()
    assert blob["m"] == tw.m and blob["n"] == tw.n
    assert len(blob["h"]) == 60 and len(blob["theta"]) == 60
    assert sorted(blob["s1"]) == list(tw.s1)
    assert all(isinstance(row, list) for row in blob["profiles"])

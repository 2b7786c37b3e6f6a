import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingen.errors import InvalidPartitionError, InvalidVectorError
from fingen.probvec import (
    Coarsening,
    ProbVec,
    RatDecomposition,
    coarsen,
    cond_entropy,
    entropy,
    join_labels,
    label_distribution,
    ratcomb_decompose,
)

LOG2 = math.log(2)


@pytest.mark.parametrize(
    "weights, expected",
    [
        ((F(1, 2), F(1, 4), F(1, 4)), 1.5 * LOG2),
        ((F(1),), 0.0),
        ((F(1, 2), F(1, 2)), LOG2),
        ((F(1, 4), F(3, 4)), 2 * LOG2 - 0.75 * math.log(3)),
    ],
    ids=["dyadic-three", "point-mass", "fair-bit", "quarter-split"],
)
def test_entropy_values(weights, expected):
    assert entropy(ProbVec(weights)) == pytest.approx(expected, abs=1e-12)


def test_entropy_ignores_zero_cells():
    assert entropy(ProbVec((F(1, 2), F(0), F(1, 2)))) == pytest.approx(LOG2)


def test_probvec_validation():
    with pytest.raises(InvalidVectorError):
        ProbVec((F(1, 2), F(1, 3)))
    with pytest.raises(InvalidVectorError):
        ProbVec((F(3, 2), F(-1, 2)))
    with pytest.raises(InvalidVectorError):
        ProbVec(())
    # ints become Fractions; floats and bools are refused by type name
    assert ProbVec((1, 0)).weights == (F(1), F(0))
    assert all(type(x) is F for x in ProbVec((1, 0)).weights)
    with pytest.raises(InvalidVectorError, match="float"):
        ProbVec((0.5, 0.5))
    with pytest.raises(InvalidVectorError, match="float"):
        ProbVec((F(1, 2), 0.5))
    with pytest.raises(InvalidVectorError, match="bool"):
        ProbVec((True, False))


def test_string_round_trip():
    p = ProbVec((F(1, 3), F(2, 3)))
    assert p.to_strings() == ["1/3", "2/3"]
    assert ProbVec(tuple(map(F, p.to_strings()))) == p
    assert ProbVec((1,)).to_strings() == ["1"]


def test_coarsen_example():
    p = ProbVec((F(1, 5), F(3, 10), F(1, 2)))
    q = coarsen(p, Coarsening(((0, 1), (2,)), 3))
    assert q.weights == (F(1, 2), F(1, 2))


def test_cond_entropy_independent_bits():
    a = (0, 0, 1, 1)
    b = (0, 1, 0, 1)
    assert cond_entropy(a, b) == pytest.approx(LOG2, abs=1e-12)


def test_cond_entropy_determined():
    # a is a function of b, so no residual entropy
    b = (0, 1, 2, 0, 1, 2)
    a = tuple(x % 2 for x in b)
    assert cond_entropy(a, b) == pytest.approx(0.0, abs=1e-12)


def test_cond_entropy_refuses_a_weight_count_off_the_points():
    a, b = (0, 1), (0, 0)
    with pytest.raises(InvalidPartitionError, match="one weight per point"):
        cond_entropy(a, b, (F(1, 4), F(1, 4), F(1, 2)))
    with pytest.raises(InvalidPartitionError, match="one weight per point"):
        cond_entropy(a + (1,), b + (0,), (F(1, 2), F(1, 2)))


def _random_labeling(rng, n, k):
    return tuple(rng.randrange(k) for _ in range(n))


def _random_weights(rng, n):
    cuts = sorted(rng.randrange(1, 100) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts + [100]:
        parts.append(F(c - prev, 100))
        prev = c
    rng.shuffle(parts)
    return tuple(parts)


def test_chain_rule_and_bounds_random():
    rng = random.Random(20260823)
    for _ in range(300):
        n = rng.randrange(2, 33)
        ka, kb = rng.randrange(1, 6), rng.randrange(1, 6)
        a = _random_labeling(rng, n, ka)
        b = _random_labeling(rng, n, kb)
        w = _random_weights(rng, n)
        ab = join_labels(a, b)
        ha = entropy(label_distribution(a, w))
        hb = entropy(label_distribution(b, w))
        hab = entropy(label_distribution(ab, w))
        # chain rule and the two-sided conditional bound
        assert abs(hab - hb - cond_entropy(a, b, w)) < 1e-10
        assert cond_entropy(a, b, w) <= ha + 1e-10
        assert cond_entropy(a, b, w) <= math.log(ka) + 1e-10
        # refining the conditioning side cannot raise conditional entropy
        assert cond_entropy(a, ab, w) <= cond_entropy(a, b, w) + 1e-10
        # refining the measured side cannot lower it
        assert cond_entropy(ab, b, w) + 1e-10 >= cond_entropy(a, b, w)


def _all_set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        yield [[head]] + part


def _coarsen_labels(labels, grouping):
    cell_to_block = {}
    for j, block in enumerate(grouping):
        for cell in block:
            cell_to_block[cell] = j
    return tuple(cell_to_block[x] for x in labels)


def test_sup_inf_characterizations_exhaustive():
    # On a finite space the sup over coarsenings of the measured side and the
    # inf over coarsenings of the conditioning side are both attained at the
    # full partitions.  Checked exhaustively for labelings with <= 4 cells.
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(4, 13)
        a = _random_labeling(rng, n, 4)
        f = _random_labeling(rng, n, 4)
        w = _random_weights(rng, n)
        base = cond_entropy(a, f, w)
        cells_a = sorted(set(a))
        for grouping in _all_set_partitions(cells_a):
            ca = _coarsen_labels(a, grouping)
            assert cond_entropy(ca, f, w) <= base + 1e-10
        cells_f = sorted(set(f))
        for grouping in _all_set_partitions(cells_f):
            cf = _coarsen_labels(f, grouping)
            assert cond_entropy(a, cf, w) + 1e-10 >= base


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=5))
def test_ratcomb_identity_hypothesis(raw):
    total = sum(raw)
    a = ProbVec(tuple(F(x, total) for x in raw))
    eps = F(1, 4)
    d = ratcomb_decompose(a, eps)
    d.verify(eps)  # raises on any exactness or tolerance breach
    acc = [F(0)] * len(a)
    for c, r in zip(d.mixing.weights, d.vectors):
        for i, x in enumerate(r.weights):
            acc[i] += c * x
    assert tuple(acc) == a.weights


def test_ratcomb_worked_example():
    d = ratcomb_decompose(ProbVec((F(1, 2), F(1, 2))), 0.3)
    assert d.n == 5
    assert d.mixing.weights == (F(1, 2), F(1, 2))
    assert d.vectors[0].weights == (F(2, 5), F(3, 5))
    assert d.vectors[1].weights == (F(3, 5), F(2, 5))


def test_ratcomb_trivial_denominator_match():
    a = ProbVec((F(2, 5), F(3, 5)))
    d = ratcomb_decompose(a, 0.25)
    assert d.n == 5
    assert all(v.weights == a.weights for v in d.vectors)
    assert d.mixing.weights[0] == 1


def test_ratcomb_single_cell():
    d = ratcomb_decompose(ProbVec((F(1),)), 0.5)
    assert d.n == 1 and d.vectors[0].weights == (F(1),)
    assert d.facts == {"identity": True, "max_dev": 0, "within_eps": True}


def test_verify_refuses_a_deviation_of_exactly_eps():
    half = ProbVec((F(1, 2), F(1, 2)))
    apart = (ProbVec((F(1, 4), F(3, 4))), ProbVec((F(3, 4), F(1, 4))))
    d = RatDecomposition(half, 4, apart, half)
    assert d.verify(F(1, 3)) == {"identity": True, "max_dev": F(1, 4), "within_eps": True}
    with pytest.raises(InvalidVectorError, match="tolerance"):
        d.verify(F(1, 4))
    with pytest.raises(InvalidVectorError, match="reconstruct"):
        RatDecomposition(half, 4, apart, ProbVec((F(1, 4), F(3, 4)))).verify(1)


def test_ratcomb_requires_positive_last_entry():
    with pytest.raises(InvalidVectorError):
        ratcomb_decompose(ProbVec((F(1), F(0))), 0.3)


def test_ratcomb_random_tight_eps():
    rng = random.Random(99)
    for _ in range(60):
        k = rng.randrange(2, 6)
        raw = [rng.randrange(1, 20) for _ in range(k)]
        total = sum(raw)
        a = ProbVec(tuple(F(x, total) for x in raw))
        eps = F(1, rng.randrange(3, 30))
        d = ratcomb_decompose(a, eps)
        assert d.facts == d.verify(eps)
        assert all(sum(v.weights) == 1 for v in d.vectors)


def test_join_labels_canonical():
    assert join_labels((0, 0, 1, 1), (0, 1, 0, 1)) == (0, 1, 2, 3)
    assert join_labels((5, 5, 5), (2, 2, 2)) == (0, 0, 0)


def test_label_distribution_uniform_default():
    assert label_distribution((0, 1, 1, 2)).weights == (F(1, 4), F(1, 2), F(1, 4))

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fingen.coding import (
    RANK_CUTOFF,
    FiberDistribution,
    build_code,
    code_length_bound,
    ternary,
)
from fingen.errors import InvalidParamsError, InvalidVectorError
from fingen.probvec import ProbVec, cond_entropy


def one_fiber(*weights) -> FiberDistribution:
    return FiberDistribution(ProbVec((F(1),)), (ProbVec(tuple(map(F, weights))),))


def test_ternary_examples():
    assert ternary(1) == (1,)
    assert ternary(5) == (1, 2)
    assert ternary(27) == (1, 0, 0, 0)
    with pytest.raises(InvalidParamsError):
        ternary(0)


def test_ternary_length_bound_to_million():
    length, nxt = 1, 3
    for n in range(1, 10**6 + 1):
        if n == nxt:
            length, nxt = length + 1, nxt * 3
        w = ternary(n)
        assert len(w) == length
        assert len(w) <= math.log(n, 3) + 1 + 1e-12
        assert sum(d * 3**i for i, d in enumerate(reversed(w))) == n


def test_rank_cutoff_value():
    val = math.exp(1 / (1 - math.log(math.e, 3)))
    assert RANK_CUTOFF - 1 <= val < RANK_CUTOFF
    assert RANK_CUTOFF == 68922
    assert len(ternary(RANK_CUTOFF)) == 11


def test_build_code_tie_break_by_index():
    code = build_code(one_fiber("1/2", "1/2"))
    assert code == (((1,), (2,)),)


def test_build_code_sorts_by_weight():
    code = build_code(one_fiber("1/10", "7/10", "2/10"))
    assert code == (((1, 0), (1,), (2,)),)


def test_build_code_uniform_five_lengths():
    code = build_code(one_fiber(*(["1/5"] * 5)))
    assert [len(w) for w in code[0]] == [1, 1, 2, 2, 2]


def test_build_code_zero_weight_cells_sort_last():
    code = build_code(one_fiber("3/4", "0", "1/4", "0"))
    ranks = sorted(range(4), key=lambda c: len(code[0][c]))
    assert code[0][0] == (1,)
    assert code[0][2] == (2,)
    assert ranks[-2:] == [1, 3]


@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=12).filter(
            lambda ws: sum(ws) > 0
        ),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_build_code_injective_per_fiber(rows):
    nu = ProbVec(tuple(F(1, len(rows)) for _ in rows))
    mus = tuple(ProbVec(tuple(F(x, sum(r)) for x in r)) for r in rows)
    fd = FiberDistribution(nu, mus)
    for ws in build_code(fd):
        assert len(set(ws)) == len(ws)


def test_tail_rank_bound_random():
    # whenever a code word is longer than -log of its cell weight, the
    # cell's rank cannot exceed the cutoff constant
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randrange(1, 51)
        raw = [rng.randrange(1, 100) for _ in range(k)]
        fd = one_fiber(*(F(x, sum(raw)) for x in raw))
        code = build_code(fd)
        order = sorted(range(k), key=lambda c: len(code[0][c]))
        for rank0, c in enumerate(order):
            mu = float(fd.mus[0][c])
            if len(code[0][c]) > -math.log(mu):
                assert rank0 + 1 <= RANK_CUTOFF


def test_length_bound_random_sweep():
    rng = random.Random(7)
    for _ in range(100):
        raw = [rng.randrange(1, 100) for _ in range(50)]
        fd = one_fiber(*(F(x, sum(raw)) for x in raw))
        rep = code_length_bound(fd, build_code(fd))
        assert rep.holds


def test_length_bound_single_cell():
    fd = FiberDistribution(
        ProbVec((F(1, 2), F(1, 2))), (ProbVec((F(1),)), ProbVec((F(1),)))
    )
    rep = code_length_bound(fd, build_code(fd))
    assert rep.avg_len == 1.0
    assert rep.holds


def test_length_bound_uniform_three():
    fd = one_fiber("1/3", "1/3", "1/3")
    rep = code_length_bound(fd, build_code(fd))
    assert rep.avg_len == pytest.approx(4 / 3)  # ranks 1..3 give t(3) = (1,0)
    assert rep.holds


def test_from_labels_disintegration():
    cells = (0, 1, 0, 2, 1, 0)
    fibers = (0, 0, 1, 1, 0, 1)
    fd = FiberDistribution.from_labels(cells, fibers)
    assert fd.nu.weights == (F(1, 2), F(1, 2))
    assert fd.mus[0].weights == (F(1, 3), F(2, 3), F(0))
    assert fd.mus[1].weights == (F(2, 3), F(0), F(1, 3))
    mix = sum(
        float(w) * -sum(
            float(m) * math.log(float(m)) for m in mu.weights if m > 0
        )
        for w, mu in zip(fd.nu.weights, fd.mus)
    )
    assert mix == pytest.approx(cond_entropy(cells, fibers))


@pytest.mark.parametrize("cells", [(0, -1, 1, 1), ("a", "b", "a", "b"), (0, 1.0, 1, 0)])
def test_from_labels_refuses_cells_that_are_not_nonnegative_ints(cells):
    with pytest.raises(InvalidVectorError, match="nonnegative ints"):
        FiberDistribution.from_labels(cells, (0, 0, 0, 0))


def test_from_labels_refuses_an_empty_labeling():
    with pytest.raises(InvalidVectorError, match="at least one point"):
        FiberDistribution.from_labels((), ())


def test_length_bound_refuses_a_table_that_misses_fibers_or_cells():
    fd = FiberDistribution.from_labels((0, 1, 0, 1), (0, 0, 1, 1))
    code = build_code(fd)
    for short in (code[:1], tuple(ws[:1] for ws in code)):
        with pytest.raises(InvalidVectorError, match="one code word per cell"):
            code_length_bound(fd, short)


def test_fiber_distribution_validation():
    with pytest.raises(InvalidVectorError):
        FiberDistribution(ProbVec((F(1),)), ())
    with pytest.raises(InvalidVectorError):
        FiberDistribution(
            ProbVec((F(1, 2), F(1, 2))),
            (ProbVec((F(1),)), ProbVec((F(1, 2), F(1, 2)))),
        )
    # an int for the conditionals raised a bare TypeError: it has no len()
    with pytest.raises(InvalidVectorError, match="^one conditional distribution per fiber$"):
        FiberDistribution(ProbVec((F(1, 2), F(1, 2))), 5)
    # an int for the fiber weights raised a bare TypeError: it has no len()
    with pytest.raises(InvalidVectorError, match="^fiber weights are a ProbVec$"):
        FiberDistribution(5, (ProbVec((F(1),)),))


"""Variable-length ternary rank codes on partition cells.

Within each fiber the cells are ranked from 1 by decreasing conditional
weight, and the cell of rank n receives t(n), the base-3 expansion of n, as
in the paper.  The expected code length is then controlled by
m * |t(m)| + H(cells | fibers), where m is the least integer above
exp(1 / (1 - log3(e))).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParamsError, InvalidVectorError
from .probvec import ProbVec, entropy

# least integer greater than exp(1 / (1 - log3(e)))
RANK_CUTOFF = math.floor(math.exp(1 / (1 - math.log(math.e, 3)))) + 1


def ternary(n: int) -> tuple:
    """Base-3 expansion of n >= 1, most significant digit first."""
    if n < 1:
        raise InvalidParamsError("n >= 1", f"got {n}")
    digits = []
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    return tuple(reversed(digits))


@dataclass(frozen=True)
class FiberDistribution:
    """Fiber weights together with a conditional cell distribution per fiber."""

    nu: ProbVec
    mus: tuple

    def __post_init__(self):
        if len(self.nu) != len(self.mus):
            raise InvalidVectorError("one conditional distribution per fiber")
        if not self.mus:
            raise InvalidVectorError("at least one fiber")
        cells = len(self.mus[0])
        for mu in self.mus:
            if not isinstance(mu, ProbVec) or len(mu) != cells:
                raise InvalidVectorError("all fibers share one cell index set")

    @classmethod
    def from_labels(cls, cell_labels, fiber_labels) -> "FiberDistribution":
        """Disintegrate the uniform point measure over the fibers of a second
        labeling, fibers in increasing label order."""
        if len(cell_labels) != len(fiber_labels):
            raise InvalidVectorError("labelings cover the same points")
        if not cell_labels:
            raise InvalidVectorError("at least one point")
        if any(not isinstance(c, int) or c < 0 for c in cell_labels):
            raise InvalidVectorError("cell labels are nonnegative ints")
        joint = Counter(zip(fiber_labels, cell_labels))
        cells = max(cell_labels) + 1
        nu = []
        mus = []
        for y in sorted({f for f, _ in joint}):
            row = [joint[y, c] for c in range(cells)]
            mass = sum(row)
            nu.append(Fraction(mass, len(cell_labels)))
            mus.append(ProbVec(tuple(Fraction(v, mass) for v in row)))
        return cls(ProbVec(tuple(nu)), tuple(mus))


def build_code(fd: FiberDistribution) -> tuple:
    """Rank cells inside each fiber from 1 and hand rank n the expansion t(n).

    Returns the word table: entry [y][c] is the code of cell c within fiber y.

    Ranking is by decreasing conditional weight, ties and zero-weight cells
    by increasing cell index, so the heaviest cells get the shortest words.
    """
    out = []
    for mu in fd.mus:
        order = sorted(range(len(mu)), key=lambda c: (-mu.weights[c], c))
        ws = [()] * len(mu)
        for pos, c in enumerate(order):
            ws[c] = ternary(pos + 1)
        out.append(tuple(ws))
    return tuple(out)


class LengthBound(NamedTuple):
    avg_len: float
    bound: float
    holds: bool


def code_length_bound(fd: FiberDistribution, code: tuple) -> LengthBound:
    """Average code length against m * |t(m)| + H(cells | fibers)."""
    if len(code) != len(fd.mus) or any(len(ws) != len(mu) for ws, mu in zip(code, fd.mus)):
        raise InvalidVectorError("one code word per cell of every fiber")
    avg = 0.0
    cond = 0.0
    for w, mu, ws in zip(fd.nu.weights, fd.mus, code):
        wf = float(w)
        avg += wf * sum(len(cw) * float(m) for cw, m in zip(ws, mu.weights))
        cond += wf * entropy(mu)
    bound = RANK_CUTOFF * len(ternary(RANK_CUTOFF)) + cond
    return LengthBound(avg, bound, avg <= bound)

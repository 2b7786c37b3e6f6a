"""Exact finite probability vectors and partition entropy.

Weights are exact rationals: a ``ProbVec`` holds ``fractions.Fraction``
entries summing to exactly 1 and refuses floats, so decomposition and
counting satisfy their reconstruction identities exactly.  Entropies are
reported as floats in nats and compared with tolerances.

A *labeling* is a sequence of cell indices over a finite point set; the
conditional entropy of one labeling given another is the weighted average
of the cell entropies over the conditioning fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Sequence

from .errors import InvalidParamsError, InvalidPartitionError, InvalidVectorError

__all__ = [
    "ProbVec",
    "Coarsening",
    "RatDecomposition",
    "entropy",
    "entropy_pair",
    "coarsen",
    "cond_entropy",
    "ratcomb_decompose",
    "join_labels",
    "label_distribution",
    "label_cells",
    "canon_labels",
]


def _exact(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise InvalidVectorError(f"weights are Fraction or int, not {type(v).__name__}")


@dataclass(frozen=True)
class ProbVec:
    """Ordered exact weights: Fractions kept as given, ints turned into Fractions.

    The hash of the weights is taken once, on first use: vectors key
    caches, and hashing a Fraction costs a modular inverse.
    """

    weights: tuple

    def __post_init__(self):
        w = tuple(map(_exact, self.weights))
        object.__setattr__(self, "weights", w)
        if not w:
            raise InvalidVectorError("empty vector")
        if any((x < 0) for x in w):
            raise InvalidVectorError("negative weight")
        total = sum(w)
        if total != 1:
            raise InvalidVectorError(f"weights sum to {total}, not 1")

    @cached_property
    def _hash(self) -> int:
        return hash(self.weights)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def to_strings(self) -> list:
        return [str(x) for x in self.weights]


@dataclass(frozen=True)
class Coarsening:
    """Partition of ``range(size)`` into ordered blocks of source indices."""

    blocks: tuple
    size: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        seen = sorted(i for b in self.blocks for i in b)
        if seen != list(range(self.size)):
            raise InvalidPartitionError("blocks are not a partition of the index range")
        if any(not b for b in self.blocks):
            raise InvalidPartitionError("empty block")

    def block_of(self) -> dict:
        return {i: j for j, b in enumerate(self.blocks) for i in b}

    def __len__(self) -> int:
        return len(self.blocks)


def _entropy_sum(weights) -> float:
    """Sum of -x log x over the weights as floats, in order; 0 log 0 = 0."""
    h = 0.0
    for w in weights:
        x = float(w)
        if x > 0.0:
            h -= x * math.log(x)
    return h


def entropy(p: ProbVec) -> float:
    """Shannon entropy in nats; the zero-weight convention 0*log 0 = 0 applies."""
    return _entropy_sum(p.weights)


def entropy_pair(a: float, b: float) -> float:
    """Entropy of an unnormalized two-outcome split (a, b), both nonnegative."""
    return _entropy_sum((a, b))


def coarsen(p: ProbVec, q: Coarsening) -> ProbVec:
    if q.size != len(p):
        raise InvalidPartitionError("coarsening size mismatch")
    return ProbVec(tuple(sum(p.weights[i] for i in b) for b in q.blocks))


def label_cells(labels: Sequence) -> list:
    """Point tuples of each cell of a labeling, cells in first-occurrence order."""
    out: dict = {}
    for x, lab in enumerate(labels):
        out.setdefault(lab, []).append(x)
    return [tuple(pts) for pts in out.values()]


def canon_labels(raw) -> tuple:
    """Relabel by first occurrence: the first label seen becomes 0, and so on."""
    table: dict = {}
    out = []
    for v in raw:
        out.append(table.setdefault(v, len(table)))
    return tuple(out)


def label_distribution(labels: Sequence[int], weights: Sequence | None = None) -> ProbVec:
    """Cell-mass vector of a labeling, cells ordered by label value; with no
    weights a cell's mass is its point count over the point count."""
    cells = sorted(label_cells(labels), key=lambda cell: labels[cell[0]])
    if weights is None:
        return ProbVec(tuple(Fraction(len(cell), len(labels)) for cell in cells))
    return ProbVec(tuple(sum(weights[i] for i in cell) for cell in cells))


def join_labels(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Common refinement of two labelings, cells numbered by first occurrence."""
    if len(a) != len(b):
        raise InvalidPartitionError("labeling length mismatch")
    return canon_labels(zip(a, b))


def cond_entropy(a: Sequence[int], b: Sequence[int], weights: Sequence | None = None) -> float:
    """H(a | b): average over b-fibers of the entropy of a restricted there.

    With no weights every point weighs 1/N, so a mass is a point count
    divided by N once: ``c / N`` rounds the same rational as
    ``float(Fraction(c, N))``.
    """
    if len(a) != len(b):
        raise InvalidPartitionError("labeling length mismatch")
    if weights is None:
        masses, total = repeat(1), len(a)
    elif len(weights) != len(a):
        raise InvalidPartitionError("one weight per point")
    else:
        masses, total = weights, 1
    fibers: dict = {}  # b-fiber -> a-label -> mass, each in first-occurrence order
    for x, y, w in zip(a, b, masses):
        sub = fibers.setdefault(y, {})
        sub[x] = sub.get(x, 0) + w
    h = 0.0
    for sub in fibers.values():
        wb = float(sum(sub.values()) / total)
        if wb <= 0.0:
            continue
        for wab in sub.values():
            x = float(wab / total)
            if x > 0.0:
                h -= x * math.log(x / wb)
    return h


@dataclass(frozen=True)
class RatDecomposition:
    """Convex mix ``sum_j mixing[j] * vectors[j]`` equal to the source exactly.

    Every component vector has denominator ``n``.  ``facts`` is what
    ``verify`` decided when ``ratcomb_decompose`` built the mix.
    """

    source: ProbVec
    n: int
    vectors: tuple
    mixing: ProbVec
    facts: dict | None = field(default=None, init=False, compare=False)

    def verify(self, eps) -> dict:
        """Return what the check at tolerance eps decided: ``identity`` (the mix
        is the source exactly), ``max_dev`` (the largest entrywise distance of a
        component from the source) and ``within_eps`` (max_dev < eps).  Raises
        ``InvalidVectorError`` if either fails or a denominator does not divide n."""
        eps = Fraction(eps)
        src = self.source.weights
        terms = [[c * x for x in r.weights] for c, r in zip(self.mixing.weights, self.vectors)]
        identity = tuple(map(sum, zip(*terms))) == src
        if not identity:
            raise InvalidVectorError("mix does not reconstruct the source exactly")
        max_dev = max(abs(x - s) for r in self.vectors for x, s in zip(r.weights, src))
        within_eps = max_dev < eps
        if not within_eps:
            raise InvalidVectorError("component strays beyond the tolerance")
        if any(self.n % x.denominator for r in self.vectors for x in r.weights):
            raise InvalidVectorError("component denominator exceeds n")
        return {"identity": identity, "max_dev": max_dev, "within_eps": within_eps}


def ratcomb_decompose(a: ProbVec, eps) -> RatDecomposition:
    """Write ``a`` as an exact convex mix of denominator-n rational vectors.

    The common denominator is the least n with n > (p-1)/eps and
    n > 2(p-1)/a_p, so each component stays within eps of ``a`` entrywise.
    Requires a positive final entry (reorder beforehand).  Every result is
    verified at eps, and its ``facts`` hold what ``verify`` decided.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidParamsError("eps > 0")
    p = len(a)
    last = a.weights[-1]
    if last == 0:
        raise InvalidVectorError("final entry must be positive; place a positive cell last")
    n = max(
        math.floor(Fraction(p - 1) / eps) + 1,
        math.floor(Fraction(2 * (p - 1)) / last) + 1,
        1,
    )

    if all((n * w).denominator == 1 for w in a.weights):
        # a is a denominator-n vector (always when p = 1): every component may equal a.
        mixing = ProbVec((Fraction(1),) + (Fraction(0),) * (p - 1))
        vectors = [a] * p
    else:
        head = list(a.weights[:-1])
        ks = [math.floor(n * w) for w in head]
        lambdas = [Fraction(k + 1) - n * w for k, w in zip(ks, head)]
        order = sorted(range(p - 1), key=lambda i: lambdas[i])  # stable: ties keep index order

        lam_sorted = [Fraction(0)] + [lambdas[i] for i in order] + [Fraction(1)]
        mixing = ProbVec(tuple(lam_sorted[j] - lam_sorted[j - 1] for j in range(1, p + 1)))

        k_sorted = [ks[i] for i in order]
        vectors = []
        for j in range(1, p + 1):
            comp = [Fraction(0)] * p
            for t in range(p - 1):  # position t in the sorted order holds source index order[t]
                k = k_sorted[t]
                val = Fraction(k, n) if j <= t + 1 else Fraction(k + 1, n)
                comp[order[t]] = val
            comp[p - 1] = 1 - sum(comp[:-1])
            if comp[p - 1] <= 0:
                raise InvalidVectorError("final component entry not positive; eps too loose for a_p")
            vectors.append(ProbVec(tuple(comp)))

    out = RatDecomposition(a, n, tuple(vectors), mixing)
    object.__setattr__(out, "facts", out.verify(eps))
    return out

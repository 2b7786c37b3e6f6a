"""Typical words, exact counts, normalized Hamming packings, and codebooks.

A length-n word over the alphabet of a probability vector q is *typical at
tolerance eps* when every symbol frequency sits within eps of its target,
boundaries included.  Membership is decided in exact rational arithmetic
(q is an exact ``ProbVec``, eps is read with ``Fraction``), so the counting
recursion and the brute-force enumeration agree bit for bit.

Each job has one engine.  ``_fill_count`` is the count DP, memoised on the
length left and the per-symbol count bounds: ``count_typical`` reads it once
and a ``Fiber`` once per symbol it tries.  ``iter_typical`` is the one
search; it lists the typical set, or with ``rho`` draws the first-fit
packing.  The fiber of fine names over a block word is a ``Fiber``, which
ranks and unranks by counting and never searches.

Counts are exact big integers; the exponential comparison windows around
them are evaluated in log space.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

from .errors import (
    AtypicalNameError,
    CapacityError,
    InvalidParamsError,
    InvalidPartitionError,
)
from .probvec import Coarsening, ProbVec, coarsen, cond_entropy, entropy, entropy_pair

__all__ = [
    "TypicalSpec",
    "PackingBudget",
    "CodeBook",
    "WindowReport",
    "is_typical",
    "count_typical",
    "iter_typical",
    "count_fiber",
    "iter_fiber",
    "Fiber",
    "stirling_window",
    "binomial_bound_report",
    "dbar",
    "greedy_packing",
    "verify_packing",
    "choose_J",
    "inequality",
    "build_injections",
]


@dataclass(frozen=True)
class TypicalSpec:
    """Target distribution q, tolerance eps, and word length n."""

    q: ProbVec
    eps: object
    n: int

    def __post_init__(self):
        object.__setattr__(self, "_ranges", _count_ranges(self.q, self.eps, self.n))

    def count_ranges(self) -> list:
        """Inclusive admissible count interval per symbol, computed exactly."""
        return list(self._ranges)


@lru_cache(maxsize=256)
def _count_ranges(q: ProbVec, eps, n: int) -> tuple:
    """The count ranges of q at tolerance eps and length n, worked out once
    per (q, eps, n) in exact arithmetic."""
    if n < 1:
        raise InvalidParamsError("n >= 1")
    eps = Fraction(eps)
    if eps < 0:
        raise InvalidParamsError("eps >= 0")
    slack = eps * n
    ranges = []
    for w in q.weights:
        target = w * n
        ranges.append((max(0, math.ceil(target - slack)), min(n, math.floor(target + slack))))
    return tuple(ranges)


def _counts(word: Sequence[int], k: int) -> list:
    c = [0] * k
    for t in word:
        if not (0 <= t < k):
            raise InvalidPartitionError(f"symbol {t} outside alphabet of size {k}")
        c[t] += 1
    return c


def is_typical(word: Sequence[int], spec: TypicalSpec) -> bool:
    if len(word) != spec.n:
        raise InvalidParamsError("word length mismatch")
    ranges = spec.count_ranges()
    counts = _counts(word, len(spec.q))
    return all(lo <= c <= hi for c, (lo, hi) in zip(counts, ranges))


def count_typical(spec: TypicalSpec) -> int:
    """Exact size of the typical set: one ``_fill_count`` over every symbol."""
    return _fill_count(spec.n, spec._ranges)


@lru_cache(maxsize=1 << 14)
def _fill_count(left: int, bounds: tuple) -> int:
    """Words of length ``left`` whose count of symbol s lies in ``bounds[s]``,
    by convolution over the symbols."""
    dp = {0: 1}
    for lo, hi in bounds:
        nxt: dict = {}
        for used, ways in dp.items():
            for c in range(lo, min(hi, left - used) + 1):
                key = used + c
                nxt[key] = nxt.get(key, 0) + ways * math.comb(left - used, c)
        dp = nxt
    return dp.get(left, 0)


def iter_typical(spec: TypicalSpec, rho=None) -> Iterator[tuple]:
    """All typical words in lexicographic order, by pruned search.  Given
    ``rho``, only the first-fit code at pairwise dbar > rho: each word
    farther than rho from every word yielded before it.

    A prefix is kept while the unmet lower bounds (``need``) fit into the
    positions left.  The total upper bound drops with those positions, so it
    is checked once, up front.

    With ``rho`` every word yielded becomes a codeword, and a prefix is also
    kept only while each codeword can still be left ``apart`` mismatches
    behind (``_Codewords.reach``).  The words yielded are then the first-fit
    code: the first word in order that is far from every codeword is never
    cut, and a completed word is far from all of them.
    """
    n = spec.n
    lo = [r[0] for r in spec._ranges]
    hi = [r[1] for r in spec._ranges]
    k = len(lo)
    need = sum(lo)
    if not need <= n <= sum(hi):
        return
    apart = 0 if rho is None else min(max(0, math.floor(Fraction(rho) * n) + 1), n + 1)
    code = _Codewords(n, lo, hi, apart) if apart else None
    counts = [0] * k
    word = [0] * n
    tried = [0] * n  # per position, the first symbol not yet tried there
    dist = [0] * (n + 1)  # per prefix length, its packed mismatches with the codewords
    pos = 0
    while pos >= 0:
        descend = False
        if pos < n:
            left = n - pos
            for t in range(tried[pos], k):
                c = counts[t]
                if c < hi[t] and need - (c < lo[t]) < left:
                    if code is not None:
                        d = dist[pos] + code.mismatch[pos][t]
                        counts[t] = c + 1
                        far = code.reach(d, pos + 1, counts)
                        counts[t] = c
                        if not far:
                            continue
                        dist[pos + 1] = d
                    descend = True
                    break
            tried[pos] = t + 1 if descend else 0
        else:
            yield tuple(word)
            if code is not None:
                code.add(word)  # 0 mismatches with every prefix on the path
        if descend:
            counts[t] = c + 1
            need -= c < lo[t]
            word[pos] = t
            pos += 1
        else:
            pos -= 1
            if pos >= 0:
                t = word[pos]
                c = counts[t] = counts[t] - 1
                need += c < lo[t]


class _Codewords:
    """The codewords of a first-fit search, one ``width``-bit field each in a
    few shared ints, so a handful of int operations test a prefix against all
    of them.

    ``mismatch[p][t]`` has a 1 in the field of each codeword whose symbol at
    position p is not t; ``suffix[p][s]`` holds each codeword's count of
    symbol s from position p on.  Every field value stays below ``bias``, the
    field's top bit: adding ``bias`` to a field turns the top bit into a sign,
    set exactly where the unbiased value is >= 0, and the fields of ``guard``
    are those top bits.
    """

    def __init__(self, n: int, lo: list, hi: list, apart: int):
        self.n, self.lo, self.hi, self.apart = n, lo, hi, apart
        k = len(lo)
        # the largest field value is a sum of k excesses, each at most 3n + 1
        self.width = (k * (3 * n + 1)).bit_length() + 1
        self.bias = 1 << (self.width - 1)
        self.ones = 0  # a 1 in the lowest bit of every field
        self.guard = 0  # bias in every field
        self.mismatch = [[0] * k for _ in range(n)]
        self.suffix = [[0] * k for _ in range(n + 1)]

    def add(self, word: Sequence[int]) -> None:
        one = 1 << (self.width * self.ones.bit_count())
        self.ones |= one
        self.guard |= self.bias * one
        counts = [0] * len(self.lo)
        for p in range(self.n - 1, -1, -1):
            counts[word[p]] += 1
            for s, c in enumerate(counts):
                self.mismatch[p][s] |= (s != word[p]) * one
                self.suffix[p][s] |= c * one

    def reach(self, d: int, pos: int, counts: list) -> bool:
        """Whether a prefix of length ``pos`` with symbol ``counts`` and
        packed mismatches ``d`` has, for each codeword, an admissible
        completion with ``apart`` mismatches against it.

        A completion fills left = n - pos positions with symbol counts a_s,
        each at least max(lo_s, counts_s) - counts_s and at most the room
        hi_s - counts_s, summing to left.  Against a codeword whose counts
        from pos on are b_s, the best arrangement of a has
        left - max(0, max_s (a_s + b_s) - left) mismatches.  So the codeword
        needs slack = d + left - apart >= 0 (the distance bound) and an a with
        every a_s + b_s <= top = left + slack (the composition bound).
        Capping a_s at top - b_s takes excess_s = max(0, room_s + b_s - top)
        off its room; such an a exists exactly when no capped room falls
        below its lower bound and the capped rooms still hold left symbols.
        """
        left = self.n - pos
        ones, bias, guard = self.ones, self.bias, self.guard
        shift, full = self.width - 1, (bias << 1) - 1
        slack = d + (bias + left - self.apart) * ones
        if slack & guard != guard:
            return False
        top = slack - guard + left * ones
        spare = -left  # the rooms' total beyond what the completion fills
        total = 0
        for b, c, lo, hi in zip(self.suffix[pos], counts, self.lo, self.hi):
            room = hi - c
            spare += room
            x = b + (bias + room) * ones - top
            sign = x & guard
            excess = (x & (sign >> shift) * full) ^ sign
            if ((bias + hi - (c if c > lo else lo)) * ones - excess) & guard != guard:
                return False
            total += excess
        return ((bias + spare) * ones - total) & guard == guard


def count_fiber(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> int:
    """Typical refinements of the block word ``b``: per-block multinomial sums."""
    return Fiber(TypicalSpec(xi, eps, n), blocks, b).size


def iter_fiber(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> Iterator[tuple]:
    """Typical refinements of ``b`` in ``Fiber`` order, unranked one by one.
    A generator, so the benchmark's span tracer counts the names it lists."""
    yield from Fiber(TypicalSpec(xi, eps, n), blocks, b)


class Fiber(Sequence):
    """The typical refinements of the block word ``b``: the words of the fine
    ``spec`` whose symbol at each position lies in that position's block,
    held as counts instead of a list.

    They are ordered position by position, each block's symbols in the order
    the block lists them: lexicographic order when every block is sorted.
    ``size`` is ``count_fiber`` (``len`` too, while it fits an index),
    ``fiber[i]`` unranks, ``fiber.index(w)`` ranks and raises
    ``AtypicalNameError`` on a name outside the fiber, and iterating unranks
    ``0..size-1``.  Ranking and unranking go position by position: each
    symbol that the position's block lists before the chosen one skips all
    of its completions.  Completions factor over the blocks and only the
    current block's factor changes, so each step reads one ``_fill_count``
    per symbol tried.
    """

    __slots__ = ("_blocks", "_b", "_ranges", "_avail", "_factors", "size")

    def __init__(self, spec: TypicalSpec, blocks: Coarsening, b: Sequence[int]):
        if blocks.size != len(spec.q):
            raise InvalidPartitionError("blocks must partition the fine alphabet")
        b = tuple(b)
        if len(b) != spec.n:
            raise InvalidParamsError("block word length mismatch")
        self._blocks = blocks.blocks
        self._b = b
        self._ranges = spec._ranges
        self._avail = _counts(b, len(blocks))
        zero = [0] * len(self._ranges)
        self._factors = [self._fill(cells, a, zero) for cells, a in zip(self._blocks, self._avail)]
        self.size = math.prod(self._factors)

    def _fill(self, cells, left: int, counts) -> int:
        """Completions of one block: ``left`` positions over ``cells``, each
        cell's count already at ``counts[cell]``."""
        bounds = []
        for t in cells:
            lo, hi = self._ranges[t]
            bounds.append((max(0, lo - counts[t]), hi - counts[t]))
        return _fill_count(left, tuple(bounds))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple]:
        return map(self.__getitem__, range(self.size))

    def __getitem__(self, i) -> tuple:
        i = operator.index(i)
        total = self.size
        if i < 0:
            i += total
        if not 0 <= i < total:
            raise IndexError("fiber index out of range")
        left, factors = list(self._avail), list(self._factors)
        counts = [0] * len(self._ranges)
        word = []
        for j in self._b:
            cells = self._blocks[j]
            if len(cells) == 1:  # a one-cell block's completion is forced
                word.append(cells[0])
                continue
            left[j] -= 1
            other = total // factors[j]
            for t in cells:
                if counts[t] < self._ranges[t][1]:
                    counts[t] += 1
                    f = self._fill(cells, left[j], counts)
                    total = other * f
                    if i < total:
                        break
                    i -= total
                    counts[t] -= 1
            factors[j] = f
            word.append(t)
        return tuple(word)

    def index(self, word) -> int:
        """The rank of ``word`` in fiber order."""
        b = self._b
        word = tuple(word)
        if len(word) != len(b):
            raise AtypicalNameError(f"name of length {len(word)} in a fiber of length {len(b)}")
        total = self.size
        if total == 0:
            raise AtypicalNameError(f"the typical fiber of {b} is empty")
        left, factors = list(self._avail), list(self._factors)
        counts = [0] * len(self._ranges)
        rank = 0
        for p, (j, s) in enumerate(zip(b, word)):
            cells = self._blocks[j]
            if len(cells) == 1 and s == cells[0]:  # a one-cell block's completion is forced
                continue
            left[j] -= 1
            other = total // factors[j]
            for t in cells:
                if t == s:
                    break
                if counts[t] < self._ranges[t][1]:
                    counts[t] += 1
                    rank += other * self._fill(cells, left[j], counts)
                    counts[t] -= 1
            else:
                raise AtypicalNameError(f"symbol {s!r} at position {p} is outside block {j}")
            counts[s] += 1
            f = self._fill(cells, left[j], counts) if counts[s] <= self._ranges[s][1] else 0
            if f == 0:
                raise AtypicalNameError(f"name {word} is outside the typical fiber of {b}")
            factors[j] = f
            total = other * f
        return rank

    def __contains__(self, word) -> bool:
        try:
            self.index(word)
        except AtypicalNameError:
            return False
        return True


@dataclass(frozen=True)
class WindowReport:
    count: int
    holds: bool
    log_lower: float
    log_upper: float
    log_count: float


def stirling_window(q: ProbVec, delta, eps, n: int) -> WindowReport:
    """Exact typical count against the exp(n(H(q) +- delta)) window around
    its entropy rate."""
    delta = float(delta)
    if delta <= 0:
        raise InvalidParamsError("delta > 0")
    rate = entropy(q)
    cnt = count_typical(TypicalSpec(q, eps, n))
    lo, hi = n * (rate - delta), n * (rate + delta)
    logc = math.log(cnt) if cnt > 0 else -math.inf
    return WindowReport(cnt, lo <= logc <= hi, lo, hi, logc)


def binomial_bound_report(delta, n: int) -> dict:
    """C(n, floor(delta n)) against exp(2n H(delta, 1-delta)), exact left side."""
    d = float(delta)
    if not 0 <= d <= 1:
        raise InvalidParamsError("0 <= delta <= 1", f"got {delta}")
    k = math.floor(d * n)
    lhs = math.comb(n, k)
    rhs_log = 2.0 * n * entropy_pair(d, 1.0 - d)
    return {
        "n": n,
        "delta": d,
        "binomial": lhs,
        "log_binomial": math.log(lhs),
        "log_bound": rhs_log,
        "holds": math.log(lhs) <= rhs_log,
    }


def dbar(a: Sequence[int], b: Sequence[int]) -> Fraction:
    """Normalized Hamming distance over the first min(len) positions."""
    k = min(len(a), len(b))
    if k == 0:
        raise InvalidParamsError("empty word")
    return Fraction(sum(1 for i in range(k) if a[i] != b[i]), k)


def greedy_packing(spec: TypicalSpec, rho, limit=None) -> list:
    """First-fit packing of the typical set at pairwise dbar > rho: maximal,
    or its first ``limit`` words (first fit is prefix-stable)."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 0):
        raise InvalidParamsError("limit is an int >= 0", f"got {limit!r}")
    return list(islice(iter_typical(spec, rho), limit))


def verify_packing(spec: TypicalSpec, rho, packing: Sequence[tuple]) -> dict:
    """Re-check separation and maximality of a claimed packing.  Maximality
    holds only for an unlimited ``greedy_packing``, not for a prefix."""
    rho = Fraction(rho)
    sep_ok = all(
        dbar(packing[i], packing[j]) > rho
        for i in range(len(packing))
        for j in range(i + 1, len(packing))
    )
    maximal = all(
        any(dbar(w, c) <= rho for c in packing) for w in iter_typical(spec)
    )
    return {"separation_ok": sep_ok, "maximal": maximal}


def choose_J(word: Sequence[int], reserved, delta, eps, q: ProbVec) -> frozenset:
    """Minimal index set whose removal drives every kept symbol frequency
    strictly below min((q_t + eps)(1 - delta), q_t).

    ``reserved`` positions are treated as already removed.  Lowest indices go
    first.  For a word typical for q, |J| < 3 * delta * |q| * n;
    ``encode_names`` gates on that bound, so it is not compared here.
    """
    n = len(word)
    delta = Fraction(delta)
    eps = Fraction(eps)
    if not (eps < delta < 1):
        raise InvalidParamsError("eps < delta < 1")
    if delta * n <= 1:
        raise InvalidParamsError("delta * n > 1")
    reserved = frozenset(reserved)
    k = len(q)
    positions: list = [[] for _ in range(k)]
    for i, t in enumerate(word):
        if not (0 <= t < k):
            raise InvalidPartitionError(f"symbol {t} outside alphabet of size {k}")
        if i not in reserved:
            positions[t].append(i)
    out = []
    for t in range(k):
        qt = q.weights[t]
        if qt == 0:
            if positions[t]:
                raise InvalidParamsError("q_t > 0 for every symbol present")
            continue
        threshold = min((qt + eps) * (1 - delta), qt) * n
        keep_max = (threshold.numerator - 1) // threshold.denominator
        excess = len(positions[t]) - keep_max
        if excess > 0:
            out.extend(positions[t][:excess])
    return frozenset(out)


@dataclass(frozen=True)
class PackingBudget:
    """Separation budget: packing radius is 20 * delta * |q|, length floor(r n).

    delta and r are stored as Fractions whatever number type is given.
    """

    delta: object
    r: object

    def __post_init__(self):
        for name in ("delta", "r"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (0 < self.delta):
            raise InvalidParamsError("delta > 0")
        if not (0 < self.r <= 1):
            raise InvalidParamsError("0 < r <= 1")

    def k(self, n: int) -> int:
        return math.floor(self.r * n)

    def rho(self, alphabet: int) -> Fraction:
        out = 20 * self.delta * alphabet
        if out >= Fraction(1, 2):
            raise InvalidParamsError(
                "20 * delta * alphabet < 1/2", f"got {out}"
            )
        return out


@dataclass(frozen=True)
class CodeBook:
    """Per block-word injections of typical fibers into one packing: ``books``
    holds ``(b, fiber)`` per block word b in lexicographic order, ``fiber`` a
    lazy ``Fiber``, and book b sends ``fiber[i]`` to
    ``packing[i]``.  So a name encodes to ``packing[fiber.index(name)]`` and a
    codeword at ``packing[i]`` decodes to ``fiber[i]``; no fiber is listed.
    ``packing`` is the first-fit prefix as long as the largest fiber, which
    exists since ``capacity-exact`` is required in both capacity modes."""

    q: ProbVec
    eps: object
    k: int
    rho: Fraction
    packing: tuple
    books: tuple
    checks: tuple = field(default=(), compare=False)

    def __post_init__(self):
        # the decoder radius and the report both read it, so it is taken once
        gaps = (sum(x != y for x, y in zip(a, b)) for a, b in combinations(self.packing, 2))
        closest = min(gaps, default=None)
        object.__setattr__(
            self, "_separation", Fraction(1) if closest is None else Fraction(closest, self.k)
        )
        object.__setattr__(self, "_fibers", dict(self.books))

    def fiber(self, b: Sequence[int]) -> Fiber:
        """The fiber of book b; ``KeyError`` when b has no book."""
        try:
            return self._fibers[tuple(b)]
        except KeyError:
            raise KeyError(f"no book for block word {tuple(b)}") from None

    def mapping(self, b: Sequence[int]) -> dict:
        """Book b as a dict from names to codewords, unranked entry by entry."""
        fiber = self.fiber(b)
        return {fiber[i]: self.packing[i] for i in range(len(fiber))}

    def separation(self) -> Fraction:
        """Smallest pairwise dbar within any book's image (the largest is the packing)."""
        return self._separation

    def summary(self) -> dict:
        """The codebook section of a report."""
        return {
            "k": self.k,
            "rho": str(self.rho),
            "packing_prefix": len(self.packing),
            "books": len(self.books),
            "separation": str(self.separation()),
            "checks": list(self.checks),
        }


def inequality(name: str, lhs, rhs, holds) -> dict:
    """One certificate inequality record: its name, both sides, and whether it holds."""
    return {"name": name, "lhs": lhs, "rhs": rhs, "holds": bool(holds)}


def _chain_checks(
    xi: ProbVec,
    blocks: Coarsening,
    q: ProbVec,
    budget: PackingBudget,
    n: int,
    k: int,
    rho: float,
    max_fiber: int,
    target_count: int,
    packing_prefix: int,
) -> list:
    """Feasibility inequalities, exact counts on one side, analytic rates on the other."""
    delta = float(budget.delta)
    r = float(budget.r)
    cells = [c for block in blocks.blocks for c in block]
    block_of = [j for j, block in enumerate(blocks.blocks) for _ in block]
    h_cond = cond_entropy(cells, block_of, [xi.weights[c] for c in cells])  # H(xi | coarsened xi)
    h_q = entropy(q)
    log_fiber = math.log(max_fiber) if max_fiber > 0 else -math.inf
    log_target = math.log(target_count) if target_count > 0 else -math.inf
    ball = math.floor(rho * r * n)
    log_cover = math.log(math.comb(k, ball)) + rho * r * n * math.log(len(q)) if k >= ball else math.inf
    mid = n * r * h_q - n * r * delta - 2 * n * r * entropy_pair(rho, 1 - rho) - rho * r * n * math.log(len(q))
    checks = [
        ("entropy-gap", h_cond, r * h_q, h_cond < r * h_q),
        ("separation-bound", rho, 0.5, rho < 0.5),
        ("fiber-window-upper", log_fiber, n * (h_cond + delta), log_fiber <= n * (h_cond + delta)),
        ("target-window-lower", n * r * (h_q - delta), log_target, n * r * (h_q - delta) <= log_target),
        ("delta-margin", n * (h_cond + delta), mid, n * (h_cond + delta) < mid),
        ("covering-chain", mid, log_target - log_cover, mid <= log_target - log_cover),
        ("capacity-exact", max_fiber, packing_prefix, max_fiber <= packing_prefix),
    ]
    return [inequality(*check) for check in checks]


# The asymptotic windows on the target count ("target-window-lower",
# "covering-chain") demand n r delta to beat a polynomial deficit, which no
# enumerable instance can do; they are reported but never gate construction.
# "separation-bound" is reported only: budget.rho refuses rho >= 1/2 first.
ANALYTIC_REQUIRED = (
    "entropy-gap",
    "fiber-window-upper",
    "delta-margin",
    "capacity-exact",
)
EXACT_REQUIRED = ("entropy-gap", "capacity-exact")


def build_injections(
    xi: ProbVec,
    blocks: Coarsening,
    q: ProbVec,
    budget: PackingBudget,
    eps,
    n: int,
    capacity: str = "analytic",
    only=None,
) -> CodeBook:
    """Injective maps from every typical fiber into a greedy packing of the
    typical target words, one book per block word.

    ``capacity`` selects the gating inequalities: "analytic" requires the full
    rate chain, "exact" only the counting facts (gap, max fiber size against
    the packing).  All inequalities are reported either way.

    ``only`` restricts the books to the given block words, each of which must
    be typical.  Each build's packing is a prefix of the same first-fit
    sequence and each fiber is ranked on its own, so the restricted books
    agree entry for entry with the full build.

    No fiber is listed: each book holds a lazy ``Fiber`` over the one fine
    ``TypicalSpec`` of the build, which ranks and unranks by counting.  A
    fiber's size depends on its block word only through the word's block
    counts, and ``_fill_count`` memoises the per-block counts, so the
    largest fiber costs one count DP per distinct block-count vector.
    """
    if capacity not in ("analytic", "exact"):
        raise InvalidParamsError("capacity in {analytic, exact}")
    if len(blocks) == 0 or blocks.size != len(xi):
        raise InvalidPartitionError("blocks must partition the fine alphabet")
    k = budget.k(n)
    if k < 1:
        raise InvalidParamsError("floor(r n) >= 1")
    rho = budget.rho(len(q))
    beta = coarsen(xi, blocks)
    beta_spec = TypicalSpec(beta, eps, n)
    if only is None:
        beta_words = list(iter_typical(beta_spec))
    else:
        beta_words = sorted({tuple(w) for w in only})
        for w in beta_words:
            if len(w) != n:
                raise InvalidParamsError("block words of length n")
            if not is_typical(w, beta_spec):
                raise AtypicalNameError(f"block word {w} is outside the typical set")
    xi_spec = TypicalSpec(xi, eps, n)
    fibers = [Fiber(xi_spec, blocks, b) for b in beta_words]
    max_fiber = max((f.size for f in fibers), default=0)
    target_spec = TypicalSpec(q, eps, k)
    packing = greedy_packing(target_spec, rho, max_fiber)
    target_count = count_typical(target_spec)
    checks = _chain_checks(
        xi, blocks, q, budget, n, k, float(rho), max_fiber, target_count, len(packing)
    )
    required = ANALYTIC_REQUIRED if capacity == "analytic" else EXACT_REQUIRED
    by_name = {c["name"]: c for c in checks}
    for name in required:
        c = by_name[name]
        if not c["holds"]:
            raise CapacityError(name, f"lhs={c['lhs']} rhs={c['rhs']}")
    return CodeBook(q, eps, k, rho, tuple(packing), tuple(zip(beta_words, fibers)), tuple(checks))

"""Typical words, exact counts, normalized Hamming packings, and codebooks.

A length-n word over the alphabet of a probability vector q is *typical at
tolerance eps* when every symbol frequency sits within eps of its target,
boundaries included.  Membership is decided in exact rational arithmetic
(floats are taken at their binary value), so the counting recursion and the
brute-force enumeration agree bit for bit.

Counts are exact big integers; the exponential comparison windows around
them are evaluated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    AtypicalNameError,
    CapacityError,
    InvalidParamsError,
    InvalidPartitionError,
)
from .probvec import Coarsening, ProbVec, coarsen, cond_entropy, entropy, entropy_pair, ratio_str

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
    "cond_entropy_vec",
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
        if self.n < 1:
            raise InvalidParamsError("n >= 1")
        eps = Fraction(self.eps)
        if eps < 0:
            raise InvalidParamsError("eps >= 0")
        slack = eps * self.n
        ranges = []
        for w in self.q.weights:
            target = Fraction(w) * self.n
            lo = max(0, math.ceil(target - slack))
            hi = min(self.n, math.floor(target + slack))
            ranges.append((lo, hi))
        object.__setattr__(self, "_ranges", tuple(ranges))

    def count_ranges(self) -> list:
        """Inclusive admissible count interval per symbol, computed exactly."""
        return list(self._ranges)


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
    """Exact size of the typical set via convolution over symbol counts."""
    return _block_count(spec.n, range(len(spec.q)), spec.count_ranges())


def iter_typical(spec: TypicalSpec) -> Iterator[tuple]:
    """All typical words in lexicographic order (symbols ascending), by
    pruned search."""
    n = spec.n
    yield from _iter_words((range(len(spec.q)),), spec.count_ranges(), (0,) * n, [n])


def _block_count(positions: int, cells: Sequence[int], ranges: list) -> int:
    """Words filling ``positions`` slots from ``cells`` with admissible counts."""
    dp = {0: 1}
    for cell in cells:
        lo, hi = ranges[cell]
        nxt: dict = {}
        for used, ways in dp.items():
            for c in range(lo, min(hi, positions - used) + 1):
                key = used + c
                nxt[key] = nxt.get(key, 0) + ways * math.comb(positions - used, c)
        dp = nxt
    return dp.get(positions, 0)


def _iter_words(cells_of: Sequence, ranges: list, b: Sequence[int], avail: list) -> Iterator[tuple]:
    """Words whose symbol at position i comes from block ``cells_of[b[i]]``,
    with every symbol count inside ``ranges``.

    The search tries each block's symbols in the order the block lists them,
    so the words come out lexicographically when every block is sorted.
    ``avail[j]`` counts the positions of block j and is consumed.  A prefix is
    kept while each block's unmet lower bounds (``need``) fit into its
    remaining positions.  Placing a symbol changes only its own block's
    counters, so only that block needs checking; the block's total upper
    bound drops with its remaining positions, so it is checked once, up front.
    """
    lo = [r[0] for r in ranges]
    hi = [r[1] for r in ranges]
    need = [sum(lo[t] for t in cells) for cells in cells_of]
    room = [sum(hi[t] for t in cells) for cells in cells_of]
    if any(not need[j] <= avail[j] <= room[j] for j in range(len(cells_of))):
        return
    n = len(b)
    counts = [0] * len(ranges)
    word = [0] * n
    tried = [0] * n  # per position, how many of its block's symbols were tried
    pos = 0
    while pos >= 0:
        descend = False
        if pos < n:
            j = b[pos]
            cells = cells_of[j]
            i = tried[pos]
            while i < len(cells):
                t = cells[i]
                i += 1
                c = counts[t]
                if c < hi[t] and need[j] - (c < lo[t]) < avail[j]:
                    descend = True
                    break
            tried[pos] = i if descend else 0
        else:
            yield tuple(word)
        if descend:
            counts[t] = c + 1
            need[j] -= c < lo[t]
            avail[j] -= 1
            word[pos] = t
            pos += 1
        else:
            pos -= 1
            if pos >= 0:
                t = word[pos]
                j = b[pos]
                c = counts[t] = counts[t] - 1
                need[j] += c < lo[t]
                avail[j] += 1


def _fiber_setup(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> tuple:
    """Count ranges of xi and the position count of each block in ``b``."""
    if blocks.size != len(xi):
        raise InvalidPartitionError("blocks must partition the fine alphabet")
    if len(b) != n:
        raise InvalidParamsError("block word length mismatch")
    return TypicalSpec(xi, eps, n).count_ranges(), _counts(b, len(blocks))


def count_fiber(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> int:
    """Typical refinements of the block word ``b``: per-block multinomial sums."""
    ranges, avail = _fiber_setup(xi, blocks, eps, n, b)
    total = 1
    for j, cells in enumerate(blocks.blocks):
        total *= _block_count(avail[j], cells, ranges)
        if total == 0:
            return 0
    return total


def iter_fiber(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> Iterator[tuple]:
    """Typical refinements of ``b``, trying each block's cells in the order the
    block lists them: lexicographic order when every block is sorted."""
    ranges, avail = _fiber_setup(xi, blocks, eps, n, b)
    yield from _iter_words(blocks.blocks, ranges, b, avail)


def cond_entropy_vec(xi: ProbVec, blocks: Coarsening) -> float:
    """H(xi | coarsened xi) for distribution vectors, in nats."""
    if blocks.size != len(xi):
        raise InvalidPartitionError("coarsening size mismatch")
    cells = [c for block in blocks.blocks for c in block]
    block_of = [j for j, block in enumerate(blocks.blocks) for _ in block]
    return cond_entropy(cells, block_of, [xi.weights[c] for c in cells])


@dataclass(frozen=True)
class WindowReport:
    lower: float
    upper: float
    count: int
    holds: bool
    log_lower: float
    log_upper: float
    log_count: float


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def stirling_window(
    xi: ProbVec,
    blocks: Coarsening | None,
    delta,
    eps,
    n: int,
    b: Sequence[int] | None = None,
) -> WindowReport:
    """Exact count against the exp(n(H +- delta)) window around its entropy rate.

    With ``blocks`` (and a block word ``b``) the count is the fiber over ``b``
    and the rate is the conditional entropy; without, the count is the full
    typical set and the rate is H(q).
    """
    delta = float(delta)
    if delta <= 0:
        raise InvalidParamsError("delta > 0")
    if blocks is None:
        rate = entropy(xi)
        cnt = count_typical(TypicalSpec(xi, eps, n))
    else:
        if b is None:
            raise InvalidParamsError("block word required when blocks are given")
        rate = cond_entropy_vec(xi, blocks)
        cnt = count_fiber(xi, blocks, eps, n, b)
    lo, hi = n * (rate - delta), n * (rate + delta)
    logc = math.log(cnt) if cnt > 0 else -math.inf
    return WindowReport(_safe_exp(lo), _safe_exp(hi), cnt, lo <= logc <= hi, lo, hi, logc)


def binomial_bound_report(delta, n: int) -> dict:
    """C(n, floor(delta n)) against exp(2n H(delta, 1-delta)), exact left side."""
    d = float(delta)
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


def greedy_packing(spec: TypicalSpec, rho) -> list:
    """First-fit maximal packing of the typical set at pairwise dbar > rho."""
    rho = Fraction(rho)
    need = math.floor(rho * spec.n) + 1  # mismatches needed for dbar > rho
    chosen: list = []
    for w in iter_typical(spec):
        ok = True
        for c in chosen:
            miss = 0
            for x, y in zip(w, c):
                if x != y:
                    miss += 1
                    if miss >= need:
                        break
            if miss < need:
                ok = False
                break
        if ok:
            chosen.append(w)
    return chosen


def verify_packing(spec: TypicalSpec, rho, packing: Sequence[tuple]) -> dict:
    """Re-check separation and maximality of a claimed packing."""
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
    first, and the result always satisfies |J| < 3 * delta * |q| * n.
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
        qt = Fraction(q.weights[t])
        if qt == 0:
            if positions[t]:
                raise InvalidParamsError("q_t > 0 for every symbol present")
            continue
        threshold = min((qt + eps) * (1 - delta), qt) * n
        keep_max = (threshold.numerator - 1) // threshold.denominator
        excess = len(positions[t]) - keep_max
        if excess > 0:
            out.extend(positions[t][:excess])
    J = frozenset(out)
    if len(J) >= 3 * delta * len(q) * n:
        raise InvalidParamsError("trim size bound |J| < 3 delta |q| n", f"|J|={len(J)}")
    return J


@dataclass(frozen=True)
class PackingBudget:
    """Separation budget: packing radius is 20 * delta * |q|, length floor(r n)."""

    delta: object
    r: object

    def __post_init__(self):
        if not (0 < Fraction(self.delta)):
            raise InvalidParamsError("delta > 0")
        if not (0 < Fraction(self.r) <= 1):
            raise InvalidParamsError("0 < r <= 1")

    def k(self, n: int) -> int:
        return math.floor(Fraction(self.r) * n)

    def rho(self, alphabet: int) -> Fraction:
        out = 20 * Fraction(self.delta) * alphabet
        if out >= Fraction(1, 2):
            raise InvalidParamsError(
                "20 * delta * alphabet < 1/2", f"got {out}"
            )
        return out


@dataclass(frozen=True)
class CodeBook:
    """Per block-word injections from its typical refinements into one packing."""

    q: ProbVec
    eps: object
    k: int
    rho: Fraction
    packing: tuple
    books: tuple  # ((b, ((c, codeword), ...)), ...) in lexicographic order
    checks: tuple = field(default=(), compare=False)

    def mapping(self, b: Sequence[int]) -> dict:
        b = tuple(b)
        for bb, entries in self.books:
            if bb == b:
                return dict(entries)
        raise KeyError(f"no book for block word {b}")

    def encode(self, b: Sequence[int], c: Sequence[int]) -> tuple:
        return self.mapping(b)[tuple(c)]

    def decode_exact(self, b: Sequence[int], codeword: Sequence[int]) -> tuple:
        codeword = tuple(codeword)
        for c, w in self.mapping(b).items():
            if w == codeword:
                return c
        raise KeyError("codeword not in the image")

    def separation(self) -> Fraction:
        """Smallest pairwise dbar within any single book's image."""
        best = None
        for _, entries in self.books:
            words = [w for _, w in entries]
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    d = dbar(words[i], words[j])
                    if best is None or d < best:
                        best = d
        return best if best is not None else Fraction(1)

    def to_json(self) -> dict:
        return {
            "q": self.q.to_strings(),
            "eps": str(self.eps),
            "k": self.k,
            "rho": ratio_str(self.rho),
            "packing_size": len(self.packing),
            "books": [
                {
                    "b": list(b),
                    "entries": [{"c": list(c), "code": list(w)} for c, w in entries],
                }
                for b, entries in self.books
            ],
        }


def inequality(name: str, lhs, rhs, holds) -> dict:
    """One certificate inequality record: its name, both sides, and whether it holds."""
    return {"name": name, "lhs": lhs, "rhs": rhs, "holds": bool(holds)}


def _chain_checks(
    xi: ProbVec,
    blocks: Coarsening,
    q: ProbVec,
    budget: PackingBudget,
    eps,
    n: int,
    max_fiber: int,
    target_count: int,
    packing_size: int,
) -> list:
    """Feasibility inequalities, exact counts on one side, analytic rates on the other."""
    delta = float(Fraction(budget.delta))
    r = float(Fraction(budget.r))
    k = budget.k(n)
    rho = float(budget.rho(len(q)))
    h_cond = cond_entropy_vec(xi, blocks)
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
        ("capacity-exact", max_fiber, packing_size, max_fiber <= packing_size),
    ]
    return [inequality(*check) for check in checks]


# The asymptotic windows on the target count ("target-window-lower",
# "covering-chain") demand n r delta to beat a polynomial deficit, which no
# enumerable instance can do; they are reported but never gate construction.
ANALYTIC_REQUIRED = (
    "entropy-gap",
    "separation-bound",
    "fiber-window-upper",
    "delta-margin",
    "capacity-exact",
)
EXACT_REQUIRED = ("entropy-gap", "separation-bound", "capacity-exact")


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
    rate chain, "exact" only the counting facts (gap, separation, max fiber
    size against the packing).  All inequalities are reported either way.

    ``only`` restricts the books to the given block words, each of which must
    be typical.  The packing is shared and each fiber is enumerated on its
    own, so the restricted books agree entry for entry with the full build.
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
    fibers = [list(iter_fiber(xi, blocks, eps, n, b)) for b in beta_words]
    max_fiber = max((len(f) for f in fibers), default=0)
    target_spec = TypicalSpec(q, eps, k)
    packing = greedy_packing(target_spec, rho)
    target_count = count_typical(target_spec)
    checks = _chain_checks(xi, blocks, q, budget, eps, n, max_fiber, target_count, len(packing))
    required = ANALYTIC_REQUIRED if capacity == "analytic" else EXACT_REQUIRED
    by_name = {c["name"]: c for c in checks}
    for name in required:
        c = by_name[name]
        if not c["holds"]:
            raise CapacityError(name, f"lhs={c['lhs']} rhs={c['rhs']}")
    books = []
    for b, fiber in zip(beta_words, fibers):
        entries = tuple((c, packing[i]) for i, c in enumerate(fiber))
        books.append((b, entries))
    return CodeBook(q, eps, k, rho, tuple(packing), tuple(books), tuple(checks))

"""Typical words, exact counts, normalized Hamming packings, and codebooks.

A length-n word over the alphabet of a probability vector q is *typical at
tolerance eps* when every symbol frequency sits within eps of its target,
boundaries included.  Membership is decided in exact rational arithmetic
(q is an exact ``ProbVec``, eps is read by ``rational``), so the counting
recursion and the brute-force enumeration agree bit for bit.

Each job has one engine.  ``_fill_count`` is the count DP, memoised on the
length left and the per-symbol count bounds: ``count_typical`` reads it once
and a ``Fiber`` rank or unrank once per symbol it tries.  A ``Fiber`` holds
the fine names over a block word; it ranks and unranks them by counting, the
two directions of one enumerative code (Cover 1973) taken by one position
walk, and it is the one lister of typical words: the typical set is the
one-block ``Fiber``.  ``iter_typical`` is the one search: it draws the
first-fit packing.  Its cut at a prefix reads, per codeword, the most
mismatches that a typical completion can have with the codeword's tail;
that depends only on the prefix's symbol counts, so one memo per search
holds it by prefix state and extends each entry by the codewords added
since.  A codebook's books are ranked and listed by the same code, over the
block distribution, and each book's fiber is built where it is read.
``CodeBook`` owns the packed form of its words (``_packer``): one int per
word with a one-hot field per position, so the agreements of two words, or
of a word and an observed prefix, are one ``&`` and one ``bit_count``.  The
book's separation and its decoder scan, ``within``, read nothing else.  A
word is ``bytes``, one symbol per byte; an observed prefix marks a position
no label reaches by ``UNASSIGNED`` (255), so an alphabet has at most 255
symbols.  One reader, ``_word``, makes a word of what a caller gives.

Counts are exact big integers; the exponential comparison windows around
them are evaluated in log space.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

from .errors import (
    AtypicalNameError,
    CapacityError,
    InvalidParamsError,
    InvalidPartitionError,
    _Record,
    integer,
    points,
    rational,
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
    "min_dbar",
    "greedy_packing",
    "choose_J",
    "inequality",
    "build_injections",
]

UNASSIGNED = 255  # an observed prefix's symbol at a position that no label reaches
_SYMBOLS = bytes(range(UNASSIGNED))


class TypicalSpec(_Record):
    """Target distribution q, tolerance eps, and word length n."""

    _fields = ("q", "eps", "n")

    def __post_init__(self):
        # read here, not in the cache, whose keys hash True as 1 and 4.0 as 4
        exact, n = rational("eps", self.eps), integer("n", self.n)
        _alphabet(len(self.q))
        self._set(_ranges=_count_ranges(self.q, exact, n))

    def count_ranges(self) -> list:
        """Inclusive admissible count interval per symbol, computed exactly."""
        return list(self._ranges)


@lru_cache(maxsize=256)
def _count_ranges(q: ProbVec, eps: Fraction, n: int) -> tuple:
    """The count ranges of q at tolerance eps and length n, worked out once
    per (q, eps, n) in exact arithmetic."""
    if n < 1:
        raise InvalidParamsError("n >= 1")
    if eps < 0:
        raise InvalidParamsError("eps >= 0")
    slack = eps * n
    bounds = ((w * n - slack, w * n + slack) for w in q.weights)
    return tuple((max(0, math.ceil(lo)), min(n, math.floor(hi))) for lo, hi in bounds)


def _alphabet(size: int) -> int:
    """``size`` when it is at most 255: symbols are 0-254, 255 is ``UNASSIGNED``."""
    if size > UNASSIGNED:
        raise InvalidParamsError(f"an alphabet of at most {UNASSIGNED} symbols", f"got {size}")
    return size


def _word(word: Sequence[int], alphabet: int, holes: bool = False) -> bytes:
    """``word`` as ``bytes``, each symbol in range(alphabet) or, where ``holes``
    admits an observed prefix, ``UNASSIGNED``; any other symbol is refused by name."""
    symbols = _SYMBOLS[: _alphabet(alphabet)] + (b"\xff" if holes else b"")
    try:
        out = word if isinstance(word, bytes) else bytes(iter(word))  # bytes(5) is 5 zeros
        if not out.translate(None, symbols):
            return out
    except (TypeError, ValueError):  # no collection, or a symbol that is no int in range(256)
        pass
    if not isinstance(word, Iterable):
        raise InvalidParamsError("words are sequences of symbols", f"word={word!r}")
    t = next(t for t in word if not (isinstance(t, int) and 0 <= t < 256 and t in symbols))
    raise InvalidPartitionError(f"symbol {t!r} outside alphabet of size {alphabet}")


def is_typical(word: Sequence[int], spec: TypicalSpec) -> bool:
    word = _word(word, len(spec.q))
    if len(word) != spec.n:
        raise InvalidParamsError("word length mismatch")
    return all(lo <= word.count(t) <= hi for t, (lo, hi) in enumerate(spec._ranges))


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


def iter_typical(spec: TypicalSpec, rho) -> Iterator[bytes]:
    """The first-fit code of the typical set at pairwise dbar > rho: each
    typical word, in lexicographic order, that is farther than rho from
    every word yielded before it.  Every word yielded becomes a codeword.

    A prefix is kept while the unmet lower bounds (``need``) fit into the
    positions left.  The total upper bound drops with those positions, so it
    is checked once, up front.  A prefix is also kept only while each
    codeword can still be left ``apart`` mismatches behind: the prefix's
    mismatches with it plus the most that a typical completion can add must
    reach ``apart``.  That most depends only on the prefix's symbol counts,
    which ``state`` codes as one int, and on the codeword, so the search
    reads it from its memo of prefix states (``_Codewords.bound``), which
    works it out once per state and codeword.  The words yielded are then
    the first-fit code: the first word in order that is far from every
    codeword is never cut, and a completed word is far from all of them.

    Each node tries its symbols in one loop and descends on the first that
    is kept; a backtrack undoes the symbol at its position and resumes that
    position's loop at the next symbol.
    """
    rho = rational("rho", rho)
    n = spec.n
    lo = [r[0] for r in spec._ranges]
    hi = [r[1] for r in spec._ranges]
    k = len(lo)
    need = sum(lo)
    if not need <= n <= sum(hi):
        return
    apart = min(max(0, math.floor(rho * n) + 1), n + 1)
    code = _Codewords(n, lo, hi, apart)
    mismatch, bounds = code.mismatch, code.bounds
    # local copies of code.size, code.thresh and code.guard: no codeword
    # cuts anything until the first word is yielded
    size = thresh = guard = 0
    step = [(n + 1) ** s for s in range(k)]  # state: the sum of counts[s] * step[s]
    state = 0
    counts = [0] * k
    word = [0] * n
    dist = [0] * (n + 1)  # per prefix length, its packed mismatches with the codewords
    pos = t = 0  # the node, and the first symbol not yet tried there
    while pos >= 0:
        left = n - pos
        while t < k:
            c = counts[t]
            if c < hi[t] and need - (c < lo[t]) < left:
                if not size:
                    break
                d = dist[pos] + mismatch[pos][t]
                child = state + step[t]
                entry = bounds.get(child)
                if entry is None or entry[1] != size:
                    counts[t] = c + 1
                    entry = code.bound(child, pos + 1, counts)
                    counts[t] = c
                if (d + entry[0] + thresh) & guard == guard:
                    dist[pos + 1] = d
                    break
            t += 1
        if t < k:  # descend on t
            counts[t] = c + 1
            need -= c < lo[t]
            state += step[t]
            word[pos] = t
            pos += 1
            t = 0
            if pos < n:
                continue
            yield bytes(word)
            code.add(word)  # 0 mismatches with every prefix on the path
            size, thresh, guard = code.size, code.thresh, code.guard
        pos -= 1  # back up: undo the symbol at pos and resume after it
        if pos >= 0:
            t = word[pos]
            c = counts[t] = counts[t] - 1
            need += c < lo[t]
            state -= step[t]
            t += 1


def _most_mismatches(left: int, lower: list, upper: list, b: tuple) -> int:
    """The most mismatches that a completion of ``left`` positions, with
    between ``lower[s]`` and ``upper[s]`` of each symbol s, can have against
    a word whose counts over the same positions are ``b``.

    A completion with counts a_s, best arranged, has left - e mismatches,
    where e = max(0, max_s (a_s + b_s) - left).  The least e that some
    admissible a reaches caps every a_s at left + e - b_s: no cap may fall
    below its lower bound, and the capped upper bounds must still hold left
    symbols.
    """
    e = max(0, max(map(operator.add, lower, b)) - left)
    while sum(min(u, left + e - x) for u, x in zip(upper, b)) < left:
        e += 1
    return left - e


class _Codewords:
    """The codewords of a first-fit search, one ``width``-bit field each in a
    few shared ints, so a handful of int operations test a prefix against all
    of them.

    ``mismatch[p][t]`` has a 1 in the field of each codeword whose symbol at
    position p is not t, and ``tails[p]`` lists each codeword's symbol
    counts from position p on.  ``bounds`` is the search's memo of prefix
    states: it maps a state to ``[G, m, lower, upper, gaps]``, where G packs
    ``_most_mismatches`` of the state's completions against each of the
    first m codewords, ``lower`` and ``upper`` bound the completions' symbol
    counts, and ``gaps`` holds each ``_most_mismatches`` by tail counts,
    which many codewords share.  ``bound`` fills an entry and extends it by
    the codewords added since.

    A prefix with packed mismatches d keeps every codeword ``apart``
    mismatches away exactly when each field of d + G is at least ``apart``.
    A field of d + G + ``thresh`` is that field of d + G minus ``apart``
    plus ``bias``, the field's top bit, and stays in [0, 2 ``bias``): its
    top bit is set exactly where d + G reaches ``apart``, and the fields of
    ``guard`` are those top bits.
    """

    def __init__(self, n: int, lo: list, hi: list, apart: int):
        self.n, self.lo, self.hi, self.apart = n, lo, hi, apart
        # a field of d + G counts mismatches over the prefix and over its
        # completion, so at most n, and apart is at most n + 1
        self.width = (n + 1).bit_length() + 1
        self.bias = 1 << (self.width - 1)
        self.size = 0
        self.thresh = 0  # bias - apart in every field
        self.guard = 0  # bias in every field
        self.mismatch = [[0] * len(lo) for _ in range(n)]
        self.tails: list = [[] for _ in range(n + 1)]
        self.bounds: dict = {}

    def add(self, word: Sequence[int]) -> None:
        one = 1 << (self.width * self.size)
        self.size += 1
        self.thresh += (self.bias - self.apart) * one
        self.guard |= self.bias * one
        counts = [0] * len(self.lo)
        self.tails[self.n].append(tuple(counts))
        for p in range(self.n - 1, -1, -1):
            counts[word[p]] += 1
            self.tails[p].append(tuple(counts))
            row = self.mismatch[p]
            for s in range(len(row)):
                if s != word[p]:
                    row[s] |= one

    def bound(self, state: int, pos: int, counts: list) -> list:
        """The memo entry of the prefix of length ``pos`` with symbol
        ``counts``, coded as ``state``, extended to every codeword."""
        entry = self.bounds.get(state)
        if entry is None:
            lower = [max(lo, c) - c for lo, c in zip(self.lo, counts)]
            upper = [hi - c for hi, c in zip(self.hi, counts)]
            entry = self.bounds[state] = [0, 0, lower, upper, {}]
        G, done, lower, upper, gaps = entry
        left, width = self.n - pos, self.width
        shift = width * done
        for b in self.tails[pos][done:]:
            g = gaps.get(b)
            if g is None:
                g = gaps[b] = _most_mismatches(left, lower, upper, b)
            G |= g << shift
            shift += width
        entry[0], entry[1] = G, self.size
        return entry


def count_fiber(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> int:
    """Typical refinements of the block word ``b``: per-block multinomial sums."""
    return Fiber(TypicalSpec(xi, eps, n), blocks, b).size


def iter_fiber(xi: ProbVec, blocks: Coarsening, eps, n: int, b: Sequence[int]) -> Iterator[bytes]:
    """Typical refinements of ``b`` in ``Fiber`` order, by its walk.
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
    ``AtypicalNameError`` on a name outside the fiber, and iterating lists
    the words in order without unranking.  Ranking and unranking are one
    walk, ``_walk``, position by position: each symbol that the position's
    block lists before the chosen one skips all of its completions, which
    the rank adds and the unrank passes over (a symbol at its count bound
    has none).  Completions factor over the blocks and only the current
    block's factor changes, so each step reads one ``_fill_count`` per
    symbol tried.
    """

    __slots__ = ("_blocks", "_b", "_ranges", "_avail", "_factors", "size")

    def __init__(self, spec: TypicalSpec, blocks: Coarsening, b: Sequence[int]):
        if blocks.size != len(spec.q):
            raise InvalidPartitionError("blocks must partition the fine alphabet")
        self._b = _word(b, len(blocks))
        if len(self._b) != spec.n:
            raise InvalidParamsError("block word length mismatch")
        self._blocks = blocks.blocks
        self._ranges = spec._ranges
        self._avail = list(map(self._b.count, range(len(blocks))))
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

    def __iter__(self) -> Iterator[bytes]:
        """Fiber order by a depth-first walk that reads no count.  A one-cell
        block's positions are forced.  At a free position of block j, cell t
        is kept while ``counts[t] < hi[t]`` and the block's unmet lower
        bounds ``need[j]``, less t's share, fit in the ``left[j] - 1``
        positions after it.  A block's upper slack ``sum(hi - counts) -
        left`` never changes, and a nonzero ``size`` makes it at least 0, so
        every descent ends in a word."""
        if not self.size:
            return
        blocks, b = self._blocks, self._b
        lo, hi = zip(*self._ranges)
        word = [blocks[j][0] for j in b]
        free = [(p, j, blocks[j]) for p, j in enumerate(b) if len(blocks[j]) > 1]
        left = list(self._avail)
        need = [sum(lo[t] for t in cells) for cells in blocks]
        counts = [0] * len(lo)
        tried = [0] * len(free)  # per free position, how many cells were tried
        i = 0
        while i >= 0:
            if i == len(free):
                yield bytes(word)
                i -= 1
                continue
            p, j, cells = free[i]
            x = tried[i]
            if x:  # take back the cell tried last here
                t = word[p]
                c = counts[t] = counts[t] - 1
                need[j] += c < lo[t]
                left[j] += 1
            for t in cells[x:]:
                x += 1
                c = counts[t]
                if c < hi[t] and need[j] - (c < lo[t]) < left[j]:
                    tried[i] = x
                    counts[t] = c + 1
                    need[j] -= c < lo[t]
                    left[j] -= 1
                    word[p] = t
                    i += 1
                    break
            else:
                tried[i] = 0
                i -= 1

    def __getitem__(self, i) -> bytes:
        i = operator.index(i)
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("fiber index out of range")
        return self._walk(i, None)[1]

    def index(self, word) -> int:
        """The rank of ``word`` in fiber order."""
        word = _word(word, len(self._ranges))
        if len(word) != len(self._b):
            raise AtypicalNameError(f"name of length {len(word)} in a fiber of length {len(self._b)}")
        if self.size == 0:
            raise AtypicalNameError(f"the typical fiber of {list(self._b)} is empty")
        return self._walk(None, word)[0]

    def _walk(self, i, word) -> tuple:
        """``(rank, word)`` of the index ``i`` when ``word`` is None, else of
        ``word``; ``rank`` counts the names before the prefix walked so far."""
        total, rank, out = self.size, 0, []
        left, factors = list(self._avail), list(self._factors)
        counts = [0] * len(self._ranges)
        for p, j in enumerate(self._b):
            cells = self._blocks[j]
            s = None if word is None else word[p]
            if len(cells) == 1 and (word is None or s == cells[0]):  # a forced completion
                out.append(cells[0])
                continue
            left[j] -= 1
            other = total // factors[j]
            for t in cells:
                counts[t] += 1
                f = self._fill(cells, left[j], counts)
                total = other * f
                if (i < rank + total) if word is None else t == s:
                    break
                rank += total
                counts[t] -= 1
            else:
                raise AtypicalNameError(f"symbol {s!r} at position {p} is outside block {j}")
            if f == 0:
                raise AtypicalNameError(f"name {list(word)} is outside the typical fiber of {list(self._b)}")
            factors[j] = f
            out.append(t)
        return rank, bytes(out)

    def __contains__(self, word) -> bool:
        with suppress(AtypicalNameError):
            return self.index(word) >= 0
        return False


class WindowReport(_Record):
    _fields = ("count", "holds", "log_lower", "log_upper", "log_count")


def stirling_window(q: ProbVec, delta, eps, n: int) -> WindowReport:
    """Exact typical count against the exp(n(H(q) +- delta)) window around
    its entropy rate."""
    delta = float(rational("delta", delta))
    if delta <= 0:
        raise InvalidParamsError("delta > 0")
    rate = entropy(q)
    cnt = count_typical(TypicalSpec(q, eps, n))
    lo, hi = n * (rate - delta), n * (rate + delta)
    logc = math.log(cnt) if cnt > 0 else -math.inf
    return WindowReport(cnt, lo <= logc <= hi, lo, hi, logc)


def binomial_bound_report(delta, n: int) -> dict:
    """C(n, floor(delta n)) against exp(2n H(delta, 1-delta)), exact left side."""
    n, delta = integer("n", n), rational("delta", delta)
    if not 0 <= delta <= 1:
        raise InvalidParamsError("0 <= delta <= 1", f"got {delta}")
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
    """Normalized Hamming distance over the first min(len) positions; ``a`` may hold UNASSIGNED."""
    a, b = _word(a, UNASSIGNED, True), _word(b, UNASSIGNED)
    k = min(len(a), len(b))
    if k == 0:
        raise InvalidParamsError("empty word")
    return Fraction(sum(map(operator.ne, a, b)), k)


def min_dbar(words: Sequence, alphabet: int) -> Fraction | None:
    """Smallest pairwise dbar among ``words``, all of one length over
    range(alphabet), counted on their packed forms; None for fewer than two."""
    alphabet = integer("alphabet", alphabet)
    if len(set(map(len, words))) > 1:
        raise InvalidParamsError("words of one length")
    if words and not words[0]:
        raise InvalidParamsError("empty word")
    return _closest(tuple(map(_packer(alphabet), words)), len(words[0])) if words else None


def _packer(alphabet: int):
    """The packing of words over range(alphabet), at most 255 symbols:
    ``pack(word, holes)`` reads the word by ``_word`` and makes it one int in
    which position i is the field of ``size`` bytes from byte i * size, and
    its symbol t sets bit t of that field; ``UNASSIGNED``, which ``holes``
    admits, sets none.  Two packed words then agree at ``(a & b).bit_count()``
    positions.  Up to 8 symbols a field is one byte, and one ``translate``
    writes a word's fields; past 8, ``map`` looks up each symbol's field
    bytes in C and ``bytes.join`` joins them."""
    size = (_alphabet(alphabet) + 7) // 8
    if size > 1:
        fields = {t: (1 << t).to_bytes(size, "little") for t in range(alphabet)} | {UNASSIGNED: bytes(size)}
        read = lambda word: b"".join(map(fields.__getitem__, word))
    else:
        table = bytes(1 << t for t in range(alphabet)).ljust(256, b"\0")
        read = lambda word: word.translate(table)
    return lambda word, holes=False: int.from_bytes(read(_word(word, alphabet, holes)), "little")


def _closest(packed: Sequence[int], n: int) -> Fraction | None:
    """Smallest pairwise dbar among packed words of length n: n less the
    most agreements of a pair, over n; None for fewer than two."""
    most = max(((a & b).bit_count() for a, b in combinations(packed, 2)), default=None)
    return None if most is None else Fraction(n - most, n)


def greedy_packing(spec: TypicalSpec, rho, limit=None) -> list:
    """First-fit packing of the typical set at pairwise dbar > rho: maximal,
    or its first ``limit`` words (first fit is prefix-stable)."""
    rho = rational("rho", rho)  # read before islice, which starts no scan at limit 0
    if limit is not None and integer("limit", limit) < 0:
        raise InvalidParamsError("limit >= 0", f"limit={limit!r}")
    return list(islice(iter_typical(spec, rho), limit))


def choose_J(word: Sequence[int], reserved, delta, eps, q: ProbVec) -> frozenset:
    """Minimal index set whose removal drives every kept symbol frequency
    strictly below min((q_t + eps)(1 - delta), q_t).

    ``reserved`` positions, ints in range(len(word)), are treated as already
    removed.  Lowest indices go first.  For a word typical for q,
    |J| < 3 * delta * |q| * n; ``encode_names`` gates on that bound, so it
    is not compared here.
    """
    k = len(q)
    word = _word(word, k)
    n = len(word)
    delta, eps = rational("delta", delta), rational("eps", eps)
    if not (eps < delta < 1):
        raise InvalidParamsError("eps < delta < 1")
    if delta * n <= 1:
        raise InvalidParamsError("delta * n > 1")
    reserved = points("reserved", reserved, n)
    positions: list = [[] for _ in range(k)]
    for i, t in enumerate(word):
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


class PackingBudget(_Record):
    """Separation budget: packing radius is 20 * delta * |q|, length floor(r n).

    delta and r are stored as Fractions whatever rational type is given.
    """

    _fields = ("delta", "r")

    def __post_init__(self):
        delta, r = rational("delta", self.delta), rational("r", self.r)
        if not (0 < delta):
            raise InvalidParamsError("delta > 0")
        if not (0 < r <= 1):
            raise InvalidParamsError("0 < r <= 1")
        self._set(delta=delta, r=r)

    def k(self, n: int) -> int:
        return math.floor(self.r * n)

    def rho(self, alphabet: int) -> Fraction:
        out = 20 * self.delta * alphabet
        if out >= Fraction(1, 2):
            raise InvalidParamsError("20 * delta * alphabet < 1/2", f"got {out}")
        return out


class _Books(Sequence):
    """A build's books, ``(b, fiber)`` per block word b in lexicographic
    order, each ``Fiber`` built where it is read.  ``words`` holds the block
    words with a book: the one-block ``Fiber`` over beta, or the sorted
    ``only`` words; iterating lists them and indexing unranks.  ``size`` is
    the exact book count (``len`` too, while it fits an index)."""

    __slots__ = ("_words", "_spec", "_blocks", "size")

    def __init__(self, words: Sequence, size: int, spec: TypicalSpec, blocks: Coarsening):
        self._words, self.size, self._spec, self._blocks = words, size, spec, blocks

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i) -> tuple:
        b = self._words[i]
        return b, Fiber(self._spec, self._blocks, b)

    def __iter__(self) -> Iterator[tuple]:
        return ((b, Fiber(self._spec, self._blocks, b)) for b in self._words)

    def fiber(self, b: Sequence[int]) -> Fiber:
        word = _word(b, len(self._blocks))
        if word in self._words:  # the one-block Fiber ranks b: length, alphabet, typicality
            return Fiber(self._spec, self._blocks, word)
        raise KeyError(f"no book for block word {list(word)}")


class CodeBook(_Record):
    """Per block-word injections of typical fibers into one packing: ``books``
    is a lazy sequence of ``(b, fiber)`` per block word b in lexicographic
    order, ranked and never stored, ``fiber`` a ``Fiber`` built when the
    book is read, and book b sends ``fiber[i]`` to ``packing[i]``.  So a
    name encodes to ``packing[fiber.index(name)]`` and a codeword at
    ``packing[i]`` decodes to ``fiber[i]``.  ``packing`` is the first-fit
    prefix as long as the largest fiber, which exists since
    every build is gated on ``capacity-exact``.  The book packs
    each word once, when built, so a symbol outside the alphabet is refused
    there, and measures its separation and scans for a decoder (``within``)
    by counting agreements on the packed words."""

    _fields = ("q", "eps", "k", "rho", "packing", "books")
    checks: tuple = ()  # the chain's inequality records, set by build_injections
    _separation: Fraction | None = None  # taken on first read: it scans every pair of words

    def __post_init__(self):
        pack = _packer(len(self.q))
        self._set(_pack=pack, _packed=tuple(map(pack, self.packing)))

    def within(self, prefix: Sequence[int], radius, count: int) -> list:
        """The indices i < ``count`` with dbar(prefix, packing[i]) <
        ``radius``, mismatches counted on the min(len) positions as ``dbar``
        counts them; an ``UNASSIGNED`` position of ``prefix`` matches no word.
        Each word is one ``&`` and one ``bit_count`` away."""
        m = min(len(prefix), self.k)
        least = math.floor(m - radius * m) + 1  # the fewest agreements inside the radius
        p = self._pack(prefix, True)
        return [i for i, w in enumerate(self._packed[:count]) if (p & w).bit_count() >= least]

    def fiber(self, b: Sequence[int]) -> Fiber:
        """The fiber of book b, built on each call; ``KeyError`` when b has
        no book: b is not a typical block word, or not an ``only`` word."""
        return self.books.fiber(b)

    def separation(self) -> Fraction:
        """Smallest pairwise dbar within any book's image (the largest is the
        packing), taken once: the decoder radius and the report both read it."""
        if self._separation is None:
            closest = _closest(self._packed, self.k)
            self._set(_separation=Fraction(1) if closest is None else closest)
        return self._separation

    def summary(self) -> dict:
        """The codebook section of a report."""
        return {
            "k": self.k,
            "rho": str(self.rho),
            "packing_prefix": len(self.packing),
            "books": self.books.size,
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
    """The seven feasibility records of a build, exact counts on one side,
    analytic rates on the other; ``build_injections`` gates on ``REQUIRED``."""
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


# A book is built when its counting facts hold: the entropy gap, and the
# largest fiber fits the packing.  The rate chain ("fiber-window-upper",
# "target-window-lower", "delta-margin", "covering-chain") is reported but
# never gates: its windows on the target count demand n r delta to beat a
# polynomial deficit, which no enumerable instance can do.  "separation-bound"
# is reported only: budget.rho refuses rho >= 1/2 first.
REQUIRED = ("entropy-gap", "capacity-exact")


def build_injections(
    xi: ProbVec,
    blocks: Coarsening,
    q: ProbVec,
    budget: PackingBudget,
    eps,
    n: int,
    *,
    only=None,
) -> CodeBook:
    """Injective maps from every typical fiber into a greedy packing of the
    typical target words, one book per block word.

    The build is refused only on the counting facts, ``entropy-gap`` and
    ``capacity-exact`` (the largest fiber against the packing); all seven
    inequality records are reported on ``checks``.

    ``only`` restricts the books to the given block words, at least one,
    each of which must be typical.  Each build's packing is a prefix of the
    same first-fit sequence and each fiber is ranked on its own, so the
    restricted books agree entry for entry with the full build.

    A build lists neither the block words nor any fiber.  A one-block
    ``Fiber`` over beta owns the typical block words: its size is the
    emptiness gate and the full book count, and it ranks, unranks and lists
    them.  A fiber's size
    depends on its block word only through the word's block counts, so
    ``_largest_fiber`` takes the full build's largest from the block-count
    vectors.  An empty typical block set, then an empty ``only``, is refused
    by name before any search.
    """
    n = integer("n", n)
    if len(blocks) == 0 or blocks.size != len(xi):
        raise InvalidPartitionError("blocks must partition the fine alphabet")
    k = budget.k(n)
    if k < 1:
        raise InvalidParamsError("floor(r n) >= 1")
    rho = budget.rho(len(q))
    beta = coarsen(xi, blocks)
    beta_spec = TypicalSpec(beta, eps, n)
    one_block = Coarsening((tuple(range(len(beta))),), len(beta))
    typical_words = Fiber(beta_spec, one_block, bytes(n))
    if typical_words.size == 0:
        raise InvalidParamsError("a typical block word exists", f"none of length {n} at eps {eps}")
    xi_spec = TypicalSpec(xi, eps, n)
    if only is None:
        books = _Books(typical_words, typical_words.size, xi_spec, blocks)
        max_fiber = _largest_fiber(xi_spec, blocks, beta_spec)
    else:
        words = sorted({_word(w, len(beta)) for w in only})
        if not words:
            raise InvalidParamsError("only lists a block word", "got none")
        for w in words:
            if len(w) != n:
                raise InvalidParamsError("block words of length n")
            if not is_typical(w, beta_spec):
                raise AtypicalNameError(f"block word {list(w)} is outside the typical set")
        books = _Books(tuple(words), len(words), xi_spec, blocks)
        max_fiber = max(Fiber(xi_spec, blocks, b).size for b in words)
    target_spec = TypicalSpec(q, eps, k)
    packing = greedy_packing(target_spec, rho, max_fiber)
    target_count = count_typical(target_spec)
    checks = _chain_checks(
        xi, blocks, q, budget, n, k, float(rho), max_fiber, target_count, len(packing)
    )
    for c in checks:  # in chain order, so entropy-gap is named first
        if c["name"] in REQUIRED and not c["holds"]:
            raise CapacityError(c["name"], f"lhs={c['lhs']} rhs={c['rhs']}")
    return CodeBook(q, eps, k, rho, tuple(packing), books)._set(checks=tuple(checks))


def _largest_fiber(fine: TypicalSpec, blocks: Coarsening, coarse: TypicalSpec) -> int:
    """The largest ``Fiber`` size over the typical block words.  A size is
    the product of each block's ``_fill_count`` at the word's count of that
    block, as ``Fiber.__init__`` takes it, so this is the ``_fill_count``
    convolution over the blocks with max in place of sum."""
    n = coarse.n
    best = {0: 1}  # per count of positions used, the largest product so far
    for cells, (lo, hi) in zip(blocks.blocks, coarse._ranges):
        bounds = tuple(fine._ranges[t] for t in cells)
        nxt: dict = {}
        for used, size in best.items():
            for a in range(lo, min(hi, n - used) + 1):
                key = used + a
                nxt[key] = max(nxt.get(key, 0), size * _fill_count(a, bounds))
        best = nxt
    return best.get(n, 0)

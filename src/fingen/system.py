"""Finite point systems acted on by named permutations.

A system is the point set {0..N-1} together with named generator
permutations that act transitively.  A transitive action has exactly one
invariant probability measure, the uniform one, so a set A of points has
measure |A|/N and the system stores nothing beyond its points and
generators.  On top of it live invariant partitions (the finite stand-in for
invariant sigma-algebras), partial bijections carrying generator-word
certificates, and the mixing constructions that average cell frequencies
over equal-size classes.  Each cyclic map is built once from the matchings of
its first piece, so each word is checked once; ``make_equal_partition`` also
returns the cycle that the matchings of its own sweep give.

Group elements are enumerated deterministically: identity, then generators
and their inverses in declaration order, then longer words length-first and
left-to-right lexicographically.  Every derived map records, per point, the
word that moves it, so expressibility over a given invariant partition can
be re-checked independently of how the map was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DivisibilityError,
    ExpressibilityUndecided,
    InvalidParamsError,
    InvalidPartitionError,
)
from .probvec import ProbVec, canon_labels, label_cells, ratcomb_decompose

# word tokens: "a" applies generator a, "~a" its inverse; applied left to right
DEFAULT_GROUP_CAP = 100_000
WORD_LEN_PER_POINT = 2  # enumerated group words have at most 2N tokens


def invert_token(tok: str) -> str:
    return tok[1:] if tok.startswith("~") else "~" + tok


def invert_word(word: tuple) -> tuple:
    return tuple(invert_token(t) for t in reversed(word))


class GroupEnum(NamedTuple):
    elements: tuple  # ((word, perm), ...) in enumeration order
    complete: bool  # False only when some element was left out


@dataclass(frozen=True)
class FiniteSystem:
    n_points: int
    generators: tuple  # ((name, perm), ...) in declaration order
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    # token -> permutation table: every generator, then every "~" inverse
    _tables: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n_points
        if n < 1:
            raise InvalidParamsError("n_points >= 1")
        if not self.generators:
            raise InvalidParamsError("at least one generator")
        tables = {}
        for name, perm in self.generators:
            if not name or name.startswith("~"):
                raise InvalidParamsError("generator names are nonempty, no ~ prefix")
            if name in tables:
                raise InvalidParamsError(f"duplicate generator name {name!r}")
            if sorted(perm) != list(range(n)):
                raise InvalidPartitionError(f"generator {name!r} is not a permutation")
            tables[name] = tuple(perm)
        for name, _ in self.generators:
            inv = [0] * n
            for x, y in enumerate(tables[name]):
                inv[y] = x
            tables[invert_token(name)] = tuple(inv)
        object.__setattr__(self, "_tables", tables)
        # transitivity: generator edges, both directions, connect all points
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for p in tables.values():
                if p[x] not in seen:
                    seen.add(p[x])
                    frontier.append(p[x])
        if len(seen) != n:
            raise InvalidParamsError("generators act transitively")

    @classmethod
    def make(cls, n: int, generators) -> "FiniteSystem":
        """generators: mapping or pair list name -> permutation sequence."""
        gens = tuple(
            (name, tuple(perm))
            for name, perm in (generators.items() if hasattr(generators, "items") else generators)
        )
        return cls(n, gens)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteSystem":
        return cls.make(n, {"r": [(x + 1) % n for x in range(n)]})

    def perm(self, token: str) -> tuple:
        try:
            return self._tables[token]
        except KeyError:
            name = token[1:] if token.startswith("~") else token
            raise InvalidParamsError(f"unknown generator {name!r}") from None

    def apply_word(self, word, x: int) -> int:
        for tok in word:
            x = self.perm(tok)[x]
        return x

    def group(self) -> GroupEnum:
        """Enumerate distinct group elements with their first producing word.

        Built once per system: at most ``DEFAULT_GROUP_CAP`` elements, each
        with a word of at most 2N tokens; ``complete`` turns False only when a
        further element exists past one of these two bounds.
        """
        cached = self._cache.get("group")
        if cached is not None:
            return cached
        max_len = WORD_LEN_PER_POINT * self.n_points
        ident = tuple(range(self.n_points))
        seen = {ident}
        order = [((), ident)]
        layer = order
        complete = True
        while layer and complete:
            nxt = []
            for word, perm in layer:
                for tok, p in self._tables.items():
                    q = tuple(p[y] for y in perm)
                    if q in seen:
                        continue
                    if len(order) >= DEFAULT_GROUP_CAP or len(word) >= max_len:
                        complete = False
                        break
                    seen.add(q)
                    entry = (word + (tok,), q)
                    order.append(entry)
                    nxt.append(entry)
                if not complete:
                    break
            layer = nxt
        enum = GroupEnum(tuple(order), complete)
        self._cache["group"] = enum
        return enum

    def total_weight(self, points) -> Fraction:
        """Uniform measure |points| / N, the only invariant one."""
        return Fraction(len(points), self.n_points)


@dataclass(frozen=True)
class GAlgebra:
    """Invariant partition: every generator maps each cell onto a cell."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", canon_labels(self.labels))

    def __len__(self) -> int:
        return len(set(self.labels))

    @property
    def cells(self) -> tuple:
        return tuple(label_cells(self.labels))

    def measurable(self, points) -> bool:
        marked = set(points)
        return all(
            all(x in marked for x in cell) or all(x not in marked for x in cell)
            for cell in self.cells
        )

    def refines(self, other: "GAlgebra") -> bool:
        seen: dict = {}
        for mine, theirs in zip(self.labels, other.labels):
            if seen.setdefault(mine, theirs) != theirs:
                return False
        return True

    def invariant_under(self, sys: FiniteSystem) -> bool:
        for _, perm in sys.generators:
            image: dict = {}
            for x in range(sys.n_points):
                if image.setdefault(self.labels[x], self.labels[perm[x]]) != self.labels[perm[x]]:
                    return False
        return True


def generated_algebra(sys: FiniteSystem, seed_sets) -> GAlgebra:
    """Coarsest generator-stable partition separating all the seed sets."""
    n = sys.n_points
    seeds = [frozenset(s) for s in seed_sets]
    for s in seeds:
        if any(not (0 <= x < n) for x in s):
            raise InvalidParamsError("seed sets live on the points")
    return refine_partition(n, seeds, list(sys._tables.values()))


def refine_partition(n: int, seed_sets, perms) -> GAlgebra:
    """Coarsest partition of ``range(n)`` that separates the seed sets and that
    every permutation in ``perms`` maps cell to cell: split each cell by the
    cells its images land in until the cell count stops growing."""
    seeds = [frozenset(s) for s in seed_sets]
    labels = canon_labels(tuple(x in s for s in seeds) for x in range(n))
    while True:
        nxt = canon_labels(zip(labels, *([labels[y] for y in p] for p in perms)))
        if len(set(nxt)) == len(set(labels)):
            return GAlgebra(labels)
        labels = nxt


@dataclass(frozen=True)
class PseudoMap:
    """Partial bijection whose every point moves by a recorded generator word."""

    system: FiniteSystem
    pairs: tuple  # ((x, y), ...) sorted by x
    words: tuple  # word moving x to y, aligned with pairs

    def __post_init__(self):
        order = sorted(range(len(self.pairs)), key=lambda i: self.pairs[i])
        object.__setattr__(self, "pairs", tuple(self.pairs[i] for i in order))
        if len(self.words) != len(self.pairs):
            raise InvalidParamsError("one word per pair")
        object.__setattr__(self, "words", tuple(self.words[i] for i in order))
        xs = [x for x, _ in self.pairs]
        ys = [y for _, y in self.pairs]
        if any(not (0 <= x < self.system.n_points) for x in xs + ys):
            raise InvalidParamsError("pairs live on the points")
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise InvalidParamsError("map must be a bijection")
        for (x, y), w in zip(self.pairs, self.words):
            if self.system.apply_word(w, x) != y:
                raise InvalidParamsError("word certificate mismatch", f"at point {x}")
        object.__setattr__(self, "_fwd", dict(self.pairs))
        object.__setattr__(self, "_words_by_point", dict(zip(xs, self.words)))

    @property
    def domain(self) -> tuple:
        return tuple(x for x, _ in self.pairs)

    @property
    def range(self) -> tuple:
        return tuple(sorted(y for _, y in self.pairs))

    def apply(self, x: int) -> int:
        if x not in self._fwd:
            raise InvalidParamsError(f"point {x} outside the domain")
        return self._fwd[x]

    def word_at(self, x: int) -> tuple:
        if x not in self._words_by_point:
            raise InvalidParamsError(f"point {x} outside the domain")
        return self._words_by_point[x]

    def orbit(self, x: int) -> tuple:
        fwd = self._fwd
        out = [x]
        y = fwd.get(x)
        while y is not None and y != x:
            out.append(y)
            y = fwd.get(y)
        if y != x:
            raise InvalidParamsError(f"orbit of {x} leaves the domain")
        return tuple(out)


def is_expressible(theta: PseudoMap, algebra: GAlgebra) -> bool:
    """Whether theta moves each algebra cell by a single group element.

    The domain and range must be unions of cells, and every cell inside the
    domain must match some enumerated group element pointwise.  If the group
    enumeration is cut off before a witness or a refutation is reached the
    question stays open and ExpressibilityUndecided is raised.
    """
    sys = theta.system
    dom = set(theta.domain)
    if not algebra.measurable(dom) or not algebra.measurable(theta.range):
        return False
    enum = sys.group()
    fwd = dict(theta.pairs)
    for cell in algebra.cells:
        if cell[0] not in dom:
            continue
        hit = False
        for _, perm in enum.elements:
            if all(perm[x] == fwd[x] for x in cell):
                hit = True
                break
        if not hit:
            if enum.complete:
                return False
            raise ExpressibilityUndecided(
                "group enumeration capped before deciding a cell"
            )
    return True


def simplemix(sys: FiniteSystem, A, B) -> PseudoMap:
    """Greedy sweep matching A into B along the group enumeration.

    Each group element claims every still-unmatched domain point it sends
    into the still-unclaimed part of B, so the word decomposition is
    measurable over the algebra generated by {A, B}.
    """
    A = sorted(set(A))
    Bset = set(B)
    if not A:
        raise InvalidParamsError("A nonempty")
    if A[0] < 0 or A[-1] >= sys.n_points:
        raise InvalidParamsError("A lives on the points")
    if Bset and (min(Bset) < 0 or max(Bset) >= sys.n_points):
        raise InvalidParamsError("B lives on the points")
    if len(A) > len(Bset):
        raise InvalidParamsError("weight(A) <= weight(B)")
    rem_dom = set(A)
    rem_rng = set(Bset)
    pairs: list = []
    words: list = []
    for word, perm in sys.group().elements:
        if not rem_dom:
            break
        batch = [x for x in sorted(rem_dom) if perm[x] in rem_rng]
        for x in batch:
            pairs.append((x, perm[x]))
            words.append(word)
            rem_dom.discard(x)
            rem_rng.discard(perm[x])
    if rem_dom:
        raise InvalidParamsError(
            "group enumeration exhausted before matching", f"left {sorted(rem_dom)}"
        )
    return PseudoMap(sys, tuple(pairs), tuple(words))


def _cycle(first, phis) -> tuple:
    """Pairs and words of the order-n map sending phi_k(c) to phi_{k+1 mod n}(c)
    by w_k(c)^-1 w_{k+1}(c), for c in ``first`` (sorted) and phi_0 the identity."""
    legs = [(tuple(first), ((),) * len(first))]
    legs += [(tuple(y for _, y in phi.pairs), phi.words) for phi in phis]
    pairs, words = [], []
    for k, (src, src_words) in enumerate(legs):
        dst, dst_words = legs[(k + 1) % len(legs)]
        pairs.extend(zip(src, dst))
        words.extend(invert_word(u) + v for u, v in zip(src_words, dst_words))
    return pairs, words


def make_equal_partition(sys: FiniteSystem, C, B, n: int) -> tuple:
    """Split B into n equal-size pieces with C as the first piece; return them
    with the order-n map cycling them, built from the matchings that cut them."""
    C = sorted(set(C))
    Bset = set(B)
    if not set(C) <= Bset:
        raise InvalidParamsError("C inside B")
    if n < 1:
        raise InvalidParamsError("n >= 1")
    if len(C) * n != len(Bset):
        raise DivisibilityError("weight(C) * n == weight(B)")
    pieces = [tuple(C)]
    phis = []
    used = set(C)
    for _ in range(n - 1):
        phis.append(simplemix(sys, C, Bset - used))
        pieces.append(phis[-1].range)
        used.update(pieces[-1])
    if used != Bset:
        raise DivisibilityError("pieces exhaust B exactly")
    return pieces, PseudoMap(sys, *_cycle(C, phis))


def cyclic_permute(sys: FiniteSystem, pieces) -> PseudoMap:
    """Order-n map sending piece k onto piece k+1, identity when n = 1."""
    pieces = [tuple(sorted(p)) for p in pieces]
    if not pieces or any(not p for p in pieces):
        raise InvalidParamsError("pieces nonempty")
    allpts = [x for p in pieces for x in p]
    if len(set(allpts)) != len(allpts):
        raise InvalidParamsError("pieces pairwise disjoint")
    if any(len(p) != len(pieces[0]) for p in pieces):
        raise InvalidParamsError("pieces of equal weight")
    phis = [simplemix(sys, pieces[0], p) for p in pieces[1:]]
    return PseudoMap(sys, *_cycle(pieces[0], phis))


@dataclass(frozen=True)
class MixResult:
    classes: tuple  # tuple of point tuples, each of size n
    theta: PseudoMap
    n: int
    route: str  # "ratcomb" or "atomic"
    algebra: GAlgebra


def _atoms_in(algebra: GAlgebra, B) -> list:
    Bset = set(B)
    return [cell for cell in algebra.cells if cell[0] in Bset]


def avgmix(sys: FiniteSystem, B, labels, eps) -> MixResult:
    """Classes of one size whose per-class cell frequencies track the global.

    The rational-decomposition route hands each class the frequencies of one
    denominator-n vector; when its block sizes do not divide evenly the
    construction falls back to single-atom pieces, which realize the global
    frequencies exactly.
    """
    B = tuple(sorted(set(B)))
    if not B:
        raise InvalidParamsError("B nonempty")
    if B[0] < 0 or B[-1] >= sys.n_points:
        raise InvalidParamsError("B lives on the points")
    if len(labels) != sys.n_points:
        raise InvalidParamsError("one label per point")
    eps = Fraction(eps)
    if eps < 0:
        raise InvalidParamsError("eps >= 0")
    present = sorted({labels[x] for x in B})
    cells = {c: frozenset(x for x in B if labels[x] == c) for c in present}
    seeds = [cells[c] for c in present] + [frozenset(B)]
    algebra = generated_algebra(sys, seeds)
    atoms = _atoms_in(algebra, B)
    a = ProbVec(tuple(Fraction(len(cells[c]), len(B)) for c in present))
    plan = None
    if eps > 0 and len(present) > 1:
        dec = ratcomb_decompose(a, eps)
        sizes = [c * len(atoms) for c in dec.mixing.weights]
        if all(s.denominator == 1 for s in sizes) and all(
            int(s) % dec.n == 0 for s in sizes
        ):
            plan = (dec, [int(s) for s in sizes])
    if plan is None:
        theta = cyclic_permute(sys, atoms)
        return MixResult(_orbit_classes(theta), theta, len(atoms), "atomic", algebra)
    dec, sizes = plan
    atoms_by_cell = {c: [at for at in atoms if labels[at[0]] == c] for c in present}
    pairs, words = [], []
    for j, s_j in enumerate(sizes):
        if s_j == 0:
            continue
        per_piece = s_j // dec.n
        block_pieces = []
        for i, c in enumerate(present):
            quota = dec.vectors[j].weights[i] * s_j
            take = int(quota)
            grabbed, atoms_by_cell[c] = atoms_by_cell[c][:take], atoms_by_cell[c][take:]
            for t in range(0, take, per_piece):
                piece = tuple(x for at in grabbed[t : t + per_piece] for x in at)
                block_pieces.append(tuple(sorted(piece)))
        phis = [simplemix(sys, block_pieces[0], p) for p in block_pieces[1:]]
        block_pairs, block_words = _cycle(block_pieces[0], phis)
        pairs.extend(block_pairs)
        words.extend(block_words)
    theta = PseudoMap(sys, tuple(pairs), tuple(words))
    return MixResult(_orbit_classes(theta), theta, dec.n, "ratcomb", algebra)


def _orbit_classes(theta: PseudoMap) -> tuple:
    seen: set = set()
    out = []
    for x in theta.domain:
        if x not in seen:
            orb = theta.orbit(x)
            seen.update(orb)
            out.append(tuple(sorted(orb)))
    return tuple(out)


def avgfuncmix(sys: FiniteSystem, B, funcs, eps) -> MixResult:
    """Classes whose per-class averages of each function sit within eps.

    funcs maps names to point->value mappings on B.  Their joint level sets
    drive avgmix at a tolerance shrunk by the largest total cell amplitude,
    so each function's class average lands within eps of its global mean.
    """
    B = tuple(sorted(set(B)))
    names = list(funcs)
    for f in names:
        missing = [x for x in B if x not in funcs[f]]
        if missing:
            raise InvalidParamsError("funcs are defined on B", f"{f!r} misses {missing}")
    values = [tuple(Fraction(funcs[f][x]) for f in names) for x in B]
    level = dict(zip(B, canon_labels(values)))
    labels = tuple(level[x] + 1 if x in level else 0 for x in range(sys.n_points))
    scale = Fraction(0)
    for i, _ in enumerate(names):
        amp = sum(abs(v[i]) for v in set(values))
        scale = max(scale, amp)
    shrunk = Fraction(eps) / scale if scale > 0 else Fraction(eps)
    return avgmix(sys, B, labels, shrunk)


def name_word(labels, theta: PseudoMap, x: int) -> tuple:
    """Labels read along the full theta-orbit of x."""
    return tuple(labels[y] for y in theta.orbit(x))

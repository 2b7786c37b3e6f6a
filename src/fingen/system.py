"""Finite point systems acted on by named permutations.

A system is the point set {0..N-1} together with named generator
permutations that act transitively.  A transitive action has exactly one
invariant probability measure, the uniform one, so a set A of points has
measure |A|/N and the system stores nothing beyond its points and
generators.  On top of it live invariant partitions (the finite stand-in for
invariant sigma-algebras), partial bijections carrying group-element
certificates, and the mixing constructions that average cell frequencies
over equal-size classes.  Partitions travel as labelings, one hashable label
per point, and the refinement fixpoint takes the labeling a caller holds.
The fixpoint is Hopcroft partition refinement: cells split by the images
of a worklist of splitter cells, in O(|tables| N log N), not round by round.
A matching is a greedy sweep along the group walk that keeps a walk pointer
per point.  The n-1 sweeps of ``make_equal_partition`` share one free set and
one pointer map, so together they read each walk element at most once per
point instead of restarting at the identity.  A cyclic map is built once from
the sweeps of its first piece and checked once: that check covers every
sweep, so no sweep builds a checked map of its own.

Group elements are enumerated deterministically: identity, then generators
and their inverses in declaration order, then longer words length-first and
left-to-right lexicographically.  The enumeration is a lazy, memoized
breadth-first walk: it extends only as far as a consumer reads, so a sweep
that is done after a few elements never builds the rest of the group, and
asking whether the enumeration is complete finishes the walk.  Readers see
an element only through ``image``, ``inverse_image`` and ``move_images``.

The walk stores elements in one of two ways, in the same order and with the
same words.  When the generators commute pairwise, the group is abelian and
transitive, so it acts regularly (Wielandt, "Finite Permutation Groups",
1964): only the identity fixes a point, and an element is fixed by its image
of 0.  The walk then expands point 0 alone, in O(N * tokens), and stores each
element as its exponent vector, one exponent per generator; a probe reads
one cycle position per generator.  Otherwise (dihedral groups, random
permutation pairs) each element is stored as its N-point table.  Every
derived map records, per point, a move: walk indices read in pairs (i, j),
undo element i, then apply element j.  So a map is re-checked against the
walk, each distinct move read once, and a point's word is derived from the
walk's words.  The walk keeps no word: each element keeps its parent's index
and the token from it, and a word is rebuilt from those links when read.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DivisibilityError,
    ExpressibilityUndecided,
    InvalidParamsError,
    InvalidPartitionError,
)
from .probvec import ProbVec, canon_labels, label_cells, ratcomb_decompose

# walk word tokens: "a" applies generator a, "~a" its inverse; left to right
DEFAULT_GROUP_CAP = 100_000
WORD_LEN_PER_POINT = 2  # enumerated group words have at most 2N tokens


def _inverse(perm) -> tuple:
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return tuple(inv)


def _commute(perms) -> bool:
    """Whether the permutation tables commute pairwise: p(q(x)) = q(p(x))."""
    return all(
        tuple(map(p.__getitem__, q)) == tuple(map(q.__getitem__, p))
        for k, p in enumerate(perms)
        for q in perms[k + 1 :]
    )


def _cycles(perm) -> list:
    """Per point x, the cycle of ``perm`` through x, listed twice over, and
    x's position in its first listing: for 0 <= e < the cycle's length,
    perm^e(x) is ``cycle[pos + e]`` and perm^-e(x) is ``cycle[pos - e]``."""
    where = [None] * len(perm)
    for x in range(len(perm)):
        if where[x] is None:
            cycle = [x]
            while perm[cycle[-1]] != x:
                cycle.append(perm[cycle[-1]])
            twice = tuple(cycle) * 2
            for pos, y in enumerate(cycle):
                where[y] = (twice, pos)
    return where


def _point_kind(generators, tables) -> tuple:
    """Point walk: element g is keyed by g(0) and stored as ``(g(0), shifts)``,
    one ``(cycles, e)`` pair per generator t, where ``cycles`` is
    ``_cycles(t)`` and g is the product of the t^e.  Each e is reduced modulo
    the order of t, the length of every cycle of t, since a transitive
    abelian group acts regularly."""
    axis = {}
    for k, (name, perm) in enumerate(generators):
        cycles = _cycles(perm)
        order = len(cycles[0][0]) // 2
        axis[name], axis["~" + name] = (k, cycles, 1, order), (k, cycles, -1, order)

    def step(value, tok):
        y = tables[tok][value[0]]
        k, cycles, sign, order = axis[tok]
        shifts = value[1]
        return y, (y, shifts[:k] + ((cycles, (shifts[k][1] + sign) % order),) + shifts[k + 1 :])

    return (0, tuple((axis[name][1], 0) for name, _ in generators)), 0, step


def _tuple_kind(tables, n_points: int) -> tuple:
    """Tuple walk: element g is stored and keyed as its permutation table."""
    ident = tuple(range(n_points))

    def step(perm, tok):
        q = tuple(map(tables[tok].__getitem__, perm))
        return q, q

    return ident, ident, step


class GroupEnum:
    """Distinct group elements, each with its first producing word, walked
    breadth-first on demand.

    ``image(i, x)`` moves point x by element i and ``inverse_image(i, x)``
    undoes it; both need element i walked (``reach(i)``).  ``abelian`` says
    which walk runs: on commuting generators element i is stored as its
    exponent vector and probed through the generators' cycles, otherwise as
    its permutation table.  Iterating yields ``(word, perm)`` pairs in
    enumeration order, building an exponent vector's table only then, and
    extends the walk only as far as the consumer reads; every iterator shares
    one memo.  ``elements`` is the part walked so far, read as (word, stored
    element) pairs, each word rebuilt when read.  ``complete`` finishes the
    walk and is False only when some element was left out.
    """

    def __init__(self, generators, tables: dict, n_points: int, cap: int):
        self.abelian = _commute([perm for _, perm in generators])
        if self.abelian:
            root, key, step = _point_kind(generators, tables)
        else:
            self._inverses: dict = {}
            root, key, step = _tuple_kind(tables, n_points)
        self._points = range(n_points)
        self.elements = _Walked(root)
        self._state = [True]  # complete flag, shared with the walk
        # the walk holds the memo, not self, so a dropped system is freed
        # by refcounting alone
        self._walk = _walk(
            self.elements, self._state, tuple(tables), WORD_LEN_PER_POINT * n_points, cap,
            {key}, step,
        )

    def __iter__(self):
        i = 0
        while self.reach(i):
            word, value = self.elements[i]
            if self.abelian:
                value = tuple(self.image(i, x) for x in self._points)
            yield word, value
            i += 1

    @property
    def complete(self) -> bool:
        for _ in self._walk:
            pass
        return self._state[0]

    def reach(self, i: int) -> bool:
        """Walk until element ``i`` exists; False when the walk ends first."""
        while len(self.elements) <= i:
            if next(self._walk, None) is None:
                return False
        return True

    def image(self, i: int, x: int) -> int:
        """Point ``x`` moved by element ``i``: a table read on the tuple walk,
        one cycle read per generator on the point walk."""
        value = self.elements.values[i]
        if not self.abelian:
            return value[x]
        for cycles, e in value[1]:
            cycle, pos = cycles[x]
            x = cycle[pos + e]
        return x

    def inverse_image(self, i: int, x: int) -> int:
        """The point that element ``i`` moves to ``x``.  The tuple walk
        inverts an element's table once, when this first asks for it."""
        if not self.abelian:
            return self._inverse_table(i)[x]
        for cycles, e in self.elements.values[i][1]:
            cycle, pos = cycles[x]
            x = cycle[pos - e]
        return x

    def _inverse_table(self, i: int) -> tuple:
        inv = self._inverses.get(i)
        if inv is None:
            inv = self._inverses[i] = _inverse(self.elements.values[i])
        return inv

    def move_images(self, move: tuple, xs) -> list:
        """The points ``xs`` moved by ``move``, each index pair (i, j) at once for all:
        two table reads on the tuple walk, one cycle read per changed exponent."""
        values = self.elements.values
        for i, j in zip(move[::2], move[1::2]):
            if not self.abelian:
                xs = map(values[j].__getitem__, map(self._inverse_table(i).__getitem__, xs))
                continue
            for (cycles, a), (_, b) in zip(values[i][1], values[j][1]):
                if a != b:  # each cycle is listed twice, so pos + b - a reads it
                    xs = [cycle[pos + b - a] for cycle, pos in map(cycles.__getitem__, xs)]
        return list(xs)


class _Walked(Sequence):
    """The walked elements as ``(word, stored element)`` pairs.  Each element
    keeps its stored form, its parent's index, the token that reached it
    from the parent, and its depth, the length of its word; a word is
    rebuilt from the parent links when read, so the walk stores no word."""

    __slots__ = ("values", "parents", "tokens", "depths")

    def __init__(self, root):
        self.values, self.parents, self.tokens, self.depths = [root], [0], [None], [0]

    def append(self, parent: int, tok: str, value) -> None:
        self.values.append(value)
        self.parents.append(parent)
        self.tokens.append(tok)
        self.depths.append(self.depths[parent] + 1)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i) -> tuple:
        value = self.values[i]  # an IndexError ends Sequence iteration
        return self.word(i), value

    def word(self, i: int) -> tuple:
        """The word of element ``i``: its tokens, root first."""
        out = [None] * self.depths[i]
        for d in range(len(out) - 1, -1, -1):
            out[d] = self.tokens[i]
            i = self.parents[i]
        return tuple(out)


def _walk(elements, state, tokens, max_len, cap, seen, step):
    """Append the next group element to ``elements`` on each step; stop with
    ``state[0] = False`` when a new element lies past ``cap`` elements or
    ``max_len`` tokens.  Elements are expanded in list order, the order they
    were found in, so one index over the growing list walks breadth first.

    ``step(value, tok)`` gives the key and the stored form of the element
    that token ``tok`` reaches from an element stored as ``value``, and
    ``seen`` holds the keys found so far.  Both walks make the same
    candidates in the same order and drop the same ones, so they give the
    same words and indices: a key is the whole table, or on commuting
    generators the image of point 0, which fixes the element."""
    values, depths = elements.values, elements.depths
    i = 0
    while i < len(values):
        value = values[i]
        for tok in tokens:
            key, new = step(value, tok)
            if key in seen:
                continue
            if len(values) >= cap or depths[i] >= max_len:
                state[0] = False
                return
            seen.add(key)
            elements.append(i, tok, new)
            yield True
        i += 1


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
            if not isinstance(name, str) or not name or name.startswith("~"):
                raise InvalidParamsError("generator names are nonempty strings, no ~ prefix")
            if name in tables:
                raise InvalidParamsError(f"duplicate generator name {name!r}")
            if (
                not isinstance(perm, Sequence)
                or set(map(type, perm)) - {int}
                or sorted(perm) != list(range(n))
            ):
                raise InvalidPartitionError(f"generator {name!r} is not a permutation")
            tables[name] = tuple(perm)
        tables.update({"~" + name: _inverse(perm) for name, perm in self.generators})
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
        """generators: mapping name -> permutation sequence."""
        return cls(n, tuple(
            (name, tuple(perm) if isinstance(perm, Sequence) else perm)
            for name, perm in generators.items()
        ))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteSystem":
        return cls.make(n, {"r": [(x + 1) % n for x in range(n)]})

    def group(self) -> GroupEnum:
        """The group enumeration of this system, one lazy walk per system.

        The walk is memoized in ``_cache`` and extends only as far as its
        readers iterate: at most ``DEFAULT_GROUP_CAP`` elements, each with a
        word of at most 2N tokens.  Reading ``complete`` finishes the walk;
        it turns False only when a further element exists past one of these
        two bounds.
        """
        cached = self._cache.get("group")
        if cached is None:
            cached = GroupEnum(self.generators, self._tables, self.n_points, DEFAULT_GROUP_CAP)
            self._cache["group"] = cached
        return cached

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
        if len(self.labels) != len(other.labels):
            raise InvalidPartitionError("labeling length mismatch")
        seen: dict = {}
        for mine, theirs in zip(self.labels, other.labels):
            if seen.setdefault(mine, theirs) != theirs:
                return False
        return True

    def invariant_under(self, sys: FiniteSystem) -> bool:
        """Whether every generator maps cell to cell: the refinement fixpoint
        of these labels under the generator tables keeps the cell count."""
        return len(generated_algebra(sys, self.labels)) == len(self)


def generated_algebra(sys: FiniteSystem, labels) -> GAlgebra:
    """Coarsest generator-stable partition refining the labeling ``labels``,
    one hashable label per point.  Only the generator tables are passed, not
    their ``~`` inverses: a permutation that maps every cell into a cell maps
    it onto one, so its inverse maps cell to cell as well."""
    return refine_partition(labels, [perm for _, perm in sys.generators])


def refine_partition(labels, perms) -> GAlgebra:
    """Coarsest partition refining ``labels``, one hashable label per point,
    that every permutation table in ``perms`` maps cell to cell.

    Hopcroft's splitter method (Hopcroft 1971; Paige-Tarjan 1987): cells are
    sets, and a worklist holds splitter cells, at first every initial cell but
    the largest.  A splitter's image under each table splits every cell it
    cuts only partly.  A split cell already on the worklist queues its new
    part; otherwise the smaller half is queued, since stability under a cell
    and one half gives stability under the other half.  So each point enters
    a splitter at most log2 N times and the fixpoint costs
    O(|perms| N log N), with no per-round relabeling.  Each table p must be a
    permutation of the points and is not inverted: splitting by images makes
    p^-1 map cells into cells, and so p too, since it is a bijection.
    """
    labels = canon_labels(labels)
    n = len(labels)
    perms = list(perms)
    for p in perms:
        if len(p) != n:
            raise InvalidParamsError("one label per point")
        if n and (min(p) < 0 or max(p) >= n):
            raise InvalidParamsError("table entries lie on the points")
        if len(set(p)) != n:
            raise InvalidParamsError("tables are permutations", "an entry repeats")
    cell_of = list(labels)
    cells = [set(cell) for cell in label_cells(labels)]
    largest = max(range(len(cells)), key=lambda c: len(cells[c]), default=None)
    queue = [c for c in range(len(cells)) if c != largest]
    queued = set(queue)
    while queue:
        top = queue.pop()
        queued.discard(top)
        splitter = tuple(cells[top])
        for p in perms:
            hits: dict = {}
            for y in splitter:
                x = p[y]
                hits.setdefault(cell_of[x], []).append(x)
            for c, part in hits.items():
                cell = cells[c]
                if len(part) == len(cell):
                    continue
                new = len(cells)
                cell.difference_update(part)
                cells.append(set(part))
                for x in part:
                    cell_of[x] = new
                pick = new if c in queued or len(part) <= len(cell) else c
                queue.append(pick)
                queued.add(pick)
    return GAlgebra(cell_of)


@dataclass(frozen=True)
class PseudoMap:
    """Partial bijection whose every point moves by a recorded group element."""

    system: FiniteSystem
    pairs: tuple  # ((x, y), ...) sorted by x
    moves: tuple  # walk-index move carrying x to y, aligned with pairs

    def __post_init__(self):
        try:  # a pair of another length or type, or pairs that are no sequence
            malformed = set(map(type, self.pairs)) - {tuple} or set(map(len, self.pairs)) - {2}
            xs, ys = tuple(zip(*self.pairs)) or ((), ())
        except (TypeError, ValueError):
            malformed = True
        if malformed or set(map(type, xs + ys)) - {int}:
            raise InvalidParamsError("pairs are pairs of points")
        if len(self.moves) != len(self.pairs):
            raise InvalidParamsError("one move per pair")
        if xs and (min(min(xs), min(ys)) < 0 or max(max(xs), max(ys)) >= self.system.n_points):
            raise InvalidParamsError("pairs live on the points")
        at = dict(zip(xs, range(len(xs))))  # x -> its pair's index
        if len(at) != len(xs) or len(set(ys)) != len(ys):
            raise InvalidParamsError("map must be a bijection")
        order = [at[x] for x in sorted(at)]
        object.__setattr__(self, "pairs", tuple([self.pairs[i] for i in order]))
        object.__setattr__(self, "moves", tuple([self.moves[i] for i in order]))
        object.__setattr__(self, "_fwd", dict(self.pairs))
        _check_moves(self.system.group(), self._fwd.keys(), self.moves, self._fwd)

    def then(self, other: "PseudoMap") -> "PseudoMap":
        """This map, then ``other`` where it is defined; only the rerouted pairs, whose
        moves join two checked ones, are evaluated, and the result must be a bijection."""
        if other.system is not self.system:
            raise InvalidParamsError("maps on one system")
        theirs = dict(zip(other.domain, other.moves))
        fwd, moves, xs, joined = dict(self._fwd), list(self.moves), [], []
        for k, (x, y) in enumerate(self.pairs):
            if y in theirs:
                fwd[x], moves[k] = other._fwd[y], moves[k] + theirs[y]
                xs.append(x)
                joined.append(moves[k])
        if len(set(fwd.values())) != len(fwd):
            raise InvalidParamsError("map must be a bijection")
        _check_moves(self.system.group(), xs, joined, fwd)
        out = object.__new__(PseudoMap)  # checked above: no second __post_init__
        out.__dict__.update(vars(self), pairs=tuple(fwd.items()), moves=tuple(moves), _fwd=fwd)
        return out

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


def _check_moves(enum: GroupEnum, xs, moves, fwd: dict) -> None:
    """Refuse moves that are not pairs of walk indices on the walk, then name the least
    x of the sorted ``xs`` that its move does not carry to ``fwd[x]``.  Each distinct
    move moves all its points at once, unless moves average under four points each."""
    try:  # a list, or a tuple holding one, is unhashable
        distinct = set(moves)
    except TypeError:
        distinct = {None}
    indices = [i for mv in distinct if type(mv) is tuple for i in mv]
    odd = any(len(mv) % 2 for mv in distinct if type(mv) is tuple)
    if set(map(type, distinct)) - {tuple} or set(map(type, indices)) - {int} or odd:
        raise InvalidParamsError("moves are pairs of walk indices")
    if indices and (min(indices) < 0 or not enum.reach(max(indices))):
        raise InvalidParamsError("move indices lie on the group walk")
    if len(distinct) * 4 > len(xs):
        for x, mv in zip(xs, moves):
            z = x
            for k in range(0, len(mv), 2):
                z = enum.image(mv[k + 1], enum.inverse_image(mv[k], z))
            if z != fwd[x]:
                raise InvalidParamsError("move certificate mismatch", f"at point {x}")
        return
    shared: dict = {}  # move -> its points
    for x, mv in zip(xs, moves):
        shared.setdefault(mv, []).append(x)
    bad = [x for mv, pts in shared.items()
           for x, y in zip(pts, enum.move_images(mv, pts)) if y != fwd[x]]
    if bad:
        raise InvalidParamsError("move certificate mismatch", f"at point {min(bad)}")


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
        i = 0
        while enum.reach(i):
            if all(enum.image(i, x) == fwd[x] for x in cell):
                break
            i += 1
        else:
            if enum.complete:
                return False
            raise ExpressibilityUndecided(
                "group enumeration capped before deciding a cell"
            )
    return True


def _sweep(enum: GroupEnum, dom, free: set, at: dict) -> tuple:
    """Greedy matching of the points ``dom`` into the set ``free`` along the
    walk: element i claims, by the move (0, i), every unmatched point of
    ``dom`` it sends into ``free``, and a claimed image leaves ``free``.
    Return the images and the claiming walk indices, aligned with ``dom``.

    ``at`` maps a point to the first walk index it still has to try (0 when
    absent) and is advanced in place.  A caller that only shrinks ``free``
    between sweeps passes the same map again: an element that missed a point
    misses it for good, so no sweep re-reads the elements before it.  Each
    element is a bijection, so points waiting on one index never compete;
    a heap over the waiting indices settles the claims lowest index first,
    the order of a sweep that starts again at element 0.
    """
    waiting: dict = {}  # walk index -> points that try it next
    for x in dom:
        waiting.setdefault(at.get(x, 0), []).append(x)
    order = list(waiting)
    heapq.heapify(order)
    probe = enum.image
    image, index = {}, {}
    while order:
        i = heapq.heappop(order)
        if not enum.reach(i):
            left = sorted(x for xs in waiting.values() for x in xs)
            raise InvalidParamsError(
                "group enumeration exhausted before matching", f"left {left}"
            )
        missed = []
        for x in waiting.pop(i):
            y = probe(i, x)
            if y in free:
                free.discard(y)
                image[x] = y
                index[x] = i
                at[x] = i + 1
            else:
                missed.append(x)
        if missed:
            if i + 1 in waiting:
                waiting[i + 1].extend(missed)
            else:
                waiting[i + 1] = missed
                heapq.heappush(order, i + 1)
    return tuple(image[x] for x in dom), tuple(index[x] for x in dom)


def _on_points(sys: FiniteSystem, points, name: str) -> None:
    if points and (min(points) < 0 or max(points) >= sys.n_points):
        raise InvalidParamsError(f"{name} lives on the points")


def simplemix(sys: FiniteSystem, A, B) -> PseudoMap:
    """Greedy sweep matching A into B along the group enumeration.

    Walk element i claims, by the move (0, i), every still-unmatched domain
    point it sends into the still-unclaimed part of B, so the decomposition
    is measurable over the algebra generated by {A, B}.  The sweep stops once
    A is matched, so the lazy walk goes no further than the elements it read.
    """
    A = sorted(set(A))
    Bset = set(B)
    if not A:
        raise InvalidParamsError("A nonempty")
    _on_points(sys, A, "A")
    _on_points(sys, Bset, "B")
    if len(A) > len(Bset):
        raise InvalidParamsError("weight(A) <= weight(B)")
    images, index = _sweep(sys.group(), A, Bset, {})
    return PseudoMap(sys, tuple(zip(A, images)), tuple((0, i) for i in index))


def _cycle(first, legs) -> tuple:
    """Pairs and moves of the order-n map sending phi_k(c) to phi_{k+1 mod n}(c)
    by the move (i_k, i_{k+1}), for c in ``first`` (sorted).  Leg k >= 1 is the
    sweep phi_k as (images, walk indices) aligned with ``first``: it moves c
    by (0, i_k), and phi_0 is the identity, element 0.

    The sweeps are not checked on their own: the map built from these pairs
    is, and that one check covers every leg.  Leg 0 proves phi_1(c) =
    g_{i_1}(c), each leg k then proves phi_{k+1}(c) from phi_k(c), and its
    distinct points prove the pieces disjoint.
    """
    legs = [(tuple(first), (0,) * len(first)), *legs]
    pairs, moves = [], []
    for k, (src, src_idx) in enumerate(legs):
        dst, dst_idx = legs[(k + 1) % len(legs)]
        pairs.extend(zip(src, dst))
        moves.extend(zip(src_idx, dst_idx))
    return pairs, moves


def make_equal_partition(sys: FiniteSystem, C, B, n: int) -> tuple:
    """Split B into n equal-size pieces with C as the first piece; return them
    with the order-n map cycling them, built from the matchings that cut them.

    Piece k is the sweep of C into what the pieces before it left of B.  The
    n-1 sweeps share that shrinking free set and one walk pointer per point
    of C, so together they read each walk element at most once per point, and
    the cycle map is the one check they get.
    """
    C = sorted(set(C))
    Bset = set(B)
    if not C:
        raise InvalidParamsError("C nonempty")
    _on_points(sys, Bset, "B")
    if not set(C) <= Bset:
        raise InvalidParamsError("C inside B")
    if n < 1:
        raise InvalidParamsError("n >= 1")
    if len(C) * n != len(Bset):
        raise DivisibilityError("weight(C) * n == weight(B)")
    enum = sys.group()
    free = Bset.difference(C)
    at: dict = {}
    legs = [_sweep(enum, C, free, at) for _ in range(n - 1)]
    pieces = [tuple(C)] + [tuple(sorted(images)) for images, _ in legs]
    return pieces, PseudoMap(sys, *_cycle(C, legs))


def _sweeps(sys: FiniteSystem, pieces) -> list:
    """Legs sweeping the first of the sorted ``pieces`` onto each later one."""
    enum = sys.group()
    return [_sweep(enum, pieces[0], set(p), {}) for p in pieces[1:]]


def cyclic_permute(sys: FiniteSystem, pieces) -> PseudoMap:
    """Order-n map sending piece k onto piece k+1, identity when n = 1.

    The pieces cut a set B; each piece after the first is the target of its
    own sweep of the first piece, with a fresh walk pointer.
    """
    pieces = [tuple(sorted(p)) for p in pieces]
    if not pieces or any(not p for p in pieces):
        raise InvalidParamsError("pieces nonempty")
    allpts = [x for p in pieces for x in p]
    _on_points(sys, allpts, "B")
    if len(set(allpts)) != len(allpts):
        raise InvalidParamsError("pieces pairwise disjoint")
    if any(len(p) != len(pieces[0]) for p in pieces):
        raise InvalidParamsError("pieces of equal weight")
    return PseudoMap(sys, *_cycle(pieces[0], _sweeps(sys, pieces)))


@dataclass(frozen=True)
class MixResult:
    classes: tuple  # tuple of point tuples, each of size n
    theta: PseudoMap
    n: int
    route: str  # "ratcomb" or "atomic"
    algebra: GAlgebra


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
    _on_points(sys, B, "B")
    eps = Fraction(eps)
    if eps < 0:
        raise InvalidParamsError("eps >= 0")
    Bset = set(B)
    algebra = generated_algebra(
        sys, ((x in Bset, lab if x in Bset else None) for x, lab in enumerate(labels))
    )
    atoms = [cell for cell in algebra.cells if cell[0] in Bset]
    counts = Counter(labels[x] for x in B)
    present = sorted(counts)
    a = ProbVec(tuple(Fraction(counts[c], len(B)) for c in present))
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
    pairs, moves = [], []
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
        block_pairs, block_moves = _cycle(block_pieces[0], _sweeps(sys, block_pieces))
        pairs.extend(block_pairs)
        moves.extend(block_moves)
    theta = PseudoMap(sys, tuple(pairs), tuple(moves))
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
    ids: dict = {}  # distinct value row -> its level, as canon_labels numbers it
    level = {x: ids.setdefault(tuple(Fraction(funcs[f][x]) for f in names), len(ids)) for x in B}
    labels = tuple(level[x] + 1 if x in level else 0 for x in range(sys.n_points))
    scale = max((sum(abs(v[i]) for v in ids) for i in range(len(names))), default=0)
    shrunk = Fraction(eps) / scale if scale > 0 else Fraction(eps)
    return avgmix(sys, B, labels, shrunk)

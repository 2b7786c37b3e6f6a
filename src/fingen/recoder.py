"""End-to-end recoding against a prescribed distribution.

The pipeline: shrink a large alphabet without losing the generated algebra,
read names along tower orbits, inject each coarse fiber into a packed set
of target codewords, realize the codewords as a pre-partition with exact
cell masses, and decode the original labeling back from the pre-partition.

The decoder is assisted: it receives the period map, the transversal, and
the coarse labels directly instead of reconstructing them from the output
partition, and every certificate records that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coding import FiberDistribution, build_code
from .errors import (
    AtypicalNameError,
    CapacityError,
    DecodeError,
    DivisibilityError,
    InvalidParamsError,
    InvalidPartitionError,
)
from .probvec import (
    Coarsening,
    ProbVec,
    canon_labels,
    coarsen,
    cond_entropy,
    entropy,
    entropy_pair,
    label_cells,
    label_distribution,
)
from .system import (
    FiniteSystem,
    GAlgebra,
    PseudoMap,
    generated_algebra,
    name_word,
    refine_partition,
    simplemix,
)
from .tower import Tower, build_tower
from .typical import CodeBook, PackingBudget, build_injections, choose_J, dbar, inequality

__all__ = [
    "RecodeParams",
    "RecodePlan",
    "AlphabetReductionPlan",
    "reduce_alphabet",
    "join_factor",
    "scan_towers",
    "recode_codebook",
    "encode_names",
    "synthesize_prepartition",
    "refine_to_p",
    "decode",
    "theta_algebra",
    "krieger_recode",
    "brute_force_generator_search",
]


@dataclass(frozen=True)
class RecodeParams:
    """Target vector p, the blocks coarsening it into q, scale r, tolerances.

    r, delta and eps are stored as Fractions whatever number type is given.
    """

    p: ProbVec
    blocks: Coarsening
    r: object
    delta: object
    eps: object

    def __post_init__(self):
        if self.blocks.size != len(self.p):
            raise InvalidPartitionError("blocks must partition the target alphabet")
        for name in ("r", "delta", "eps"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (0 < self.r <= 1):
            raise InvalidParamsError("0 < r <= 1")
        if not (0 < self.delta < 1):
            raise InvalidParamsError("0 < delta < 1")
        if self.eps < 0:
            raise InvalidParamsError("eps >= 0")

    @property
    def q(self) -> ProbVec:
        return coarsen(self.p, self.blocks)


# ---------------------------------------------------------------------------
# alphabet reduction


@dataclass(frozen=True)
class AlphabetReductionPlan:
    """Everything the reduction built: per-point code words, the cutoff, the
    tail partitions, and the relocations that rescue the truncated digits."""

    words: tuple  # ternary code word per point
    delta: Fraction
    cutoff: int
    tail: Fraction  # sum of weight(P_n) for n >= cutoff
    p_sets: tuple  # P_n for n = 1 .. max length, each sorted
    thetas: tuple  # (n, relocation map with domain P_n) for n >= cutoff
    relocated: tuple  # union of the relocation images, sorted
    digit_sets: tuple  # images of the digit classes: (B0, B1, B2)
    q_set: tuple  # image of the one-step tails, drives the chain recovery
    gamma: tuple  # labeling by the first cutoff-1 digits and their lengths

    def to_json(self) -> dict:
        return {
            "delta": str(self.delta),
            "cutoff": self.cutoff,
            "tail": str(self.tail),
            "max_len": max((len(w) for w in self.words), default=0),
            "relocations": [
                {"level": n, "moved": len(th.pairs)} for n, th in self.thetas
            ],
            "gamma_cells": len(set(self.gamma)),
        }


def _entropy_margin_ok(delta: float, eps: float) -> bool:
    return entropy_pair(delta, 1.0 - delta) + delta * math.log(7.0) < eps


def reduce_alphabet(
    sys: FiniteSystem,
    xi,
    F: GAlgebra,
    eps,
    delta=None,
    cutoff: int | None = None,
) -> tuple:
    """Replace xi by a small-alphabet labeling generating the same algebra
    over F, raising the conditional entropy by less than eps.

    Each point gets the ternary code word of its xi cell within its F fiber;
    the first cutoff-1 digits survive as a partition directly, deeper digits
    are relocated into three digit cells plus a chain cell on the light tail
    set.  The cutoff is the least level whose tail weight drops below delta;
    delta itself shrinks from min(1/5, eps/2) until the two-cell entropy
    margin fits inside eps.  Explicit delta or cutoff must meet the same
    constraints.
    """
    xi = canon_labels(xi)
    if len(xi) != sys.n_points:
        raise InvalidParamsError("one label per point")
    if len(F.labels) != sys.n_points:
        raise InvalidParamsError("F lives on the points")
    if not F.invariant_under(sys):
        raise InvalidPartitionError("F must be invariant")
    eps = Fraction(eps)
    eps_f = float(eps)
    if eps_f <= 0:
        raise InvalidParamsError("eps > 0")

    fd = FiberDistribution.from_labels(xi, F.labels, sys.weights.weights)
    code = build_code(fd)
    words = tuple(code.word(F.labels[x], xi[x]) for x in range(sys.n_points))
    max_len = max(len(w) for w in words)

    if delta is None:
        d = min(Fraction(1, 5), eps / 2)
        while not _entropy_margin_ok(float(d), eps_f):
            d /= 2
    else:
        d = Fraction(delta)
        if not (0 < d < min(Fraction(1, 4), eps / 2)) or not _entropy_margin_ok(
            float(d), eps_f
        ):
            raise InvalidParamsError(
                "delta < min(1/4, eps/2) with H(delta, 1-delta) + delta log 7 < eps"
            )

    p_sets = tuple(
        tuple(x for x in range(sys.n_points) if len(words[x]) >= n)
        for n in range(1, max_len + 1)
    )

    def tail(level: int) -> Fraction:
        return sum(
            (sys.total_weight(p_sets[n - 1]) for n in range(level, max_len + 1)),
            Fraction(0),
        )

    if cutoff is None:
        cut = next(n for n in range(1, max_len + 2) if tail(n) < d)
    else:
        cut = cutoff
        if cut < 1 or cut > max_len + 1:
            raise InvalidParamsError(
                "cutoff within the word lengths present", f"max length {max_len}"
            )
        if tail(cut) >= d:
            raise InvalidParamsError(
                "tail weight below delta at the cutoff",
                f"tail={tail(cut)} delta={d}",
            )

    # relocate each surviving tail level into the space still untouched
    blocked = set(p_sets[cut - 1]) if cut <= max_len else set()
    thetas = []
    for n in range(cut, max_len + 1):
        dom = p_sets[n - 1]
        if not dom:
            continue
        avail = [x for x in range(sys.n_points) if x not in blocked]
        th = simplemix(sys, dom, avail)
        thetas.append((n, th))
        blocked.update(th.apply(x) for x in dom)

    digit_sets = ([], [], [])
    q_pts = []
    relocated = []
    for n, th in thetas:
        for x, _ in th.pairs:
            y = th.apply(x)
            relocated.append(y)
            digit_sets[words[x][n - 1]].append(y)
            if len(words[x]) >= n + 1:
                q_pts.append(y)
    relocated = tuple(sorted(relocated))
    q_set = tuple(sorted(q_pts))

    gamma = canon_labels(w[:cut] for w in words)
    moved = {y: i for i, ys in enumerate(digit_sets) for y in ys}
    qmembers = set(q_set)
    alpha = canon_labels(
        (gamma[x], moved.get(x, -1), x in qmembers) for x in range(sys.n_points)
    )

    plan = AlphabetReductionPlan(
        words,
        d,
        cut,
        tail(cut),
        p_sets,
        tuple(thetas),
        relocated,
        tuple(tuple(sorted(b)) for b in digit_sets),
        q_set,
        gamma,
    )
    return alpha, plan


# ---------------------------------------------------------------------------
# name encoding and pre-partition synthesis


@dataclass(frozen=True)
class RecodePlan:
    """Per-transversal names, codewords, excluded indices, and the cells the
    surviving codeword positions claim.  Tuples align with the transversal."""

    tower: Tower
    codebook: CodeBook
    r: Fraction
    delta: Fraction
    reserved: tuple  # reserved points, sorted
    b_words: tuple  # coarse name per transversal point
    c_words: tuple  # fine name per transversal point
    codewords: tuple  # injected target word per transversal point
    m_full: tuple  # orbit indices hitting the reserved set, over the full class
    m_idx: tuple  # the same restricted to codeword positions
    j_idx: tuple  # trimmed positions from the frequency repair
    zeta: tuple  # claimed cells Z_t, one per target symbol, sorted

    def excluded(self, i: int) -> frozenset:
        return frozenset(self.m_idx[i]) | frozenset(self.j_idx[i])

    def budget(self) -> Fraction:
        k = self.codebook.k
        worst = max(len(self.excluded(i)) for i in range(len(self.b_words)))
        return Fraction(worst, k)

    def to_json(self) -> dict:
        return {
            "transversal": list(self.tower.transversal),
            "reserved": list(self.reserved),
            "codewords": [list(w) for w in self.codewords],
            "excluded": [sorted(self.excluded(i)) for i in range(len(self.b_words))],
            "zeta_sizes": [len(z) for z in self.zeta],
            "budget": str(self.budget()),
        }


def encode_names(
    sys: FiniteSystem,
    tower: Tower,
    xi,
    beta,
    codebook: CodeBook,
    *,
    r,
    delta,
    reserved=(),
) -> RecodePlan:
    """Read each transversal's coarse and fine names, inject the fine name
    through its book, and trim indices until every kept symbol frequency
    sits strictly below the completion targets.

    Reserved points are excluded from claimed positions; their per-orbit
    density must stay below 2 r delta.  A name outside the codebook's
    typical sets is a mismatch between the tower and the codebook.
    """
    if tower.system is not sys:
        raise InvalidParamsError("tower belongs to a different system")
    xi = tuple(xi)
    beta = tuple(beta)
    if len(xi) != sys.n_points or len(beta) != sys.n_points:
        raise InvalidParamsError("one label per point")
    r = Fraction(r)
    delta = Fraction(delta)
    n = tower.n
    k = codebook.k
    if k > n:
        raise InvalidParamsError("codeword length at most the class size")
    reserved = tuple(sorted(set(reserved)))
    if any(not (0 <= x < sys.n_points) for x in reserved):
        raise InvalidParamsError("reserved points live on the points")
    mset = set(reserved)

    b_words, c_words, codewords, m_full, m_idx, j_idx = [], [], [], [], [], []
    zeta: list = [set() for _ in range(len(codebook.q))]
    for y in tower.transversal:
        orbit = tower.theta.orbit(y)
        if len(orbit) != n:
            raise InvalidParamsError("class size mismatch", f"at {y}")
        b = tuple(beta[x] for x in orbit)
        c = tuple(xi[x] for x in orbit)
        try:
            book = codebook.mapping(b)
        except KeyError:
            raise AtypicalNameError(f"coarse name of {y} has no book")
        if c not in book:
            raise AtypicalNameError(f"fine name of {y} is outside its book")
        a = book[c]
        mf = tuple(i for i, x in enumerate(orbit) if x in mset)
        if len(mf) >= 2 * r * delta * n:
            raise InvalidParamsError(
                "reserved density |M_y| < 2 r delta n", f"|M_y|={len(mf)} at {y}"
            )
        mi = tuple(i for i in mf if i < k)
        J = choose_J(a, mi, delta, codebook.eps, codebook.q)
        for i in range(k):
            if i not in mi and i not in J:
                zeta[a[i]].add(orbit[i])
        b_words.append(b)
        c_words.append(c)
        codewords.append(a)
        m_full.append(mf)
        m_idx.append(mi)
        j_idx.append(tuple(sorted(J)))

    return RecodePlan(
        tower,
        codebook,
        r,
        delta,
        reserved,
        tuple(b_words),
        tuple(c_words),
        tuple(codewords),
        tuple(m_full),
        tuple(m_idx),
        tuple(j_idx),
        tuple(tuple(sorted(z)) for z in zeta),
    )


def synthesize_prepartition(plan: RecodePlan, params: RecodeParams) -> tuple:
    """Grow each claimed cell Z_t to exact mass r * q_t.

    The fill draws from points no codeword position claimed, unreserved
    points first, lowest index first.  The claimed cells must sit strictly
    below their targets; integral targets are a divisibility requirement.
    """
    sys = plan.tower.system
    npts = sys.n_points
    targets = []
    for t, w in enumerate(params.q.as_fractions()):
        goal = params.r * w * npts
        if goal.denominator != 1:
            raise DivisibilityError(
                "integral target counts r * q_t * N", f"symbol {t} needs {goal}"
            )
        targets.append(int(goal))
        if len(plan.zeta[t]) >= goal:
            raise InvalidParamsError(
                "completion room weight(Z_t) < r * q_t",
                f"symbol {t}: {len(plan.zeta[t])} of {goal}",
            )
    used = set().union(*map(set, plan.zeta)) if plan.zeta else set()
    rset = set(plan.reserved)
    pool = sorted((x for x in range(npts) if x not in used), key=lambda x: (x in rset, x))
    cells = []
    at = 0
    for t, goal in enumerate(targets):
        need = goal - len(plan.zeta[t])
        grabbed, at = pool[at : at + need], at + need
        cells.append(tuple(sorted(plan.zeta[t] + tuple(grabbed))))
    return tuple(cells)


def refine_to_p(sys: FiniteSystem, cells, params: RecodeParams) -> tuple:
    """Split each target cell along the blocks to reach masses r * p_i."""
    npts = sys.n_points
    p = params.p.as_fractions()
    out: list = [None] * len(p)
    for t, block in enumerate(params.blocks.blocks):
        pts = sorted(cells[t])
        at = 0
        for i in block:
            goal = params.r * p[i] * npts
            if goal.denominator != 1:
                raise DivisibilityError(
                    "integral target counts r * p_i * N", f"cell {i} needs {goal}"
                )
            out[i], at = tuple(pts[at : at + int(goal)]), at + int(goal)
        if at != len(pts):
            raise InvalidPartitionError("blocks do not exhaust the cell")
    return tuple(out)


# ---------------------------------------------------------------------------
# decoding


def _observed_prefix(alpha, orbit, k: int, block_of) -> list:
    """Labels alpha shows on the first k orbit points, mapped through
    block_of when given, with -1 where alpha leaves a point unassigned."""
    out = []
    for x in orbit[:k]:
        v = alpha[x]
        if v is not None and block_of is not None:
            v = block_of[v]
        out.append(-1 if v is None else v)
    return out


def decode(
    sys: FiniteSystem,
    alpha,
    beta,
    Y,
    theta: PseudoMap,
    codebook: CodeBook,
    delta,
    p_blocks: Coarsening | None = None,
) -> tuple:
    """Recover the fine labeling from a pre-partition labeling alone.

    Per transversal point: the coarse name picks the book, the unique
    codeword within dbar-distance delta of the observed prefix inverts the
    injection, and the fine name redistributes along the orbit.  Unassigned
    points and block coarsening are resolved before comparing.
    """
    delta = Fraction(delta)
    alpha = tuple(alpha)
    beta = tuple(beta)
    block_of = p_blocks.block_of() if p_blocks is not None else None
    out: list = [None] * sys.n_points
    for y in sorted(Y):
        orbit = theta.orbit(y)
        b = tuple(beta[x] for x in orbit)
        try:
            book = codebook.mapping(b)
        except KeyError:
            raise DecodeError("observed coarse name has no book")
        prefix = _observed_prefix(alpha, orbit, codebook.k, block_of)
        hits = [c for c, w in book.items() if dbar(prefix, w) < delta]
        if len(hits) != 1:
            raise DecodeError(
                "exactly one codeword within the radius", f"found {len(hits)}"
            )
        for i, x in enumerate(orbit):
            out[x] = hits[0][i]
    if any(v is None for v in out):
        raise InvalidParamsError("transversal orbits must cover the points")
    return tuple(out)


def theta_algebra(theta: PseudoMap, seeds) -> GAlgebra:
    """Refinement fixpoint of the seed sets under one full-domain map."""
    npts = theta.system.n_points
    fwd = [theta.apply(x) for x in range(npts)]
    inv = [0] * npts
    for x, y in enumerate(fwd):
        inv[y] = x
    return refine_partition(npts, seeds, [fwd, inv])


# ---------------------------------------------------------------------------
# the full pipeline

TOWER_EPS_LADDER = (2, Fraction(5, 2), 3, Fraction(7, 2), 4)


def join_factor(xi, F: GAlgebra) -> tuple:
    """The join of xi with the cells of F, labels numbered by sorted
    (coarse, fine) pairs.

    Returns (fine, beta, blocks, dist): the joined labeling, the rank of each
    point's F cell, the blocks grouping joined labels by F cell, and the
    point-count distribution of the joined labels.
    """
    pairs = sorted(set(zip(F.labels, xi)))
    index = {pair: i for i, pair in enumerate(pairs)}
    fine = tuple(index[pair] for pair in zip(F.labels, xi))
    rank = {b: j for j, b in enumerate(sorted(set(F.labels)))}
    blocks = tuple(tuple(i for i, (b, _) in enumerate(pairs) if b == bb) for bb in rank)
    beta = tuple(rank[b] for b in F.labels)
    return fine, beta, Coarsening(blocks, len(pairs)), label_distribution(fine)


def scan_towers(sys: FiniteSystem, fine, tower_eps=None, nmin: int = 1, m=None) -> tuple:
    """Tower the joined labeling at the first workable tolerance: tower_eps
    alone when given, else each of TOWER_EPS_LADDER in turn.

    Returns (tower, scan); scan records every tolerance tried, with the
    column count it reached or the constraint it failed.
    """
    # checked here because the scan below records a failed tolerance and
    # moves on, which would hide a bad m behind "no workable tower tolerance"
    if m is not None and m < 1:
        raise InvalidParamsError("m >= 1", f"m={m}")
    scan = []
    for te in TOWER_EPS_LADDER if tower_eps is None else (tower_eps,):
        try:
            tower = build_tower(sys, fine, te, nmin, m)
        except (InvalidParamsError, DivisibilityError) as e:
            scan.append({"tower_eps": str(Fraction(te)), "ok": False, "error": str(e)})
        else:
            scan.append({"tower_eps": str(Fraction(te)), "ok": True, "m": tower.m})
            return tower, scan
    raise InvalidParamsError("no workable tower tolerance", f"scan={scan}")


def recode_codebook(
    sys: FiniteSystem, tower: Tower, beta, dist: ProbVec, blocks: Coarsening,
    params: RecodeParams, pack_delta=None, capacity: str = "exact",
) -> tuple:
    """Books for the coarse names the tower reads, packed into target words
    over q at tolerance pack_delta (default 9 / (400 |q|)).

    Returns (codebook, pack_delta).
    """
    q = params.q
    pack_delta = Fraction(9, 400 * len(q)) if pack_delta is None else Fraction(pack_delta)
    needed = sorted({name_word(sys, beta, tower.theta, y) for y in tower.transversal})
    budget = PackingBudget(pack_delta, params.r)
    codebook = build_injections(dist, blocks, q, budget, params.eps, tower.n, capacity, only=needed)
    return codebook, pack_delta


def krieger_recode(
    sys: FiniteSystem,
    xi,
    F: GAlgebra,
    params: RecodeParams,
    *,
    reserved=(),
    tower_eps=None,
    m: int | None = None,
    nmin: int = 1,
    pack_delta=None,
    capacity: str = "exact",
) -> tuple:
    """Realize the target distribution on a pre-partition that recodes xi.

    Joins xi with the partition of F, towers the join, injects the orbit
    names into a packed codebook over q, synthesizes cells of exact masses
    r * p_i, and certifies by decoding: the recovered labeling must equal
    xi on every point and the orbit-translates of the output cells, the
    coarse cells, and the transversal must generate a partition refining
    xi.  The feasibility scan over tower tolerances is recorded verbatim.
    """
    xi = tuple(xi)
    if len(xi) != sys.n_points:
        raise InvalidParamsError("one label per point")
    if not F.invariant_under(sys):
        raise InvalidPartitionError("F must be invariant")
    npts = sys.n_points
    r, delta, q = params.r, params.delta, params.q

    h_xi_f = cond_entropy(xi, F.labels, sys.weights.weights)
    h_target = float(r) * entropy(params.p)
    if not h_xi_f < h_target:
        raise InvalidParamsError(
            "H(xi | F) < r * H(p)", f"{h_xi_f:.6f} vs {h_target:.6f}"
        )

    fine, beta, fine_blocks, fine_dist = join_factor(xi, F)
    tower, scan = scan_towers(sys, fine, tower_eps, nmin, m)
    codebook, pack_delta = recode_codebook(
        sys, tower, beta, fine_dist, fine_blocks, params, pack_delta, capacity
    )
    plan = encode_names(sys, tower, fine, beta, codebook, r=r, delta=delta, reserved=reserved)

    separation = codebook.separation()
    radius = separation / 2
    mismatch = plan.budget()
    if not mismatch < radius:
        raise CapacityError(
            "decoder-budget",
            f"max |M_y ∪ J_y| / k = {mismatch} vs separation/2 = {radius}",
        )

    cells_q = synthesize_prepartition(plan, params)
    cells_p = refine_to_p(sys, cells_q, params)
    label_of = {x: i for i, cell in enumerate(cells_p) for x in cell}
    alpha = tuple(label_of.get(x) for x in range(npts))

    decoded = decode(
        sys, alpha, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
    )
    if decoded != fine:
        raise DecodeError("decoded labeling differs from the input")
    algebra = theta_algebra(tower.theta, list(cells_p) + label_cells(beta) + [tower.transversal])

    k, block_of = codebook.k, params.blocks.block_of()
    measured = max(
        dbar(_observed_prefix(alpha, tower.theta.orbit(y), k, block_of), a)
        for y, a in zip(tower.transversal, plan.codewords)
    )
    q_w, p_w = q.as_fractions(), params.p.as_fractions()
    masses_q = [Fraction(len(c), npts) for c in cells_q]
    masses_p = [Fraction(len(c), npts) for c in cells_p]
    claimed = [Fraction(len(z), npts) for z in plan.zeta]
    most_reserved = max((len(mf) for mf in plan.m_full), default=0)
    most_trimmed = max((len(j) for j in plan.j_idx), default=0)
    reserve_cap = 2 * r * delta * tower.n
    trim_cap, name_cap = 3 * delta * len(q) * k, 10 * delta * len(q)
    inequalities = [
        inequality("entropy-precondition", h_xi_f, h_target, h_xi_f < h_target),
        inequality(
            "reserved-density", most_reserved, float(reserve_cap), most_reserved < reserve_cap
        ),
        inequality("trim-bound", most_trimmed, float(trim_cap), most_trimmed < trim_cap),
        inequality("decoder-budget", float(mismatch), float(radius), mismatch < radius),
        inequality("name-distance", float(measured), float(name_cap), measured < name_cap),
        inequality(
            "claimed-margin", float(max(claimed)), float(r) * max(float(w) for w in q_w),
            all(z < r * w for z, w in zip(claimed, q_w)),
        ),
    ]
    certificate = {
        "schema": "1",
        "assisted_decode": True,
        "params": {
            "p": params.p.to_strings(),
            "q": q.to_strings(),
            "blocks": [list(b) for b in params.blocks.blocks],
            "r": str(r),
            "delta": str(delta),
            "eps": str(params.eps),
            "pack_delta": str(pack_delta),
            "reserved": list(plan.reserved),
        },
        "system": {"points": npts},
        "tower": {
            "m": tower.m,
            "n": tower.n,
            "classes": len(tower.transversal),
            "side_weight": str(sys.total_weight(tower.s1) + sys.total_weight(tower.s2)),
        },
        "codebook": {
            "k": k,
            "rho": str(codebook.rho),
            "packing_size": len(codebook.packing),
            "books": len(codebook.books),
            "separation": str(separation),
            "checks": codebook.checks,
        },
        "scan": scan,
        "inequalities": inequalities,
        "masses": {
            "q_level": [str(v) for v in masses_q],
            "p_level": [str(v) for v in masses_p],
            "exact": masses_q == [r * w for w in q_w]
            and masses_p == [r * w for w in p_w],
        },
        "decode": {"status": "exact"},
        "algebra": {"refines_xi": algebra.refines(GAlgebra(fine)), "cells": len(algebra)},
    }
    return alpha, certificate


# ---------------------------------------------------------------------------
# exhaustive oracle


def brute_force_generator_search(sys: FiniteSystem, k_max: int) -> tuple:
    """Minimum entropy over all generating partitions, by full enumeration.

    Partitions are walked as restricted growth strings pruned at k_max
    cells; a partition generates when the translate fixpoint separates all
    points.  Ties keep the witness whose cells, ordered by size then least
    element, come lexicographically first.  Returns (inf, None) when no
    partition with at most k_max cells generates.
    """
    npts = sys.n_points
    if npts > 10:
        raise InvalidParamsError("N <= 10 for exhaustive partition search")
    if k_max < 1:
        raise InvalidParamsError("k_max >= 1")
    best_h = math.inf
    best: tuple | None = None
    labels = [0] * npts

    def consider():
        nonlocal best_h, best
        cells = label_cells(labels)
        algebra = generated_algebra(sys, cells)
        if len(algebra) != npts:
            return
        h = entropy(ProbVec(tuple(sys.total_weight(c) for c in cells)))
        witness = tuple(sorted(cells, key=lambda c: (len(c), c)))
        if h < best_h - 1e-12 or (abs(h - best_h) <= 1e-12 and witness < best):
            best_h, best = h, witness

    def rec(i: int, top: int):
        if i == npts:
            consider()
            return
        for v in range(min(top + 1, k_max - 1) + 1):
            labels[i] = v
            rec(i + 1, max(top, v))

    rec(1 if npts else 0, 0)
    return best_h, best

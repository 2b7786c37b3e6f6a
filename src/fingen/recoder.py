"""End-to-end recoding against a prescribed distribution.

The pipeline ``krieger_recode`` runs: join the labeling with the factor,
read names along tower orbits, inject each coarse fiber into a packed set
of target codewords, realize the codewords as a pre-partition with exact
cell masses, and decode the original labeling back from the pre-partition.
Alphabet reduction (``reduce_alphabet``, ``fingen reduce``) is separate.

The decoder is assisted: it receives the period map, the transversal, and
the coarse labels directly instead of reconstructing them from the output
partition, and every certificate records that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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
    "growth_strings",
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
    digit_sets: tuple  # images of the digit classes: (B0, B1, B2)
    q_set: tuple  # image of the one-step tails, drives the chain recovery
    gamma: tuple  # labeling by the first cutoff-1 digits and their lengths

    @property
    def relocated(self) -> tuple:
        """Union of the relocation images, sorted: each image takes one digit."""
        return tuple(sorted(y for ys in self.digit_sets for y in ys))

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


def _check_inputs(sys: FiniteSystem, xi: tuple, F: GAlgebra) -> None:
    if len(xi) != sys.n_points:
        raise InvalidParamsError("one label per point")
    if len(F.labels) != sys.n_points:
        raise InvalidParamsError("F lives on the points")
    if not F.invariant_under(sys):
        raise InvalidPartitionError("F must be invariant")


def reduce_alphabet(sys: FiniteSystem, xi, F: GAlgebra, eps) -> tuple:
    """Replace xi by a small-alphabet labeling generating the same algebra
    over F, raising the conditional entropy by less than eps.

    Each point gets the ternary code word of its xi cell within its F fiber;
    the first cutoff-1 digits survive as a partition directly, deeper digits
    are relocated into three digit cells plus a chain cell on the light tail
    set.  The cutoff is the least level whose tail weight drops below delta;
    delta itself shrinks from min(1/5, eps/2) until the two-cell entropy
    margin fits inside eps.
    """
    xi = canon_labels(xi)
    _check_inputs(sys, xi, F)
    eps = Fraction(eps)
    eps_f = float(eps)
    if eps_f <= 0:
        raise InvalidParamsError("eps > 0")

    fd = FiberDistribution.from_labels(xi, F.labels)
    code = build_code(fd)
    words = tuple(code[F.labels[x]][xi[x]] for x in range(sys.n_points))
    max_len = max(len(w) for w in words)

    d = min(Fraction(1, 5), eps / 2)
    while not entropy_pair(float(d), 1.0 - float(d)) + float(d) * math.log(7.0) < eps_f:
        d /= 2

    p_sets = tuple(
        tuple(x for x in range(sys.n_points) if len(words[x]) >= n)
        for n in range(1, max_len + 1)
    )

    # tails[n - 1] is the weight of P_n, P_n+1, ..., P_max_len; the last is 0
    tails = list(accumulate(map(sys.total_weight, reversed(p_sets)), initial=Fraction(0)))
    tails.reverse()
    cut = next(n for n, t in enumerate(tails, 1) if t < d)

    # relocate each tail level into untouched space; each P_n holds P_max_len != {}
    thetas = []
    if cut <= max_len:
        free = set(range(sys.n_points)).difference(p_sets[cut - 1])
        for n in range(cut, max_len + 1):
            th = simplemix(sys, p_sets[n - 1], free)
            thetas.append((n, th))
            free.difference_update(y for _, y in th.pairs)

    digit_sets = ([], [], [])
    q_pts = []
    for n, th in thetas:
        for x, y in th.pairs:
            digit_sets[words[x][n - 1]].append(y)
            if len(words[x]) >= n + 1:
                q_pts.append(y)
    q_set = tuple(sorted(q_pts))

    gamma = canon_labels(w[:cut - 1] for w in words)
    moved = {y: i for i, ys in enumerate(digit_sets) for y in ys}
    qmembers = set(q_set)
    alpha = canon_labels(
        (gamma[x], moved.get(x, -1), x in qmembers) for x in range(sys.n_points)
    )

    plan = AlphabetReductionPlan(
        words,
        d,
        cut,
        tails[cut - 1],
        p_sets,
        tuple(thetas),
        tuple(tuple(sorted(b)) for b in digit_sets),
        q_set,
        gamma,
    )
    return alpha, plan


# ---------------------------------------------------------------------------
# name encoding and pre-partition synthesis


@dataclass(frozen=True)
class RecodePlan:
    """Per-transversal codewords, excluded indices, the cells the surviving
    codeword positions claim, and the records ``encode_names`` gated on.
    Tuples align with the transversal.  ``claimed_margin`` builds the one
    record that ``synthesize_prepartition`` gates on and the certificate lists."""

    tower: Tower
    codebook: CodeBook
    reserved: tuple  # reserved points, sorted
    codewords: tuple  # injected target word per transversal point
    m_full: tuple  # orbit indices hitting the reserved set, over the full class
    j_idx: tuple  # trimmed positions from the frequency repair
    zeta: tuple  # claimed cells Z_t, one per target symbol, sorted
    checks: tuple  # the "reserved-density" and "trim-bound" records, both holding

    def budget(self) -> Fraction:
        """max over y of |M_y ∪ J_y| / k; J_y takes no reserved index."""
        k = self.codebook.k
        worst = max(sum(i < k for i in mf) + len(j) for mf, j in zip(self.m_full, self.j_idx))
        return Fraction(worst, k)

    def claimed_margin(self, params: RecodeParams) -> dict:
        """The "claimed-margin" record: weight(Z_t) < r * q_t for every t."""
        claimed = [Fraction(len(z), self.tower.system.n_points) for z in self.zeta]
        q_w = params.q.weights
        return inequality(
            "claimed-margin", float(max(claimed)), float(params.r) * max(float(w) for w in q_w),
            all(z < params.r * w for z, w in zip(claimed, q_w)),
        )


def encode_names(
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

    Reserved points are excluded from claimed positions.  The plan carries
    the records it gated on: "reserved-density" (max |M_y| < 2 r delta n) and
    "trim-bound" (max |J_y| < 3 delta |q| k).  A name outside the codebook's
    typical sets is a mismatch between the tower and the codebook.
    """
    sys = tower.system
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

    codewords, m_full, j_idx = [], [], []
    zeta: list = [set() for _ in range(len(codebook.q))]
    for y in tower.transversal:
        orbit = tower.theta.orbit(y)
        if len(orbit) != n:
            raise InvalidParamsError("class size mismatch", f"at {y}")
        b = tuple(beta[x] for x in orbit)
        c = tuple(xi[x] for x in orbit)
        try:
            fiber = codebook.fiber(b)
        except KeyError:
            raise AtypicalNameError(f"coarse name of {y} has no book")
        try:
            a = codebook.packing[fiber.index(c)]
        except AtypicalNameError:
            raise AtypicalNameError(f"fine name of {y} is outside its book")
        mf = tuple(i for i, x in enumerate(orbit) if x in mset)
        mi = tuple(i for i in mf if i < k)
        J = choose_J(a, mi, delta, codebook.eps, codebook.q)
        for i in range(k):
            if i not in mi and i not in J:
                zeta[a[i]].add(orbit[i])
        codewords.append(a)
        m_full.append(mf)
        j_idx.append(tuple(sorted(J)))

    most_m, at_m = max(zip(map(len, m_full), tower.transversal))
    most_j, at_j = max(zip(map(len, j_idx), tower.transversal))
    reserve_cap, trim_cap = 2 * r * delta * n, 3 * delta * len(codebook.q) * k
    density = inequality("reserved-density", most_m, float(reserve_cap), most_m < reserve_cap)
    trim = inequality("trim-bound", most_j, float(trim_cap), most_j < trim_cap)
    if not density["holds"]:
        raise InvalidParamsError("reserved density |M_y| < 2 r delta n", f"|M_y|={most_m} at {at_m}")
    if not trim["holds"]:
        raise InvalidParamsError("trim size bound |J| < 3 delta |q| n", f"|J|={most_j} at {at_j}")
    return RecodePlan(
        tower,
        codebook,
        reserved,
        tuple(codewords),
        tuple(m_full),
        tuple(j_idx),
        tuple(tuple(sorted(z)) for z in zeta),
        (density, trim),
    )


def synthesize_prepartition(plan: RecodePlan, params: RecodeParams) -> tuple:
    """Grow each claimed cell Z_t to exact mass r * q_t.

    The fill draws from points no codeword position claimed, unreserved
    points first, lowest index first.  Integral targets are a divisibility
    requirement, and the plan as given must pass the "claimed-margin" record:
    every claimed cell strictly below its target.
    """
    npts = plan.tower.system.n_points
    targets = []
    for t, w in enumerate(params.q.weights):
        goal = params.r * w * npts
        if goal.denominator != 1:
            raise DivisibilityError(
                "integral target counts r * q_t * N", f"symbol {t} needs {goal}"
            )
        targets.append(int(goal))
    if not plan.claimed_margin(params)["holds"]:
        raise InvalidParamsError(
            "completion room weight(Z_t) < r * q_t",
            f"claimed {[len(z) for z in plan.zeta]} of {targets} points",
        )
    used = set().union(*plan.zeta)
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
    if len(cells) != len(params.blocks):
        raise InvalidPartitionError("one cell per block")
    npts = sys.n_points
    p = params.p.weights
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
    """Blocks of the labels alpha shows on the first k orbit points, with -1
    where alpha leaves a point unassigned."""
    return [-1 if alpha[x] is None else block_of[alpha[x]] for x in orbit[:k]]


def decode(
    alpha,
    beta,
    Y,
    theta: PseudoMap,
    codebook: CodeBook,
    delta,
    p_blocks: Coarsening,
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
    if len(alpha) != theta.system.n_points or len(beta) != theta.system.n_points:
        raise InvalidParamsError("one label per point")
    block_of = p_blocks.block_of()
    if any(a is not None and a not in block_of for a in alpha):
        raise InvalidPartitionError("alpha labels lie in the target alphabet")
    out: list = [None] * theta.system.n_points
    for y in sorted(Y):
        orbit = theta.orbit(y)
        b = tuple(beta[x] for x in orbit)
        try:
            fiber = codebook.fiber(b)
        except KeyError:
            raise DecodeError("observed coarse name has no book")
        prefix = _observed_prefix(alpha, orbit, codebook.k, block_of)
        # dbar(prefix, w) < delta, counted in mismatches on the min(len) positions
        limit = delta * min(len(prefix), codebook.k)
        hits = [
            i for i, w in enumerate(codebook.packing[: len(fiber)])
            if sum(x != t for x, t in zip(prefix, w)) < limit
        ]
        if len(hits) != 1:
            raise DecodeError(
                "exactly one codeword within the radius", f"found {len(hits)}"
            )
        for x, s in zip(orbit, fiber[hits[0]]):
            out[x] = s
    if any(v is None for v in out):
        raise InvalidParamsError("transversal orbits must cover the points")
    return tuple(out)


def theta_algebra(theta: PseudoMap, labels) -> GAlgebra:
    """Refinement fixpoint of the labeling ``labels`` under one full-domain
    map; stability under a bijection gives stability under its inverse."""
    return refine_partition(labels, [[theta.apply(x) for x in range(theta.system.n_points)]])


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
    if len(xi) != len(F.labels):
        raise InvalidPartitionError("labeling length mismatch")
    pairs = sorted(set(zip(F.labels, xi)))
    index = {pair: i for i, pair in enumerate(pairs)}
    fine = tuple(index[pair] for pair in zip(F.labels, xi))
    rank = {b: j for j, b in enumerate(sorted(set(F.labels)))}
    blocks = tuple(tuple(i for i, (b, _) in enumerate(pairs) if b == bb) for bb in rank)
    beta = tuple(rank[b] for b in F.labels)
    return fine, beta, Coarsening(blocks, len(pairs)), label_distribution(fine)


def scan_towers(sys: FiniteSystem, fine, tower_eps=None, *, m=None) -> tuple:
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
            tower = build_tower(sys, fine, te, m=m)
        except (InvalidParamsError, DivisibilityError) as e:
            scan.append({"tower_eps": str(Fraction(te)), "ok": False, "error": str(e)})
        else:
            scan.append({"tower_eps": str(Fraction(te)), "ok": True, "m": tower.m})
            return tower, scan
    raise InvalidParamsError("no workable tower tolerance", f"scan={scan}")


def recode_codebook(
    tower: Tower, beta, dist: ProbVec, blocks: Coarsening,
    params: RecodeParams, pack_delta=None, capacity: str = "exact",
) -> tuple:
    """Books for the coarse names the tower reads, packed into target words
    over q at tolerance pack_delta (default 9 / (400 |q|)).

    Returns (codebook, pack_delta).
    """
    q = params.q
    pack_delta = Fraction(9, 400 * len(q)) if pack_delta is None else Fraction(pack_delta)
    needed = sorted({tuple(beta[x] for x in tower.theta.orbit(y)) for y in tower.transversal})
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
    _check_inputs(sys, xi, F)
    npts = sys.n_points
    r, delta, q = params.r, params.delta, params.q

    h_xi_f = cond_entropy(xi, F.labels)
    h_target = float(r) * entropy(params.p)
    precondition = inequality("entropy-precondition", h_xi_f, h_target, h_xi_f < h_target)
    if not precondition["holds"]:
        raise InvalidParamsError(
            "H(xi | F) < r * H(p)", f"{h_xi_f:.6f} vs {h_target:.6f}"
        )

    fine, beta, fine_blocks, fine_dist = join_factor(xi, F)
    tower, scan = scan_towers(sys, fine, tower_eps, m=m)
    codebook, pack_delta = recode_codebook(
        tower, beta, fine_dist, fine_blocks, params, pack_delta, capacity
    )
    plan = encode_names(tower, fine, beta, codebook, r=r, delta=delta, reserved=reserved)

    radius = codebook.separation() / 2
    mismatch = plan.budget()
    budget = inequality("decoder-budget", float(mismatch), float(radius), mismatch < radius)
    if not budget["holds"]:
        raise CapacityError(
            "decoder-budget",
            f"max |M_y ∪ J_y| / k = {mismatch} vs separation/2 = {radius}",
        )

    cells_q = synthesize_prepartition(plan, params)
    cells_p = refine_to_p(sys, cells_q, params)
    label_of = {x: i for i, cell in enumerate(cells_p) for x in cell}
    alpha = tuple(label_of.get(x) for x in range(npts))

    decoded = decode(
        alpha, beta, tower.transversal, tower.theta, codebook, radius, params.blocks
    )
    if decoded != fine:
        raise DecodeError("decoded labeling differs from the input")
    marks = set(tower.transversal)
    algebra = theta_algebra(tower.theta, zip(alpha, beta, (x in marks for x in range(npts))))

    k, block_of = codebook.k, params.blocks.block_of()
    measured = max(
        dbar(_observed_prefix(alpha, tower.theta.orbit(y), k, block_of), a)
        for y, a in zip(tower.transversal, plan.codewords)
    )
    q_w, p_w = q.weights, params.p.weights
    masses_q = [Fraction(len(c), npts) for c in cells_q]
    masses_p = [Fraction(len(c), npts) for c in cells_p]
    name_cap = 10 * delta * len(q)
    inequalities = [
        precondition,
        *plan.checks,
        budget,
        inequality("name-distance", float(measured), float(name_cap), measured < name_cap),
        plan.claimed_margin(params),
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
        "codebook": codebook.summary(),
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
# minimum-generator oracle


def growth_strings(n: int, k_max: int):
    """Every partition of ``range(n)`` into at most k_max >= 1 cells, once.

    Yields restricted growth strings (label 0 first, each label at most one
    above the largest before it, all below k_max) in lexicographic order.
    """
    labels = [0] * n
    tops = [0] * n  # tops[i] = max(labels[: i + 1])
    while True:
        yield tuple(labels)
        i = n - 1
        while i > 0 and labels[i] >= min(tops[i - 1] + 1, k_max - 1):
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        tops[i:] = [max(tops[i - 1], labels[i])] * (n - i)
        labels[i + 1 :] = [0] * (n - i - 1)


def brute_force_generator_search(sys: FiniteSystem, k_max: int) -> tuple:
    """Minimum entropy over generating partitions with at most k_max cells.

    Every ``FiniteSystem`` acts transitively, so the singleton {0} against
    the rest generates, and (N-1, 1) is the least-entropy profile with two
    or more cells: the minimum is H(1/N, (N-1)/N) with witness
    ``((0,), (1, ..., N-1))`` whenever k_max >= 2 (``((0,),)`` when N = 1).
    One ``generated_algebra`` call checks the witness.  Returns (inf, None)
    when no partition with at most k_max cells generates, that is when
    N >= 2 and k_max = 1.
    """
    if k_max < 1:
        raise InvalidParamsError("k_max >= 1")
    npts = sys.n_points
    if npts > 1 and k_max == 1:
        return math.inf, None
    labels = (0,) + (1,) * (npts - 1)
    if len(generated_algebra(sys, labels)) != npts:
        raise InvalidParamsError("generators act transitively", "{0} does not generate")
    cells = tuple(label_cells(labels))
    return entropy(ProbVec(tuple(sys.total_weight(c) for c in cells))), cells

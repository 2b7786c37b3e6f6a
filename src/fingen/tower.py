"""Periodic towers with a side-channel encoding of column statistics.

A tower splits the points into m equal columns cycled by a horizontal map h,
then glues v-classes of columns into classes of size n = k * m cycled by one
map theta.  The per-column frequency profile of a tracked labeling is pushed
into a sparse set S2 along the first ell levels of each column, so the
profile is recoverable from (S1, S2, h) alone and the combined weight of the
two side sets stays below the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coding import binary_digit
from .errors import DivisibilityError, InvalidParamsError
from .system import (
    FiniteSystem,
    PseudoMap,
    avgfuncmix,
    make_equal_partition,
)

CONSTRAINTS = (
    "m >= 1",
    "m divides N",
    "m > 4/eps",
    "m > Nmin",
    "cells * log2(m+1) < (eps/4) * m",
    "ell < m",
)


def admissible_m(n_points: int, n_cells: int, eps, nmin: int, m: int) -> str | None:
    """Name of the first violated tower constraint, or None if m works."""
    eps = Fraction(eps)
    if m < 1:
        return CONSTRAINTS[0]
    if n_points % m != 0:
        return CONSTRAINTS[1]
    if m * eps <= 4:
        return CONSTRAINTS[2]
    if m <= nmin:
        return CONSTRAINTS[3]
    if n_cells * math.log2(m + 1) >= float(eps) / 4 * m:
        return CONSTRAINTS[4]
    if math.ceil(eps / 4 * m) >= m:
        return CONSTRAINTS[5]
    return None


@dataclass(frozen=True)
class Tower:
    system: FiniteSystem
    alpha: tuple  # tracked labeling, one label per point
    eps: Fraction
    m: int
    k: int
    n: int
    ell: int
    s1: tuple
    s2: tuple
    h: PseudoMap
    v: PseudoMap
    theta: PseudoMap
    transversal: tuple
    profiles: tuple  # rank -> frequency profile over the alpha cells, lex sorted

    @property
    def cells(self) -> tuple:
        return tuple(sorted(set(self.alpha)))

    def column(self, s: int) -> tuple:
        return self.h.orbit(s)

    def profile_of(self, s: int) -> tuple:
        col = self.column(s)
        return tuple(
            Fraction(sum(1 for x in col if self.alpha[x] == c), self.m)
            for c in self.cells
        )

    def decode_profile(self, s: int) -> tuple:
        """Recover the column profile of s from S1/S2 membership alone."""
        if s not in set(self.s1):
            raise InvalidParamsError(f"point {s} not in S1")
        s2 = set(self.s2)
        rank = 0
        x = s
        for i in range(1, self.ell + 1):
            x = self.h.apply(x)
            if x in s2:
                rank += 1 << (i - 1)
        if rank >= len(self.profiles):
            raise InvalidParamsError("decoded rank outside the profile table")
        return self.profiles[rank]

    def classes(self) -> tuple:
        seen: set = set()
        out = []
        for x in self.transversal:
            orb = self.theta.orbit(x)
            seen.update(orb)
            out.append(tuple(sorted(orb)))
        if len(seen) != self.system.n_points:
            raise InvalidParamsError("classes do not cover the points")
        return tuple(out)


def build_tower(sys: FiniteSystem, alpha, eps, nmin: int = 1, m: int | None = None) -> Tower:
    """Assemble the two-stage tower for a tracked labeling.

    m is the smallest admissible divisor of N unless given explicitly; the
    admissibility conditions are exactly the named CONSTRAINTS and the first
    violated one is reported on failure.
    """
    alpha = tuple(alpha)
    if len(alpha) != sys.n_points:
        raise InvalidParamsError("one label per point")
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidParamsError("eps > 0")
    n_cells = len(set(alpha))
    if m is not None:
        bad = admissible_m(sys.n_points, n_cells, eps, nmin, m)
        if bad is not None:
            raise InvalidParamsError(bad, f"m={m}")
    else:
        for cand in range(1, sys.n_points + 1):
            if sys.n_points % cand == 0 and admissible_m(
                sys.n_points, n_cells, eps, nmin, cand
            ) is None:
                m = cand
                break
        else:
            raise DivisibilityError(
                "no admissible column count m",
                f"N={sys.n_points} eps={eps} nmin={nmin}",
            )

    s1 = tuple(x for x in range(sys.n_points) if x % m == 0)
    _, h = make_equal_partition(sys, s1, range(sys.n_points), m)

    cells = sorted(set(alpha))
    columns = {s: h.orbit(s) for s in s1}
    funcs = {
        c: {s: Fraction(sum(1 for x in columns[s] if alpha[x] == c), m) for s in s1}
        for c in cells
    }
    mix = avgfuncmix(sys, s1, funcs, eps)
    v, k = mix.theta, mix.n

    # theta climbs each column and jumps to the next column of the v-class
    top = {columns[s][-1] for s in s1}
    pairs = []
    words = []
    for x in range(sys.n_points):
        y = h.apply(x)
        w = h.word_at(x)
        if x in top:
            w = w + v.word_at(y)
            y = v.apply(y)
        pairs.append((x, y))
        words.append(w)
    theta = PseudoMap(sys, tuple(pairs), tuple(words))

    transversal = tuple(sorted(min(cl) for cl in mix.classes))

    ell = math.ceil(eps / 4 * m)

    def profile(s: int) -> tuple:
        return tuple(funcs[c][s] for c in cells)

    table = tuple(sorted({profile(s) for s in s1}))
    if len(table) > (1 << ell):
        raise InvalidParamsError("profile table exceeds 2^ell")
    rank = {p: i for i, p in enumerate(table)}
    s2 = []
    for s in s1:
        r = rank[profile(s)]
        s2.extend(columns[s][i] for i in range(1, ell + 1) if binary_digit(i, r) == 1)
    return Tower(
        sys, alpha, eps, m, k, k * m, ell, s1, tuple(sorted(s2)),
        h, v, theta, transversal, table,
    )


def audit_tower(t: Tower) -> dict:
    """Exhaustive verification of every tower postcondition."""
    sys = t.system
    n_pts = sys.n_points

    def iterate(x: int, times: int) -> int:
        for _ in range(times):
            x = t.theta.apply(x)
        return x

    theta_order = all(iterate(x, t.n) == x for x in range(n_pts))
    classes = t.classes()
    class_sizes = all(len(cl) == t.n for cl in classes)
    covers = sorted(x for cl in classes for x in cl) == list(range(n_pts))

    level = list(t.s1)
    hseen = set(level)
    h_partitions = True
    for _ in range(t.m - 1):
        level = [t.h.apply(x) for x in level]
        if hseen & set(level):
            h_partitions = False
        hseen.update(level)
    h_partitions = h_partitions and len(hseen) == n_pts

    s1w = sys.total_weight(t.s1)
    s2w = sys.total_weight(t.s2)
    side_weight = s1w + s2w

    cells = t.cells
    global_freq = {
        c: Fraction(sum(1 for x in t.alpha if x == c), n_pts) for c in cells
    }
    deviation = Fraction(0)
    for cl in classes:
        for c in cells:
            f = Fraction(sum(1 for x in cl if t.alpha[x] == c), len(cl))
            deviation = max(deviation, abs(f - global_freq[c]))

    roundtrip = all(t.decode_profile(s) == t.profile_of(s) for s in t.s1)

    marks = set(t.transversal)
    transversal_ok = len(marks) == len(classes) and all(
        len(marks & set(cl)) == 1 for cl in classes
    )

    return {
        "theta_order": theta_order,
        "class_sizes": class_sizes,
        "classes_cover": covers,
        "h_partitions": h_partitions,
        "side_weight": side_weight,
        "side_weight_ok": side_weight < t.eps,
        "freq_deviation": deviation,
        "freq_ok": deviation <= t.eps,
        "profile_roundtrip": roundtrip,
        "transversal_ok": transversal_ok,
    }

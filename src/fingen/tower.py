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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    theta: PseudoMap
    transversal: tuple
    profiles: tuple  # rank -> frequency profile over the alpha cells, lex sorted

    @cached_property
    def cells(self) -> tuple:
        return tuple(sorted(set(self.alpha)))

    @cached_property
    def _marks(self) -> tuple:
        return frozenset(self.s1), frozenset(self.s2)

    def column(self, s: int) -> tuple:
        return self.h.orbit(s)

    def profile_of(self, s: int) -> tuple:
        counts = Counter(map(self.alpha.__getitem__, self.column(s)))
        return tuple(Fraction(counts[c], self.m) for c in self.cells)

    def decode_profile(self, s: int) -> tuple:
        """Recover the column profile of s from S1/S2 membership alone."""
        s1, s2 = self._marks
        if s not in s1:
            raise InvalidParamsError(f"point {s} not in S1")
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
    violated one is reported on failure.  The column map h and the map v
    cycling each class's columns are checked maps; theta is ``h.then(v)``,
    whose check evaluates only the N/m column tops it reroutes.
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
    counts = {s: Counter(alpha[x] for x in columns[s]) for s in s1}
    profiles = {s: tuple(Fraction(counts[s][c], m) for c in cells) for s in s1}
    funcs = {c: {s: profiles[s][j] for s in s1} for j, c in enumerate(cells)}
    mix = avgfuncmix(sys, s1, funcs, eps)
    v, k = mix.theta, mix.n

    theta = h.then(v)  # up each column, and from its top on to the next column of its class

    transversal = tuple(sorted(min(cl) for cl in mix.classes))

    ell = math.ceil(eps / 4 * m)

    table = tuple(sorted(set(profiles.values())))
    if len(table) > (1 << ell):
        raise InvalidParamsError("profile table exceeds 2^ell")
    rank = {p: i for i, p in enumerate(table)}
    s2 = []
    for s in s1:
        r = rank[profiles[s]]
        s2.extend(columns[s][i] for i in range(1, ell + 1) if r >> (i - 1) & 1)
    return Tower(
        sys, alpha, eps, m, k, k * m, ell, s1, tuple(sorted(s2)),
        h, theta, transversal, table,
    )


def audit_tower(t: Tower) -> dict:
    """Exhaustive verification of every tower postcondition.

    Labels are counted in integers, one Counter per class; the largest
    frequency deviation is kept as an exact numerator and denominator,
    compared by cross-multiplying, and reported as one Fraction.
    """
    sys = t.system
    n_pts = sys.n_points
    # classes() raises unless theta-orbits cover the points: theta^n = id iff
    # every orbit length divides n
    classes = t.classes()
    theta_order = all(t.n % len(cl) == 0 for cl in classes)
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

    side_weight = sys.total_weight(t.s1) + sys.total_weight(t.s2)

    # |count/|cl| - total/N| = dev/scale, kept as integers; the largest is num/den
    total = Counter(t.alpha)
    num, den = 0, 1
    for cl in classes:
        counts = Counter(map(t.alpha.__getitem__, cl))
        scale = len(cl) * n_pts
        for c in t.cells:
            dev = abs(counts[c] * n_pts - total[c] * len(cl))
            if dev * den > num * scale:
                num, den = dev, scale
    deviation = Fraction(num, den)

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

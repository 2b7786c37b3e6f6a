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
from fractions import Fraction
from functools import cached_property
from itertools import cycle, islice

from .errors import (DivisibilityError, InvalidParamsError, _Record, integer, ordered_labeling,
                     rational)
from .system import FiniteSystem, avgmix, make_equal_partition

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
    eps, nmin, m = rational("eps", eps), integer("nmin", nmin), integer("m", m)
    return _violated(n_points, n_cells, eps, nmin, m)


def _violated(n_points: int, n_cells: int, eps: Fraction, nmin: int, m: int) -> str | None:
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


class Tower(_Record):
    _fields = (
        "system", "alpha",  # alpha: the tracked labeling, one label per point
        "eps", "m", "k", "n", "ell", "s1", "s2", "h", "theta", "transversal",
        "profiles",  # rank -> frequency profile over the alpha cells, lex sorted
    )

    @cached_property
    def cells(self) -> tuple:
        return tuple(sorted(set(self.alpha)))

    @cached_property
    def _marks(self) -> tuple:
        return frozenset(self.s1), frozenset(self.s2)

    def column(self, s: int) -> tuple:
        return self.h.orbit(s)

    def profile_of(self, s: int) -> tuple:
        return tuple(Fraction(c, self.m) for c in _tally(self.alpha, self.column(s), self.cells))

    def decode_profile(self, s: int) -> tuple:
        """Recover the column profile of s from S1/S2 membership alone."""
        s1, s2 = self._marks
        if s not in s1:
            raise InvalidParamsError(f"point {s} not in S1")
        x = s  # levels 1..ell of the column: each step of h moves x up one
        rank = _rank([x := self.h.apply(x) for _ in range(self.ell)], s2)
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


def _rank(levels, s2) -> int:
    """The profile rank that S2 spells on a column's levels 1..ell: bit i-1 is level i's mark."""
    return sum(1 << i for i, x in enumerate(levels) if x in s2)


def _tally(alpha: tuple, points, cells) -> tuple:
    """How many of the points carry each cell's label, in integers."""
    labels = [alpha[x] for x in points]
    return tuple(map(labels.count, cells))


def build_tower(sys: FiniteSystem, alpha, eps, nmin: int = 1, m: int | None = None) -> Tower:
    """Assemble the two-stage tower for a tracked labeling.

    m is the smallest admissible divisor of N unless given explicitly; the
    admissibility conditions are exactly the named CONSTRAINTS and the first
    violated one is reported on failure.  The class stage is one ``avgmix``
    call on the ranked column profiles: S1's points carry their profile's
    level, at eps over the largest total of one cell's frequency over the
    distinct profiles.  The column map h and the map v cycling each class's
    columns are checked maps; theta is ``h.then(v)``, whose check evaluates
    only the N/m column tops it reroutes.
    """
    alpha, cells = ordered_labeling(alpha, sys.n_points)
    eps, nmin = rational("eps", eps), integer("nmin", nmin)
    if eps <= 0:
        raise InvalidParamsError("eps > 0")
    if m is not None:
        bad = _violated(sys.n_points, len(cells), eps, nmin, integer("m", m))
        if bad is not None:
            raise InvalidParamsError(bad, f"m={m}")
    else:
        ok = (c for c in range(1, sys.n_points + 1)
              if sys.n_points % c == 0 and _violated(sys.n_points, len(cells), eps, nmin, c) is None)
        m = next(ok, None)  # the least admissible divisor of N
        if m is None:
            raise DivisibilityError(
                "no admissible column count m", f"N={sys.n_points} eps={eps} nmin={nmin}"
            )

    s1 = tuple(x for x in range(sys.n_points) if x % m == 0)
    _, h = make_equal_partition(sys, s1, range(sys.n_points), m)

    columns = {s: h.orbit(s) for s in s1}
    counts = {s: _tally(alpha, columns[s], cells) for s in s1}
    level: dict = {}  # distinct counts -> their level, by first occurrence over S1
    labels = [0] * sys.n_points
    for s in s1:
        labels[s] = level.setdefault(counts[s], len(level)) + 1
    scale = Fraction(max(map(sum, zip(*level))), m)  # > 0: each column holds m labels
    mix = avgmix(sys, s1, tuple(labels), eps / scale)
    v, k = mix.theta, mix.n

    theta = h.then(v)  # up each column, and from its top on to the next column of its class

    transversal = tuple(sorted(min(cl) for cl in mix.classes))

    ell = math.ceil(eps / 4 * m)

    table = sorted(level)  # the profiles are the counts over m, so they sort alike
    if len(table) > (1 << ell):
        raise InvalidParamsError("profile table exceeds 2^ell")
    rank = {p: i for i, p in enumerate(table)}
    s2 = []
    for s in s1:
        r = rank[counts[s]]
        s2.extend(columns[s][i] for i in range(1, ell + 1) if r >> (i - 1) & 1)
    return Tower(
        sys, alpha, eps, m, k, k * m, ell, s1, tuple(sorted(s2)),
        h, theta, transversal, tuple(tuple(Fraction(c, m) for c in p) for p in table),
    )


def audit_tower(t: Tower) -> dict:
    """Exhaustive verification of every tower postcondition; a broken one reads false.

    One walk along h per column and one along theta per class; labels are counted
    in integers, the largest frequency deviation as an exact numerator and denominator.
    """
    alpha, cells, n_pts = t.alpha, t.cells, t.system.n_points
    table = [tuple(f * t.m for f in p) for p in t.profiles]  # the profiles, as counts
    s2, seen = t._marks[1], set(t.s1)
    h_partitions = roundtrip = True
    for s in dict.fromkeys(t.s1):
        col, top = t.h.walk(s)
        h_partitions = h_partitions and len(col) >= t.m and seen.isdisjoint(col[1:t.m])
        seen.update(col[1:t.m])  # the column's m points: h may go on past its top
        roundtrip = roundtrip and top == s  # h's orbit of s closes
        if roundtrip:
            rank = _rank(islice(cycle(col), 1, t.ell + 1), s2)  # levels 1..ell, as h runs
            roundtrip = rank < len(table) and table[rank] == _tally(alpha, col, cells)

    side_weight = t.system.total_weight(t.s1) + t.system.total_weight(t.s2)

    # |count/|cl| - total/N| = dev/scale, kept as integers; the largest is num/den
    total = tuple(map(alpha.count, cells))
    marks = set(t.transversal)
    num, den, covered = 0, 1, 0
    theta_order = class_sizes = True
    transversal_ok = len(marks) == len(t.transversal)
    for x in t.transversal:
        cl, last = t.theta.walk(x)
        class_sizes = class_sizes and len(cl) == t.n
        if last != x:  # the orbit of x leaves theta's domain: x marks no class
            theta_order = transversal_ok = False
            continue
        theta_order = theta_order and t.n % len(cl) == 0
        transversal_ok = transversal_ok and len(marks.intersection(cl)) == 1
        covered += len(cl)
        scale = len(cl) * n_pts
        for count, whole in zip(_tally(alpha, cl, cells), total):
            dev = abs(count * n_pts - whole * len(cl))
            if dev * den > num * scale:
                num, den = dev, scale
    deviation = Fraction(num, den)

    return {
        "theta_order": theta_order,
        "class_sizes": class_sizes,
        "classes_cover": transversal_ok and covered == n_pts,
        "h_partitions": h_partitions and len(seen) == n_pts,
        "side_weight": side_weight,
        "side_weight_ok": side_weight < t.eps,
        "freq_deviation": deviation,
        "freq_ok": deviation <= t.eps,
        "profile_roundtrip": roundtrip,
        "transversal_ok": transversal_ok,
    }

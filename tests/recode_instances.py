"""Shared end-to-end instance family for the recoding pipeline tests.

Each entry is a cyclic system with an invariant mod-``d`` coarse algebra and
a fine labeling that breaks one residue cell at a few exception points, so
the conditional entropy is small but positive.  Targets, rates, and packing
tolerances are pinned per instance so the decoder budget clears the measured
codeword separation.
"""

from fractions import Fraction as F

from fingen.probvec import Coarsening, ProbVec
from fingen.recoder import RecodeParams, join_factor, recode_codebook, scan_towers
from fingen.system import FiniteSystem, GAlgebra

TWO_ONE_BLOCKS = ((0, 1), (2,))

# name, N, modulus, exceptions, p, r, delta, tower_eps, m, reserved, pack_delta
FAMILY = (
    ("z24-mod3", 24, 3, (0,), (F(1, 4), F(1, 4), F(1, 2)),
     F(1, 2), F(1, 8), F(7, 2), None, (), None),
    ("z28-explicit-m", 28, 2, (0,), (F(2, 7), F(3, 14), F(1, 2)),
     F(1, 2), F(1, 8), F(11, 5), 28, (), F(1, 100)),
    ("z32-reserved", 32, 2, (0,), (F(1, 4), F(1, 4), F(1, 2)),
     F(1, 2), F(1, 10), F(2), None, (5,), None),
    ("z48-two-classes", 48, 3, (0, 24), (F(1, 4), F(1, 4), F(1, 2)),
     F(1, 2), F(1, 8), F(7, 2), 24, (), None),
    ("z30-low-rate", 30, 3, (0,), (F(1, 4), F(1, 4), F(1, 2)),
     F(2, 5), F(1, 8), F(14, 5), None, (), None),
    ("z36-wide-prefix", 36, 2, (0,), (F(2, 9), F(5, 18), F(1, 2)),
     F(1, 2), F(1, 10), F(2), None, (), F(1, 100)),
    ("z40-mod4", 40, 4, (0,), (F(1, 4), F(1, 4), F(1, 2)),
     F(3, 10), F(1, 8), F(27, 10), None, (), None),
    ("z14-degenerate-fibers", 14, 2, (), (F(2, 7), F(3, 14), F(1, 2)),
     F(1), F(1, 10), F(12, 5), None, (), None),
    ("z60-at-capacity", 60, 3, (3, 33), (F(1, 4), F(1, 4), F(1, 2)),
     F(2, 5), F(1, 8), F(14, 5), 30, (), None),
    ("z24-skew-target", 24, 3, (0,), (F(1, 6), F(1, 6), F(2, 3)),
     F(1, 2), F(1, 10), F(7, 2), None, (), None),
)


def build(entry):
    name, n, mod, exc, p, r, delta, te, m, reserved, pack_delta = entry
    sysn = FiniteSystem.cyclic(n)
    falg = GAlgebra(tuple(x % mod for x in range(n)))
    xi = tuple(mod if x in exc else x % mod for x in range(n))
    params = RecodeParams(ProbVec(p), Coarsening(TWO_ONE_BLOCKS, len(p)), r, delta, 0)
    kwargs = {"tower_eps": te, "m": m, "reserved": reserved}
    if pack_delta is not None:
        kwargs["pack_delta"] = pack_delta
    return sysn, xi, falg, params, kwargs


def pipeline_parts(entry):
    """Run the join, tower and codebook stages of the pipeline for one instance."""
    sysn, xi, falg, params, kwargs = build(entry)
    fine, beta, blocks, dist = join_factor(xi, falg)
    tower, _ = scan_towers(sysn, fine, kwargs["tower_eps"], 1, kwargs["m"])
    codebook, _ = recode_codebook(
        sysn, tower, beta, dist, blocks, params, kwargs.get("pack_delta")
    )
    return sysn, xi, falg, params, fine, beta, tower, codebook

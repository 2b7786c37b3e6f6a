"""Chart greedy packing size and separation across block lengths and radii.

Runs greedy_packing on exact typical sets for a few base distributions and
prints how many codewords survive and the worst pairwise distance, which is
what the recoding budget ultimately leans on.  Block lengths are kept small
enough that the full pairwise check stays cheap.
"""

import argparse
from fractions import Fraction as F

from fingen.probvec import ProbVec
from fingen.typical import TypicalSpec, count_typical, greedy_packing, min_dbar


BASES = [
    ("uniform-2", ProbVec((F(1, 2), F(1, 2))), (8, 10, 12, 14)),
    ("skew-2", ProbVec((F(1, 4), F(3, 4))), (8, 12, 16)),
    ("uniform-3", ProbVec((F(1, 3), F(1, 3), F(1, 3))), (6, 9)),
]
RHOS = [F(1, 5), F(3, 10), F(2, 5), F(9, 20)]


def min_separation(words):
    """Smallest pairwise dbar of the words, packed as a codebook packs its own."""
    if len(words) < 2:
        return None
    return min_dbar(words, 1 + max(map(max, words)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sep-cap", type=int, default=2000,
                    help="skip the pairwise check above this packing size")
    args = ap.parse_args()

    print(f"{'base':<10} {'k':>3} {'rho':>6} {'typical':>8} {'size':>6} {'min dbar':>9}")
    for name, q, ks in BASES:
        for k in ks:
            spec = TypicalSpec(q, F(0), k)
            total = count_typical(spec)
            for rho in RHOS:
                words = greedy_packing(spec, rho)
                if len(words) > args.sep_cap:
                    seps = "(skipped)"
                else:
                    sep = min_separation(words)
                    seps = "-" if sep is None else str(sep)
                print(f"{name:<10} {k:>3} {str(rho):>6} {total:>8} {len(words):>6} {seps:>9}")


if __name__ == "__main__":
    main()

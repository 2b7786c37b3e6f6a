"""Locate the smallest block length at which the counting window closes.

For a grid of (q, delta, eps) cells this finds the least n where the typical
count lands inside exp(n (H - delta)) .. exp(n (H + delta)) and reports how
the window behaves on a stretch above that point.
"""

import argparse
from fractions import Fraction as F

from fingen.probvec import ProbVec
from fingen.typical import stirling_window


CELLS_Q = [
    ProbVec((F(1, 2), F(1, 2))),
    ProbVec((F(1, 3), F(2, 3))),
    ProbVec((F(1, 4), F(3, 4))),
    ProbVec((F(1, 3), F(1, 3), F(1, 3))),
    ProbVec((F(1, 2), F(1, 4), F(1, 4))),
    ProbVec((F(3, 5), F(1, 5), F(1, 5))),
]
CELLS_DELTA = [F(1, 20), F(1, 10), F(1, 5)]
CELLS_EPS = [F(1, 20), F(1, 10), F(1, 4)]


def minimal_n(q, delta, eps, n_max):
    for n in range(1, n_max + 1):
        if stirling_window(q, delta, eps, n).holds:
            return n
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=400)
    ap.add_argument("--stretch", type=int, default=25)
    args = ap.parse_args()

    print(f"{'q':<18} {'delta':>6} {'eps':>6} {'n_min':>6} stretch")
    for q in CELLS_Q:
        qs = "(" + ",".join(str(v) for v in q.weights) + ")"
        for delta in CELLS_DELTA:
            for eps in CELLS_EPS:
                n0 = minimal_n(q, delta, eps, args.n_max)
                if n0 is None:
                    print(f"{qs:<18} {str(delta):>6} {str(eps):>6} {'-':>6} none<=n_max")
                    continue
                run = [
                    stirling_window(q, delta, eps, n).holds
                    for n in range(n0, n0 + args.stretch + 1)
                ]
                note = "solid" if all(run) else f"gap at +{run.index(False)}"
                print(f"{qs:<18} {str(delta):>6} {str(eps):>6} {n0:>6} {note}")


if __name__ == "__main__":
    main()

"""Probe whether minimum generating entropy is subadditive over factors.

For cyclic systems X = Z/n with the mod-d factor Y = Z/d this checks

    h(X)  <=  h(Y) + h(X | F)

where h is the minimum entropy of a generating partition and the
conditional term minimizes H(xi | F) over partitions xi whose join with F
generates.  The inequality is not claimed anywhere for finite systems; this
script only maps where it holds at desk scale.  Here it cannot fail: a
singleton generates a finite transitive system, so h(Z/n) = H((n-1)/n, 1/n),
which decreases in n.  The side h(X) <= h(Y) therefore holds by monotonicity
(d <= n), and h(X | F) >= 0 only adds slack.
"""

import argparse
import json
import math

from fingen.probvec import cond_entropy, label_cells
from fingen.recoder import brute_force_generator_search, growth_strings
from fingen.system import FiniteSystem, GAlgebra, generated_algebra


def min_conditional_generating(sysn, falg):
    """Minimum of H(xi | F) over xi whose join with F generates everything."""
    n = sysn.n_points
    best = math.inf
    best_witness = None
    for labels in growth_strings(n, n):
        if len(generated_algebra(sysn, zip(labels, falg.labels))) != n:
            continue
        h = cond_entropy(labels, falg.labels)
        if h < best - 1e-12:
            best = h
            best_witness = tuple(label_cells(labels))
    return best, best_witness


def scan(n_max):
    rows = []
    for n in range(2, n_max + 1):
        sysn = FiniteSystem.cyclic(n)
        h_x, _ = brute_force_generator_search(sysn, n)
        for d in range(2, n):
            if n % d:
                continue
            h_y, _ = brute_force_generator_search(FiniteSystem.cyclic(d), d)
            falg = GAlgebra(tuple(x % d for x in range(n)))
            h_cond, _ = min_conditional_generating(sysn, falg)
            bound = h_y + h_cond
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "h_x": h_x,
                    "h_y": h_y,
                    "h_cond": h_cond,
                    "bound": bound,
                    "holds": h_x <= bound + 1e-12,
                    "slack": bound - h_x,
                }
            )
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    rows = scan(args.n_max)
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=2))
        return
    print(f"{'n':>3} {'d':>3} {'h(X)':>8} {'h(Y)':>8} {'h(X|F)':>8} {'bound':>8} holds")
    for r in rows:
        print(
            f"{r['n']:>3} {r['d']:>3} {r['h_x']:>8.4f} {r['h_y']:>8.4f} "
            f"{r['h_cond']:>8.4f} {r['bound']:>8.4f} {r['holds']}"
        )
    bad = [r for r in rows if not r["holds"]]
    print(f"{len(rows)} cases, {len(bad)} violations")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure how much slack the two-sided partial-sum bounds leave per family.

For each graph family the script reports, over all admissible (q, k) in a
window, how many records are tight (lower == value == upper), how many touch
one side, and the worst relative position of the value inside the interval.
Forests should come out 100% tight; dense graphs drift toward the middle.
"""

import argparse
from fractions import Fraction

from chromabounds import chromatic_poly, coeff_sequence, verify_bounds
from chromabounds.graphs import complete, complete_bipartite, cycle, path


def families(max_n):
    for k in range(2, max_n + 1):
        yield f"P{k}", path(k)
    for k in range(3, max_n + 1):
        yield f"C{k}", cycle(k)
    for k in range(2, max_n + 1):
        yield f"K{k}", complete(k)
    yield "K2,2", complete_bipartite(2, 2)
    yield "K3,3", complete_bipartite(3, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--q-min", type=int, default=-5)
    parser.add_argument("--q-max", type=int, default=5)
    args = parser.parse_args()

    print(f"{'family':>6} {'m':>3} {'r':>3} {'records':>8} {'tight':>6} "
          f"{'at-lower':>9} {'at-upper':>9} {'max-position':>13}")
    for name, g in families(args.max_n):
        s = coeff_sequence(chromatic_poly(g), g.m)
        records = verify_bounds(s, args.q_min, args.q_max).records
        tight = sum(rec.tight for rec in records)
        at_lower = sum(rec.value == rec.lower for rec in records)
        at_upper = sum(rec.value == rec.upper for rec in records)
        positions = [
            Fraction(rec.value - rec.lower, rec.upper - rec.lower)
            for rec in records
            if rec.upper > rec.lower
        ]
        worst = max(positions, default=Fraction(0))
        print(f"{name:>6} {s.m:>3} {s.r:>3} {len(records):>8} {tight:>6} "
              f"{at_lower:>9} {at_upper:>9} {str(worst):>13}")


if __name__ == "__main__":
    main()

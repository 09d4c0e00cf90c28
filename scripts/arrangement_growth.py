#!/usr/bin/env python3
"""Time the arrangement layer in-process on seeded arrangements of growing size.

For each seed 1-3, each m in --sizes (default 8..14) and each family, one
arrangement of m distinct hyperplanes in dimension 4 is drawn from
random.Random(f"arrangement-growth:{family}:{seed}:{m}") by
`corpus.random_hyperplane`: normal entries in -3..3, and for the affine
family an offset with numerator in -2..2 over a denominator in 1..3, the
distribution of the benchmark's arr-growth inputs. The linear family has
every offset 0.

Three computations are timed on each arrangement, each the median of
three runs: `intersection_poset` (with its flat count), `nbc_counts` in
the natural order (one pruned walk) and `char_poly_whitney`. One row per
arrangement is printed, then one total per family and size; --out also
writes them as JSON.

    PYTHONPATH=src python scripts/arrangement_growth.py [--out FILE]
"""

import argparse
import json
import platform
import random
import statistics
import time
from collections import defaultdict

from chromabounds import Arrangement, char_poly_whitney, intersection_poset, nbc_counts
from chromabounds.corpus import random_hyperplane

REPEATS = 3
DIM = 4
SEEDS = (1, 2, 3)
FAMILIES = ("affine", "linear")
STAGES = ("poset", "nbc", "whitney")


def random_arrangement(rng, dim, m, linear):
    """m distinct hyperplanes drawn as the verify corpus draws them."""
    hyps = []
    while len(hyps) < m:
        h = random_hyperplane(rng, dim, linear)
        if h is not None and h not in hyps:
            hyps.append(h)
    return Arrangement(dim, tuple(hyps))


def median_time(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def measure(arr):
    poset_s, poset = median_time(lambda: intersection_poset(arr))
    nbc_s, _ = median_time(lambda: nbc_counts(arr))
    whitney_s, _ = median_time(lambda: char_poly_whitney(arr))
    seconds = {"poset": poset_s, "nbc": nbc_s, "whitney": whitney_s}
    return len(poset.flats), seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=list(range(8, 15)))
    parser.add_argument("--out", help="also write the rows and totals to this JSON file")
    args = parser.parse_args()

    rows = []
    totals = defaultdict(lambda: defaultdict(float))
    print(f"{'family':>7} {'m':>3} {'seed':>5} {'flats':>6} " + " ".join(f"{s + '_s':>10}" for s in STAGES))
    for family in FAMILIES:
        for m in args.sizes:
            for seed in SEEDS:
                rng = random.Random(f"arrangement-growth:{family}:{seed}:{m}")
                arr = random_arrangement(rng, DIM, m, family == "linear")
                flats, seconds = measure(arr)
                rows.append({"family": family, "dim": DIM, "m": m, "seed": seed, "flats": flats,
                             "seconds": {s: round(seconds[s], 5) for s in STAGES}})
                for stage in STAGES:
                    totals[f"{family} m={m}"][stage] += seconds[stage]
                print(f"{family:>7} {m:>3} {seed:>5} {flats:>6} "
                      + " ".join(f"{seconds[s]:>10.4f}" for s in STAGES), flush=True)
    for name, by_stage in totals.items():
        print(f"total {name}: " + ", ".join(f"{s} {by_stage[s]:.4f} s" for s in STAGES))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "python": platform.python_version(),
                "machine": platform.machine(),
                "repeats": REPEATS,
                "rows": rows,
                "totals_s": {name: {s: round(v, 5) for s, v in by_stage.items()} for name, by_stage in totals.items()},
            }, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()

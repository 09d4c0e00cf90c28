#!/usr/bin/env python3
"""Time `chromatic_poly` in-process on seeded inputs of growing size.

Three families, each graph expanded with a fresh memo:

  gnp      G(n, 1/2) for each n in --sizes and each seed in --seeds: the
           pair i < j is an edge when the next draw of random.Random(seed)
           is below 1/2. These components are dense.
  regular  for each seed, one random 6-regular graph per entry of
           --regular-sizes, drawn in turn by the pairing model from
           random.Random(f"graph-dc:{seed}"); the defaults are the six
           inputs of the benchmark's graph-dc workload.
  cycle    the cycle on each n in --cycles, which stays sparse.

Each time is the median of three runs. One row per graph gives its size,
seconds and memo entries, then one total per family and size; --out also
writes them as JSON.

    PYTHONPATH=src python scripts/chromatic_growth.py [--out FILE]
"""

import argparse
import json
import platform
import random
import statistics
import time
from collections import defaultdict

from chromabounds import SimpleGraph, chromatic_poly, cycle

REPEATS = 3
DEGREE = 6


def half_dense(n, seed):
    rng = random.Random(seed)
    return SimpleGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5))


def random_regular(rng, n, d):
    """Uniform simple d-regular graph on n vertices (pairing model with rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return SimpleGraph(n, frozenset(edges))


def inputs(args):
    for n in args.sizes:
        for seed in args.seeds:
            yield "gnp", seed, half_dense(n, seed)
    for seed in args.seeds:
        rng = random.Random(f"graph-dc:{seed}")
        for n in args.regular_sizes:
            yield "regular", seed, random_regular(rng, n, DEGREE)
    for n in args.cycles:
        yield "cycle", None, cycle(n)


def measure(g):
    times = []
    for _ in range(REPEATS):
        memo = {}
        start = time.perf_counter()
        chromatic_poly(g, memo)
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(memo)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=[12, 14, 16])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4, 5])
    parser.add_argument("--regular-sizes", type=int, nargs="*", default=[12, 12, 13, 13, 13, 13])
    parser.add_argument("--cycles", type=int, nargs="*", default=[1200])
    parser.add_argument("--out", help="also write the rows and totals to this JSON file")
    args = parser.parse_args()

    rows = []
    totals = defaultdict(float)
    print(f"{'family':>8} {'n':>5} {'m':>5} {'seed':>5} {'seconds':>9} {'memo':>7}")
    for family, seed, g in inputs(args):
        seconds, memo = measure(g)
        rows.append({"family": family, "n": g.n, "m": g.m, "seed": seed,
                     "seconds": round(seconds, 4), "memo": memo})
        totals[f"{family} n={g.n}"] += seconds
        print(f"{family:>8} {g.n:>5} {g.m:>5} {'-' if seed is None else seed:>5} {seconds:>9.3f} {memo:>7}", flush=True)
    for name, seconds in totals.items():
        print(f"total {name}: {seconds:.3f} s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "python": platform.python_version(),
                "machine": platform.machine(),
                "repeats": REPEATS,
                "rows": rows,
                "totals_s": {name: round(s, 4) for name, s in totals.items()},
            }, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()

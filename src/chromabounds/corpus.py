"""Deterministic test-instance generation: named families and seeded random ones.

Everything is driven by a caller-provided random.Random so a fixed seed
reproduces the exact corpus, which the verifier relies on for
byte-identical reports.
"""

from __future__ import annotations

import random

from .arrangements import Arrangement, Hyperplane, graphic_arrangement
from .graphs import (
    SimpleGraph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
)


def named_graphs() -> list[tuple[str, SimpleGraph]]:
    """Paths, cycles, complete graphs up to 6 vertices, K_{2,2} and K_{3,3}."""
    out: list[tuple[str, SimpleGraph]] = []
    for k in range(1, 7):
        out.append((f"P{k}", path(k)))
    for k in range(3, 7):
        out.append((f"C{k}", cycle(k)))
    for k in range(1, 7):
        out.append((f"K{k}", complete(k)))
    out.append(("K2,2", complete_bipartite(2, 2)))
    out.append(("K3,3", complete_bipartite(3, 3)))
    out.append(("2K3", disjoint_union(complete(3), complete(3))))
    out.append(("empty4", SimpleGraph(4)))
    return out


def random_graph(rng: random.Random, max_n: int) -> SimpleGraph:
    n = rng.randint(1, max_n)
    p = rng.random()
    edges = frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return SimpleGraph(n, edges)


def random_graphs(rng: random.Random, count: int, max_n: int) -> list[SimpleGraph]:
    return [random_graph(rng, max_n) for _ in range(count)]


def random_hyperplane(rng: random.Random, dim: int, linear: bool) -> Hyperplane | None:
    """Normal entries in -3..3; the offset 0, or a numerator in -2..2 over a denominator in 1..3."""
    normal = [rng.randint(-3, 3) for _ in range(dim)]
    if all(x == 0 for x in normal):
        return None
    if linear:
        return Hyperplane(normal + [0])
    numerator, denominator = rng.randint(-2, 2), rng.choice([1, 2, 3])
    return Hyperplane([denominator * x for x in normal] + [numerator])


def random_arrangement(
    rng: random.Random, max_dim: int, max_m: int, linear: bool = False
) -> Arrangement:
    """Random rational arrangement; duplicates are retried a bounded number of times."""
    dim = rng.randint(1, max_dim)
    m = rng.randint(1, max_m)
    hyps: list[Hyperplane] = []
    attempts = 0
    while len(hyps) < m and attempts < 50 * m:
        attempts += 1
        h = random_hyperplane(rng, dim, linear)
        if h is not None and h not in hyps:
            hyps.append(h)
    return Arrangement(dim, tuple(hyps))


def random_arrangements(
    rng: random.Random, count: int, max_dim: int, max_m: int
) -> list[Arrangement]:
    return [random_arrangement(rng, max_dim, max_m) for _ in range(count)]


def coordinate_arrangement(dim: int) -> Arrangement:
    """The boolean arrangement x_i = 0 for every coordinate, each hyperplane from its row (e_i | 0)."""
    hyps = []
    for i in range(dim):
        row = [0] * (dim + 1)
        row[i] = 1
        hyps.append(Hyperplane(row))
    return Arrangement(dim, tuple(hyps))


def linear_central_corpus(rng: random.Random) -> list[Arrangement]:
    """Linear arrangements for deconing checks: 3 graphic, 3 boolean and 14 random."""
    out = [
        graphic_arrangement(complete(3)),
        graphic_arrangement(complete(4)),
        graphic_arrangement(cycle(4)),
        coordinate_arrangement(1),
        coordinate_arrangement(2),
        coordinate_arrangement(3),
    ]
    while len(out) < 20:
        arr = random_arrangement(rng, max_dim=4, max_m=5, linear=True)
        if arr.m >= 1:
            out.append(arr)
    return out


def random_order(rng: random.Random, m: int) -> tuple[int, ...]:
    order = list(range(m))
    rng.shuffle(order)
    return tuple(order)

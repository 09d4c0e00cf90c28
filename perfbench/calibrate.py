"""Measures how fast the host runs while a child process runs.

On a shared machine the same invocation can take 1.5x longer from one
minute to the next, and the slowdown differs between vCPUs and changes
within seconds, because other tenants compete for the cores. CPU time
moves with wall time, so measuring it instead does not help, and probes
taken just before and after a child miss what happens during it. So while
a child runs, a thread of the benchmark, on the child's vCPU, times a small
fixed piece of work every INTERVAL_S, and run.py reports the child's time
in reference seconds: measured seconds scaled by REFERENCE_S over the
mean probe. The probe does the kinds of work the program does (exact
Gaussian elimination over the rationals, integer polynomial products, a
memo keyed by frozensets), but it is the benchmark's own code, so a change
to the program does not change it. It takes about 6% of the vCPU, from
the parent and the change alike.
"""

from __future__ import annotations

import random
import statistics
import threading
from fractions import Fraction
from time import thread_time

INTERVAL_S = 0.05
# A reference second is the time a piece of work would take on a host
# where the probe takes REFERENCE_S. Any constant would do; this one is
# about the probe's time on a 2 vCPU Intel Xeon at 2.1 GHz, Python 3.11.7.
REFERENCE_S = 0.003

_rng = random.Random(20121018)
_MATRICES = [[[Fraction(_rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)] for _ in range(6)]
_POLYS = [[_rng.randint(-9, 9) for _ in range(12)] for _ in range(4)]
_SETS = [frozenset(_rng.sample(range(14), 6)) for _ in range(20)]


def _rref(rows: list[list[Fraction]]) -> tuple:
    rows = [list(r) for r in rows]
    pivot = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(pivot, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[pivot], rows[p] = rows[p], rows[pivot]
        inv = 1 / rows[pivot][c]
        rows[pivot] = [x * inv for x in rows[pivot]]
        for i in range(len(rows)):
            if i != pivot and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot])]
        pivot += 1
    return tuple(tuple(r) for r in rows[:pivot])


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _work() -> int:
    flats: dict[tuple, int] = {}
    for m in _MATRICES:
        r = _rref(m)
        flats[r] = flats.get(r, 0) + 1
    acc = [1]
    for p in _POLYS:
        acc = _poly_mul(acc, p)
    memo: dict[frozenset, int] = {}
    for s in _SETS:
        for t in _SETS:
            memo[s & t] = memo.get(s & t, 0) + len(s | t)
    return len(flats) + len(acc) + len(memo)


def probe() -> float:
    """CPU seconds this thread takes for the fixed work now."""
    start = thread_time()
    _work()
    return thread_time() - start


class Sampler:
    """Probes the host's speed every INTERVAL_S while the `with` block runs.

    The first probe runs at once, so a block always gets at least one.
    """

    def __enter__(self) -> Sampler:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while True:
            self.samples.append(probe())
            if self._stop.wait(INTERVAL_S):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, wall_s: float) -> float:
        """Wall seconds measured in the block, in reference seconds.

        A child's time adds up its slowdowns, so the mean probe scales it,
        not the median; the top and bottom tenth are dropped so that one
        disturbed probe does not count.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return wall_s * REFERENCE_S / statistics.mean(ordered[cut:len(ordered) - cut])

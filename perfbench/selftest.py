"""Self-test of the benchmark's output checker; run.py runs it before every measurement.

    python3 perfbench/selftest.py

Feeds the checks hand-built reports: correct ones must pass, and ones with
a corrupted polynomial, a failed identity, a missing check or a nonzero exit
code must be flagged. Also checks that layers.py computes exactly the
per-layer metrics, with their units, that BENCHMARK.json lists. Exits 1 and lists the failures if any case misbehaves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
import layers

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# K4 minus an edge: P(t) = t(t-1)(t-2)^2 = t^4 - 5t^3 + 8t^2 - 4t.
DIAMOND = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
DIAMOND_POLY = "t^4 - 5t^3 + 8t^2 - 4t"


def _report(**results) -> str:
    return json.dumps({"results": results, "violations": []})


def _expect(failures: list[str], name: str, problems: list[str], flagged: bool) -> None:
    if bool(problems) != flagged:
        want = "flagged" if flagged else "accepted"
        failures.append(f"{name}: expected the output to be {want}, got {problems}")


def run() -> list[str]:
    failures: list[str] = []
    if check.parse_poly("t^3 - 3t^2 + 2t") != (0, 2, -3, 1):
        failures.append("parse_poly misreads t^3 - 3t^2 + 2t")
    if check.parse_poly("-t + 7") != (7, -1) or check.parse_poly("0") != ():
        failures.append("parse_poly misreads a sign, a constant or zero")

    n, edges = DIAMOND
    counts = check.coloring_counts(n, edges)
    if counts != [t * (t - 1) * (t - 2) ** 2 for t in range(n + 1)]:
        failures.append(f"coloring_counts of the diamond graph is {counts}")

    good = _report(polynomial=DIAMOND_POLY, all_ok=True)
    corrupt = _report(polynomial="t^4 - 5t^3 + 8t^2 - 3t", all_ok=True)
    _expect(failures, "graph bounds", check.check_graph_bounds(0, good, counts), False)
    _expect(failures, "graph bounds, corrupted polynomial", check.check_graph_bounds(0, corrupt, counts), True)
    _expect(failures, "graph bounds, exit code 1", check.check_graph_bounds(1, good, counts), True)
    _expect(failures, "graph bounds, empty output", check.check_graph_bounds(0, "", counts), True)

    ref = (0, -4, 8, -5, 1)
    _expect(failures, "nbc", check.check_poly_report(0, good, "polynomial", ref), False)
    _expect(failures, "nbc, corrupted polynomial", check.check_poly_report(0, corrupt, "polynomial", ref), True)
    _expect(failures, "nbc, exit code 3", check.check_poly_report(3, good, "polynomial", ref), True)
    decone_ok = _report(char_poly=DIAMOND_POLY, ok=True)
    _expect(failures, "decone", check.check_decone(0, decone_ok, ref), False)
    _expect(failures, "decone, identity failed", check.check_decone(0, _report(char_poly=DIAMOND_POLY, ok=False), ref), True)

    verify_ok = _report(instances=3, checks=10, violation_count=0)
    verify_bad = _report(instances=3, checks=10, violation_count=1)
    verify_short = _report(instances=3, checks=9, violation_count=0)
    _expect(failures, "verify", check.check_verify(0, verify_ok, 3, 10), False)
    _expect(failures, "verify, one violation", check.check_verify(0, verify_bad, 3, 10), True)
    _expect(failures, "verify, a check skipped", check.check_verify(0, verify_short, 3, 10), True)
    _expect(failures, "verify, exit code 1", check.check_verify(1, verify_ok, 3, 10), True)

    listed = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    computed = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    computed[layers.TRACE_OVERHEAD] = "s"
    if listed != computed:
        failures.append(f"layers.py and BENCHMARK.json disagree on {sorted(set(listed.items()) ^ set(computed.items()))}")
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(f"FAIL {problem}")
    print("checker self-test:", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)

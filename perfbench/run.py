"""chromabounds benchmark: closed-loop CLI invocations on inputs generated from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. One client invokes `python3 -m chromabounds` on the workload's
inputs, each invocation in a fresh interpreter and each starting only after
the previous one ended, so process-wide caches start cold as they do for a
user. A pass is one round over the workload's invocations; its wall time
is the sum of their wall times. Outputs are checked after each invocation,
outside the timed region, against references computed before timing.

Workloads (see BENCHMARK.json for why each was chosen):
  verify-corpus  `verify --seed 42` at the default corpus sizes, whatever N
  arr-growth     `nbc` on 4-dimensional arrangements with m = 8, 10, 11
                 (affine) and 12 (linear), plus `decone` of the linear one
  graph-dc       `bounds` on random 6-regular graphs, two with 12 and four
                 with 13 vertices
  all            the three above in turn, one result line each

With --trace 0 the run reports the end-to-end metrics: wall_s (one pass,
summing each invocation's median over the run's passes), setup_s (median
time for a fresh interpreter to import chromabounds.cli) and peak_rss_mb
(highest child peak RSS). wall_s and setup_s are in reference seconds:
each measured wall time is scaled by the host's speed while it ran, which
calibrate.py probes from a thread, because on a shared host the same
invocation takes up to 1.7x longer from minute to minute. The benchmark
and its children run on one vCPU, so that the probes see what the
children meet; the numbers are single-process. With --trace 1 it makes
one untraced and one traced pass and reports the per-layer metrics of
layers.py plus the tracing overhead; spans and per-instance rows go to
perfbench/out/<workload>-seed<N>/trace.json, and an untraced run's
measured and scaled times to result.json beside it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import calibrate
import check
import layers
import selftest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

IMPORT_PROBES = 20
# verify-corpus always checks the seed-42 corpus, the ROADMAP's headline command:
# across verify seeds 1-9 its work varies from 227k to 416k reduce_row calls,
# far more than any affordable run could average out.
VERIFY_SEED = 42
VERIFY_INSTANCES = 270  # default corpus: 20 named graphs, 200 random graphs, 50 arrangements
VERIFY_CHECKS = 5306  # so a change that skips a family of invariants fails the check
ARR_DIM = 4
ARR_AFFINE_SIZES = (8, 10, 11)
ARR_LINEAR_SIZE = 12
# (vertices, degree): random regular graphs with 36 and 39 edges. A fixed
# degree keeps the deletion-contraction cost from swinging with the seed.
# The peak RSS is the largest memo, which a 13-vertex graph sets; taking it
# over four of them keeps it from swinging with the seed too.
GRAPH_SIZES = ((12, 6),) * 2 + ((13, 6),) * 4


@dataclass
class Invocation:
    label: str
    args: list[str]
    check: Callable[[int, str], list[str]]


@dataclass
class Outcome:
    invocation: Invocation
    wall_s: float
    ref_s: float
    rss_mb: float
    problems: list[str]


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def canonical(normal: list[int], offset: Fraction) -> tuple:
    """The hyperplane's canonical key: primitive normal, first nonzero entry positive."""
    g = gcd(*normal)
    sign = 1 if next(x for x in normal if x) > 0 else -1
    return tuple(sign * x // g for x in normal), sign * offset / g


def random_arrangement(rng: random.Random, m: int, linear: bool) -> list[tuple]:
    """m distinct hyperplanes in dimension ARR_DIM with small integer normals."""
    hyps: list[tuple] = []
    while len(hyps) < m:
        normal = [rng.randint(-3, 3) for _ in range(ARR_DIM)]
        if not any(normal):
            continue
        offset = Fraction(0) if linear else Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        h = canonical(normal, offset)
        if h not in hyps:
            hyps.append(h)
    return hyps


def arrangement_text(hyps: list[tuple]) -> str:
    lines = [f"dim {ARR_DIM}"] + [" ".join(map(str, normal)) + f" {offset}" for normal, offset in hyps]
    return "\n".join(lines) + "\n"


def random_regular_graph(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """Uniform simple d-regular graph on n vertices (pairing model with rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return sorted(edges)


def whitney_reference(hyps: list[tuple]) -> tuple[int, ...]:
    """Characteristic polynomial by the program's signed-subset expansion."""
    from chromabounds.arrangements import Arrangement, Hyperplane, char_poly_whitney

    arr = Arrangement(ARR_DIM, tuple(Hyperplane.make(list(n), o) for n, o in hyps))
    if arr.m != len(hyps):
        raise RuntimeError("generated hyperplanes are not distinct")
    return char_poly_whitney(arr).coeffs


def build_verify_corpus(rng: random.Random, inputs: Path) -> list[Invocation]:
    return [
        Invocation(
            f"verify --seed {VERIFY_SEED}",
            ["verify", "--seed", str(VERIFY_SEED), "--format", "json"],
            lambda code, out: check.check_verify(code, out, VERIFY_INSTANCES, VERIFY_CHECKS),
        )
    ]


def build_arr_growth(rng: random.Random, inputs: Path) -> list[Invocation]:
    specs = [(f"affine-m{m}", m, False) for m in ARR_AFFINE_SIZES]
    specs.append((f"linear-m{ARR_LINEAR_SIZE}", ARR_LINEAR_SIZE, True))
    invocations = []
    for name, m, linear in specs:
        hyps = random_arrangement(rng, m, linear)
        path = inputs / f"{name}.txt"
        path.write_text(arrangement_text(hyps))
        ref = whitney_reference(hyps)
        invocations.append(Invocation(
            f"nbc {name}", ["nbc", str(path), "--format", "json"],
            lambda code, out, ref=ref: check.check_poly_report(code, out, "polynomial", ref),
        ))
    # The last arrangement is the linear one; decone it at a seeded index.
    k0 = rng.randrange(ARR_LINEAR_SIZE)
    invocations.append(Invocation(
        f"decone {name} {k0}", ["decone", str(path), str(k0), "--format", "json"],
        lambda code, out, ref=ref: check.check_decone(code, out, ref),
    ))
    return invocations


def build_graph_dc(rng: random.Random, inputs: Path) -> list[Invocation]:
    invocations = []
    for i, (n, d) in enumerate(GRAPH_SIZES):
        edges = random_regular_graph(rng, n, d)
        path = inputs / f"g{i}-n{n}-d{d}.txt"
        path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        counts = check.coloring_counts(n, edges)
        invocations.append(Invocation(
            f"bounds {path.name}", ["bounds", str(path), "--format", "json"],
            lambda code, out, counts=counts: check.check_graph_bounds(code, out, counts),
        ))
    return invocations


WORKLOADS = {
    "verify-corpus": build_verify_corpus,
    "arr-growth": build_arr_growth,
    "graph-dc": build_graph_dc,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path, env: dict[str, str]) -> tuple[int, float, float]:
    """Run one child to completion; return exit code, wall seconds and peak RSS in MB."""
    fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    finally:
        os.close(fd)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def run_pass(invocations: list[Invocation], workdir: Path, env: dict[str, str],
             trace_dir: Path | None = None) -> list[Outcome]:
    outcomes = []
    for i, inv in enumerate(invocations):
        stdout_path = workdir / f"stdout-{i}.json"
        if trace_dir is None:
            argv = ["-m", "chromabounds", *inv.args]
        else:
            argv = [str(TRACED_CLI), str(trace_dir / f"trace-{i}.json"), "--", *inv.args]
        with calibrate.Sampler() as speed:
            code, wall, rss = spawn(argv, stdout_path, env)
        problems = inv.check(code, stdout_path.read_text())
        outcomes.append(Outcome(inv, wall, speed.scale(wall), rss, problems))
    return outcomes


def import_probes(workdir: Path, env: dict[str, str]) -> list[tuple[float, float]]:
    """Wall and reference seconds of fresh interpreters importing chromabounds.cli.

    A first import, not reported, warms the file cache.
    """
    walls = []
    with calibrate.Sampler() as speed:
        for _ in range(IMPORT_PROBES + 1):
            code, wall, _ = spawn(["-c", "import chromabounds.cli"], workdir / "probe.out", env)
            if code != 0:
                raise RuntimeError(f"importing chromabounds.cli failed with exit code {code}")
            walls.append(wall)
    return [(wall, speed.scale(wall)) for wall in walls[1:]]


def result_line(outcomes: list[Outcome], metrics: dict) -> dict:
    failed = sum(1 for o in outcomes if o.problems)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def report_problems(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED {o.invocation.label}: {problem}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    env = child_env()
    rng = random.Random(f"{workload}:{seed}")
    invocations = WORKLOADS[workload](rng, inputs)

    if trace:
        untraced = run_pass(invocations, workdir, env)
        trace_dir = workdir / "traces"
        trace_dir.mkdir()
        traced = run_pass(invocations, workdir, env, trace_dir)
        reports = []
        for i, outcome in enumerate(traced):
            path = trace_dir / f"trace-{i}.json"
            if path.is_file():
                reports.append(json.loads(path.read_text()))
            else:
                outcome.problems.append("the traced run wrote no trace")
        # In reference seconds, like wall_s, so that it compares with it.
        overhead = sum(o.ref_s for o in traced) - sum(o.ref_s for o in untraced)
        metrics = layers.per_layer_metrics(reports)
        metrics[layers.TRACE_OVERHEAD] = {"value": overhead, "unit": "s"}
        (workdir / "trace.json").write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "untraced_wall_s": sum(o.wall_s for o in untraced),
            "traced_wall_s": sum(o.wall_s for o in traced),
            "metrics": metrics,
            "instances": layers.instance_rows(reports),
            "invocations": [{"argv": r["argv"], "spans": r["spans"]} for r in reports],
        }))
        shutil.rmtree(trace_dir)
        outcomes = untraced + traced
        print(f"{workload}: {len(invocations)} invocations per pass, untraced "
              f"{sum(o.ref_s for o in untraced):.3f} ref s, traced {sum(o.ref_s for o in traced):.3f} ref s, "
              f"trace in {workdir.relative_to(ROOT)}/trace.json")
        report_problems(outcomes)
        return result_line(outcomes, metrics)

    setup = import_probes(workdir, env)
    start = time.perf_counter()
    passes = [run_pass(invocations, workdir, env)]
    wanted = max(1, round(seconds / (time.perf_counter() - start)))
    while len(passes) < wanted:
        passes.append(run_pass(invocations, workdir, env))
    outcomes = [o for p in passes for o in p]
    # Each invocation's median over the passes, summed. With --seconds 20 a
    # run makes one pass of each workload at this commit; the host-speed
    # scaling, not the median, takes out the host's slowdowns.
    typical = [statistics.median(p[i].ref_s for p in passes) for i in range(len(invocations))]
    metrics = {
        "wall_s": {"value": sum(typical), "unit": "s"},
        "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
        "peak_rss_mb": {"value": max(o.rss_mb for o in outcomes), "unit": "MB"},
    }
    failed = sum(1 for o in outcomes if o.problems)
    ref_passes = [sum(o.ref_s for o in p) for p in passes]
    raw_passes = [sum(o.wall_s for o in p) for p in passes]
    print(f"{workload}: {len(invocations)} invocations per pass; wall_s {sum(typical):.4f} ref s over "
          f"n={len(passes)} passes (min {min(ref_passes):.4f}, max {max(ref_passes):.4f}; measured "
          f"{statistics.median(raw_passes):.4f} s); setup_s {metrics['setup_s']['value']:.4f} ref s over "
          f"n={len(setup)} imports (measured {statistics.median(w for w, _ in setup):.4f} s); "
          f"peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} MB; error_rate {failed / len(outcomes):.4f}")
    report_problems(outcomes)
    result = result_line(outcomes, metrics)
    (workdir / "result.json").write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "pass_wall_s": raw_passes,
        "pass_ref_s": ref_passes,
        "setup_probe_s": setup,
        "invocations": [
            {"label": inv.label, "wall_s": [p[i].wall_s for p in passes], "ref_s": [p[i].ref_s for p in passes],
             "peak_rss_mb": passes[0][i].rss_mb}
            for i, inv in enumerate(invocations)
        ],
        "result": result,
    }, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chromabounds" / "cli.py").is_file():
        print(f"error: no chromabounds sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    failures = selftest.run()
    if failures:
        for failure in failures:
            print(f"error: checker self-test: {failure}", file=sys.stderr)
        return 2

    # The host's speed varies per vCPU from second to second. On one vCPU the
    # speed probes see the slowdowns the children meet; children inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    if len(results) > 1:
        for name, result in zip(names, results):
            print(json.dumps({"workload": name, **result}))
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{k}": v for name, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    else:
        result = results[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

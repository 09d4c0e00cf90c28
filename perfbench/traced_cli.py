"""Run the chromabounds CLI with the public functions of every module traced.

    python3 perfbench/traced_cli.py TRACE.json -- <chromabounds arguments>

Every public function of every chromabounds module is wrapped, in every
module namespace that imported it (`rref` in both `linalg` and
`arrangements`, `char_poly` in `cli`), and so are the IntPolynomial
arithmetic methods, counted together as `exactmath.poly_ops`. Each call
adds to its function's call count, total time and self time, which is the
total minus the time spent in traced callees.

Calls lasting at least SPAN_MIN_S are also kept as spans (id, parent id,
name, start, end). A parent outlasts its children, so the kept spans form
a tree. The verify command's per-instance functions each open a row of
per-layer self time tagged with the instance's size; the rest of the
invocation goes to one row sized by the parsed input file. Everything is
written to TRACE.json when the CLI returns. The program's own files are
not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_MIN_S = 0.001
POLY_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "shift", "scale", "divide_by_t_minus_1")
# Private verify helpers that each check one corpus instance; absent ones are skipped.
INSTANCE_FUNCTIONS = ("_verify_graph", "_verify_arrangement", "_verify_linear_central")


def _size(obj) -> dict:
    """Instance size: vertices or ambient dimension, and edges or hyperplanes."""
    if hasattr(obj, "dim"):
        return {"kind": "arrangement", "n": obj.dim, "m": obj.m}
    if hasattr(obj, "edges"):
        return {"kind": "graph", "n": obj.n, "m": obj.m}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.next_id = 0
        self.rows: list[dict] = []
        self.row = {"label": "<invocation>", "self_s": defaultdict(float)}
        self.saved_rows: list[dict] = []

    def wrap(self, name: str, fn, after=None, instance: bool = False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = name.split(".", 1)[0]
        stack, spans, active, t0 = self.stack, self.spans, self.active, self.t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            if instance:
                self._open_row(args)
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = end - start
                own = dur - frame[1]
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                self.row["self_s"][layer] += own
                if parent is not None:
                    parent[1] += dur
                if dur >= SPAN_MIN_S:
                    spans.append((sid, parent[0] if parent else None, name, start - t0, end - t0))
                if instance:
                    self._close_row(dur)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _open_row(self, args) -> None:
        self.saved_rows.append(self.row)
        size = _size(args[1]) if len(args) > 1 else {}
        self.row = {"label": str(args[0]) if args else "?", **size, "self_s": defaultdict(float)}

    def _close_row(self, wall: float) -> None:
        self.row["wall_s"] = wall
        self.rows.append(self.row)
        self.row = self.saved_rows.pop()

    def report(self, argv: list[str], wall: float, code: int) -> dict:
        self.row["wall_s"] = wall
        return {
            "argv": argv,
            "exit_code": code,
            "wall_s": wall,
            "stats": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()},
            "counters": dict(self.counters),
            "spans": self.spans,
            "instances": self.rows + [self.row],
        }


def _after_poset(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["arrangements.flats_built"] += len(result.flats)


def _after_nbc(signature: inspect.Signature):
    def after(tracer: Tracer, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        arr, k = bound.arguments["arr"], bound.arguments.get("k", 0)
        tracer.counters["nbc.subsets_enumerated"] += math.comb(arr.m, k) if k >= 0 else 0
        tracer.counters["nbc.sets_found"] += result

    return after


def _after_bounds(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["bounds.records"] += len(result.records)


def _after_contract(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.active["graphs.chromatic_poly"]:
        tracer.counters["graphs.dc_expansions"] += 1


def _after_parse(tracer: Tracer, args, kwargs, result) -> None:
    tracer.row.update(_size(result), label=str(args[0]) if args else "?")


def install(tracer: Tracer) -> dict:
    """Wrap every public function in every namespace that holds it; return the modules."""
    import chromabounds

    modules = {"chromabounds": chromabounds}
    for info in pkgutil.iter_modules(chromabounds.__path__):
        if not info.name.startswith("_"):
            modules[info.name] = importlib.import_module(f"chromabounds.{info.name}")

    afters = {
        "arrangements.intersection_poset": lambda fn: _after_poset,
        "nbc.nbc_coefficient": lambda fn: _after_nbc(inspect.signature(fn)),
        "bounds.verify_bounds": lambda fn: _after_bounds,
        "graphs.contract_edge": lambda fn: _after_contract,
        "cli.parse_input_file": lambda fn: _after_parse,
    }
    wrapped: dict[int, tuple] = {}
    for short, mod in modules.items():
        if short == "chromabounds":
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            after = afters[name](obj) if name in afters else None
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, after=after))
    cli = modules["cli"]
    for attr in INSTANCE_FUNCTIONS:
        obj = getattr(cli, attr, None)
        if obj is not None:
            wrapped[id(obj)] = (obj, tracer.wrap(f"cli.{attr}", obj, instance=True))

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    poly = modules["exactmath"].IntPolynomial
    for attr in POLY_OPS:
        if attr in vars(poly):
            setattr(poly, attr, tracer.wrap("exactmath.poly_ops", vars(poly)[attr]))
    return modules


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py TRACE.json -- <chromabounds arguments>", file=sys.stderr)
        return 2
    out, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    modules = install(tracer)
    start = perf_counter()
    code = modules["cli"].main(cli_args)
    wall = perf_counter() - start
    sys.stdout.flush()
    out.write_text(json.dumps(tracer.report(cli_args, wall, code)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

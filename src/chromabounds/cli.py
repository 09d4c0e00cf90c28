"""Command-line front end: parse inputs, run computations, emit text or JSON.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
cap exceeded. JSON reports keep every potentially large integer as a
decimal string so arbitrary precision survives serialization.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import bounds as bnd
from . import nbc as nbcmod
from .arrangements import DEFAULT_SUBSET_GUARD, Arrangement, Hyperplane, char_poly, decone, graphic_arrangement
from .checks import ARRANGEMENT_CHECKS, GRAPH_CHECKS, LINEAR_CENTRAL_CHECKS, Case, Check, run_checks
from .corpus import (
    linear_central_corpus,
    named_graphs,
    random_arrangements,
    random_graphs,
    random_order,
)
from .errors import InputError, InvariantError, ResourceLimitError
from .exactmath import IntPolynomial
from .graphs import DEFAULT_COLORING_CAP, SimpleGraph, chromatic_poly, rank_info

DEFAULT_Q_MIN = -3
DEFAULT_Q_MAX = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    inputs: tuple[str, ...]
    q_min: int = DEFAULT_Q_MIN
    q_max: int = DEFAULT_Q_MAX
    cap_subsets: int = DEFAULT_SUBSET_GUARD
    cap_colorings: int = DEFAULT_COLORING_CAP
    seed: int | None = None
    output_format: str = "text"

    def __post_init__(self) -> None:
        if self.q_min > self.q_max:
            raise InputError("q window is empty (q_min > q_max)")
        if self.cap_subsets <= 0 or self.cap_colorings <= 0:
            raise InputError("caps must be positive")


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def parse_graph_text(text: str, source: str = "<input>") -> SimpleGraph:
    """Edge-list format ("n N" header, 0-based "u v" lines) or DIMACS .col."""
    lines = _meaningful_lines(text)
    if not lines:
        raise InputError(f"{source}: empty graph file")
    if any(line.split()[0] == "p" for _, line in lines):
        return _parse_dimacs(lines, source)
    return _parse_edge_list(lines, source)


def _parse_edge_list(lines: list[tuple[int, str]], source: str) -> SimpleGraph:
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise InputError(f"{source}:{lineno}: expected header 'n <count>', got '{header}'")
    try:
        n = int(parts[1])
    except ValueError:
        raise InputError(f"{source}:{lineno}: vertex count '{parts[1]}' is not an integer")
    edges = _collect_edges(lines[1:], n, source, one_based=False)
    return SimpleGraph(n, frozenset(edges))


def _parse_dimacs(lines: list[tuple[int, str]], source: str) -> SimpleGraph:
    n = None
    edge_lines = []
    for lineno, line in lines:
        tag = line.split()[0]
        if tag == "c":
            continue
        if tag == "p":
            parts = line.split()
            if len(parts) < 3 or parts[1] != "edge":
                raise InputError(f"{source}:{lineno}: malformed problem line '{line}'")
            try:
                n = int(parts[2])
            except ValueError:
                raise InputError(f"{source}:{lineno}: vertex count '{parts[2]}' is not an integer")
        elif tag == "e":
            edge_lines.append((lineno, " ".join(line.split()[1:])))
        else:
            raise InputError(f"{source}:{lineno}: unrecognized DIMACS line '{line}'")
    if n is None:
        raise InputError(f"{source}: DIMACS file has no 'p edge' line")
    edges = _collect_edges(edge_lines, n, source, one_based=True)
    return SimpleGraph(n, frozenset(edges))


def _collect_edges(
    lines: list[tuple[int, str]], n: int, source: str, one_based: bool
) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{source}:{lineno}: expected 'u v', got '{line}'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{source}:{lineno}: non-integer vertex in '{line}'")
        if one_based:
            u, v = u - 1, v - 1
        if u == v:
            raise InputError(f"{source}:{lineno}: loop '{line}' is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{source}:{lineno}: vertex out of range in '{line}'")
        e = (min(u, v), max(u, v))
        if e in edges:
            print(f"warning: {source}:{lineno}: duplicate edge '{line}' collapsed", file=sys.stderr)
        edges.add(e)
    return edges


def parse_arrangement_text(text: str, source: str = "<input>") -> Arrangement:
    """One hyperplane per line: n rational coordinates then the offset."""
    lines = _meaningful_lines(text)
    if not lines:
        raise InputError(f"{source}: empty arrangement file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise InputError(f"{source}:{lineno}: expected header 'dim <count>', got '{header}'")
    try:
        dim = int(parts[1])
    except ValueError:
        raise InputError(f"{source}:{lineno}: dimension '{parts[1]}' is not an integer")
    hyps = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != dim + 1:
            raise InputError(
                f"{source}:{lineno}: expected {dim} coordinates plus an offset, got {len(tokens)} values"
            )
        try:
            values = [Fraction(tok) for tok in tokens]
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{source}:{lineno}: cannot parse rational in '{line}'")
        try:
            hyps.append(Hyperplane.make(values[:dim], values[dim]))
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}")
    return Arrangement(dim, tuple(hyps))


def parse_input_file(path: str) -> SimpleGraph | Arrangement:
    """Dispatch on the header: 'n' or DIMACS for graphs, 'dim' for arrangements."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    lines = _meaningful_lines(text)
    if not lines:
        raise InputError(f"{path}: empty input file")
    first = lines[0][1].split()[0]
    if first == "dim":
        return parse_arrangement_text(text, source=path)
    if first in ("n", "p", "c", "e"):
        return parse_graph_text(text, source=path)
    raise InputError(f"{path}: unrecognized header '{lines[0][1]}'")


def format_arrangement(arr: Arrangement) -> str:
    lines = [f"dim {arr.dim}"]
    for h in arr.hyperplanes:
        coords = " ".join(str(x) for x in h.normal)
        lines.append(f"{coords} {h.offset}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report construction (shared by text and JSON output)
# ---------------------------------------------------------------------------


def _coeffs_json(p: IntPolynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def _seq_json(s: bnd.CoeffSequence) -> dict:
    return {"n": s.n, "m": s.m, "r": s.r, "a": [str(x) for x in s.a]}


def _record_json(rec: bnd.BoundsRecord) -> dict:
    return {
        "q": rec.q,
        "k": rec.k,
        "lower": str(rec.lower),
        "value": str(rec.value),
        "upper": str(rec.upper),
        "ok": rec.ok,
    }


def build_chromatic_report(g: SimpleGraph) -> dict:
    p = chromatic_poly(g)
    info = rank_info(g)
    s = bnd.coeff_sequence(p, g.m)
    return {
        "polynomial": str(p),
        "n": g.n,
        "m": g.m,
        "components": info.components,
        "rank": info.rank,
        "coefficients_ascending": _coeffs_json(p),
        "sequence": _seq_json(s),
    }


def build_bounds_report(obj: SimpleGraph | Arrangement, config: RunConfig) -> dict:
    case = Case(config.inputs[0], obj, config.q_min, config.q_max, cap_subsets=config.cap_subsets)
    return {
        "polynomial": str(case.poly),
        "sequence": _seq_json(case.seq),
        "records": [_record_json(rec) for rec in case.bounds.records],
        "all_ok": case.bounds.all_ok,
        "all_tight": case.bounds.all_tight,
        "violations": [_record_json(rec) for rec in case.bounds.violations],
    }


def build_nbc_report(
    obj: SimpleGraph | Arrangement, order: tuple[int, ...] | None, config: RunConfig
) -> dict:
    case = Case(config.inputs[0], obj, config.q_min, config.q_max, cap_subsets=config.cap_subsets)
    rows = []
    for k in range(case.seq.r + 1):
        count = nbcmod.nbc_coefficient(case.arrangement, order=order, k=k, guard=config.cap_subsets)
        rows.append({"k": k, "nbc_count": str(count), "abs_coefficient": str(case.seq.a[k]),
                     "match": count == case.seq.a[k]})
    return {
        "polynomial": str(case.poly),
        "order": list(order) if order is not None else list(range(case.m)),
        "rows": rows,
        "all_match": all(row["match"] for row in rows),
    }


def build_decone_report(obj: SimpleGraph | Arrangement, k0: int, config: RunConfig) -> dict:
    arr = graphic_arrangement(obj) if isinstance(obj, SimpleGraph) else obj
    if not 0 <= k0 < arr.m:
        raise InputError(f"hyperplane index {k0} out of range for m={arr.m}")
    deconed = decone(arr, k0)
    chi = char_poly(arr, guard=config.cap_subsets)
    chi_deconed = char_poly(deconed, guard=config.cap_subsets)
    expected = bnd.divided_difference(chi)
    return {
        "deconed": format_arrangement(deconed),
        "char_poly": str(chi),
        "char_poly_deconed": str(chi_deconed),
        "divided_difference": str(expected),
        "ok": chi_deconed == expected,
    }


# ---------------------------------------------------------------------------
# verify: drive every invariant over a seeded corpus
# ---------------------------------------------------------------------------


def build_verify_report(config: RunConfig, num_graphs: int, max_vertices: int,
                        num_arrangements: int, max_dim: int, max_hyperplanes: int) -> tuple[dict, list[dict]]:
    rng = random.Random(config.seed if config.seed is not None else 0)
    outcomes: list[tuple[str, str, bool, str]] = []

    def verify(table: tuple[Check, ...], label: str, obj: SimpleGraph | Arrangement) -> dict:
        case = Case(label, obj, config.q_min, config.q_max,
                    orders=lambda m: [None] + [random_order(rng, m) for _ in range(2)],
                    cap_subsets=config.cap_subsets, cap_colorings=config.cap_colorings)
        outcomes.extend((name, label, ok, detail) for name, ok, detail in run_checks(table, case))
        return case.row

    graph_results = [verify(GRAPH_CHECKS, f"named:{name}", g) for name, g in named_graphs()]
    graph_results += [verify(GRAPH_CHECKS, f"graph[{i}]", g)
                      for i, g in enumerate(random_graphs(rng, num_graphs, max_vertices))]
    arrangements = random_arrangements(rng, num_arrangements, max_dim, max_hyperplanes)
    arrangement_results = [verify(ARRANGEMENT_CHECKS, f"arrangement[{i}]", a) for i, a in enumerate(arrangements)]
    for i, arr in enumerate(linear_central_corpus(rng)):
        verify(LINEAR_CENTRAL_CHECKS, f"linear[{i}]", arr)
    violations = [{"check": name, "instance": label, "detail": detail} for name, label, ok, detail in outcomes if not ok]
    results = {
        "graphs": graph_results,
        "arrangements": arrangement_results,
        "instances": len(graph_results) + len(arrangement_results),
        "checks": len(outcomes),
        "violation_count": len(violations),
    }
    return results, violations


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------


def _emit(command: str, config: RunConfig, results: dict, violations: list) -> str:
    payload = {
        "command": command,
        "config": asdict(config),
        "results": results,
        "violations": violations,
    }
    payload["config"]["inputs"] = list(config.inputs)
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_text_chromatic(results: dict) -> None:
    print(f"chromatic polynomial: {results['polynomial']}")
    print(f"n = {results['n']}, m = {results['m']}, "
          f"components = {results['components']}, rank = {results['rank']}")
    a = ", ".join(results["sequence"]["a"])
    print(f"coefficient sequence a_0..a_r: {a}")


def _print_text_bounds(results: dict) -> None:
    print(f"polynomial: {results['polynomial']}")
    seq = results["sequence"]
    print(f"n = {seq['n']}, m = {seq['m']}, r = {seq['r']}, a = [{', '.join(seq['a'])}]")
    print(f"{'q':>4} {'k':>3} {'lower':>12} {'value':>12} {'upper':>12}  ok")
    for rec in results["records"]:
        print(f"{rec['q']:>4} {rec['k']:>3} {rec['lower']:>12} {rec['value']:>12} "
              f"{rec['upper']:>12}  {'yes' if rec['ok'] else 'NO'}")
    print(f"all ok: {results['all_ok']}; all tight: {results['all_tight']}")


def _print_text_nbc(results: dict) -> None:
    print(f"polynomial: {results['polynomial']}")
    print(f"order: {','.join(str(i) for i in results['order'])}")
    print(f"{'k':>3} {'nbc':>12} {'|a_k|':>12}  match")
    for row in results["rows"]:
        print(f"{row['k']:>3} {row['nbc_count']:>12} {row['abs_coefficient']:>12}  "
              f"{'yes' if row['match'] else 'NO'}")
    print(f"all match: {results['all_match']}")


def _print_text_decone(results: dict) -> None:
    print("deconed arrangement:")
    print(results["deconed"])
    print(f"char poly of input:    {results['char_poly']}")
    print(f"char poly of deconing: {results['char_poly_deconed']}")
    print(f"divided difference:    {results['divided_difference']}")
    print(f"identity holds: {results['ok']}")


def _print_text_verify(results: dict, violations: list[dict]) -> None:
    print(f"instances: {results['instances']}")
    print(f"checks run: {results['checks']}")
    print(f"{results['violation_count']} violations")
    for v in violations:
        print(f"  VIOLATION {v['check']} on {v['instance']}: {v['detail']}")


def _parse_order_flag(raw: str | None, m: int) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        order = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise InputError(f"--order '{raw}' is not a comma-separated integer list")
    return nbcmod._validate_order(order, m)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromabounds",
        description="Exact chromatic/characteristic polynomials and coefficient bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--q-min", type=int, default=DEFAULT_Q_MIN)
        p.add_argument("--q-max", type=int, default=DEFAULT_Q_MAX)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cap-subsets", type=int, default=DEFAULT_SUBSET_GUARD)
        p.add_argument("--cap-colorings", type=int, default=DEFAULT_COLORING_CAP)

    p = sub.add_parser("chromatic", help="chromatic polynomial of a graph file")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("bounds", help="two-sided bound grid for a graph or arrangement file")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("nbc", help="no-broken-circuit counts vs. coefficients")
    p.add_argument("file")
    p.add_argument("--order", default=None, help="comma-separated permutation of 0..m-1")
    add_common(p)

    p = sub.add_parser("decone", help="decone a linear arrangement at an index")
    p.add_argument("file")
    p.add_argument("k0", type=int)
    add_common(p)

    p = sub.add_parser("verify", help="run the full invariant suite on a seeded corpus")
    p.add_argument("--graphs", type=int, default=200)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--arrangements", type=int, default=50)
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--max-m", type=int, default=7)
    add_common(p)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        inputs=tuple([args.file] if hasattr(args, "file") else []),
        q_min=args.q_min,
        q_max=args.q_max,
        cap_subsets=args.cap_subsets,
        cap_colorings=args.cap_colorings,
        seed=args.seed,
        output_format=args.format,
    )

    violations: list = []
    if args.command == "chromatic":
        obj = parse_input_file(args.file)
        if not isinstance(obj, SimpleGraph):
            raise InputError(f"{args.file}: 'chromatic' expects a graph file")
        results = build_chromatic_report(obj)
        printer = _print_text_chromatic
        failed = False
    elif args.command == "bounds":
        obj = parse_input_file(args.file)
        results = build_bounds_report(obj, config)
        violations = results["violations"]
        printer = _print_text_bounds
        failed = not results["all_ok"]
    elif args.command == "nbc":
        obj = parse_input_file(args.file)
        order = _parse_order_flag(args.order, obj.m)
        results = build_nbc_report(obj, order, config)
        violations = [row for row in results["rows"] if not row["match"]]
        printer = _print_text_nbc
        failed = not results["all_match"]
    elif args.command == "decone":
        obj = parse_input_file(args.file)
        results = build_decone_report(obj, args.k0, config)
        printer = _print_text_decone
        failed = not results["ok"]
    elif args.command == "verify":
        for flag, value in (("--max-n", args.max_n), ("--max-dim", args.max_dim), ("--max-m", args.max_m)):
            if value < 1:
                raise InputError(f"{flag} must be at least 1, got {value}")
        results, violations = build_verify_report(
            config,
            num_graphs=args.graphs,
            max_vertices=args.max_n,
            num_arrangements=args.arrangements,
            max_dim=args.max_dim,
            max_hyperplanes=args.max_m,
        )
        printer = None
        failed = bool(violations)
    else:  # pragma: no cover - argparse enforces the choices
        raise InputError(f"unknown command {args.command}")

    if config.output_format == "json":
        print(_emit(args.command, config, results, violations))
    elif printer is None:
        _print_text_verify(results, violations)
    else:
        printer(results)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violated (bug): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

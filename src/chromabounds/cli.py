"""Command-line front end: argv, input files, report assembly and rendering.

Each subcommand declares only the flags it reads and names its handler and
text printer. A handler reads its input's polynomial, sequence and
arrangement from one `bounds.Instance` (`verify` runs `checks.run_corpus`),
takes each outcome from the rule that the check table calls, and returns
(results, violations), each violation a `_violation` record that `run`
prints, in JSON or as a VIOLATION line after the text; the JSON `config`
echoes the command, its input file and flags.

Every input text goes through one reader, `parse_input`, which dispatches
once on its first line's tag; a file is UTF-8 with an optional byte-order
mark, and repeated edges or hyperplanes collapse. Numbers follow the README's
token grammar, `[+-]digits` or `[+-]digits/digits` in ASCII digits; any other
token exits 2. A hyperplane line is scaled to integers by the lcm of its
denominators, and an offset is printed as num/den from its row.

Each command imports the modules it runs when it runs them: a graph
command never loads `arrangements` or `linalg`, only `verify` loads
`checks` and `corpus`, and no command loads `fractions`.

Exit codes: 0 success, 1 verification failure (the report's violations
or a broken internal invariant), 2 input or usage error, 3 one of the
fixed resource budgets of `errors` exceeded, which no flag changes, or
out of memory; a reader closing stdout early is not a failure (exit 0).
A process runs `main` through `process_main`, which then freezes the
heap so that the interpreter's finalization does not collect it. JSON
reports keep every potentially large integer as a decimal string so
arbitrary precision survives serialization, and no integer is too long
to print: `main` lifts the int-string digit limit while a command runs
and restores the caller's limit after it. An integer flag takes the
token grammar's integers, at most 4300 digits. An error echoes an input
line, token, flag value or unknown command name in quotes, cut to 40
characters plus its length (`errors.quoted`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from math import gcd, lcm
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from . import bounds as bnd
from .errors import CORPUS_INSTANCE_BUDGET, InputError, InvariantError, ResourceLimitError, quoted

if TYPE_CHECKING:
    from .arrangements import Arrangement, Hyperplane
    from .graphs import SimpleGraph


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


def parse_input(text: str, source: str = "<input>") -> SimpleGraph | Arrangement:
    """The graph or arrangement in `text`, by its first line's tag.

    'dim' starts an arrangement, 'n' an edge list and 'p', 'c' or 'e' a
    DIMACS .col file. Blank lines and lines starting with '#' are skipped.
    """
    lines = _meaningful_lines(text)
    if not lines:
        raise InputError(f"{source}: empty input file")
    tag = lines[0][1].split()[0]
    if tag == "dim":
        from .arrangements import Arrangement

        dim = _header_count(lines, source, "dimension")
        return Arrangement(dim, tuple(_distinct(_hyperplanes(lines[1:], dim, source), source, "hyperplane")))
    if tag == "n":
        n = _header_count(lines, source, "vertex count")
        edges = _distinct(_edges(lines[1:], n, source, base=0), source, "edge")
    elif tag in ("p", "c", "e"):
        n, edges = _parse_dimacs(lines, source)
    else:
        raise InputError(f"{source}: unrecognized header {quoted(lines[0][1])}")
    from .graphs import SimpleGraph

    return SimpleGraph(n, frozenset(edges))


def _header_count(lines: list[tuple[int, str]], source: str, what: str) -> int:
    """The count in an 'n <count>' or 'dim <count>' first line."""
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise InputError(f"{source}:{lineno}: expected header '{parts[0]} <count>', got {quoted(header)}")
    try:
        return _integer_token(parts[1])
    except ValueError:
        raise InputError(f"{source}:{lineno}: {what} {quoted(parts[1])} is not an integer")


def _parse_dimacs(lines: list[tuple[int, str]], source: str) -> tuple[int, dict[tuple[int, int], None]]:
    n = None
    edge_lines = []
    for lineno, line in lines:
        tag, *rest = line.split()
        if tag == "c":
            continue
        if tag == "p":
            if n is not None:
                raise InputError(f"{source}:{lineno}: second problem line {quoted(line)}")
            if len(rest) < 2 or rest[0] != "edge":
                raise InputError(f"{source}:{lineno}: malformed problem line {quoted(line)}")
            try:
                n = _integer_token(rest[1])
            except ValueError:
                raise InputError(f"{source}:{lineno}: vertex count {quoted(rest[1])} is not an integer")
        elif tag == "e":
            edge_lines.append((lineno, " ".join(rest)))
        else:
            raise InputError(f"{source}:{lineno}: unrecognized DIMACS line {quoted(line)}")
    if n is None:
        raise InputError(f"{source}: DIMACS file has no 'p edge' line")
    return n, _distinct(_edges(edge_lines, n, source, base=1), source, "edge")


def _distinct(keyed: Iterable[tuple[int, str, Hashable]], source: str, what: str) -> dict:
    """The keys of (lineno, line, key) triples, first seen first; after the read, one warning counts the repeats."""
    seen: dict = {}
    duplicates = 0
    first = ""  # where the first duplicate is, and its excerpt
    for lineno, line, key in keyed:
        if key in seen:
            if not duplicates:
                first = f"{source}:{lineno}: duplicate {what} {quoted(line)}"
            duplicates += 1
        seen[key] = None
    if duplicates:
        print(f"warning: {first} collapsed ({duplicates} duplicate {what}s in all)", file=sys.stderr)
    return seen


def _edges(lines: list[tuple[int, str]], n: int, source: str, base: int) -> Iterator[tuple[int, str, tuple[int, int]]]:
    """Each 'u v' line whose vertices are numbered from `base`, with its edge as a 0-based pair."""
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{source}:{lineno}: expected 'u v', got {quoted(line)}")
        try:
            u, v = _integer_token(parts[0]) - base, _integer_token(parts[1]) - base
        except ValueError:
            raise InputError(f"{source}:{lineno}: non-integer vertex in {quoted(line)}")
        if u == v:
            raise InputError(f"{source}:{lineno}: loop {quoted(line)} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{source}:{lineno}: vertex out of range in {quoted(line)}")
        yield lineno, line, (min(u, v), max(u, v))


# The token grammar (see `_rational`); a header count, a vertex index and an integer flag take an integer token.
_MAX_DIGITS = 4300


def _is_digits(text: str) -> bool:
    """Whether `text` is 1 to 4300 ASCII digits; no other characters pass `isdigit` in ASCII."""
    return text.isascii() and text.isdigit() and len(text) <= _MAX_DIGITS


def _integer_token(token: str) -> int:
    """`[+-]digits` as an int; ValueError for any other token (see `_rational`)."""
    if not _is_digits(token[1:] if token[:1] in ("+", "-") else token):
        raise ValueError("not an integer token")
    return int(token)


def _rational(token: str) -> int | tuple[int, int]:
    """`[+-]digits` as an int, `[+-]digits/digits` as the pair (num, den); ValueError for any other token.

    This is the README's token grammar. Its digits are ASCII 0-9, whatever
    `int` accepts, so decimals, exponents, `_` separators and other
    scripts' digits are rejected on every Python version. A numerator or
    denominator has at most 4300 digits, the interpreter's default limit
    on converting an int from a string (`main` lifts that limit for the
    span of a command so that results of any length print), since both
    conversions cost time quadratic in the length. A zero denominator is
    rejected; the pair is not reduced.
    """
    num, slash, den = token.partition("/")
    if not slash:
        return _integer_token(num)
    denominator = int(den) if _is_digits(den) else 0
    if not denominator:
        raise ValueError("not a rational token with a nonzero denominator")
    return _integer_token(num), denominator


def _hyperplanes(lines: list[tuple[int, str]], dim: int, source: str) -> Iterator[tuple[int, str, Hyperplane]]:
    """Each line of dim rationals and an offset, scaled by the lcm of its denominators, with its hyperplane."""
    from .arrangements import Hyperplane

    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != dim + 1:
            raise InputError(f"{source}:{lineno}: expected {quoted(str(dim))} coordinates plus an offset, "
                             f"got {len(tokens)} values")
        row = []
        for tok in tokens:
            try:
                row.append(_rational(tok))
            except ValueError:
                raise InputError(f"{source}:{lineno}: cannot parse rational {quoted(tok)} in {quoted(line)}")
        scale = lcm(*(x[1] for x in row if type(x) is tuple))
        row = [x[0] * (scale // x[1]) if type(x) is tuple else x * scale for x in row]
        try:
            hyperplane = Hyperplane(row)
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}")
        yield lineno, line, hyperplane


def parse_input_file(path: str) -> SimpleGraph | Arrangement:
    """Read the file at `path` and parse it with `parse_input`, naming it in every error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return parse_input(text, source=path)


def format_arrangement(arr: Arrangement) -> str:
    """The arrangement in the input format: each primitive normal, then the offset for it as num/den."""
    lines = [f"dim {arr.dim}"]
    for h in arr.hyperplanes:
        *normal, offset = h.row
        den = gcd(*normal)  # the row is primitive, so offset/den is in lowest terms
        coords = " ".join([str(x // den) for x in normal])
        lines.append(f"{coords} {offset}" if den == 1 else f"{coords} {offset}/{den}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report construction (shared by text and JSON output)
# ---------------------------------------------------------------------------


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


def _violation(check: str, instance: str, detail: str) -> dict:
    """Every command's violation record; `check` names an entry of the `checks` tables."""
    return {"check": check, "instance": instance, "detail": detail}


# ---------------------------------------------------------------------------
# commands, text rendering and the entry point
# ---------------------------------------------------------------------------


def _run_chromatic(args: argparse.Namespace) -> tuple[dict, list]:
    inst = bnd.Instance(parse_input_file(args.file))
    if not inst.is_graph:
        raise InputError(f"{args.file}: 'chromatic' expects a graph file")
    from .graphs import rank_info

    p = inst.poly
    info = rank_info(inst.obj)
    results = {
        "polynomial": str(p),
        "n": inst.obj.n,
        "m": inst.m,
        "components": info.components,
        "rank": info.rank,
        "coefficients_ascending": [str(c) for c in p.coeffs],
        "sequence": _seq_json(inst.seq),
    }
    return results, []


def _run_bounds(args: argparse.Namespace) -> tuple[dict, list]:
    inst = bnd.Instance(parse_input_file(args.file))
    grid = bnd.verify_bounds(inst.seq, args.q_min, args.q_max)
    results = {
        "polynomial": str(inst.poly),
        "sequence": _seq_json(inst.seq),
        "records": [_record_json(rec) for rec in grid.records],
        "all_ok": grid.all_ok,
        "all_tight": grid.all_tight,
    }
    return results, [_violation("two-sided-bounds", args.file, detail) for detail in grid.failure_details()]


def _run_nbc(args: argparse.Namespace) -> tuple[dict, list]:
    inst = bnd.Instance(parse_input_file(args.file))
    try:  # `nbc_counts` checks that they are a permutation
        order = None if args.order is None else tuple(_integer_token(tok) for tok in args.order.split(","))
    except ValueError:
        raise InputError(f"--order {quoted(args.order)} is not a comma-separated integer list")
    from .arrangements import nbc_counts, nbc_rule

    # The counts first: their subset guard depends only on m and trips before any polynomial is built.
    counts = nbc_counts(inst.arrangement, order=order)
    checked = nbc_rule(counts, inst.seq.a, order)
    rows = [{"k": k, "nbc_count": str(counts[k]), "abs_coefficient": str(inst.seq.a[k]), "match": ok}
            for k, (ok, _) in enumerate(checked)]
    results = {
        "polynomial": str(inst.poly),
        "order": list(order) if order is not None else list(range(inst.m)),
        "rows": rows,
        "all_match": all(ok for ok, _ in checked),
    }
    return results, [_violation("nbc-coefficient", args.file, detail) for ok, detail in checked if not ok]


def _run_decone(args: argparse.Namespace) -> tuple[dict, list]:
    from .arrangements import char_poly, decone, decone_rule

    arr = bnd.Instance(parse_input_file(args.file)).arrangement
    k0 = args.k0
    deconed = decone(arr, k0)
    chi = char_poly(arr)
    chi_deconed = char_poly(deconed)
    expected = bnd.divided_difference(chi)
    ok, detail = decone_rule(chi_deconed, expected, k0)
    results = {
        "deconed": format_arrangement(deconed),
        "char_poly": str(chi),
        "char_poly_deconed": str(chi_deconed),
        "divided_difference": str(expected),
        "ok": ok,
    }
    return results, [] if ok else [_violation("decone-divided-difference", args.file, detail)]


def _run_verify(args: argparse.Namespace) -> tuple[dict, list]:
    """Drive every invariant over a seeded corpus."""
    for flag, value, least in (("--max-n", args.max_n, 1), ("--max-dim", args.max_dim, 1),
                               ("--max-m", args.max_m, 1), ("--graphs", args.graphs, 0),
                               ("--arrangements", args.arrangements, 0)):
        if value < least:
            raise InputError(f"{flag} must be at least {least}, got {value}")
    drawn = args.graphs + args.arrangements
    if drawn > CORPUS_INSTANCE_BUDGET:
        raise ResourceLimitError(f"verify would draw {quoted(str(drawn))} random graphs and arrangements; "
                                 f"the corpus budget is {CORPUS_INSTANCE_BUDGET}")
    from .checks import run_corpus

    results, failures = run_corpus(args.seed, args.q_min, args.q_max, args.graphs, args.max_n, args.arrangements,
                                   args.max_dim, args.max_m)
    return results, [_violation(*failure) for failure in failures]


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


def _print_text_verify(results: dict) -> None:
    print(f"instances: {results['instances']}")
    if "skipped" in results:
        print(f"skipped: {results['skipped']}")
    print(f"checks run: {results['checks']}")
    print(f"{results['violation_count']} violations")


def _integer(text: str) -> int:
    """An integer flag value, an integer token of the token grammar."""
    try:
        return _integer_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}")


def _output_format(text: str) -> str:
    """The --format value, one of 'text' and 'json'."""
    if text not in ("text", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {quoted(text)} (choose from 'text', 'json')")
    return text


# The flags whose values a JSON report's `config` echoes; each command declares
# only the ones it reads.
_SHARED_FLAGS = {
    "--format": {"dest": "output_format", "type": _output_format, "metavar": "{text,json}", "default": "text"},
    "--q-min": {"dest": "q_min", "type": _integer, "default": -3},
    "--q-max": {"dest": "q_max", "type": _integer, "default": 3},
    "--seed": {"dest": "seed", "type": _integer, "default": 0},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromabounds",
        description="Exact chromatic/characteristic polynomials and coefficient bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, handler, printer, *arguments: str) -> argparse.ArgumentParser:
        """A subcommand running `handler`, with its positional arguments and the shared flags it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, printer=printer, parser=p)
        for argument in arguments:
            p.add_argument(argument, **_SHARED_FLAGS.get(argument, {}))
        return p

    command("chromatic", "chromatic polynomial of a graph file", _run_chromatic, _print_text_chromatic,
            "file", "--format")
    command("bounds", "two-sided bound grid for a graph or arrangement file", _run_bounds, _print_text_bounds,
            "file", "--format", "--q-min", "--q-max")
    p = command("nbc", "no-broken-circuit counts vs. coefficients", _run_nbc, _print_text_nbc,
                "file", "--format")
    p.add_argument("--order", default=None, help="comma-separated permutation of 0..m-1")
    p = command("decone", "decone a linear arrangement at an index", _run_decone, _print_text_decone,
                "file", "--format")
    p.add_argument("k0", type=_integer)
    p = command("verify", "run the full invariant suite on a seeded corpus", _run_verify, _print_text_verify,
                *_SHARED_FLAGS)
    p.add_argument("--graphs", type=_integer, default=200)
    p.add_argument("--max-n", type=_integer, default=6)
    p.add_argument("--arrangements", type=_integer, default=50)
    p.add_argument("--max-dim", type=_integer, default=4)
    p.add_argument("--max-m", type=_integer, default=7)
    parser.set_defaults(commands=tuple(sub.choices))
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run the command and print its report; 1 exactly when it has violations."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        # argparse would echo an unknown command whole. The command is the first argument that it
        # reads as positional: one not starting with '-', '-' itself or a negative number.
        command = next((arg for arg in argv if not arg.startswith("-") or re.fullmatch(r"-|-\d+|-\d*\.\d+", arg)), None)
        commands = parser.get_default("commands")
        if command is not None and command not in commands:
            parser.error(f"argument command: invalid choice: {quoted(command)} "
                         f"(choose from {', '.join(map(repr, commands))})")
        args, extras = parser.parse_known_args(argv)
        if extras:  # with the subcommand's usage, which lists the flags it takes
            args.parser.error(f"unrecognized arguments: {quoted(' '.join(extras))}")
    except SystemExit as exc:  # argparse has printed the usage or the help
        return exc.code
    config = {spec["dest"]: getattr(args, spec["dest"]) for spec in _SHARED_FLAGS.values() if spec["dest"] in args}
    if config.get("q_min", 0) > config.get("q_max", 0):
        raise InputError("q window is empty (q_min > q_max)")
    results, violations = args.handler(args)
    if args.output_format == "json":
        config.update(command=args.command, inputs=[args.file] if "file" in args else [])
        payload = {"command": args.command, "config": config, "results": results, "violations": violations}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        args.printer(results)
        for v in violations:
            print(f"  VIOLATION {v['check']} on {v['instance']}: {v['detail']}")
    return 1 if violations else 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; the int-string digit limit is lifted for its span and then restored."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:  # exact results may have any number of digits
        sys.set_int_max_str_digits(0)
    try:
        return run(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, OverflowError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violated (bug): {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`); that is not a failure.
        # Point stdout at devnull so the interpreter's final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def process_main() -> int:
    """The process entry of `python -m chromabounds` and of the `chromabounds` script: `main`, then `gc.freeze()`.

    The process is about to end, and its memory goes with it. Frozen
    objects are left out of the collections that the interpreter's
    finalization runs, so the heap that the command and its imports built
    is not walked, nor are its reference cycles freed one by one.
    Finalization still runs atexit handlers and flushes stdout and stderr.
    `main` itself leaves the collector as it found it.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import (
    Arrangement, Hyperplane, InputError, IntPolynomial, ResourceLimitError, SimpleGraph, arrangements, bounds, checks,
    cli, complete, decone, graphic_arrangement, graphs,
)
from chromabounds.cli import (
    _build_parser,
    _rational,
    _run_verify,
    format_arrangement,
    main,
    parse_input,
    parse_input_file,
)
from chromabounds.corpus import coordinate_arrangement, linear_central_corpus
from chromabounds.errors import CORPUS_INSTANCE_BUDGET, GRID_CELL_BUDGET, POSET_STEP_BUDGET, quoted
from strategies import (
    digit_limit, fractional_arrangements, random_affine_with_parallels, reference_format_arrangement, small_graphs,
    walk_arrangements,
)

K3_TEXT = "n 3\n0 1\n0 2\n1 2\n"
K4_TEXT = "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH4_TEXT = "n 4\n0 1\n1 2\n2 3\n"
GENERIC_LINES_TEXT = "dim 2\n1 0 0\n0 1 0\n1 1 1\n"
PARALLEL_TEXT = "dim 2\n1 0 0\n1 0 1\n"
LINEAR_LINES_TEXT = "dim 2\n1 0 0\n0 1 0\n1 1 0\n"
DIMACS_TEXT = "c a triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
FRACTIONAL_TEXT = "dim 3\n1/2 -1/2 -1/2 0/3\n2/3 2/3 2/3 0\n0 1/3 -1/5 0\n"
LONG = 1200
ROOT = Path(__file__).resolve().parent.parent


def long_graph_text(n, closed):
    """A path on n vertices, or a cycle when `closed`."""
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# what `_rational` makes of each token: (type, value), with a pair (num, den) read as a Fraction,
# or the error it raises
TOKENS = {
    "0": (int, 0), "-7": (int, -7), "+12": (int, 12), "007": (int, 7), "-0": (int, 0),
    "1/2": (Fraction, Fraction(1, 2)), "-3/6": (Fraction, Fraction(-1, 2)), "+4/2": (Fraction, Fraction(2)),
    "0/5": (Fraction, Fraction(0)), "012/08": (Fraction, Fraction(3, 2)),
    **dict.fromkeys(["1/0", "", "+", "-", "--1", "+-1", "1/-2", "1/+2", "/2", "1/", "1/2/3", "1//2", "1.5", ".5", "1.",
                     "1e3", "1E3", "1e1000000", "1_000", "1/1_0", "0x10", "inf", "nan", "\u0663", "\u00b2",
                     "\uff11", "1\u0663", "\u0663/2", " 1", "1 ", "1\n", "\u22121"], ValueError),
    # a numerator or denominator has at most 4300 digits, the interpreter's default int-string limit
    "-" + "7" * 4300: (int, -int("7" * 4300)), "1/" + "3" * 4300: (Fraction, Fraction(1, int("3" * 4300))),
    **dict.fromkeys(["7" * 4301, "1/" + "3" * 4301, "-" + "7" * 4301 + "/3"], ValueError),
}


# (id, argv, file text, the stderr message after "error: "), FILE standing for the file's path
REJECTIONS = [
    ("empty", ["chromatic", "FILE"], "", "FILE: empty input file"),
    ("only-comments", ["bounds", "FILE"], "# nothing\n\n   \n", "FILE: empty input file"),
    ("unknown-header", ["bounds", "FILE"], "vertices 3\n", "FILE: unrecognized header 'vertices 3'"),
    ("n-arity", ["chromatic", "FILE"], "n 3 4\n", "FILE:1: expected header 'n <count>', got 'n 3 4'"),
    ("n-count", ["chromatic", "FILE"], "# header\nn x\n", "FILE:2: vertex count 'x' is not an integer"),
    ("uv-arity", ["chromatic", "FILE"], "n 3\n\n0 1 2\n", "FILE:3: expected 'u v', got '0 1 2'"),
    ("uv-integer", ["bounds", "FILE"], "n 3\n0 a\n", "FILE:2: non-integer vertex in '0 a'"),
    ("loop", ["nbc", "FILE"], "n 3\n0 1\n2 2\n", "FILE:3: loop '2 2' is not allowed"),
    ("out-of-range", ["chromatic", "FILE"], "n 2\n0 5\n", "FILE:2: vertex out of range in '0 5'"),
    ("dimacs-problem", ["chromatic", "FILE"], "p col 3 3\n", "FILE:1: malformed problem line 'p col 3 3'"),
    ("dimacs-short", ["chromatic", "FILE"], "c x\np edge\n", "FILE:2: malformed problem line 'p edge'"),
    ("dimacs-count", ["chromatic", "FILE"], "p edge 1.5 1\n", "FILE:1: vertex count '1.5' is not an integer"),
    ("dimacs-tag", ["chromatic", "FILE"], "p edge 3 1\nx 1 2\n", "FILE:2: unrecognized DIMACS line 'x 1 2'"),
    ("dimacs-no-p", ["chromatic", "FILE"], "c a\ne 1 2\n", "FILE: DIMACS file has no 'p edge' line"),
    ("dimacs-arity", ["chromatic", "FILE"], "p edge 3 1\ne 1\n", "FILE:2: expected 'u v', got '1'"),
    ("dimacs-second-p", ["chromatic", "FILE"], "p edge 2 1\ne 1 2\np edge 5 1\n",
     "FILE:3: second problem line 'p edge 5 1'"),
    ("dim-arity", ["bounds", "FILE"], "dim\n", "FILE:1: expected header 'dim <count>', got 'dim'"),
    ("dim-count", ["nbc", "FILE"], "dim two\n", "FILE:1: dimension 'two' is not an integer"),
    ("hyperplane-arity", ["bounds", "FILE"], "dim 2\n1 0\n",
     "FILE:2: expected '2' coordinates plus an offset, got 2 values"),
    # header counts and vertex indices are integer tokens too
    ("n-separator", ["chromatic", "FILE"], "n 1_0\n", "FILE:1: vertex count '1_0' is not an integer"),
    ("n-script-digit", ["chromatic", "FILE"], "n \u0663\n", "FILE:1: vertex count '\u0663' is not an integer"),
    ("vertex-script-digit", ["bounds", "FILE"], "n 3\n0 \u0661\n", "FILE:2: non-integer vertex in '0 \u0661'"),
    ("dimacs-separator", ["chromatic", "FILE"], "p edge 1_0 1\n", "FILE:1: vertex count '1_0' is not an integer"),
    ("n-long-count", ["chromatic", "FILE"], f"n {'9' * 300000}\n",
     f"FILE:1: vertex count '{'9' * 40}...' (300000 characters) is not an integer"),
    ("dim-long-count", ["bounds", "FILE"], f"dim {'9' * 300000}\n1 0\n",
     f"FILE:1: dimension '{'9' * 40}...' (300000 characters) is not an integer"),
    # the longest count a header takes, echoed as an excerpt
    ("dim-arity-long", ["nbc", "FILE"], f"dim {'9' * 4300}\n1 0\n",
     f"FILE:2: expected '{'9' * 40}...' (4300 characters) coordinates plus an offset, got 2 values"),
    ("zero-normal", ["bounds", "FILE"], "dim 2\n1 0 0\n0 0 1\n", "FILE:3: hyperplane normal must be nonzero"),
    ("decimal", ["bounds", "FILE"], "dim 2\n1 1.5 0\n", "FILE:2: cannot parse rational '1.5' in '1 1.5 0'"),
    ("zero-denominator", ["nbc", "FILE"], "dim 1\n1/0 1\n", "FILE:2: cannot parse rational '1/0' in '1/0 1'"),
    # 9- and 10-character tokens whose values would have millions of digits
    ("exponent", ["decone", "FILE", "0"], "dim 2\n1 1e1000000 0\n0 1 0\n",
     "FILE:2: cannot parse rational '1e1000000' in '1 1e1000000 0'"),
    ("long-exponent", ["decone", "FILE", "0"], "dim 2\n1 1e10000000 0\n0 1 0\n",
     "FILE:2: cannot parse rational '1e10000000' in '1 1e10000000 0'"),
    # a literal integer of 300,000 digits, past the 4300-digit limit on a token: echoed as a 40-character excerpt
    ("long-integer", ["decone", "FILE", "1"], f"dim 2\n1 {'7' * 300000} 0\n0 1 0\n",
     f"FILE:2: cannot parse rational '{'7' * 40}...' (300000 characters) in '1 {'7' * 38}...' (300004 characters)"),
    ("long-header", ["chromatic", "FILE"], f"{'x' * 300000}\n",
     f"FILE: unrecognized header '{'x' * 40}...' (300000 characters)"),
    ("long-line", ["chromatic", "FILE"], f"n 3\n0 1 {'2 ' * 150000}\n",
     f"FILE:2: expected 'u v', got '0 1 {'2 ' * 18}...' (300003 characters)"),
    ("order", ["nbc", "FILE", "--order", "0,x,1"], "n 3\n0 1\n",
     "--order '0,x,1' is not a comma-separated integer list"),
    ("long-order", ["nbc", "FILE", "--order", "0," * 100000 + "x"], "n 3\n0 1\n",
     f"--order '{'0,' * 20}...' (200001 characters) is not a comma-separated integer list"),
    ("order-separator", ["nbc", "FILE", "--order", "0,1_0,2"], "n 3\n0 1\n",
     "--order '0,1_0,2' is not a comma-separated integer list"),
    ("decone-index", ["decone", "FILE", "3"], "dim 2\n1 0 0\n0 1 0\n1 1 0\n",
     "hyperplane index 3 out of range for m=3"),
    ("decone-affine", ["decone", "FILE", "0"], "dim 1\n1 1\n",
     "deconing requires a linear arrangement (all offsets zero)"),
]


def edge_list_text(g):
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def dimacs_text(g):
    return f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in sorted(g.edges))


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestParsing:
    def test_edge_list(self):
        g = parse_input(K3_TEXT)
        assert g.n == 3 and g.m == 3

    def test_dimacs_one_based(self):
        g = parse_input(DIMACS_TEXT)
        assert g == SimpleGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))

    def test_loop_rejected_with_line_number(self):
        with pytest.raises(InputError, match="3: loop"):
            parse_input("n 3\n0 1\n2 2\n")

    def test_duplicate_edge_warns_and_collapses(self, capsys):
        g = parse_input("n 3\n0 1\n1 0\n")
        assert g.m == 1
        assert "duplicate edge" in capsys.readouterr().err

    def test_many_duplicate_edges_give_one_warning(self, write, capsys):
        path = write("dup.txt", "n 3\n" + "0 1\n" * 100000)
        start = time.perf_counter()
        assert main(["chromatic", path]) == 0
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == f"warning: {path}:3: duplicate edge '0 1' collapsed (99999 duplicate edges in all)\n"
        assert len(err.encode()) < 1024

    def test_many_duplicate_hyperplanes_give_one_warning(self, write, capsys):
        path = write("dup.txt", "dim 2\n1 0 0\n" + "2 0 0\n" * 100000)
        start = time.perf_counter()
        assert main(["bounds", path]) == 0
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert err == (f"warning: {path}:3: duplicate hyperplane '2 0 0' collapsed "
                       "(100000 duplicate hyperplanes in all)\n")
        assert len(err.encode()) < 1024
        assert main(["bounds", write("one.txt", "dim 2\n1 0 0\n")]) == 0
        assert capsys.readouterr() == (out, "")

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            parse_input("vertices 3\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError, match="out of range"):
            parse_input("n 2\n0 5\n")

    def test_arrangement_with_rationals(self):
        arr = parse_input("dim 2\n1/2 -1/3 2\n0 1 -1/2\n")
        assert arr.m == 2
        assert arr.hyperplanes[0].normal == (3, -2)

    def test_token_grammar(self):
        # exactly [+-]digits and [+-]digits/digits in ASCII digits, the same on every Python version;
        # a fraction comes back as an integer pair, not reduced, with a positive denominator
        def parse(token):
            try:
                value = _rational(token)
            except ValueError as exc:
                return type(exc)
            if type(value) is tuple:
                assert [type(x) for x in value] == [int, int] and value[1] > 0
                return Fraction, Fraction(*value)
            return type(value), value

        assert {token: parse(token) for token in TOKENS} == TOKENS

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3), min_size=1, max_size=5))
    def test_integer_file_matches_the_fraction_path(self, rows):
        # "k/1" is not an integer token, so the second text parses through (num, den) pairs
        text = "dim 2\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows if any(row[:2]))
        slow = "dim 2\n" + "".join(" ".join(f"{x}/1" for x in row) + "\n" for row in rows if any(row[:2]))
        assert parse_input(text) == parse_input(slow)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 40)), min_size=3, max_size=3)
                    .filter(lambda row: any(num for num, _ in row[:2])), min_size=1, max_size=5))
    def test_fraction_lines_match_hyperplane_make(self, rows):
        # each line is scaled by the lcm of its unreduced denominators, which `Fraction` would reduce first
        text = "dim 2\n" + "".join(" ".join(f"{num}/{den}" for num, den in row) + "\n" for row in rows)
        values = [[Fraction(num, den) for num, den in row] for row in rows]
        assert parse_input(text) == Arrangement(2, tuple(Hyperplane.make(v[:2], v[2]) for v in values))

    def test_arrangement_wrong_arity(self):
        with pytest.raises(InputError, match="coordinates"):
            parse_input("dim 3\n1 0 0\n")

    def test_dimacs_non_integer_vertex_count(self, write, capsys):
        assert main(["chromatic", write("bad.col", "p edge x 3\ne 1 2\n")]) == 2
        assert "bad.col:1: vertex count 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chromatic", "bounds", "nbc", "decone"])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00n 3\n")
        assert main([command, str(path), *(["0"] if command == "decone" else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", [K4_TEXT, DIMACS_TEXT, FRACTIONAL_TEXT], ids=["edges", "dimacs", "arrangement"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_input_file(str(marked)) == parse_input_file(str(plain))

    def test_dispatch(self, write):
        assert isinstance(parse_input_file(write("g.txt", K3_TEXT)), SimpleGraph)
        assert isinstance(parse_input_file(write("a.txt", PARALLEL_TEXT)), Arrangement)
        assert isinstance(parse_input_file(write("d.col", DIMACS_TEXT)), SimpleGraph)

    @pytest.mark.parametrize("argv, text, message", [case[1:] for case in REJECTIONS],
                             ids=[case[0] for case in REJECTIONS])
    def test_every_rejection_names_file_and_line(self, write, capsys, argv, text, message):
        path = write("input.txt", text)
        start = time.perf_counter()
        assert main([path if arg == "FILE" else arg for arg in argv]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message.replace('FILE', path)}\n")
        assert len(err.encode()) < 1024  # an echoed line or token is cut to an excerpt

    @pytest.mark.parametrize("text", [K4_TEXT, DIMACS_TEXT, GENERIC_LINES_TEXT, LINEAR_LINES_TEXT],
                             ids=["edge-list", "DIMACS", "affine", "linear"])
    def test_comments_and_blank_lines_are_skipped(self, text):
        lines = enumerate(text.splitlines())
        noisy = "# leading comment\n\n" + "".join(f"{line}\n   \n  # comment {i}\n" for i, line in lines)
        assert parse_input(noisy) == parse_input(text)

    def test_written_arrangements_read_back(self, arrangement_corpus):
        # every arrangement the program can print is in the token grammar
        rng = random.Random(23)
        arrangements_ = [arr for _, arr in arrangement_corpus]
        arrangements_ += [random_affine_with_parallels(rng) for _ in range(200)]
        arrangements_ += [decone(arr, k0) for arr in linear_central_corpus(rng) for k0 in range(arr.m)]
        for arr in arrangements_:
            assert parse_input(format_arrangement(arr)) == arr

    @settings(max_examples=200, deadline=None)
    @given(fractional_arrangements())
    def test_written_offsets_match_the_fraction_printer(self, arr):
        assert format_arrangement(arr) == reference_format_arrangement(arr)
        assert parse_input(format_arrangement(arr)) == arr

    def test_written_graphs_read_back(self, graph_corpus):
        for _, g in graph_corpus:
            assert parse_input(edge_list_text(g)) == parse_input(dimacs_text(g)) == g


class TestChromaticCommand:
    def test_text_output(self, write, capsys):
        assert main(["chromatic", write("k3.txt", K3_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "t^3 - 3t^2 + 2t" in out
        assert "rank = 2" in out

    def test_empty_graph(self, write, capsys):
        assert main(["chromatic", write("e.txt", "n 3\n")]) == 0
        assert "t^3" in capsys.readouterr().out

    def test_loop_file_exits_2(self, write, capsys):
        assert main(["chromatic", write("bad.txt", "n 3\n2 2\n")]) == 2
        assert "loop" in capsys.readouterr().err

    def test_json_round_trip(self, write, capsys):
        assert main(["chromatic", write("k3.txt", K3_TEXT), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "chromatic"
        assert payload["results"]["coefficients_ascending"] == ["0", "2", "-3", "1"]
        assert payload["violations"] == []

    def test_rejects_arrangement_input(self, write):
        assert main(["chromatic", write("a.txt", PARALLEL_TEXT)]) == 2

    @pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
    def test_long_path_and_cycle(self, write, capsys, closed):
        # far deeper than the interpreter's recursion limit: t(t-1)^1199 and (t-1)^1200 + (t-1)
        n = LONG
        assert main(["chromatic", write("long.txt", long_graph_text(n, closed)), "--format", "json"]) == 0
        coeffs = json.loads(capsys.readouterr().out)["results"]["coefficients_ascending"]
        if closed:
            expected = [comb(n, j) * (-1) ** (n - j) for j in range(n + 1)]
            expected[0] -= 1
            expected[1] += 1
        else:
            expected = [0] + [comb(n - 1, j) * (-1) ** (n - 1 - j) for j in range(n)]
        assert [int(c) for c in coeffs] == expected

    def test_reader_closing_the_pipe_early_exits_0(self, write):
        # the report (about 1 MB) is larger than the pipe buffer, so the write fails with EPIPE
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        args = [sys.executable, "-m", "chromabounds", "chromatic", write("long.txt", long_graph_text(LONG, False)),
                "--format", "json"]
        with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "comma'
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, err
        assert err == b""


# Runs `python -m chromabounds` with the arguments after it, as the interpreter does, and
# prints from atexit whether the heap was frozen once the command had returned.
PROCESS_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count() > 0}"))
sys.argv = ["chromabounds", *sys.argv[1:]]
runpy.run_module("chromabounds", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("text, argv, status", [
    (None, ["verify", "--seed", "7", "--graphs", "4", "--arrangements", "2"], 0),
    ("n 3\n0 x\n", ["bounds"], 2),
    (K3_TEXT, ["bounds", "--q-max", "1000"], 3),  # past the grid budget
], ids=["ok", "malformed-file", "grid-budget"])
def test_module_runs_through_the_process_entry(write, capsys, text, argv, status):
    # the process freezes its heap after the command and keeps main's output and exit code
    if text is not None:
        argv = [argv[0], write("input.txt", text), *argv[1:]]
    assert main(argv) == status
    expected = capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROCESS_PROBE, *argv], env=env, capture_output=True, timeout=60)
    assert proc.returncode == status, proc.stderr
    assert proc.stdout == expected.out.encode() + b"frozen at exit: True\n"
    assert proc.stderr == expected.err.encode()


def test_script_and_module_share_the_process_entry():
    # the installed `chromabounds` script and `python -m chromabounds` call the same function
    tomllib = pytest.importorskip("tomllib")
    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["chromabounds"]
    module, function = script.split(":")
    tree = ast.parse((ROOT / "src" / "chromabounds" / "__main__.py").read_text())
    imported = {f"chromabounds.{node.module}:{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    exited = [ast.unparse(node.args[0]) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"]
    assert script in imported and exited == [f"{function}()"]
    assert module == "chromabounds.cli" and getattr(cli, function) is cli.process_main


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls inspect, ast, dis and tokenize into every command's start-up; the package needs none of them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, chromabounds.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Runs each command with stdout captured, then prints the package modules loaded by
# `import chromabounds` alone and by the end, with `fractions` among the latter.
STARTUP_PROBE = """
import contextlib, io, json, sys
import chromabounds
package_alone = [name for name in sys.modules if name.startswith("chromabounds.")]
from chromabounds import cli
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command) == 0, command
loaded = [name.split(".")[-1] for name in sys.modules if name.startswith("chromabounds.") or name == "fractions"]
print(json.dumps([package_alone, sorted(loaded)]))
"""


@pytest.mark.parametrize("text, commands, absent", [
    (None, [], {"graphs", "arrangements", "linalg", "checks", "corpus"}),
    (K4_TEXT, [["bounds"], ["chromatic"]], {"arrangements", "linalg", "checks", "corpus", "fractions"}),
    (LINEAR_LINES_TEXT, [["nbc"], ["decone", "0"]], {"graphs", "checks", "corpus", "fractions"}),
    (LINEAR_LINES_TEXT, [["nbc"]], {"graphs", "checks", "corpus", "fractions"}),
    # hyperplanes are integer rows: a line of fractions is scaled by the lcm of its denominators,
    # and `decone` prints the offset -1/2 as num/den from its row
    (FRACTIONAL_TEXT, [["nbc"], ["bounds"], ["decone", "0"]], {"graphs", "checks", "corpus", "fractions"}),
    (None, [["verify", "--graphs", "2", "--arrangements", "2", "--seed", "1"]], {"fractions"}),
], ids=["import", "graph", "arrangement", "integer-nbc", "fractional", "verify"])
def test_each_command_loads_only_the_modules_it_runs(write, text, commands, absent):
    # every process compiles what it imports when bytecode writing is off, so an unused module costs start-up
    path = write("input.txt", text) if text is not None else None
    argv = [command if path is None else [command[0], path, *command[1:]] for command in commands]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package_alone, loaded = json.loads(proc.stdout)
    assert package_alone == []
    assert "cli" in loaded and not absent & set(loaded)


# sha256 of the text stdout, and of the JSON `results` and `violations`, for each
# file command on the fixed texts above; any change to what a command reports shows up here
GOLDEN = {
    ("chromatic", "K4"): ("d04436a8c95bf6275b12a2a0a2d7a22c45c39b690e3f63d2271c6796725314de",
                          "a7aa0110d7fb2042cd3678c1184eb249be713508efc2e2ce977829a1af8d9bc4"),
    ("chromatic", "DIMACS"): ("bcd213e80bf910900d8ff635bef0b58f4609d358f7e9d04b0c8de45895a99b93",
                              "ff69a41cd84ce8e778822469313d7fd0625a9d2959f8e46dab94a6a68293fdfc"),
    ("bounds", "K4"): ("e9dc3789c4b395936f69f779637da07c23e8ca4a294fa69aa562b03f7974596f",
                       "b9648f878e58e8b26758056d8119a23c440ec20945b8c4d08933742c35c47c5b"),
    ("bounds", "DIMACS"): ("7b2a569bed279690cc9e99393f6b2cc1db14cb57d69a3958538d47a98c6929b8",
                           "331e46f1b2bcdb9bc89577bbc72b6b380b84f7ddfe8835530cc129104a56a7d3"),
    ("bounds", "LINEAR_LINES"): ("af326b8b7ed5998ac421b9787ab39f6793c7cde0cfcd6dc206f4fb493b393e2c",
                                 "0ca1091b1a7d3277ebd2a0c6d7447e491f95fb419d85f845a13a497f853e0041"),
    ("bounds", "GENERIC_LINES"): ("271293e16d14d0d369cb49ed73883467434a95777e47cb7c5cc83b6dd314df2e",
                                  "939eaf22a02ab82948774669c94b0ac7744ef99b482515c638a4247d28f840c9"),
    ("nbc", "K4"): ("5f1c10f4acb39bb87b4f278706d68e3e0e1f6c88ab36ce4dff85f444edde5b01",
                    "5c9c137840d15309dafac97c089e1fc89a5bf3664c80f36944f12bc4cf5026d9"),
    ("nbc", "DIMACS"): ("4843aec893693966d16ed115739398472adb3f38f06fc243220b668499244d49",
                        "ce22b23d1bf473f0b3f61f2f8d8b3ce8042b19fe9cef3d2c167adc9e30433ae6"),
    ("nbc", "LINEAR_LINES"): ("279cbb067b340e500abe1fe7e9ca6114ca30b7b08969cd0f6162e4123940da8d",
                              "882bf17f454b2a4cb8422da5624ef1227885ce5708d6538830c33b9240831dab"),
    ("nbc", "GENERIC_LINES"): ("7345a606acc34f61918e9f3c5d79e5b25e0c66bfef0d858d39ba1ac9508cfcd1",
                               "d4d007f9f6e025f460093a80dd4361950e0c29e7cfa9e1721f47712d6a89265e"),
    ("decone", "K4"): ("8f56daf287d95da4fb830e9aeb83fb8ceb2108df01ad8d65fed2b333fd8af129",
                       "d738861a608ce35b9d7a262aad067a6e519a54990b9dadc503169bbe11a5d077"),
    ("decone", "DIMACS"): ("a8c9cc9b25c7f00cd3e84ecb445d5cef48a60a02a6e902874a3b2f76fbb1881a",
                           "fc0110b673ce4126642637e271f75be6f8cf305a607a0de8ca6316908897e09d"),
    ("decone", "LINEAR_LINES"): ("9331566606c64b7140304cf3c63403b9eba759efe51e09f7fa4aa0dfcc678390",
                                 "c9b4924040646f6fb0fdd6976682dc3b7034e90fecef0981326c22184a04a8af"),
    # the one fixed text whose rows need lcm scaling and whose offsets `decone` prints as num/den
    ("bounds", "FRACTIONAL"): ("b5856fd337564961d778611f7b823b6b509ffc9b59cd9a67aa8c92898e63296f",
                               "ca75a6af706fe739062178a9e7c075259924f54f7ae2baba821450361163f7e5"),
    ("nbc", "FRACTIONAL"): ("ae4d24c749202def29740a4b9d2f5e62d32f3a01b15e572c81d97d0794b1b651",
                            "f8a087a637fe1bc6350f18ea700c0b4ebfd55ddbb605a0864bbe1323122bbdec"),
    ("decone", "FRACTIONAL"): ("a78e2355091b04f49542b2ea3212072babaa0782e8a7c2e88d1f51a476f57e26",
                               "2464012fe3a871ad8b749b4b71b7568aab49545a69f1987bc0c3be85696ddfe2"),
}
GOLDEN_TEXTS = {"K4": K4_TEXT, "DIMACS": DIMACS_TEXT, "LINEAR_LINES": LINEAR_LINES_TEXT,
                "GENERIC_LINES": GENERIC_LINES_TEXT, "FRACTIONAL": FRACTIONAL_TEXT}


@pytest.mark.parametrize("command, text", sorted(GOLDEN))
def test_pinned_file_command_outputs(write, capsys, command, text):
    argv = [command, write("input.txt", GOLDEN_TEXTS[text]), *(["0"] if command == "decone" else [])]
    assert main(argv) == 0
    text_out = capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = json.dumps([payload["results"], payload["violations"]], sort_keys=True)
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in (text_out, report))
    assert digests == GOLDEN[command, text]


class TestBoundsCommand:
    def test_k4_all_ok(self, write, capsys):
        assert main(["bounds", write("k4.txt", K4_TEXT)]) == 0
        assert "all ok: True" in capsys.readouterr().out

    def test_forest_all_tight(self, write, capsys):
        assert main(["bounds", write("p4.txt", PATH4_TEXT)]) == 0
        assert "all tight: True" in capsys.readouterr().out

    def test_generic_lines_coefficients(self, write, capsys):
        code = main(["bounds", write("lines.txt", GENERIC_LINES_TEXT), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["sequence"]["a"] == ["1", "3", "3"]
        assert payload["results"]["all_ok"] is True

    def test_q_window_flags(self, write, capsys):
        assert main(["bounds", write("k3.txt", K3_TEXT), "--q-min", "-1", "--q-max", "-1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        qs = {rec["q"] for rec in payload["results"]["records"]}
        assert qs == {-1}

    def test_empty_window_rejected(self, write):
        assert main(["bounds", write("k3.txt", K3_TEXT), "--q-min", "2", "--q-max", "1"]) == 2

    def test_long_path(self, write, capsys):
        # a forest, so every record is tight
        assert main(["bounds", write("path300.txt", long_graph_text(300, closed=False)), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        results = payload["results"]
        assert results["all_tight"] and not payload["violations"]
        assert len(results["records"]) == sum(q + 300 + 1 for q in range(-3, 4))

    @pytest.mark.parametrize("command,builds", [("bounds", 0), ("nbc", 1)])
    def test_graphic_arrangement_built_only_when_used(self, write, monkeypatch, capsys, command, builds):
        calls = []

        def counting(g):
            calls.append(g)
            return graphic_arrangement(g)

        monkeypatch.setattr(arrangements, "graphic_arrangement", counting)
        assert main([command, write("k4.txt", K4_TEXT)]) == 0
        assert len(calls) == builds


class TestNbcCommand:
    def test_k3_table(self, write, capsys):
        assert main(["nbc", write("k3.txt", K3_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "all match: True" in out

    def test_order_flag(self, write, capsys):
        assert main(["nbc", write("k3.txt", K3_TEXT), "--order", "2,0,1"]) == 0
        assert "all match: True" in capsys.readouterr().out

    def test_bad_order_rejected(self, write):
        assert main(["nbc", write("k3.txt", K3_TEXT), "--order", "0,1"]) == 2

    def test_empty_graph_single_row(self, write, capsys):
        assert main(["nbc", write("e.txt", "n 2\n"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["k"] for row in payload["results"]["rows"]] == [0]

    def test_forest_gives_binomial_column(self, write, capsys):
        assert main(["nbc", write("p4.txt", PATH4_TEXT), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counts = [row["nbc_count"] for row in payload["results"]["rows"]]
        assert counts == ["1", "3", "3", "1"]


class TestDeconeCommand:
    def test_graphic_k3(self, write, capsys):
        assert main(["decone", write("k3.txt", K3_TEXT), "0"]) == 0
        out = capsys.readouterr().out
        assert "t^2 - 2t" in out
        assert "identity holds: True" in out

    def test_affine_rejected(self, write, capsys):
        assert main(["decone", write("a.txt", PARALLEL_TEXT), "0"]) == 2
        assert "linear" in capsys.readouterr().err

    def test_index_out_of_range(self, write):
        assert main(["decone", write("k3.txt", K3_TEXT), "7"]) == 2

    def test_failed_identity_reports_a_violation(self, write, monkeypatch, capsys):
        monkeypatch.setattr(bounds, "divided_difference", lambda p: IntPolynomial((7,)))
        path = write("k3.txt", K3_TEXT)
        assert main(["decone", path, "1", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["ok"] is False
        assert payload["violations"] == [{"check": "decone-divided-difference", "instance": path, "detail": "k0=1"}]


@pytest.mark.parametrize("argv, status", [
    (["bounds"], 2),
    (["verify", "--graphs", "x"], 2),
    (["nosuch"], 2),
    (["--help"], 0),
    (["decone", "--help"], 0),
], ids=["missing-file", "non-integer", "unknown-command", "help", "command-help"])
def test_argparse_status_is_returned(capsys, argv, status):
    # in-process callers get every exit code from the return value, usage errors included
    assert main(argv) == status
    captured = capsys.readouterr()
    assert "usage: " in (captured.err if status else captured.out)


SHARED_FLAGS = ("--format", "--q-min", "--q-max", "--seed")
# flags that no command takes: the limits they set are fixed budgets in `errors`
REMOVED_FLAGS = ("--cap-subsets", "--cap-colorings")
# the shared flags each command reads
FLAGS_READ = {
    "chromatic": {"--format"},
    "bounds": {"--format", "--q-min", "--q-max"},
    "nbc": {"--format"},
    "decone": {"--format"},
    "verify": set(SHARED_FLAGS),
}
UNREAD_FLAGS = [(command, flag) for command, read in FLAGS_READ.items()
                for flag in SHARED_FLAGS + REMOVED_FLAGS if flag not in read]


# C20's graphic arrangement: 20 hyperplanes, within the subset guard, and 1,048,556 flats
C20_ARRANGEMENT = graphic_arrangement(parse_input(long_graph_text(20, True)))
# 19 affine hyperplanes in dimension 12, entries in -3..3
DIM12_ARRANGEMENT = Arrangement(12, tuple(Hyperplane([rng.randint(-3, 3) for _ in range(13)])
                                          for rng in [random.Random(1)] for _ in range(19)))


# Each fixed budget lowered on the module that reads it: (module, name, value, text, argv, message),
# with FILE in argv standing for a file that holds `text`
LOWERED_BUDGETS = [
    pytest.param(arrangements, "SUBSET_GUARD", 2, K4_TEXT, ["nbc", "FILE"],
                 "arrangement has 6 hyperplanes; subset enumeration guard is 2", id="SUBSET_GUARD"),
    # the named graphs start P1, ..., P6, C3, C4, C5; Pk and C3 build k states, C4 5 and C5 7
    pytest.param(graphs, "COLORING_BUDGET", 6, None, ["verify", "--graphs", "0", "--arrangements", "0"],
                 "coloring oracle reached 7 frontier states at vertex 5 of 5, over the budget of 6",
                 id="COLORING_BUDGET"),
    # the boolean arrangement in dimension 5 takes 25 + 40 + 30 steps (see `TestIntersectionPoset.test_guard`)
    pytest.param(arrangements, "POSET_STEP_BUDGET", 94, format_arrangement(coordinate_arrangement(5)),
                 ["bounds", "FILE"], "intersection poset passed its budget of 94 elimination steps after 25 flats",
                 id="POSET_STEP_BUDGET"),
    # K3 has q + 4 cells at each shift q = -3..3
    pytest.param(bounds, "GRID_CELL_BUDGET", 27, K3_TEXT, ["bounds", "FILE"],
                 "bound grid has '28' cells; the budget is 27", id="GRID_CELL_BUDGET"),
    pytest.param(cli, "CORPUS_INSTANCE_BUDGET", 3, None, ["verify", "--graphs", "2", "--arrangements", "2"],
                 "verify would draw '4' random graphs and arrangements; the corpus budget is 3",
                 id="CORPUS_INSTANCE_BUDGET"),
]


class TestResourceCaps:
    @pytest.mark.parametrize("module, name, value, text, argv, message", LOWERED_BUDGETS)
    def test_lowered_budget_exits_3(self, write, monkeypatch, capsys, module, name, value, text, argv, message):
        monkeypatch.setattr(module, name, value)
        assert main([write("input.txt", text) if arg == "FILE" else arg for arg in argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"resource limit: {message}\n" and len(err.encode()) < 1024

    def test_bad_order_rejected_before_the_subset_cap(self, write, monkeypatch):
        # an order that is not a permutation is bad input, however small the guard
        monkeypatch.setattr(arrangements, "SUBSET_GUARD", 2)
        code = main(["nbc", write("k4.txt", K4_TEXT), "--order", "0,1"])
        assert code == 2

    def test_nbc_guard_trips_before_the_polynomial(self, write, monkeypatch, capsys):
        # the circulant graph C13(1, 2, 3) has 39 edges, far above a subset guard of 5
        text = "n 13\n" + "".join(f"{i} {(i + k) % 13}\n" for i in range(13) for k in (1, 2, 3))
        calls = []
        chromatic_poly = graphs.chromatic_poly

        def counting(g, **kwargs):
            calls.append(g)
            return chromatic_poly(g, **kwargs)

        monkeypatch.setattr(graphs, "chromatic_poly", counting)
        monkeypatch.setattr(arrangements, "SUBSET_GUARD", 5)
        assert main(["nbc", write("c13.txt", text)]) == 3
        assert "39 hyperplanes; subset enumeration guard is 5" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("argv, cells", [
        (["bounds", "FILE", "--q-max", "1000"], "504510"),
        (["bounds", "FILE", "--q-min", "-3000", "--q-max", "3000"], "4513510"),
        (["bounds", "FILE", "--q-max", str(10**30)], str((10**30 + 4) * (10**30 + 5) // 2)),
        # (q + 4)(q + 5) / 2 at q = 10^4300 - 1 is 5 10^8599 + 35 10^4299 + 6, too long for str()
        (["bounds", "FILE", "--q-max", "9" * 4300], "5" + "0" * 4298 + "35" + "0" * 4298 + "6"),
        (["verify", "--graphs", "0", "--arrangements", "0", "--q-max", "1000"], None),
    ], ids=["q-max-1000", "q-6000-wide", "q-max-1e30", "q-max-4300-digits", "verify"])
    def test_grid_over_budget_exits_3(self, write, capsys, argv, cells):
        # K3 claims q + 4 cells per shift from q = -3 on; refused before any row is built
        start = time.perf_counter()
        assert main([write("k3.txt", K3_TEXT) if arg == "FILE" else arg for arg in argv]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("resource limit: bound grid has ") and len(err.encode()) < 1024
        # the count is echoed as an excerpt: past 40 digits, its first 40 and its length
        assert cells is None or err == (
            f"resource limit: bound grid has {quoted(cells)} cells; the budget is {GRID_CELL_BUDGET}\n"
        )

    @pytest.mark.parametrize("argv, excerpt", [
        (["bounds", "FILE", "--q-max", "9" * 20000], "argument --q-max: invalid int value: '" + "9" * 40),
        (["verify", "--graphs", "9" * 20000], "argument --graphs: invalid int value: '" + "9" * 40),
        (["decone", "FILE", "1" * 4301], "argument k0: invalid int value: '" + "1" * 40),
        (["chromatic", "FILE", "--format", "x" * 20000], "argument --format: invalid choice: '" + "x" * 40),
        (["chromatic", "FILE", "x" * 20000], "unrecognized arguments: '" + "x" * 40),
        (["y" * 20000, "FILE"], "argument command: invalid choice: '" + "y" * 40),
        (["-" + "9" * 20000, "FILE"], "argument command: invalid choice: '-" + "9" * 39),
    ], ids=["q-max-20000-digits", "graphs-20000-digits", "k0-4301-digits", "format-20000-x", "extra-20000-x",
            "command-20000-y", "command-negative-20000-digits"])
    def test_long_flag_value_is_refused_with_an_excerpt(self, write, capsys, argv, excerpt):
        # an integer flag takes at most 4300 digits, as a token does, and a refused value is echoed cut
        start = time.perf_counter()
        assert main([write("k3.txt", K3_TEXT) if arg == "FILE" else arg for arg in argv]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        length = len(max(argv, key=len))
        assert out == "" and f"{excerpt}...' ({length} characters)" in err and len(err.encode()) < 1024

    def test_unknown_command_keeps_the_usage_line(self, capsys):
        assert main(["yyy", "FILE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chromabounds [-h] {chromatic,bounds,nbc,decone,verify}")
        assert ("argument command: invalid choice: 'yyy' "
                "(choose from 'chromatic', 'bounds', 'nbc', 'decone', 'verify')") in err

    def test_corpus_over_budget_exits_3(self, capsys):
        # a corpus size of 4300 digits is refused before anything is drawn, its count echoed cut
        start = time.perf_counter()
        assert main(["verify", "--graphs", "9" * 4300, "--arrangements", "0"]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.encode()) < 1024
        assert err == (f"resource limit: verify would draw {quoted('9' * 4300)} random graphs and arrangements; "
                       f"the corpus budget is {CORPUS_INSTANCE_BUDGET}\n")

    def test_corpus_budget_counts_graphs_plus_arrangements(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CORPUS_INSTANCE_BUDGET", 3)
        small = ["--max-n", "2", "--max-dim", "1", "--max-m", "1"]
        assert main(["verify", "--graphs", "2", "--arrangements", "1", *small]) == 0
        assert main(["verify", "--graphs", "2", "--arrangements", "2", *small]) == 3
        assert "verify would draw '4' random graphs and arrangements; the corpus budget is 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_shared_flag_rejected(self, write, capsys, command, flag):
        # a flag that would change nothing but the JSON `config` echo, or one no command takes, is a usage error
        file = [] if command == "verify" else [write("k3.txt", K3_TEXT)]
        argv = [command, *file, *(["0"] if command == "decone" else []), flag, "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # the usage of the command, which lists the flags it takes, not the top-level one
        assert err.startswith(f"usage: chromabounds {command} ") and f"unrecognized arguments: '{flag} 1'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["bounds"], ["decone", "0"]], ids=["bounds", "decone"])
    @pytest.mark.parametrize("n", [7, 8])
    def test_poset_admits_complete_graph_arrangements(self, write, capsys, command, n):
        # 21 and 28 hyperplanes, over the subset guard: the poset (877 and 4140 flats) takes no subset guard
        path = write(f"k{n}.txt", format_arrangement(graphic_arrangement(complete(n))))
        start = time.perf_counter()
        assert main([command[0], path, *command[1:]]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == ""

    def test_nbc_keeps_the_subset_guard(self, write, capsys):
        path = write("k7.txt", format_arrangement(graphic_arrangement(complete(7))))
        assert main(["nbc", path]) == 3
        assert capsys.readouterr().err == "resource limit: arrangement has 21 hyperplanes; subset enumeration guard is 20\n"

    @pytest.mark.parametrize("arr, command", [
        (C20_ARRANGEMENT, ["bounds"]),
        (C20_ARRANGEMENT, ["decone", "0"]),
        (DIM12_ARRANGEMENT, ["bounds"]),
    ], ids=["C20-bounds", "C20-decone", "dim-12-bounds"])
    def test_poset_over_budget_exits_3(self, write, arr, command):
        # a process of its own with a timeout, so that a poset with no budget fails the test and does not stall it
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timed = ("import sys, time; from chromabounds.cli import main; start = time.perf_counter(); "
                 "code = main(sys.argv[1:]); print(time.perf_counter() - start); sys.exit(code)")
        argv = [command[0], write("arr.txt", format_arrangement(arr)), *command[1:]]
        proc = subprocess.run([sys.executable, "-c", timed, *argv], env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 3, proc.stderr
        assert float(proc.stdout) < 1
        assert proc.stderr.startswith(f"resource limit: intersection poset passed its budget of {POSET_STEP_BUDGET} ")
        assert len(proc.stderr.encode()) < 1024

    @pytest.mark.parametrize("command, header", [
        ("chromatic", "n 1000000000000000000000"),
        ("bounds", "n 1000000000000000000000"),
        ("nbc", "n 1000000000000000000000"),
        ("bounds", "dim 100000000000000000000"),
        ("nbc", "dim 100000000000000000000"),
    ])
    def test_outsized_header_exits_3(self, write, capsys, command, header):
        # no list can be sized by such a count: the first one raises OverflowError before allocating
        assert main([command, write("big.txt", header + "\n")]) == 3
        assert capsys.readouterr().err == "resource limit: cannot fit 'int' into an index-sized integer\n"

    def test_out_of_memory_exits_3(self, write, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(graphs, "chromatic_poly", exhausted)
        assert main(["chromatic", write("k3.txt", K3_TEXT)]) == 3
        assert capsys.readouterr().err == "resource limit: MemoryError\n"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer string conversion")
    def test_integers_print_past_the_digit_limit(self, write, capsys):
        # the middle coefficients of t(t-1)^2199 have 661 digits, over a lowered limit of 640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["chromatic", write("long.txt", long_graph_text(2200, False)), "--format", "json"]) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        coeffs = json.loads(capsys.readouterr().out)["results"]["coefficients_ascending"]
        assert max(abs(int(c)) for c in coeffs) == comb(2199, 1099) > 10**660


# tokens a mutation writes into a valid file: numbers in and out of range, malformed rationals and stray tags
FUZZ_TOKENS = ["0", "1", "-1", "2", "7", "99", "1/2", "-2/3", "1/0", "1.5", "1e3", "1_0", "\u0663", "x", "",
               "n", "dim", "p", "e", "c", "edge", "#"]


@st.composite
def fuzz_files(draw):
    """The text of a valid input file, n <= 7, dim <= 3 and m <= 7, after up to three token or line mutations."""
    obj = draw(st.one_of(small_graphs(max_n=7, max_m=7), walk_arrangements.filter(lambda a: a.dim <= 3 and a.m <= 7)))
    if isinstance(obj, SimpleGraph):
        text = draw(st.sampled_from([edge_list_text, dimacs_text]))(obj)
    else:
        text = format_arrangement(obj)
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        op = draw(st.sampled_from(["replace", "insert", "drop-token", "drop-line", "copy-line"]))
        if op in ("replace", "drop-token") and j < len(lines[i]):
            del lines[i][j]
        if op in ("replace", "insert"):
            lines[i].insert(j, draw(st.sampled_from(FUZZ_TOKENS)))
        elif op == "drop-line":
            del lines[i]
        elif op == "copy-line":
            lines.insert(i, list(lines[i]))
    return obj.m, "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def fuzz_flags(draw, m):
    """A file command's arguments after the file, with valid and invalid flag values."""
    command = draw(st.sampled_from(["chromatic", "bounds", "nbc", "decone"]))
    flags = ["--format", "json"] if draw(st.booleans()) else []
    if command == "bounds":
        flags += ["--q-min", str(draw(st.integers(-4, 4))), "--q-max", str(draw(st.integers(-4, 4)))]
    elif command == "nbc":
        order = draw(st.one_of(st.none(), st.permutations(range(m)).map(lambda p: ",".join(map(str, p))),
                               st.text(alphabet="0123456789,-x", max_size=8)))
        flags += [] if order is None else [f"--order={order}"]
    elif command == "decone":
        flags.append(str(draw(st.integers(-1, 8))))
    return command, flags


@settings(max_examples=200, deadline=None)
@given(fuzz_files(), st.data())
def test_main_keeps_the_exit_code_contract(file, data):
    # in-process, so no example spawns a process; any exception escaping `main` fails the test
    m, text = file
    command, flags = data.draw(fuzz_flags(m))
    limit = digit_limit()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        Path(path).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([command, path, *flags])
    assert digit_limit() == limit  # `main` restores the int-string digit limit on every exit
    assert status in (0, 2, 3), (status, out.getvalue(), err.getvalue())
    assert status == 0 or "error: " in err.getvalue() or "resource limit: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestBrokenInvariant:
    @pytest.mark.parametrize("argv, violation", [
        (["bounds", "FILE"], None),
        (["verify", "--graphs", "1", "--arrangements", "0"], "  VIOLATION rank-vs-degree on named:P1: "),
    ], ids=["bounds", "verify"])
    def test_malformed_polynomial_exits_1(self, write, monkeypatch, capsys, argv, violation):
        # t^4 + t^3 - 3t^2 + 2t breaks the sign alternation at t^3: a bug, reported without a traceback.
        # A file command stops at it; `verify` reports it as a violation of each entry that meets it.
        monkeypatch.setattr(graphs, "chromatic_poly", lambda *args, **kwargs: IntPolynomial((0, 2, -3, 1, 1)))
        argv = [write("k3.txt", K3_TEXT) if arg == "FILE" else arg for arg in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        message = "coefficient of t^3 breaks the strict sign alternation"
        if violation is None:
            assert (out, err) == ("", f"invariant violated (bug): {message}\n")
        else:
            assert err == "" and f"{violation}{message}\n" in out


VERIFY_ARGS = ["verify", "--seed", "11", "--graphs", "8", "--max-n", "5",
               "--arrangements", "4", "--format", "json"]


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        assert main(VERIFY_ARGS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["violation_count"] == 0
        assert payload["results"]["checks"] > 0

    def test_zero_sizes_pass(self, capsys):
        assert main(["verify", "--graphs", "0", "--arrangements", "0", "--seed", "1"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_default_seed_is_echoed(self, capsys):
        # without --seed the corpus is drawn from seed 0, and the config says so
        args = ["verify", "--graphs", "2", "--arrangements", "1", "--format", "json"]
        assert main(args) == 0
        default = json.loads(capsys.readouterr().out)
        assert main([*args, "--seed", "0"]) == 0
        assert default["config"]["seed"] == 0
        assert default == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("flag", ["--max-n", "--max-dim", "--max-m", "--graphs", "--arrangements"])
    def test_nonpositive_corpus_size_rejected(self, flag, capsys):
        # corpus counts may be 0 (see test_zero_sizes_pass), size limits may not
        least = 0 if flag in ("--graphs", "--arrangements") else 1
        assert main(["verify", flag, str(least - 1)]) == 2
        assert f"{flag} must be at least {least}" in capsys.readouterr().err

    def test_small_subset_cap_skips_instead_of_failing(self, monkeypatch, capsys):
        # graphs with more than 8 edges exceed the guard: Whitney and NBC skip them
        monkeypatch.setattr(arrangements, "SUBSET_GUARD", 8)
        args = ["verify", "--graphs", "3", "--arrangements", "2", "--seed", "5"]
        assert main(args) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("graphs_, arrangements_, seed, guard", [
        ("3", "0", "5", 5),  # the linear corpus builds K4's poset (m = 6), which no subset guard bounds
        ("0", "5", "1", 3),  # arrangements with more than 3 hyperplanes skip Whitney, NBC and general position
    ], ids=["linear-corpus", "arrangements"])
    def test_tiny_subset_cap_skips_the_walks(self, monkeypatch, capsys, graphs_, arrangements_, seed, guard):
        monkeypatch.setattr(arrangements, "SUBSET_GUARD", guard)
        args = ["verify", "--graphs", graphs_, "--arrangements", arrangements_, "--seed", seed]
        assert main(args) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_case_builds_its_values_on_first_use(self, monkeypatch):
        # an instance whose poset passes its budget is built without error; reading its polynomial raises
        monkeypatch.setattr(arrangements, "POSET_STEP_BUDGET", 0)
        case = checks.Case("boolean5", coordinate_arrangement(5), 0, 1)
        with pytest.raises(ResourceLimitError, match="budget of 0 elimination steps"):
            case.poly

    def test_graphic_poset_over_budget_skips_its_check(self):
        # K9's graphic poset (21,147 flats) passes the step budget, K8's (4,140 flats) does not
        table = [check for check in checks.GRAPH_CHECKS if check.name == "graphic-char-poly"]
        assert [ok for _, ok, _ in checks.run_checks(table, checks.Case("K8", complete(8), 0, 1))] == [True]
        assert list(checks.run_checks(table, checks.Case("K9", complete(9), 0, 1))) == []

    @pytest.mark.parametrize("seed", ["30", "44"])
    def test_graphs_of_twenty_and_more_vertices_pass(self, capsys, seed):
        # seed 30 draws a graph on 20 vertices and seed 44 one on 21; the coloring oracle checks both
        assert main(["verify", "--graphs", "3", "--max-n", "22", "--arrangements", "0", "--seed", seed]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("oracle, check", [
        ("chromatic_poly_interpolated", "coloring-oracle"),
        ("char_poly_whitney", "whitney-agreement"),
        ("nbc_counts", "nbc-coefficient"),
        ("divided_difference_formula", "divided-difference-formula"),
        ("h_vector", "coefficient-lower-bounds"),
    ])
    def test_reports_a_broken_oracle(self, monkeypatch, capsys, oracle, check):
        # one count per k for any m under the subset guard, and an h with a negative entry
        wrong = {"nbc_counts": (-1,) * 21, "h_vector": (1, -1)}.get(oracle, IntPolynomial((7,)))
        monkeypatch.setattr(checks, oracle, lambda *args, **kwargs: wrong)
        assert main(["verify", "--graphs", "0", "--arrangements", "0", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["violation_count"] == len(payload["violations"]) > 0
        assert {v["check"] for v in payload["violations"]} == {check}

    def test_reports_a_broken_invariant(self, monkeypatch, capsys):
        # a characteristic polynomial of 7 has no coefficient sequence: each entry that reads it fails, and the
        # report still comes out whole, with no log-concavity for those instances
        char_poly = arrangements.char_poly
        monkeypatch.setattr(arrangements, "char_poly",
                            lambda arr: IntPolynomial((7,)) if arr.m >= 5 else char_poly(arr))
        assert main(["verify", "--seed", "42", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert err == "" and payload["results"]["instances"] == 270
        assert {"check": "rank-vs-degree", "instance": "arrangement[0]",
                "detail": "leading coefficient must be 1, got 7"} in payload["violations"]
        assert payload["results"]["arrangements"][0]["logconcave"] is None

    def test_instance_past_its_poset_budget_is_skipped(self, capsys):
        # two of these arrangements have posets past the step budget: the run counts them as skipped and goes on
        argv = ["verify", "--graphs", "0", "--arrangements", "3", "--max-dim", "8", "--max-m", "30", "--seed", "1"]
        assert main([*argv, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["results"]["skipped"] == 2

    def test_byte_identical_across_runs(self, capsys):
        assert main(VERIFY_ARGS) == 0
        first = capsys.readouterr().out
        assert main(VERIFY_ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_round_trips(self, capsys):
        assert main(VERIFY_ARGS) == 0
        parsed = json.loads(capsys.readouterr().out)
        results, violations = _run_verify(_build_parser().parse_args(VERIFY_ARGS))
        assert parsed["results"] == results
        assert parsed["violations"] == violations

    def test_pinned_regression_hash(self, capsys):
        # frozen fingerprint of the report for a tiny fixed corpus; any
        # change to corpus generation, checks, or serialization shows up here
        import hashlib

        args = ["verify", "--seed", "7", "--graphs", "5", "--max-n", "4",
                "--arrangements", "3", "--format", "json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "06f85ed82f15fd354d120fada8b3bb6f9a443a4c1966215276ffc9070fb8a30d"

    def test_pinned_headline_hash(self, capsys):
        # the headline report at the default corpus sizes, byte for byte
        import hashlib

        assert main(["verify", "--seed", "42", "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "e1316a90ffdb59c878f7df507c45ae2e0478672eb0649bcf3539724591d93440"

    def test_pinned_headline_text_hash(self, capsys):
        assert main(["verify", "--seed", "42"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "54ad0f4031bebd0892e0ed5df80d1d2aba9d3b1bc83271a88518b54051d80a13"

    @pytest.mark.parametrize("window", [["--q-min", "-3", "--q-max", "-3"], ["--q-min", "-100", "--q-max", "-50"]],
                             ids=["q-3", "q-100-to-50"])
    def test_low_window_reports_no_sharpness_violation(self, capsys, window):
        # below q = -r every cell has k = 0 and is tight, so the sharpness checks skip such a window
        assert main(["verify", "--graphs", "0", "--arrangements", "0", *window]) == 0
        assert capsys.readouterr().out.endswith("\n0 violations\n")


class TestSharpnessWindow:
    """`bounds-tight-iff-forest` and `bounds-tight-iff-boolean` run exactly when the window reaches q = -r."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_graphs(), walk_arrangements), st.data())
    def test_entry_runs_and_holds_from_minus_r(self, obj, data):
        graph = isinstance(obj, SimpleGraph)
        table = checks.GRAPH_CHECKS if graph else checks.ARRANGEMENT_CHECKS
        entry = table_entry(table, "bounds-tight-iff-forest" if graph else "bounds-tight-iff-boolean")
        r = checks.Case("probe", obj, 0, 0).seq.r
        q_max = data.draw(st.integers(-r - 8, -r + 4), label="q_max")
        q_min = data.draw(st.integers(q_max - 6, q_max), label="q_min")
        outcomes = list(checks.run_checks(entry, checks.Case("input", obj, q_min, q_max)))
        assert outcomes == ([] if q_max < -r else [(entry[0].name, True, "")])


TABLE_NAMES = {check.name for check in checks.GRAPH_CHECKS + checks.ARRANGEMENT_CHECKS + checks.LINEAR_CENTRAL_CHECKS}
VERIFY_BOUNDS = bounds.verify_bounds


def overshooting_bounds(s, q_min, q_max):
    """The real bound grid with every value one above its upper bound."""
    rows = VERIFY_BOUNDS(s, q_min, q_max).rows
    return bounds.BoundsReport(tuple(row._replace(value=[upper + 1 for upper in row.upper]) for row in rows))


def wrong_counts(*args, **kwargs):
    return (-1,) * 21  # one count per k for any m under the subset guard


def wrong_polynomial(*args, **kwargs):
    return IntPolynomial((7,))


def negative_h(*args, **kwargs):
    return (1, 0, -2, 5)


def table_entry(table, name):
    return [check for check in table if check.name == name]


class TestViolationRecord:
    """Every command reports a failed identity as one record, named after an entry of the check tables."""

    @pytest.mark.parametrize("argv, module, oracle, broken, check", [
        (["bounds", "FILE"], bounds, "verify_bounds", overshooting_bounds, "two-sided-bounds"),
        (["nbc", "FILE"], arrangements, "nbc_counts", wrong_counts, "nbc-coefficient"),
        (["decone", "FILE", "2"], bounds, "divided_difference", wrong_polynomial, "decone-divided-difference"),
        (["verify", "--graphs", "0", "--arrangements", "0"], checks, "chromatic_poly_interpolated", wrong_polynomial,
         "coloring-oracle"),
    ], ids=["bounds", "nbc", "decone", "verify"])
    def test_one_shape_under_a_broken_oracle(self, write, monkeypatch, capsys, argv, module, oracle, broken, check):
        monkeypatch.setattr(module, oracle, broken)
        path = write("k4.txt", K4_TEXT)
        argv = [path if arg == "FILE" else arg for arg in argv]
        assert main([*argv, "--format", "json"]) == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert violations and all(set(v) == {"check", "instance", "detail"} for v in violations)
        assert {v["check"] for v in violations} == {check} and check in TABLE_NAMES
        if path in argv:
            assert {v["instance"] for v in violations} == {path}
        assert main(argv) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if "VIOLATION" in line]
        assert lines == [f"  VIOLATION {v['check']} on {v['instance']}: {v['detail']}" for v in violations]

    @pytest.mark.parametrize("oracle, broken, check", [
        ("chromatic_poly_interpolated", wrong_polynomial, "coloring-oracle"),
        ("verify_bounds", overshooting_bounds, "two-sided-bounds"),
        ("h_vector", negative_h, "coefficient-lower-bounds"),
    ], ids=["equality", "bounds", "h-vector"])
    def test_single_comparison_names_what_failed(self, write, monkeypatch, capsys, oracle, broken, check):
        # an equality shows both sides, a grid its first failing (q, k) as `bounds` does, h its first negative entry
        monkeypatch.setattr(checks, oracle, broken)
        monkeypatch.setattr(bounds, "verify_bounds", overshooting_bounds)
        assert main(["bounds", write("k4.txt", K4_TEXT), "--format", "json"]) == 1
        first_bound = json.loads(capsys.readouterr().out)["violations"][0]["detail"]
        expected = {"coloring-oracle": f"{graphs.chromatic_poly(graphs.complete(4))} != 7",
                    "two-sided-bounds": first_bound, "coefficient-lower-bounds": "h_2=-2"}[check]
        assert main(["verify", "--graphs", "0", "--arrangements", "0", "--format", "json"]) == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [v["detail"] for v in violations if (v["check"], v["instance"]) == (check, "named:K4")] == [expected]
        assert main(["verify", "--graphs", "0", "--arrangements", "0"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if "VIOLATION" in line]
        assert lines and not any(line.endswith(" ") for line in lines)

    @pytest.mark.parametrize("text, order, r", [
        (K4_TEXT, None, 3), (K4_TEXT, (5, 0, 3, 1, 4, 2), 3), (GENERIC_LINES_TEXT, None, 2),
        (GENERIC_LINES_TEXT, (2, 0, 1), 2),
    ], ids=["K4", "K4-ordered", "lines", "lines-ordered"])
    def test_nbc_reports_what_the_table_reports(self, write, monkeypatch, capsys, text, order, r):
        # both take the detail from `nbc_rule`; the handler's part is to pass --order into it, for every k <= r
        monkeypatch.setattr(arrangements, "nbc_counts", wrong_counts)
        flags = [] if order is None else ["--order", ",".join(str(i) for i in order)]
        assert main(["nbc", write("input.txt", text), *flags, "--format", "json"]) == 1
        reported = [(v["check"], v["detail"]) for v in json.loads(capsys.readouterr().out)["violations"]]
        assert reported == [("nbc-coefficient", f"k={k} order={order}") for k in range(r + 1)]

    @pytest.mark.parametrize("text, k0", [(LINEAR_LINES_TEXT, 0), (LINEAR_LINES_TEXT, 2), (K4_TEXT, 3)],
                             ids=["lines-0", "lines-2", "K4-3"])
    def test_decone_reports_what_the_table_reports(self, write, monkeypatch, capsys, text, k0):
        # both take the detail from `decone_rule`; the handler's part is to pass K0 into it
        monkeypatch.setattr(bounds, "divided_difference", wrong_polynomial)
        assert main(["decone", write("input.txt", text), str(k0), "--format", "json"]) == 1
        reported = [(v["check"], v["detail"]) for v in json.loads(capsys.readouterr().out)["violations"]]
        assert reported == [("decone-divided-difference", f"k0={k0}")]

import json

import pytest

from chromabounds import Arrangement, InputError, IntPolynomial, SimpleGraph, checks
from chromabounds.cli import (
    main,
    parse_arrangement_text,
    parse_graph_text,
    parse_input_file,
)

K3_TEXT = "n 3\n0 1\n0 2\n1 2\n"
K4_TEXT = "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH4_TEXT = "n 4\n0 1\n1 2\n2 3\n"
GENERIC_LINES_TEXT = "dim 2\n1 0 0\n0 1 0\n1 1 1\n"
PARALLEL_TEXT = "dim 2\n1 0 0\n1 0 1\n"
DIMACS_TEXT = "c a triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestParsing:
    def test_edge_list(self):
        g = parse_graph_text(K3_TEXT)
        assert g.n == 3 and g.m == 3

    def test_dimacs_one_based(self):
        g = parse_graph_text(DIMACS_TEXT)
        assert g == SimpleGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))

    def test_loop_rejected_with_line_number(self):
        with pytest.raises(InputError, match="3: loop"):
            parse_graph_text("n 3\n0 1\n2 2\n")

    def test_duplicate_edge_warns_and_collapses(self, capsys):
        g = parse_graph_text("n 3\n0 1\n1 0\n")
        assert g.m == 1
        assert "duplicate edge" in capsys.readouterr().err

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            parse_graph_text("vertices 3\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError, match="out of range"):
            parse_graph_text("n 2\n0 5\n")

    def test_arrangement_with_rationals(self):
        arr = parse_arrangement_text("dim 2\n1/2 -1/3 2\n0 1 -1/2\n")
        assert arr.m == 2
        assert arr.hyperplanes[0].normal == (3, -2)

    def test_arrangement_wrong_arity(self):
        with pytest.raises(InputError, match="coordinates"):
            parse_arrangement_text("dim 3\n1 0 0\n")

    def test_dimacs_non_integer_vertex_count(self, write, capsys):
        assert main(["chromatic", write("bad.col", "p edge x 3\ne 1 2\n")]) == 2
        assert "bad.col:1: vertex count 'x'" in capsys.readouterr().err

    def test_dispatch(self, write):
        assert isinstance(parse_input_file(write("g.txt", K3_TEXT)), SimpleGraph)
        assert isinstance(parse_input_file(write("a.txt", PARALLEL_TEXT)), Arrangement)
        assert isinstance(parse_input_file(write("d.col", DIMACS_TEXT)), SimpleGraph)


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


class TestResourceCaps:
    def test_subset_cap_exit_code(self, write):
        code = main(["nbc", write("k4.txt", K4_TEXT), "--cap-subsets", "2"])
        assert code == 3

    def test_coloring_cap_flag_accepted(self, write):
        assert main(["chromatic", write("k3.txt", K3_TEXT), "--cap-colorings", "100"]) == 0


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

    @pytest.mark.parametrize("flag", ["--max-n", "--max-dim", "--max-m"])
    def test_nonpositive_corpus_size_rejected(self, flag, capsys):
        assert main(["verify", flag, "0"]) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle, check", [
        ("chromatic_poly_interpolated", "coloring-oracle"),
        ("char_poly_whitney", "whitney-agreement"),
        ("nbc_coefficient", "nbc-coefficient"),
        ("divided_difference_formula", "divided-difference-formula"),
    ])
    def test_reports_a_broken_oracle(self, monkeypatch, capsys, oracle, check):
        wrong = -1 if oracle == "nbc_coefficient" else IntPolynomial((7,))
        monkeypatch.setattr(checks, oracle, lambda *args, **kwargs: wrong)
        assert main(["verify", "--graphs", "0", "--arrangements", "0", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["violation_count"] == len(payload["violations"]) > 0
        assert {v["check"] for v in payload["violations"]} == {check}

    def test_byte_identical_across_runs(self, capsys):
        assert main(VERIFY_ARGS) == 0
        first = capsys.readouterr().out
        assert main(VERIFY_ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_round_trips(self, capsys):
        from chromabounds.cli import RunConfig, build_verify_report

        assert main(VERIFY_ARGS) == 0
        parsed = json.loads(capsys.readouterr().out)
        config = RunConfig(command="verify", inputs=(), seed=11, output_format="json")
        results, violations = build_verify_report(
            config, num_graphs=8, max_vertices=5,
            num_arrangements=4, max_dim=4, max_hyperplanes=7,
        )
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
        assert digest == "3f3d7e7ba373c6da7047e5bc790de9b8259a68cf6a3195e3e43ec5cd95c762ee"

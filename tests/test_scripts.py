"""The experiment scripts run end to end on small inputs (one subprocess each)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc.stdout


def test_chromatic_growth_writes_one_row_per_graph(tmp_path):
    out = tmp_path / "growth.json"
    _run("chromatic_growth.py", "--sizes", "8", "--seeds", "1", "2", "--regular-sizes", "8",
         "--cycles", "6", "--out", str(out))
    report = json.loads(out.read_text())
    assert [(row["family"], row["n"], row["seed"]) for row in report["rows"]] == [
        ("gnp", 8, 1), ("gnp", 8, 2), ("regular", 8, 1), ("regular", 8, 2), ("cycle", 6, None)]
    assert all(row["memo"] >= 1 and row["seconds"] >= 0 for row in report["rows"])
    assert [row["m"] for row in report["rows"][2:]] == [24, 24, 6]


@pytest.fixture(scope="module")
def startup_run(tmp_path_factory):
    # one run of the script serves both startup tests
    out = tmp_path_factory.mktemp("startup") / "startup.json"
    text = _run("startup_time.py", "--runs", "2", "--out", str(out))
    return json.loads(out.read_text()), text


def test_startup_time_reports_each_series(startup_run):
    report, text = startup_run
    assert list(report["series"]) == ["pass", "source", "bytecode"]
    assert all(s["q1_ms"] <= s["median_ms"] <= s["q3_ms"] for s in report["series"].values())
    assert report["import_self_us"]["chromabounds.cli"] > 0
    assert "chromabounds.cli" in text


def test_startup_time_times_each_command(startup_run):
    report, text = startup_run
    commands = report["commands"]
    assert list(commands) == ["bounds", "nbc"]
    assert all(s["q1_ms"] <= s["median_ms"] <= s["q3_ms"] for s in commands.values())
    assert "bounds" in text and "nbc" in text


def test_arrangement_growth_writes_one_row_per_arrangement(tmp_path):
    out = tmp_path / "growth.json"
    _run("arrangement_growth.py", "--sizes", "3", "4", "--out", str(out))
    report = json.loads(out.read_text())
    assert [(row["family"], row["m"], row["seed"]) for row in report["rows"]] == [
        (family, m, seed) for family in ("affine", "linear") for m in (3, 4) for seed in (1, 2, 3)]
    assert all(row["flats"] > row["m"] for row in report["rows"])
    assert all(set(row["seconds"]) == {"poset", "nbc", "whitney"} for row in report["rows"])
    assert list(report["totals_s"]) == ["affine m=3", "affine m=4", "linear m=3", "linear m=4"]

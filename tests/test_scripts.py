"""The experiment scripts run end to end on small inputs (one subprocess each)."""

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


@pytest.mark.parametrize("script, args", [
    ("bound_tightness.py", ["--max-n", "4"]),
    ("logconcavity_scan.py", ["--graphs", "5", "--arrangements", "5"]),
])
def test_script_runs(script, args):
    out = _run(script, *args)
    if script == "logconcavity_scan.py":
        assert "checked 10 sequences: 0 violations" in out
    else:
        assert "K4" in out

#!/usr/bin/env python3
"""Time fresh interpreters that start, import `chromabounds.cli` and run commands.

Each run starts five interpreters, one after another, so the five series
are interleaved and share the host's drift:

  pass      python -c pass, the interpreter alone
  source    python -B -c "import chromabounds.cli" on a copy of the package
            with no bytecode, so every module of the package is compiled,
            as in a fresh checkout run with bytecode writing off
  bytecode  the same import on a second copy whose bytecode was written
            beforehand
  bounds    python -B -m chromabounds bounds on the K4 edge list, source copy
  nbc       python -B -m chromabounds nbc on three lines through the origin,
            source copy

The commands' inputs are so small that the series time what a command
loads, not what it computes. Each series is reported as its median and
quartiles in milliseconds, with its cost over `pass`. One further
`-X importtime` run of the source copy gives each module's self time, the
largest printed; --out writes everything as JSON, the import series under
"series" and the command series under "commands".

    PYTHONPATH=src python scripts/startup_time.py [--runs N] [--out FILE]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromabounds"
IMPORT = "import chromabounds.cli"
K4 = "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
LINES = "dim 2\n1 0 0\n0 1 0\n1 1 0\n"
SHOWN_MODULES = 15


def copy_package(parent):
    """A copy of the package under `parent`, without bytecode, and the environment importing it.

    The environment lets an interpreter write bytecode; pass -B where it must not.
    """
    shutil.copytree(PACKAGE, parent / "chromabounds", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(parent)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start(argv, env):
    """Wall seconds of one interpreter run to completion."""
    begin = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - begin


def summary(seconds):
    ms = [s * 1000 for s in seconds]
    q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": round(statistics.median(ms), 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}


def import_self_times(env):
    """Self time in microseconds of every module one import of the package loads."""
    proc = subprocess.run([sys.executable, "-B", "-X", "importtime", "-c", IMPORT],
                          env=env, check=True, capture_output=True, text=True)
    times = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            times[name.strip()] = int(self_us)
    return dict(sorted(times.items(), key=lambda item: -item[1]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=30, help="interpreters per series (default 30)")
    parser.add_argument("--out", help="also write the summaries and module self times to this JSON file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    with tempfile.TemporaryDirectory() as tmp:
        source_env = copy_package(Path(tmp) / "source")
        bytecode_env = copy_package(Path(tmp) / "bytecode")
        start(["-c", IMPORT], bytecode_env)  # writes the copy's bytecode and warms the file cache
        k4, lines = Path(tmp) / "k4.txt", Path(tmp) / "lines.txt"
        k4.write_text(K4)
        lines.write_text(LINES)
        series = {
            "pass": (["-c", "pass"], os.environ),
            "source": (["-B", "-c", IMPORT], source_env),
            "bytecode": (["-c", IMPORT], bytecode_env),
            "bounds": (["-B", "-m", "chromabounds", "bounds", str(k4)], source_env),
            "nbc": (["-B", "-m", "chromabounds", "nbc", str(lines)], source_env),
        }
        seconds = {name: [] for name in series}
        for _ in range(args.runs):
            for name, (argv, env) in series.items():
                seconds[name].append(start(argv, env))
        modules = import_self_times(source_env)

    summaries = {name: summary(values) for name, values in seconds.items()}
    commands = {name: summaries.pop(name) for name in ("bounds", "nbc")}
    print(f"{'series':>9} {'median ms':>10} {'q1':>8} {'q3':>8} {'over pass':>10}  ({args.runs} runs)")
    for name, s in {**summaries, **commands}.items():
        over = s["median_ms"] - summaries["pass"]["median_ms"]
        print(f"{name:>9} {s['median_ms']:>10.1f} {s['q1_ms']:>8.1f} {s['q3_ms']:>8.1f} {over:>10.1f}")
    print(f"largest module self times, one -X importtime run of the source copy (of {len(modules)} modules):")
    for name, us in list(modules.items())[:SHOWN_MODULES]:
        print(f"{us / 1000:>8.2f} ms  {name}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "python": platform.python_version(),
                "machine": platform.machine(),
                "runs": args.runs,
                "series": summaries,
                "commands": commands,
                "import_self_us": modules,
            }, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()

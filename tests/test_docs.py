"""README.md's command-line tables, script list and Layout block against the code they describe, so that they cannot drift apart."""

import argparse
import re
from pathlib import Path

from chromabounds.checks import ARRANGEMENT_CHECKS, GRAPH_CHECKS, LINEAR_CENTRAL_CHECKS
from chromabounds.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def table(header):
    """The body rows of the README table whose header row is `header`, each as its list of cells."""
    lines = README.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the header and its --- row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def quoted_names(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_readme_tables_match_the_parser_and_the_check_tables():
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [option for action in sub._actions for option in action.option_strings
                      if option not in ("-h", "--help")]
               for name, sub in subparsers.choices.items()}
    listed = {quoted_names(usage)[0].split()[0]: quoted_names(flags)
              for usage, flags in table("| subcommand | flags |")}
    assert listed == options

    named = [quoted_names(row[0])[0] for row in table("| check | instance kind | evaluated when |")]
    checks = {check.name for check in GRAPH_CHECKS + ARRANGEMENT_CHECKS + LINEAR_CENTRAL_CHECKS}
    assert sorted(named) == sorted(checks)


def test_readme_lists_every_experiment_script():
    lines = README.splitlines()
    start = lines.index("## Experiment scripts")
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("## "))
    listed = re.findall(r"^- `scripts/([^`]+)`", "\n".join(lines[start:end]), re.M)
    assert sorted(listed) == sorted(path.name for path in (ROOT / "scripts").iterdir() if path.is_file())


def test_readme_layout_names_every_package_file():
    lines = README.splitlines()
    start = lines.index("src/chromabounds/", lines.index("## Layout"))
    listed = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):  # the next top-level entry ends the package's block
            break
        if not line.startswith("   "):  # a wrapped description is indented further
            listed.append(line.split()[0])
    assert sorted(listed) == sorted(path.name for path in (ROOT / "src" / "chromabounds").glob("*.py"))

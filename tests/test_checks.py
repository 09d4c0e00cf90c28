"""The check tables of `chromabounds.checks`, each run whole through `run_checks` on drawn instances.

Every entry that applies to a drawn `Case` must hold, so a failure
shrinks to a small instance and names each failing (check, detail). The
acceptance suite runs each entry by name on the fixture corpus, and the
last test here fails when an entry is named by no acceptance criterion.
No other test restates an identity of the tables.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromabounds import complete, graphic_arrangement, path
from chromabounds.checks import ARRANGEMENT_CHECKS, GRAPH_CHECKS, LINEAR_CENTRAL_CHECKS, Case, run_checks
from chromabounds.corpus import coordinate_arrangement, random_order
from strategies import (
    GENERIC_LINES,
    K3_ARR,
    K4_ARR,
    PARALLEL_LINES,
    dense_graphs,
    linear_arrangements,
    small_graphs,
    walk_arrangements,
)

orders = st.randoms(use_true_random=False)  # draws the one random NBC order beside the identity


def assert_table(table, obj, rng):
    case = Case("drawn", obj, -5, 5, orders=lambda m: [None, random_order(rng, m)])
    failures = [f"{name}: {detail}" for name, ok, detail in run_checks(table, case) if not ok]
    if failures:
        pytest.fail("\n".join([repr(obj), *failures]))


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=7) | dense_graphs(max_n=7), orders)
@example(complete(3), random.Random(0))
@example(complete(4), random.Random(0))
@example(path(4), random.Random(0))
def test_graph_checks(g, rng):
    assert_table(GRAPH_CHECKS, g, rng)


@settings(max_examples=100, deadline=None)
@given(walk_arrangements, orders)
@example(K3_ARR, random.Random(0))
@example(K4_ARR, random.Random(0))
@example(GENERIC_LINES, random.Random(0))
@example(PARALLEL_LINES, random.Random(0))
@example(coordinate_arrangement(3), random.Random(0))
def test_arrangement_checks(arr, rng):
    assert_table(ARRANGEMENT_CHECKS, arr, rng)


@settings(max_examples=60, deadline=None)
@given(linear_arrangements() | small_graphs(max_n=6).map(graphic_arrangement), orders)
def test_linear_central_checks(arr, rng):
    assert_table(LINEAR_CENTRAL_CHECKS, arr, rng)


def test_every_entry_is_an_acceptance_criterion():
    source = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    named = {arg.value for node in ast.walk(source)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "assert_checks"
             for arg in node.args if isinstance(arg, ast.Constant)}
    entries = {check.name for check in GRAPH_CHECKS + ARRANGEMENT_CHECKS + LINEAR_CENTRAL_CHECKS}
    assert entries - named == set()

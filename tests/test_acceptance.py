"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The corpus matches the
conftest fixtures: named graph families plus 200 seeded random graphs
(n <= 6) and 50 seeded random rational arrangements (dim <= 4, m <= 7);
criterion 1 adds one seeded G(n, 1/2) for each of n = 10, 12 and 14.
Criteria 1-9 select, by name, entries of the check tables in
`chromabounds.checks` that `verify` runs, so each identity is written once.
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from copy import copy

from chromabounds import (
    SimpleGraph,
    chromatic_poly,
    coeff_sequence,
    complete,
    h_vector,
    is_boolean,
    is_forest,
    is_general_position,
    verify_bounds,
)
from chromabounds.checks import ARRANGEMENT_CHECKS, GRAPH_CHECKS, LINEAR_CENTRAL_CHECKS, Case, run_checks
from chromabounds.cli import main
from chromabounds.corpus import linear_central_corpus, random_order
from strategies import binom

NBC_TIME_LIMIT = 120.0
ORACLE_TIME_LIMIT = 60.0


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def assert_checks(table, cases, *names):
    """Run the named entries of a check table on every case; each must hold and run at least once."""
    selected = [check for check in table if check.name in names]
    ran = set()
    for case in cases:
        for name, ok, detail in run_checks(selected, case):
            assert ok, (name, case.label, detail)
            ran.add(name)
    assert ran == set(names), f"never evaluated: {set(names) - ran}"


def half_dense_graph(n):
    """G(n, 1/2) seeded with n: the pair i < j is an edge when the next draw is below 1/2."""
    rng = random.Random(n)
    return SimpleGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5))


def test_criterion_01_coloring_oracle(graph_cases):
    with criterion(1, "deletion-contraction equals the inclusion-exclusion coloring oracle, up to n = 14"):
        start = time.monotonic()
        larger = [Case(f"G({n}, 1/2)", half_dense_graph(n), -5, 5) for n in (10, 12, 14)]
        assert_checks(GRAPH_CHECKS, graph_cases + larger, "coloring-oracle")
        elapsed = time.monotonic() - start
        assert elapsed < ORACLE_TIME_LIMIT, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_nbc_counts(graph_cases, arrangement_cases):
    with criterion(2, "NBC counts equal |a_k| under 3 random orders per instance"):
        rng = random.Random(271828)
        start = time.monotonic()
        for table, cases in ((GRAPH_CHECKS, graph_cases), (ARRANGEMENT_CHECKS, arrangement_cases)):
            drawn = [copy(case) for case in cases]
            for case in drawn:
                case.orders = lambda m: [random_order(rng, m) for _ in range(3)]
            assert_checks(table, drawn, "nbc-coefficient")
        elapsed = time.monotonic() - start
        assert elapsed < NBC_TIME_LIMIT, f"NBC sweep took {elapsed:.1f}s"


def test_criterion_03_two_sided_bounds(graph_cases, arrangement_cases):
    with criterion(3, "partial binomial sums stay inside the two-sided bounds, q in [-5, 5]"):
        assert_checks(GRAPH_CHECKS, graph_cases, "two-sided-bounds")
        assert_checks(ARRANGEMENT_CHECKS, arrangement_cases, "two-sided-bounds")


def test_criterion_04_sharpness(graph_cases):
    with criterion(4, "forests are tight everywhere; a non-forest attains the upper bound"):
        assert_checks(GRAPH_CHECKS, graph_cases, "bounds-tight-iff-forest")
        assert sum(is_forest(case.obj) for case in graph_cases) >= 5
        triangle = coeff_sequence(chromatic_poly(complete(3)), 3)
        report = verify_bounds(triangle, -1, -1)
        rec = next(r for r in report.records if (r.q, r.k) == (-1, 1))
        assert rec.value == rec.upper == binom(2, 1) == 2
        assert not is_forest(complete(3))
        assert not verify_bounds(triangle, -5, 5).all_tight


def test_criterion_05_structural_formulas(arrangement_cases):
    with criterion(5, "boolean and general-position polynomials match the closed forms"):
        assert_checks(ARRANGEMENT_CHECKS, arrangement_cases, "boolean-formula", "general-position-iff-shape")
        booleans = sum(is_boolean(case.obj) for case in arrangement_cases)
        generals = Counter(is_general_position(case.obj) for case in arrangement_cases)
        assert booleans >= 1
        assert generals[True] >= 1 and generals[False] >= 1
        assert sum(generals.values()) >= 20


def test_criterion_06_recurrence_identities(graph_cases, arrangement_cases):
    with criterion(6, "deletion-contraction / deletion-restriction hold edge- and hyperplane-wise"):
        assert_checks(GRAPH_CHECKS, graph_cases, "deletion-contraction")
        assert_checks(ARRANGEMENT_CHECKS, arrangement_cases, "deletion-restriction")


def test_criterion_07_decone_divided_difference():
    with criterion(7, "deconing realizes the divided difference; iterates match the closed form"):
        corpus = linear_central_corpus(random.Random(31415))
        assert len(corpus) >= 20
        cases = [Case(f"linear[{i}]", arr, -5, 5) for i, arr in enumerate(corpus)]
        assert_checks(LINEAR_CENTRAL_CHECKS, cases, "decone-divided-difference", "divided-difference-formula")


def test_criterion_08_coefficient_lower_bounds(graph_cases, arrangement_cases):
    with criterion(8, "the h-vector is nonnegative, so the a_2/a_3 floors hold"):
        assert_checks(GRAPH_CHECKS, graph_cases, "coefficient-lower-bounds")
        assert_checks(ARRANGEMENT_CHECKS, arrangement_cases, "coefficient-lower-bounds")
        k4 = coeff_sequence(chromatic_poly(complete(4)), 6)
        h, r, m = h_vector(k4), k4.r, k4.m
        assert h == (1, 3, 2, 0)
        # each floor's slack is a nonnegative combination of h
        assert k4.a[2] - (binom(r, 2) + (m - r) * (r - 1)) == h[2]
        assert k4.a[3] - (binom(r, 3) + (m - r) * binom(r - 1, 2)) == (r - 2) * h[2] + h[3]


def test_criterion_09_two_algorithm_agreement(arrangement_cases, graph_cases):
    with criterion(9, "Moebius-sum and signed-subset characteristic polynomials agree"):
        assert_checks(ARRANGEMENT_CHECKS, arrangement_cases, "whitney-agreement")
        named = [case for case in graph_cases if case.label.startswith("named:")]
        assert_checks(GRAPH_CHECKS, named, "graphic-char-poly", "whitney-agreement")


def test_criterion_10_deterministic_verify(capsys):
    with criterion(10, "verify emits byte-identical JSON reports for a fixed seed"):
        args = ["verify", "--seed", "42", "--graphs", "20", "--max-n", "5",
                "--arrangements", "8", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["results"]["violation_count"] == 0

"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The corpus matches the
conftest fixtures: named graph families plus 200 seeded random graphs
(n <= 6) and 50 seeded random rational arrangements (dim <= 4, m <= 7).
Criteria 1-3 and 5-9 select, by name, entries of the check tables in
`chromabounds.checks` that `verify` runs, so each identity is written once.
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from copy import copy

from chromabounds import (
    binom,
    check_coefficient_lower_bounds,
    chromatic_poly,
    coeff_sequence,
    complete,
    is_boolean,
    is_forest,
    is_general_position,
    verify_bounds,
)
from chromabounds.checks import ARRANGEMENT_CHECKS, GRAPH_CHECKS, LINEAR_CENTRAL_CHECKS, Case, run_checks
from chromabounds.cli import main
from chromabounds.corpus import linear_central_corpus, random_order

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


def test_criterion_01_coloring_oracle(graph_cases):
    with criterion(1, "deletion-contraction equals the brute-force coloring oracle"):
        start = time.monotonic()
        assert_checks(GRAPH_CHECKS, graph_cases, "coloring-oracle")
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


def test_criterion_04_sharpness(graph_sequences):
    with criterion(4, "forests are tight everywhere; a non-forest attains the upper bound"):
        forests_seen = 0
        for label, g, _, s in graph_sequences:
            if is_forest(g):
                forests_seen += 1
                assert verify_bounds(s, -5, 5).all_tight, label
        assert forests_seen >= 5
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
    with criterion(8, "alternating weighted sums are nonnegative and a_2/a_3 floors hold"):
        assert_checks(GRAPH_CHECKS, graph_cases, "coefficient-lower-bounds")
        assert_checks(ARRANGEMENT_CHECKS, arrangement_cases, "coefficient-lower-bounds")
        k4 = coeff_sequence(chromatic_poly(complete(4)), 6)
        report = check_coefficient_lower_bounds(k4)
        assert k4.a[2] == 11 >= report.a2_floor == 9
        assert k4.a[3] == 6 >= report.a3_floor == 4


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

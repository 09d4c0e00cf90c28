"""Shared corpora for the test suite.

The corpus matches the verification sweep: every named family plus 200
seeded random graphs on up to 6 vertices, and 50 seeded random rational
arrangements in dimension up to 4 with up to 7 hyperplanes.
"""

import random

import pytest

from chromabounds.checks import Case
from chromabounds.corpus import named_graphs, random_arrangements, random_graphs

CORPUS_SEED = 1729
Q_MIN, Q_MAX = -5, 5  # bound-grid window of the cases


@pytest.fixture(scope="session")
def graph_corpus():
    rng = random.Random(CORPUS_SEED)
    out = [(f"named:{name}", g) for name, g in named_graphs()]
    out += [(f"random[{i}]", g) for i, g in enumerate(random_graphs(rng, 200, 6))]
    return out


@pytest.fixture(scope="session")
def arrangement_corpus():
    rng = random.Random(CORPUS_SEED + 1)
    return [(f"arr[{i}]", a) for i, a in enumerate(random_arrangements(rng, 50, 4, 7))]


@pytest.fixture(scope="session")
def chromatic_memo():
    return {}


@pytest.fixture(scope="session")
def graph_cases(graph_corpus, chromatic_memo):
    return [Case(label, g, Q_MIN, Q_MAX, memo=chromatic_memo) for label, g in graph_corpus]


@pytest.fixture(scope="session")
def arrangement_cases(arrangement_corpus):
    return [Case(label, arr, Q_MIN, Q_MAX) for label, arr in arrangement_corpus]


@pytest.fixture(scope="session")
def graph_sequences(graph_cases):
    return [(case.label, case.obj, case.poly, case.seq) for case in graph_cases]


@pytest.fixture(scope="session")
def arrangement_sequences(arrangement_cases):
    return [(case.label, case.obj, case.poly, case.seq) for case in arrangement_cases]

from typing import NamedTuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import (
    CoeffSequence,
    CoeffSequenceError,
    IntPolynomial,
    InvariantError,
    SimpleGraph,
    chromatic_poly,
    coeff_sequence,
    complete,
    divided_difference,
    divided_difference_formula,
    divided_difference_iter,
    h_vector,
    is_forest,
    is_logconcave,
    path,
    verify_bounds,
)
from chromabounds import bounds
from chromabounds.errors import ResourceLimitError
from strategies import binom, small_graphs


class ForestEquivalence(NamedTuple):
    binom_m_match: bool  # a_k == binom(m, k) for all k <= r
    binom_r_match: bool  # a_k == binom(r, k) for all k <= r
    forest: bool  # m == r


def forest_equivalence(g):
    """Evaluate the three equivalent forest characterizations and insist they agree."""
    s = coeff_sequence(chromatic_poly(g), g.m)
    binom_m = all(s.a[k] == binom(s.m, k) for k in range(s.r + 1))
    binom_r = all(s.a[k] == binom(s.r, k) for k in range(s.r + 1))
    forest = is_forest(g)
    if not (binom_m == binom_r == forest):
        raise InvariantError(
            f"forest equivalence broken on n={g.n}, edges={sorted(g.edges)}: "
            f"({binom_m}, {binom_r}, {forest})"
        )
    return ForestEquivalence(binom_m_match=binom_m, binom_r_match=binom_r, forest=forest)


def reference_partial_binomial_sum(s, q, k):
    """sum of binom(q, k-i) * a_i for i = 0..min(k, r), term by term."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(binom(q, k - i) * s.a[i] for i in range(min(k, s.r) + 1))


def reference_partial_sum_bounds(m, r, q, k):
    """The guaranteed (lower, upper) pair (binom(r+q, k), binom(m+q, k)).

    Only claimed for 0 <= k <= q+r+1; outside that range the bounds are
    not asserted and asking for them is an error.
    """
    if not 0 <= k <= q + r + 1:
        raise ValueError(f"(q={q}, k={k}) is outside the claimed range 0 <= k <= q+r+1")
    return binom(r + q, k), binom(m + q, k)


K3_SEQ = CoeffSequence(n=3, m=3, r=2, a=(1, 3, 2))
K4_SEQ = CoeffSequence(n=4, m=6, r=3, a=(1, 6, 11, 6))


class TestCoeffSequence:
    def test_k3(self):
        s = coeff_sequence(IntPolynomial((0, 2, -3, 1)), 3)
        assert (s.n, s.m, s.r, s.a) == (3, 3, 2, (1, 3, 2))

    def test_pure_power(self):
        s = coeff_sequence(IntPolynomial.term(1, 5), 0)
        assert (s.r, s.a) == (0, (1,))

    def test_k4(self):
        s = coeff_sequence(IntPolynomial((0, -6, 11, -6, 1)), 6)
        assert (s.r, s.a) == (3, (1, 6, 11, 6))

    def test_rejects_zero(self):
        with pytest.raises(CoeffSequenceError):
            coeff_sequence(IntPolynomial.zero(), 0)

    def test_rejects_nonmonic(self):
        with pytest.raises(CoeffSequenceError):
            coeff_sequence(IntPolynomial((0, 2, -3, 2)), 3)

    def test_rejects_wrong_m(self):
        with pytest.raises(CoeffSequenceError):
            coeff_sequence(IntPolynomial((0, 2, -3, 1)), 4)

    def test_rejects_interior_zero(self):
        # t^3 + t has a zero coefficient inside the support
        with pytest.raises(CoeffSequenceError):
            coeff_sequence(IntPolynomial((0, 1, 0, 1)), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_single_sign_flip_always_rejected(self, data):
        polys = [
            IntPolynomial((0, 2, -3, 1)),
            IntPolynomial((0, -6, 11, -6, 1)),
            IntPolynomial((0, -3, 6, -4, 1)),
            IntPolynomial((0, 0, 1, -2, 1)),
        ]
        p = data.draw(st.sampled_from(polys))
        nonzero = [i for i, c in enumerate(p.coeffs) if c != 0]
        flip = data.draw(st.sampled_from(nonzero))
        mutated = IntPolynomial(
            tuple(-c if i == flip else c for i, c in enumerate(p.coeffs))
        )
        m = coeff_sequence(p, _edge_count_of(p)).m
        with pytest.raises(CoeffSequenceError):
            coeff_sequence(mutated, m)


def _edge_count_of(p):
    n = p.degree
    return -p.coefficient(n - 1)


class TestPartialBinomialSum:
    def test_collapses_to_coefficient_at_q_zero(self):
        assert reference_partial_binomial_sum(K4_SEQ, 0, 2) == 11

    def test_k4_shifted(self):
        assert reference_partial_binomial_sum(K4_SEQ, 2, 3) == 34

    def test_alternating_instance(self):
        assert reference_partial_binomial_sum(K3_SEQ, -1, 1) == 2

    def test_truncates_above_rank(self):
        # i runs only to r even when k is larger
        assert reference_partial_binomial_sum(K3_SEQ, 0, 3) == 0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            reference_partial_binomial_sum(K3_SEQ, 0, -1)


class TestPartialSumBounds:
    def test_q_zero(self):
        assert reference_partial_sum_bounds(6, 3, 0, 2) == (3, 15)

    def test_shifted(self):
        assert reference_partial_sum_bounds(6, 3, 2, 3) == (10, 56)

    def test_equal_when_m_is_r(self):
        for q in range(-2, 3):
            for k in range(0, q + 4):
                lower, upper = reference_partial_sum_bounds(3, 3, q, k)
                assert lower == upper

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reference_partial_sum_bounds(6, 3, -5, 1)
        with pytest.raises(ValueError):
            reference_partial_sum_bounds(6, 3, 0, 5)


class TestVerifyBounds:
    def test_k4_window(self):
        report = verify_bounds(K4_SEQ, -3, 3)
        assert report.all_ok

    def test_forest_all_tight(self):
        p = chromatic_poly(path(4))
        s = coeff_sequence(p, 3)
        report = verify_bounds(s, -3, 3)
        assert report.all_ok and report.all_tight

    def test_k3_upper_bound_attained(self):
        report = verify_bounds(K3_SEQ, -1, -1)
        rec = next(r for r in report.records if (r.q, r.k) == (-1, 1))
        assert (rec.lower, rec.value, rec.upper) == (1, 2, 2)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            verify_bounds(K4_SEQ, 2, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_records_match_the_slow_path(self, data):
        # the rows moved by Pascal's rule must give what the per-record binomials give, for windows
        # wholly above r + 1, across 0 and wholly below -r - 1 (which claim no cell)
        a = [1] + data.draw(st.lists(st.integers(1, 10**6), max_size=8))
        s = _sequence(a, data.draw(st.integers(0, 3)))
        q_min = data.draw(st.integers(-16, 14))
        q_max = data.draw(st.integers(q_min, q_min + 8))
        _assert_matches_slow_path(s, q_min, q_max)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_long_sequences_match_the_slow_path(self, data):
        a = [1] + data.draw(st.lists(st.integers(1, 10**12), min_size=9, max_size=30))
        s = _sequence(a, 0)
        q_min = data.draw(st.integers(-6, 6))
        q_max = data.draw(st.integers(q_min, 6))
        _assert_matches_slow_path(s, q_min, q_max)

    @pytest.mark.parametrize("q_min, q_max", [(5, 7), (40, 41), (-40, -2), (-40, -5)])
    def test_windows_far_from_zero_match_the_slow_path(self, q_min, q_max):
        # every window starts from one direct sum at its first claimed shift, max(q_min, -r - 1),
        # and walks only forward; K4 has r = 3, so (-40, -5) claims no cell
        _assert_matches_slow_path(K4_SEQ, q_min, q_max)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_row_scans_match_the_record_scans(self, data):
        # all_ok, all_tight and failures() compare whole rows; scans of the term-by-term records are the
        # reference. One a_i of a chromatic sequence is moved, so that some grids fail, and windows lie
        # on both sides of -r - 1
        g = data.draw(small_graphs(max_n=6))
        s = coeff_sequence(chromatic_poly(g), g.m)
        a = list(s.a)
        a[data.draw(st.integers(0, s.r), label="i")] += data.draw(st.integers(-3, 3), label="shift")
        s = s._replace(a=tuple(a))
        q_min = data.draw(st.integers(-s.r - 5, 3), label="q_min")
        q_max = data.draw(st.integers(q_min, q_min + 6), label="q_max")
        report = verify_bounds(s, q_min, q_max)
        expected = [bounds.BoundsRecord(q, k, lower, reference_partial_binomial_sum(s, q, k), upper)
                    for q in range(q_min, q_max + 1) for k in range(q + s.r + 2)
                    for lower, upper in [reference_partial_sum_bounds(s.m, s.r, q, k)]]
        assert report.records == tuple(expected)
        assert report.all_ok == all(rec.ok for rec in expected)
        assert report.all_tight == all(rec.tight for rec in expected)
        assert list(report.failures()) == [(rec.q, rec.k) for rec in expected if not rec.ok]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cell_count_is_the_budgeted_count(self, data):
        # the closed-form count is exactly the number of records: one cell more than the budget raises
        a = [1] + data.draw(st.lists(st.integers(1, 100), max_size=6))
        s = _sequence(a, 0)
        q_min = data.draw(st.integers(-12, 12))
        q_max = data.draw(st.integers(q_min, q_min + 6))
        cells = len(verify_bounds(s, q_min, q_max).records)
        with patch.object(bounds, "GRID_CELL_BUDGET", cells):
            assert len(verify_bounds(s, q_min, q_max).records) == cells
        if cells:
            with patch.object(bounds, "GRID_CELL_BUDGET", cells - 1):
                with pytest.raises(ResourceLimitError, match=f"has '{cells}' cells"):
                    verify_bounds(s, q_min, q_max)


def _sequence(a, extra_degree):
    r = len(a) - 1
    return CoeffSequence(n=r + extra_degree, m=a[1] if r else 0, r=r, a=tuple(a))


def _assert_matches_slow_path(s, q_min, q_max):
    report = verify_bounds(s, q_min, q_max)
    expected = []
    for q in range(q_min, q_max + 1):
        expected += [(q, k, *reference_partial_sum_bounds(s.m, s.r, q, k), reference_partial_binomial_sum(s, q, k))
                     for k in range(q + s.r + 2)]
    assert [(rec.q, rec.k, rec.lower, rec.upper, rec.value) for rec in report.records] == expected


def reference_alternating_sums(s):
    """(-1)^k sum_i (-1)^i binom(r-i, k-i) a_i for k = 0..r, term by term: the h-vector's old form."""
    return tuple((-1) ** k * sum((-1) ** i * binom(s.r - i, k - i) * s.a[i] for i in range(k + 1))
                 for k in range(s.r + 1))


def from_h_vector(h):
    """The coefficients of sum_j h_j x^j (1+x)^(r-j), ascending."""
    r = len(h) - 1
    return tuple(sum(h[j] * binom(r - j, k - j) for j in range(k + 1)) for k in range(r + 1))


def floors_slack(s):
    """a_2 and a_3 less their closed-form floors, None below rank 2 and 3."""
    r, m = s.r, s.m
    return (s.a[2] - (binom(r, 2) + (m - r) * (r - 1)) if r >= 2 else None,
            s.a[3] - (binom(r, 3) + (m - r) * binom(r - 1, 2)) if r >= 3 else None)


# any positive a with a_0 = 1, so that some h_k < 0 is common
sequences = st.lists(st.integers(1, 60), max_size=9).map(lambda tail: _sequence([1, *tail], 0))


class TestCoefficientLowerBounds:
    def test_k4(self):
        assert h_vector(K4_SEQ) == (1, 3, 2, 0)
        assert floors_slack(K4_SEQ) == (2, 2)  # a_2 = 11 over its floor 9, a_3 = 6 over 4

    def test_forest_equality(self):
        s = coeff_sequence(chromatic_poly(path(5)), 4)
        assert h_vector(s) == (1, 0, 0, 0, 0)
        assert floors_slack(s) == (0, 0)

    def test_k3_equality(self):
        assert h_vector(K3_SEQ) == (1, 1, 0)
        assert floors_slack(K3_SEQ) == (0, None)

    def test_small_ranks_vacuous(self):
        s = coeff_sequence(IntPolynomial((-1, 1)), 1)
        assert h_vector(s) == (1, 0) and floors_slack(s) == (None, None)
        assert h_vector(CoeffSequence(n=2, m=0, r=0, a=(1,))) == (1,)

    @settings(max_examples=200, deadline=None)
    @given(sequences)
    def test_matches_the_alternating_sums(self, s):
        assert h_vector(s) == reference_alternating_sums(s)

    @settings(max_examples=200, deadline=None)
    @given(sequences)
    def test_round_trip(self, s):
        assert from_h_vector(h_vector(s)) == s.a

    @settings(max_examples=200, deadline=None)
    @given(sequences)
    def test_floor_slack_is_a_combination_of_h(self, s):
        h = h_vector(s)
        slack2, slack3 = floors_slack(s)
        assert h[:2] == (1, s.m - s.r)[:s.r + 1]
        assert slack2 == (h[2] if s.r >= 2 else None)
        assert slack3 == ((s.r - 2) * h[2] + h[3] if s.r >= 3 else None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=8))
    def test_nonnegative_h_meets_the_floors(self, h_tail):
        s = _sequence(from_h_vector((1, *h_tail)), 0)
        assert min(h_vector(s)) >= 0
        assert all(slack >= 0 for slack in floors_slack(s) if slack is not None)


class TestDividedDifference:
    def test_basic(self):
        assert divided_difference(IntPolynomial((2, -3, 1))) == IntPolynomial((-2, 1))

    def test_constant_goes_to_zero(self):
        assert divided_difference(IntPolynomial.constant(9)).is_zero()

    def test_k3_chromatic(self):
        assert divided_difference(IntPolynomial((0, 2, -3, 1))) == IntPolynomial((0, -2, 1))

    def test_iter_identity(self):
        p = IntPolynomial((0, 2, -3, 1))
        assert divided_difference_iter(p, 0) == p

    def test_iter_single(self):
        assert divided_difference_iter(IntPolynomial((2, -3, 1)), 1) == IntPolynomial((-2, 1))

    def test_iter_twice_essential_k4(self):
        # (t-1)(t-2)(t-3): one division leaves (t-2)(t-3), the second t-4.
        p = IntPolynomial((-6, 11, -6, 1))
        assert divided_difference_iter(p, 1) == IntPolynomial((6, -5, 1))
        assert divided_difference_iter(p, 2) == IntPolynomial((-4, 1))

    def test_formula_matches_iteration(self, graph_sequences):
        from chromabounds import char_poly, essentialize, graphic_arrangement

        for _, g, _, _ in graph_sequences[:25]:
            ess = essentialize(graphic_arrangement(g))
            p = char_poly(ess)
            s = coeff_sequence(p, g.m)
            for j in range(s.r + 1):
                assert divided_difference_iter(p, j) == divided_difference_formula(s, j)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 10**6), max_size=8), st.data())
    def test_formula_is_the_signed_grid_row_at_q_minus_j(self, tail, data):
        # the coefficient of t^(r-j-k) in the j-th divided difference is (-1)^k S_{-j}(k)
        s = _sequence([1] + tail, 0)
        j = data.draw(st.integers(0, s.r))
        p = divided_difference_formula(s, j)
        assert p.coeffs[::-1] == tuple((-1) ** k * reference_partial_binomial_sum(s, -j, k)
                                       for k in range(s.r - j + 1))

    def test_formula_range_validated(self):
        with pytest.raises(ValueError):
            divided_difference_formula(K3_SEQ, 3)


class TestLogconcave:
    def test_examples(self):
        assert is_logconcave(K4_SEQ)
        assert is_logconcave(CoeffSequence(n=1, m=0, r=0, a=(1,)))
        assert is_logconcave(K3_SEQ)

    def test_detects_violation(self):
        fake = CoeffSequence(n=3, m=1, r=2, a=(1, 1, 5))
        assert not is_logconcave(fake)


class TestForestEquivalence:
    def test_path(self):
        report = forest_equivalence(path(4))
        assert (report.binom_m_match, report.binom_r_match, report.forest) == (True, True, True)

    def test_k3(self):
        report = forest_equivalence(complete(3))
        assert (report.binom_m_match, report.binom_r_match, report.forest) == (False, False, False)

    def test_two_disjoint_edges(self):
        g = SimpleGraph(4, frozenset({(0, 1), (2, 3)}))
        report = forest_equivalence(g)
        assert report.forest and report.binom_m_match and report.binom_r_match


def test_alternating_partial_sums_stay_positive(graph_sequences):
    # shifted lower bound binom(r-1, k) >= 1 while k <= r-1
    for _, _, _, s in graph_sequences:
        for k in range(s.r):
            value = (-1) ** k * sum((-1) ** i * s.a[i] for i in range(k + 1))
            assert value >= binom(s.r - 1, k) >= 1

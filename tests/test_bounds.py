from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import (
    CoeffSequence,
    CoeffSequenceError,
    IntPolynomial,
    InvariantError,
    SimpleGraph,
    binom,
    check_coefficient_lower_bounds,
    chromatic_poly,
    coeff_sequence,
    complete,
    divided_difference,
    divided_difference_formula,
    divided_difference_iter,
    is_forest,
    is_logconcave,
    path,
    verify_bounds,
)


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
        # the rows moved by Pascal's rule must give what the per-record binomials give
        a = [1] + data.draw(st.lists(st.integers(1, 10**6), max_size=8))
        s = _sequence(a, data.draw(st.integers(0, 3)))
        q_min = data.draw(st.integers(-8, 6))
        q_max = data.draw(st.integers(q_min, 8))
        _assert_matches_slow_path(s, q_min, q_max)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_long_sequences_match_the_slow_path(self, data):
        a = [1] + data.draw(st.lists(st.integers(1, 10**12), min_size=9, max_size=30))
        s = _sequence(a, 0)
        q_min = data.draw(st.integers(-6, 6))
        q_max = data.draw(st.integers(q_min, 6))
        _assert_matches_slow_path(s, q_min, q_max)

    @pytest.mark.parametrize("q_min, q_max", [(5, 7), (40, 41), (-40, -2)])
    def test_windows_far_from_zero_match_the_slow_path(self, q_min, q_max):
        # a window beyond r + 1 starts from one direct sum instead of walking up from q = 0
        _assert_matches_slow_path(K4_SEQ, q_min, q_max)


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


class TestCoefficientLowerBounds:
    def test_k4(self):
        report = check_coefficient_lower_bounds(K4_SEQ)
        assert report.alternating_ok
        assert report.a2_floor == 9 and report.a2_ok
        assert report.a3_floor == 4 and report.a3_ok
        assert report.all_ok

    def test_forest_equality(self):
        s = coeff_sequence(chromatic_poly(path(5)), 4)
        report = check_coefficient_lower_bounds(s)
        assert report.a2_floor == binom(s.r, 2)
        assert s.a[2] == report.a2_floor

    def test_k3_equality(self):
        report = check_coefficient_lower_bounds(K3_SEQ)
        assert report.a2_floor == 2 and K3_SEQ.a[2] == 2

    def test_small_ranks_vacuous(self):
        s = coeff_sequence(IntPolynomial((-1, 1)), 1)
        report = check_coefficient_lower_bounds(s)
        assert report.a2_floor is None and report.a3_floor is None
        assert report.all_ok


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

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromabounds import IntPolynomial, divided_difference
from chromabounds.exactmath import binomial_row
from strategies import binom


def synthetic_divide_by_t_minus_1(coeffs):
    """Independent synthetic-division oracle (ascending coefficients)."""
    coeffs = list(coeffs)
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry += coeffs[i]
        out[i - 1] = carry
    assert coeffs[0] + carry == 0
    return out


def reference_vandermonde_sum(x, y, k):
    """Direct summation of binom(x,i)*binom(y,k-i) over i = 0..k; equals binom(x+y, k) by Vandermonde's identity."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return sum(binom(x, i) * binom(y, k - i) for i in range(k + 1))


class TestBinom:
    def test_small_values(self):
        assert binom(5, 2) == 10
        assert binom(3, 5) == 0
        assert binom(4, -1) == 0
        assert binom(0, 0) == 1

    def test_negative_upper(self):
        assert binom(-1, 3) == -1
        for k in range(8):
            assert binom(-1, k) == (-1) ** k

    @given(st.integers(-8, 8))
    def test_j_zero(self, x):
        assert binom(x, 0) == 1

    @given(st.integers(-8, 8), st.integers(1, 12))
    def test_pascal_recurrence(self, x, j):
        assert binom(x, j) == binom(x - 1, j) + binom(x - 1, j - 1)


class TestBinomialRow:
    @given(st.integers(-30, 30), st.integers(0, 15))
    def test_entries_match_the_reference(self, x, top):
        assert binomial_row(x, top) == [binom(x, k) for k in range(top + 1)]

    @given(st.integers(-30, 30), st.integers(1, 15))
    def test_pascal_recurrence(self, x, top):
        row, below = binomial_row(x, top), binomial_row(x - 1, top)
        assert all(row[k] == below[k] + below[k - 1] for k in range(1, top + 1))

    @given(st.integers(-15, 15), st.integers(-15, 15), st.integers(0, 15))
    def test_vandermonde(self, x, y, top):
        a, b, ab = binomial_row(x, top), binomial_row(y, top), binomial_row(x + y, top)
        assert all(sum(a[i] * b[k - i] for i in range(k + 1)) == ab[k] for k in range(top + 1))


class TestVandermonde:
    def test_examples(self):
        assert reference_vandermonde_sum(2, 3, 2) == 10 == binom(5, 2)
        assert reference_vandermonde_sum(-1, 4, 3) == 1 == binom(3, 3)

    @given(st.integers(-8, 8), st.integers(0, 12))
    def test_y_zero_basis(self, x, k):
        assert reference_vandermonde_sum(x, 0, k) == binom(x, k)

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 12))
    def test_identity(self, x, y, k):
        assert reference_vandermonde_sum(x, y, k) == binom(x + y, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            reference_vandermonde_sum(1, 1, -1)


poly_coeffs = st.lists(st.integers(-50, 50), max_size=8)


class TestIntPolynomial:
    def test_canonical_trim(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()
        assert IntPolynomial(()).is_zero()

    def test_eval(self):
        k3 = IntPolynomial((0, 2, -3, 1))
        assert k3(3) == 6  # proper 3-colorings of a triangle
        assert IntPolynomial.zero()(7) == 0
        assert IntPolynomial((0, -2, 1))(1) == -1

    def test_sub(self):
        t2 = IntPolynomial.term(1, 2)
        assert (t2 - t2).is_zero()

    def test_shift(self):
        assert IntPolynomial((1, 1)).shift(2) == IntPolynomial((0, 0, 1, 1))
        assert IntPolynomial.zero().shift(3).is_zero()

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((2, -3, 1), (-2, 1)),  # t^2-3t+2 -> t-2
            ((-1, 1), (1,)),  # t-1 -> 1
            ((0, 2, -3, 1), (0, -2, 1)),  # t^3-3t^2+2t -> t^2-2t
        ],
    )
    def test_divide_by_t_minus_1(self, coeffs, expected):
        # p(1) = 0 here, so the divided difference is the exact quotient
        quotient = divided_difference(IntPolynomial(coeffs))
        assert quotient == IntPolynomial(expected)
        assert quotient.coeffs == tuple(synthetic_divide_by_t_minus_1(coeffs))

    @given(poly_coeffs)
    def test_divide_multiply_round_trip(self, coeffs):
        # the divided difference is the exact quotient of p - p(1) by t - 1
        p = IntPolynomial(tuple(coeffs))
        quotient = divided_difference(p)
        divisible = (p - IntPolynomial.constant(p(1))).coeffs or (0,)
        assert quotient == IntPolynomial(tuple(synthetic_divide_by_t_minus_1(divisible)))
        for t in (-2, 0, 1, 3):
            assert quotient(t) * (t - 1) + p(1) == p(t)

    @given(poly_coeffs, poly_coeffs)
    def test_ring_ops_match_pointwise(self, a, b):
        p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        for t in (-2, 0, 1, 3):
            assert (p + q)(t) == p(t) + q(t)
            assert (p - q)(t) == p(t) - q(t)

    def test_str(self):
        assert str(IntPolynomial((0, 2, -3, 1))) == "t^3 - 3t^2 + 2t"
        assert str(IntPolynomial(())) == "0"
        assert str(IntPolynomial((-1, 1))) == "t - 1"
        assert str(IntPolynomial((5,))) == "5"
        assert str(IntPolynomial((0, -1))) == "-t"

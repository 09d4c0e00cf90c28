"""Coefficient sequences of characteristic polynomials and their bounds.

The central fact checked here: for a sequence a_0..a_r coming from a rank-r
polynomial on m hyperplanes/edges, every partial binomial sum
sum_i binom(q, k-i) a_i with 0 <= k <= q+r+1 is squeezed between
binom(r+q, k) and binom(m+q, k), with equality throughout exactly when
m = r. The binomials come as whole rows from `exactmath.binomial_row`.
`verify_bounds` sums one row S_q(k) directly, at the window's first
claimed shift, and walks it forward by Pascal's rule. Its grid is three
rows per shift, binom(r+q, .), S_q(.) and binom(m+q, .), which the checks
compare whole; the per-cell records are a view of those rows. The divided
difference p -> (p(t) - p(1)) / (t - 1), the quotient of synthetic
division by t - 1, realizes the q = -1 sums as coefficients, and iterating
it realizes any negative q, checked against the direct sum at q = -j.

The sums rest on the h-vector of a (see `h_vector`): S_q(k) = sum_j h_j
binom(r+q-j, k-j). The `coefficient-lower-bounds` check is h >= 0, and
`verify_bounds` checks the grid directly, without h.
"""

from __future__ import annotations

from itertools import accumulate
from operator import le
from typing import Iterator, NamedTuple

from .errors import GRID_CELL_BUDGET, CoeffSequenceError, ResourceLimitError, quoted
from .exactmath import IntPolynomial, binomial_row


class CoeffSequence(NamedTuple):
    """Validated sign-stripped coefficients (a_0..a_r), all positive."""

    n: int
    m: int
    r: int
    a: tuple[int, ...]


def coeff_sequence(p: IntPolynomial, m: int) -> CoeffSequence:
    """Extract and validate the alternating coefficient sequence of p.

    p must look like a characteristic polynomial: monic of degree n, signs
    strictly alternating down to t^(n-r), zero below. m is the hyperplane
    or edge count and must match a_1 (or be 0 when there are no
    hyperplanes at all).
    """
    if p.is_zero():
        raise CoeffSequenceError("zero polynomial has no coefficient sequence")
    n = p.degree
    lowest = next(i for i, c in enumerate(p.coeffs) if c != 0)
    r = n - lowest
    a = []
    for i in range(r + 1):
        value = (-1) ** i * p.coefficient(n - i)
        if value <= 0:
            raise CoeffSequenceError(
                f"coefficient of t^{n - i} breaks the strict sign alternation"
            )
        a.append(value)
    if a[0] != 1:
        raise CoeffSequenceError(f"leading coefficient must be 1, got {a[0]}")
    if r >= 1:
        if a[1] != m:
            raise CoeffSequenceError(f"a_1 = {a[1]} does not match the stated count m = {m}")
    elif m != 0:
        raise CoeffSequenceError(f"rank 0 forces m = 0, got m = {m}")
    return CoeffSequence(n=n, m=m, r=r, a=tuple(a))


class BoundsRecord(NamedTuple):
    q: int
    k: int
    lower: int
    value: int
    upper: int

    @property
    def ok(self) -> bool:
        return self.lower <= self.value <= self.upper

    @property
    def tight(self) -> bool:
        return self.lower == self.value == self.upper


class BoundsRow(NamedTuple):
    """The grid at one shift q: lower[k] = binom(r+q, k), value[k] = S_q(k), upper[k] = binom(m+q, k), k <= q+r+1."""

    q: int
    lower: list[int]
    value: list[int]
    upper: list[int]


class BoundsReport(NamedTuple):
    """Grid of partial-sum bound checks over a window of shifts q, one `BoundsRow` per shift.

    The checks compare whole rows; `records` is the same grid cell by
    cell, in (q, k) order, built each time it is read.
    """

    rows: tuple[BoundsRow, ...]

    def failures(self) -> Iterator[tuple[int, int]]:
        """(q, k) of every cell outside its bounds, in record order; a row within them is passed whole."""
        for q, lower, value, upper in self.rows:
            if not (all(map(le, lower, value)) and all(map(le, value, upper))):
                for k, (low, v, up) in enumerate(zip(lower, value, upper)):
                    if not low <= v <= up:
                        yield q, k

    @property
    def all_ok(self) -> bool:
        return next(self.failures(), None) is None

    @property
    def all_tight(self) -> bool:
        return all(lower == value == upper for _, lower, value, upper in self.rows)

    @property
    def records(self) -> tuple[BoundsRecord, ...]:
        return tuple(BoundsRecord(q, k, *cell) for q, *row in self.rows for k, cell in enumerate(zip(*row)))


def _partial_sums(s: CoeffSequence, q: int, top: int) -> list[int]:
    """S_q(k) = sum_i binom(q, k-i) a_i for k = 0..top, from one row of binom(q, .)."""
    choose = binomial_row(q, top)
    return [sum(choose[k - i] * s.a[i] for i in range(min(k, s.r) + 1)) for k in range(top + 1)]


def verify_bounds(s: CoeffSequence, q_min: int, q_max: int) -> BoundsReport:
    """The bound grid for every admissible (q, k) in the window, as one row per shift.

    Only pairs with 0 <= k <= q+r+1 are claimed, so only those are
    computed: q+r+2 cells per shift, from first = max(q_min, -r-1). A
    window of more than `GRID_CELL_BUDGET` cells raises
    `ResourceLimitError` before any row is built.

    The sums S_q(k) are one row over k, up to q_max's top k, summed once
    at the first shift and moved forward by Pascal's rule, S_{q+1}(k) =
    S_q(k) + S_q(k-1). The rows binom(r+q, k) and binom(m+q, k) are built
    directly once per q, so a cell costs O(1) additions. Each shift keeps
    its three rows, and no per-cell record is built unless
    `BoundsReport.records` is read.
    """
    if q_min > q_max:
        raise ValueError("empty q window")
    first = max(q_min, -s.r - 1)
    cells = max(q_max - first + 1, 0) * (first + q_max + 2 * s.r + 4) // 2  # sum of q+r+2 over the shifts
    if cells > GRID_CELL_BUDGET:
        raise ResourceLimitError(f"bound grid has {quoted(str(cells))} cells; the budget is {GRID_CELL_BUDGET}")
    top = q_max + s.r + 1
    sums = _partial_sums(s, first, top)
    rows = []
    for q in range(first, q_max + 1):
        if q > first:
            for k in range(top, 0, -1):
                sums[k] += sums[k - 1]
        last = q + s.r + 1
        rows.append(BoundsRow(q, binomial_row(s.r + q, last), sums[:last + 1], binomial_row(s.m + q, last)))
    return BoundsReport(tuple(rows))


def h_vector(s: CoeffSequence) -> tuple[int, ...]:
    """The h-vector of a_0..a_r: sum_i a_i x^i = sum_j h_j x^j (1+x)^(r-j).

    At x = y/(1-y) this is sum_j h_j y^j = sum_i a_i y^i (1-y)^(r-i), which
    Horner's rule builds in O(r^2) additions: from (a_0), multiply by (1-y)
    and add a_i y^i for each next a_i. Entry k equals the rank-weighted
    alternating sum (-1)^k sum_i (-1)^i binom(r-i, k-i) a_i.

    The a_2/a_3 floors follow from h >= 0: `coeff_sequence` fixes a_0 = 1
    and a_1 = m, so h_0 = 1, h_1 = m - r, and a_k = sum_j h_j binom(r-j, k-j)
    gives a_2 - (binom(r, 2) + (m-r)(r-1)) = h_2 and
    a_3 - (binom(r, 3) + (m-r) binom(r-1, 2)) = (r-2) h_2 + h_3.
    """
    h = [s.a[0]]
    for i in range(1, s.r + 1):
        h = [h[0], *(h[k] - h[k - 1] for k in range(1, i)), s.a[i] - h[-1]]
    return tuple(h)


def divided_difference(p: IntPolynomial) -> IntPolynomial:
    """(p(t) - p(1)) / (t - 1), exact for every integer polynomial.

    This is the quotient of p by t - 1 in synthetic division, whose
    remainder p(1) is dropped: the coefficient of t^k is c_(k+1) + ... +
    c_n, so it reads only the coefficients above t^0.
    """
    return IntPolynomial(tuple(accumulate(reversed(p.coeffs[1:])))[::-1])


def divided_difference_iter(p: IntPolynomial, j: int) -> IntPolynomial:
    """j-fold application of the divided difference (j = 0 is the identity)."""
    if j < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(j):
        p = divided_difference(p)
    return p


def divided_difference_formula(s: CoeffSequence, j: int) -> IntPolynomial:
    """Closed form for the j-th divided difference of the essential polynomial.

    The coefficient of t^(r-j-k) is (-1)^k S_{-j}(k): the j-fold divided
    difference is the bound grid's q = -j row read with alternating signs.
    The row is summed directly, so it is the independent route against
    which the iterated division is checked.
    """
    if j < 0 or j > s.r:
        raise ValueError("j must satisfy 0 <= j <= r")
    row = _partial_sums(s, -j, s.r - j)
    return IntPolynomial(tuple((-1) ** k * value for k, value in enumerate(row))[::-1])


def is_logconcave(s: CoeffSequence) -> bool:
    """a_i^2 >= a_{i-1} a_{i+1} for the interior indices (diagnostic only)."""
    return all(s.a[i] ** 2 >= s.a[i - 1] * s.a[i + 1] for i in range(1, s.r))

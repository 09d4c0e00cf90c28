"""Coefficient sequences of characteristic polynomials and their bounds.

The central fact checked here: for a sequence a_0..a_r coming from a rank-r
polynomial on m hyperplanes/edges, every partial binomial sum
sum_i binom(q, k-i) a_i with 0 <= k <= q+r+1 is squeezed between
binom(r+q, k) and binom(m+q, k), with equality throughout exactly when
m = r. The divided-difference operator p -> (p(t) - p(1)) / (t - 1)
realizes the q = -1 sums as coefficients, and iterating it realizes any
negative q.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CoeffSequenceError
from .exactmath import IntPolynomial, binom


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


class BoundsReport(NamedTuple):
    """Grid of partial-sum bound checks over a window of shifts q."""

    records: tuple[BoundsRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(rec.ok for rec in self.records)

    @property
    def all_tight(self) -> bool:
        return all(rec.tight for rec in self.records)


def verify_bounds(s: CoeffSequence, q_min: int, q_max: int) -> BoundsReport:
    """Check the two-sided bounds for every admissible (q, k) in the window.

    Only pairs with 0 <= k <= q+r+1 are claimed, so only those are
    iterated.

    The sums S_q(k) = sum_i binom(q, k-i) a_i are kept as one row over k
    and moved between shifts by Pascal's rule: S_0 is the sequence a
    itself, S_{q+1}(k) = S_q(k) + S_q(k-1) and S_{q-1}(k) = S_q(k) -
    S_{q-1}(k-1). The rows binom(r+q, k) and binom(m+q, k) are built once
    per q, so a record costs O(1) additions.
    """
    if q_min > q_max:
        raise ValueError("empty q window")

    # The rows are needed up to q_max's top k. No k is claimed below
    # q = -r-1, and far above q = 0 one direct sum costs less than walking
    # up to the window.
    width = max(q_max + s.r + 2, 1)
    first = max(q_min, -s.r - 1)
    if first > s.r + 1:
        choose = _binomial_row(first, width - 1)
        shift = first
        sums = [sum(choose[k - i] * s.a[i] for i in range(min(k, s.r) + 1)) for k in range(width)]
    else:
        shift = 0
        sums = [s.a[k] if k <= s.r else 0 for k in range(width)]
    records = []
    for q in range(first, q_max + 1):
        while shift > q:
            for k in range(1, width):
                sums[k] -= sums[k - 1]
            shift -= 1
        while shift < q:
            for k in range(width - 1, 0, -1):
                sums[k] += sums[k - 1]
            shift += 1
        top = q + s.r + 1
        lower, upper = (_binomial_row(x, top) for x in (s.r + q, s.m + q))
        for k in range(0, top + 1):
            records.append(BoundsRecord(q=q, k=k, lower=lower[k], value=sums[k], upper=upper[k]))
    return BoundsReport(tuple(records))


def _binomial_row(x: int, top: int) -> list[int]:
    """binom(x, k) for k = 0..top and any integer x, by binom(x, k+1) = binom(x, k) (x-k) / (k+1)."""
    row = [1]
    for k in range(top):
        row.append(row[-1] * (x - k) // (k + 1))
    return row


class LowerBoundReport(NamedTuple):
    """Nonnegativity of the rank-weighted alternating sums, plus a_2/a_3 floors."""

    alternating_sums: tuple[int, ...]  # indexed by k = 0..r, each must be >= 0
    a2_floor: int | None
    a3_floor: int | None
    seq: CoeffSequence

    @property
    def alternating_ok(self) -> bool:
        return all(v >= 0 for v in self.alternating_sums)

    @property
    def a2_ok(self) -> bool | None:
        return None if self.a2_floor is None else self.seq.a[2] >= self.a2_floor

    @property
    def a3_ok(self) -> bool | None:
        return None if self.a3_floor is None else self.seq.a[3] >= self.a3_floor

    @property
    def all_ok(self) -> bool:
        return self.alternating_ok and self.a2_ok is not False and self.a3_ok is not False


def check_coefficient_lower_bounds(s: CoeffSequence) -> LowerBoundReport:
    """Evaluate (-1)^k sum_i (-1)^i binom(r-i, k-i) a_i >= 0 for k <= r,
    and the closed-form floors for a_2 and a_3 they imply.

    The floors only exist for r >= 2 and r >= 3 respectively; smaller
    ranks are vacuous and reported as None.
    """
    r, m = s.r, s.m
    sums = tuple(
        (-1) ** k * sum((-1) ** i * binom(r - i, k - i) * s.a[i] for i in range(k + 1))
        for k in range(r + 1)
    )
    a2_floor = binom(r, 2) + (m - r) * (r - 1) if r >= 2 else None
    a3_floor = binom(r, 3) + (m - r) * binom(r - 1, 2) if r >= 3 else None
    return LowerBoundReport(alternating_sums=sums, a2_floor=a2_floor, a3_floor=a3_floor, seq=s)


def divided_difference(p: IntPolynomial) -> IntPolynomial:
    """(p(t) - p(1)) / (t - 1), exact for every integer polynomial."""
    return (p - IntPolynomial.constant(p(1))).divide_by_t_minus_1()


def divided_difference_iter(p: IntPolynomial, j: int) -> IntPolynomial:
    """j-fold application of the divided difference (j = 0 is the identity)."""
    if j < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(j):
        p = divided_difference(p)
    return p


def divided_difference_formula(s: CoeffSequence, j: int) -> IntPolynomial:
    """Closed form for the j-th divided difference of the essential polynomial.

    Coefficient of t^(r-j-k) is (-1)^k sum_i binom(-j, k-i) a_i; this is the
    independent route against which the iterated division is checked.
    """
    if j < 0 or j > s.r:
        raise ValueError("j must satisfy 0 <= j <= r")
    r = s.r
    coeffs = [0] * (r - j + 1)
    for k in range(r - j + 1):
        total = sum(binom(-j, k - i) * s.a[i] for i in range(min(k, r) + 1))
        coeffs[r - j - k] = (-1) ** k * total
    return IntPolynomial(tuple(coeffs))


def is_logconcave(s: CoeffSequence) -> bool:
    """a_i^2 >= a_{i-1} a_{i+1} for the interior indices (diagnostic only)."""
    return all(s.a[i] ** 2 >= s.a[i - 1] * s.a[i + 1] for i in range(1, s.r))

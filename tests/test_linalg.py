"""Fraction-free elimination against sympy's exact rank, on small integer systems."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds.linalg import echelon, reduce_row, residual

sympy = pytest.importorskip("sympy")


@st.composite
def augmented_systems(draw):
    """Up to 5 rows over 1-4 unknowns plus an offset column, entries in [-3, 3]."""
    cols = draw(st.integers(1, 4)) + 1
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=5)), draw(row)


def _rank(rows):
    return sympy.Matrix(rows).rank()


@settings(max_examples=300, deadline=None)
@given(augmented_systems())
def test_rank_consistency_and_span_match_sympy(system):
    rows, extra = system
    basis = echelon(rows)
    assert len(basis) == _rank(rows)
    # consistent exactly when no residual reads 0 = c with c != 0
    consistent = _rank([r[:-1] for r in rows]) == _rank(rows)
    assert consistent == all(any(b[:-1]) for _, b in basis)
    in_span = _rank(rows + [extra]) == _rank(rows)
    lead, res = residual(extra, basis)
    assert in_span == (not any(res)) == (lead == len(extra))
    # each row carries its pivot, its first nonzero column, at which every later row vanishes
    pivoted = basis if in_span else basis + [(lead, res)]
    for k, (pivot, b) in enumerate(pivoted):
        assert not any(b[:pivot]) and b[pivot]
        assert all(later[pivot] == 0 for _, later in pivoted[k + 1:])


def test_residuals_are_primitive_and_vanish_at_earlier_leads():
    basis = echelon([(2, 4, 6, 8), (1, 3, 5, 7), (3, 7, 11, 15), (0, 0, 4, 2)])
    assert basis == [(0, (1, 2, 3, 4)), (1, (0, 1, 2, 3)), (2, (0, 0, 2, 1))]
    assert residual((5, 0, 0, 1), basis) == (3, (0, 0, 0, 1))
    assert residual((2, 5, 8, 11), basis) == (4, (0, 0, 0, 0))


def test_a_full_basis_reads_no_further_rows():
    # two independent rows of width 2 span every row of that width
    def rows():
        yield (0, 2)
        yield (3, 1)
        raise AssertionError("a row after a spanning basis was read")

    assert echelon(rows()) == [(1, (0, 1)), (0, (1, 0))]


@st.composite
def pivot_steps(draw):
    """A row and a pivot row (lead, prow), prow nonzero at lead, over 1-4 unknowns plus an offset.

    The pivot may sit in the offset column and its entry may be negative. The row is
    arbitrary, a multiple of the pivot row (a zero residual), or such a multiple plus an
    offset (a residual with its pivot in the offset column).
    """
    cols = draw(st.integers(1, 4)) + 1
    entry = st.integers(-3, 3)
    lead = draw(st.integers(0, cols - 1))
    prow = [0] * lead + [draw(entry.filter(bool))] + draw(st.lists(entry, min_size=cols - lead - 1,
                                                                    max_size=cols - lead - 1))
    kind = draw(st.sampled_from(["any", "multiple", "offset"]))
    if kind == "any":
        return draw(st.lists(entry, min_size=cols, max_size=cols)), lead, tuple(prow)
    c = draw(entry.filter(bool))
    row = [c * x for x in prow]
    if kind == "offset":
        row[-1] += draw(entry.filter(bool))
    return row, lead, tuple(prow)


@settings(max_examples=300, deadline=None)
@given(pivot_steps())
def test_step_is_the_residual_against_one_pivot_row(step):
    row, lead, prow = step
    pivot, out = reduce_row(row, lead, prow)
    assert (pivot, out) == residual(row, ((lead, prow),))
    # the combination prow[lead] row - row[lead] prow, made primitive with a positive pivot
    combined = [prow[lead] * x - row[lead] * y for x, y in zip(row, prow)]
    assert not out[lead] and all(x * b == y * a for x, y in zip(out, combined) for a, b in zip(out, combined))
    if any(combined):
        assert not any(out[:pivot]) and out[pivot] > 0 and gcd(*out) == 1
    else:
        assert pivot == len(row) and not any(out)

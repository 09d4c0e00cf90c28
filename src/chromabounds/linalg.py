"""Exact integer (fraction-free) elimination used by the arrangement machinery.

Rows are integer tuples. A basis row travels with its pivot, the column of
its first nonzero entry, as a pair (pivot, row), so no caller scans a row
for its leading column. Every row the elimination returns is primitive
with a positive pivot entry, so two rows whose residuals are parallel get
equal residuals.

There is one elimination primitive, `reduce_row`: one step that clears a
row's entry at the pivot column of one pivot row. `residual`, the row
against a whole basis, is its fold over the basis rows. An echelon basis
is built in insertion order: each row is the residual of an input row
against the rows before it, so it vanishes at their pivots. The residual
and its pivot answer every question the callers ask:

- span membership: the residual is zero, and its pivot is len(row);
- rank: the number of nonzero residuals met while building the basis;
- consistency of an augmented system (offset in the last column): no
  residual has its pivot in the offset column, i.e. reads 0 = c with c != 0.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Row = tuple[int, ...]
Pivoted = tuple[int, Row]


def _primitive(out: Sequence[int]) -> Pivoted:
    """(pivot, out made primitive with a positive pivot entry); a zero row has pivot len(out)."""
    g = gcd(*out)
    if not g:  # a zero row: no pivot to find
        return len(out), tuple(out)
    lead = 0
    while not out[lead]:
        lead += 1
    if out[lead] < 0:
        g = -g
    if g == 1:
        return lead, tuple(out)
    divided = []  # an inline loop: on short rows a comprehension's own call costs more than its loop
    for x in out:
        divided.append(x // g)
    return lead, tuple(divided)


def reduce_row(row: Sequence[int], lead: int, prow: Sequence[int]) -> Pivoted:
    """(pivot, primitive residual) of `row` after one elimination step against the pivot row `prow`.

    `prow` must be nonzero at column `lead`. The step is the combination
    prow[lead] * row - row[lead] * prow, which vanishes at `lead` and
    wherever both rows vanish; a row that already vanishes at `lead` comes
    back only made primitive, which the poset and the subset walk skip.
    """
    f = row[lead]
    p = prow[lead]
    out = []
    for x, y in zip(row, prow):
        out.append(p * x - f * y)
    return _primitive(out)


def residual(row: Sequence[int], basis: Iterable[Pivoted]) -> Pivoted:
    """(pivot, primitive residual) of `row` after eliminating each basis row's pivot column.

    The fold of `reduce_row` over the basis: one step for each basis row
    at whose pivot the running residual is nonzero. A row that no step
    touches is only made primitive. Each basis row must vanish at the
    pivots of the rows before it; the residual then vanishes at all of
    them, and is zero, with pivot len(row), exactly when the row lies in
    the span of the basis. A nonzero residual is a multiple of the one
    vector in row + span(basis) that vanishes at every basis pivot; made
    primitive with a positive pivot entry, it is the same for any two rows
    whose residuals are parallel.
    """
    out = None
    for lead, b in basis:
        if row[lead]:
            out = reduce_row(row, lead, b)
            row = out[1]
    return out or _primitive(row)


def echelon(rows: Iterable[Sequence[int]]) -> list[Pivoted]:
    """Echelon basis of the row span, one (pivot, primitive nonzero residual) per independent row.

    A basis with as many rows as columns spans every row of that width, so
    the rows after it are not read.
    """
    basis: list[Pivoted] = []
    for row in rows:
        lead, r = residual(row, basis)
        if lead < len(r):
            basis.append((lead, r))
            if len(basis) == len(r):
                break
    return basis

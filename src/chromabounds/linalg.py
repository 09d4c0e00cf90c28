"""Exact integer (fraction-free) elimination used by the arrangement machinery.

Rows are integer tuples. A basis row travels with its pivot, the column of
its first nonzero entry, as a pair (pivot, row), so no caller scans a row
for its leading column. An echelon basis is built in insertion order: each
row is the residual of an input row against the rows before it, so it
vanishes at their pivots. Every residual is primitive and its pivot entry
is positive, so two rows whose residuals are parallel get equal residuals.
One primitive, the residual of a row against such a basis together with
the residual's own pivot, answers every question the callers ask:

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


def residual(row: Sequence[int], basis: Iterable[Pivoted]) -> Pivoted:
    """(pivot, primitive residual) of `row` after eliminating each basis row's pivot column.

    Each basis row must vanish at the pivots of the rows before it; the
    residual then vanishes at all of them, and is zero, with pivot
    len(row), exactly when the row lies in the span of the basis. A nonzero
    residual is a multiple of the one vector in row + span(basis) that
    vanishes at every basis pivot; made primitive with a positive pivot
    entry, it is the same for any two rows whose residuals are parallel.
    """
    out = row
    for lead, b in basis:
        f = out[lead]
        if f:
            p = b[lead]
            out = [p * x - f * y for x, y in zip(out, b)]
    g = gcd(*out)
    if not g:  # a zero residual: no pivot to find
        return len(out), tuple(out)
    lead = 0
    while not out[lead]:
        lead += 1
    if out[lead] < 0:
        g = -g
    return lead, tuple([x // g for x in out]) if g != 1 else tuple(out)


def echelon(rows: Iterable[Sequence[int]]) -> list[Pivoted]:
    """Echelon basis of the row span, one (pivot, primitive nonzero residual) per independent row."""
    basis: list[Pivoted] = []
    for row in rows:
        lead, r = residual(row, basis)
        if lead < len(r):
            basis.append((lead, r))
    return basis

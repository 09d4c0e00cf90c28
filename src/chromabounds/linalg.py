"""Exact integer (fraction-free) elimination used by the arrangement machinery.

Rows are integer tuples. An echelon basis is built in insertion order: each
row is the residual of an input row against the rows before it, so it
vanishes at their leading columns. One primitive, the residual of a row
against such a basis, answers every question the callers ask:

- span membership: the residual is zero;
- rank: the number of nonzero residuals met while building the basis;
- consistency of an augmented system (offset in the last column): no
  residual leads in the offset column, i.e. reads 0 = c with c != 0.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Row = tuple[int, ...]


def residual(row: Sequence[int], basis: Iterable[Row]) -> Row:
    """Primitive residual of `row` after eliminating the leading column of each basis row.

    Each basis row must vanish at the leading columns of the rows before it;
    the residual then vanishes at all of them, and is zero exactly when the
    row lies in the span of the basis.
    """
    out = row
    for b in basis:
        for lead, p in enumerate(b):
            if p:
                break
        f = out[lead]
        if f:
            out = [p * x - f * y for x, y in zip(out, b)]
    g = gcd(*out)
    return tuple([x // g for x in out]) if g > 1 else tuple(out)


def echelon(rows: Iterable[Sequence[int]]) -> list[Row]:
    """Echelon basis of the row span, one primitive nonzero residual per independent row."""
    basis: list[Row] = []
    for row in rows:
        r = residual(row, basis)
        if any(r):
            basis.append(r)
    return basis

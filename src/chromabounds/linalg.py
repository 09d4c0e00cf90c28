"""Exact rational row reduction used by the arrangement machinery.

A single reduced-row-echelon routine over Fraction serves every caller:
rank of normal matrices, consistency of affine systems, and the canonical
flat representation (RREF of a consistent system is unique, so flats with
equal RREF rows are equal as point sets).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = tuple[Fraction, ...]


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, len(mat)):
            if mat[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[pr], mat[pivot_row] = mat[pivot_row], mat[pr]
        inv = 1 / mat[pr][pc]
        mat[pr] = [x * inv for x in mat[pr]]
        for r in range(len(mat)):
            if r == pr:
                continue
            f = mat[r][pc]
            if f == 0:
                continue
            prow = mat[pr]
            mat[r] = [x - f * y for x, y in zip(mat[r], prow)]
        pivots.append(pc)
        pr += 1
        if pr == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pr]), tuple(pivots)


def reduce_row(row: Sequence[Fraction | int], rref_rows: Sequence[Row], pivots: Sequence[int]) -> Row:
    """Residual of a row after elimination against RREF rows.

    A zero residual means the row lies in the span of the given rows.
    """
    out = [Fraction(x) for x in row]
    for rrow, pc in zip(rref_rows, pivots):
        f = out[pc]
        if f != 0:
            out = [x - f * y for x, y in zip(out, rrow)]
    return tuple(out)

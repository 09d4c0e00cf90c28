"""No-broken-circuit subset counting.

The count runs on the arrangements module's depth-first subset walk, which
grows each subset by larger indices, classifies each child from the
residual table its parent carries and never descends from an empty
intersection. It is the one place that decides dependence; graphs
participate via their graphic arrangements.

The count enumerates no circuit: a subset holds a broken circuit
exactly when a later hyperplane contains its flat, which the walk reads
off the same tables (see `nbc_counts`). A ground order is a permutation of
the hyperplane indices listed from smallest to largest.
"""

from __future__ import annotations

from typing import Sequence

from .arrangements import Arrangement, _check_guard, _subset_walk
from .errors import DEFAULT_SUBSET_GUARD, InputError


def nbc_counts(
    arr: Arrangement,
    order: Sequence[int] | None = None,
    guard: int = DEFAULT_SUBSET_GUARD,
) -> tuple[int, ...]:
    """Entry k, for k = 0..m: the k-subsets with nonempty intersection and no broken circuit.

    Matches the absolute coefficient of t^(n-k) in the characteristic
    polynomial for 0 <= k <= rank, and is 0 above the rank. The hyperplanes
    are first permuted into `order`, so the rule below is stated in index
    order.

    Rule: an independent subset S with a common point holds a broken
    circuit exactly when some c not in S has its row (normal | offset) in
    the span of the rows of {s in S : s < c}. If it does, that set plus c
    is central and dependent, so it holds a circuit C through c, whose
    largest index is c, and C - c lies in S. Conversely, if C - c lies in
    S for a circuit C with largest index c, then c is not in S (S is
    independent) and its row is in the span of C - c, all below c.

    Such subsets are closed under taking subsets, so a walk that grows
    each subset by larger indices reaches every one of them once, and it
    may prune at the first subset that holds a broken circuit: every
    superset holds it too, or holds the whole circuit and is dependent.
    The walk carries, for each subset S without a broken circuit, the
    residuals of the later rows against S's basis, primitive with a
    positive pivot. None of them is zero, or S would hold a broken circuit.
    A child S + i holds one through some c < i exactly when S does, since
    the rows below c are the same. Through some c > i, it holds one
    exactly when c's row is in the span of S + i but not of S, that is,
    when c's residual is a nonzero multiple of i's, and so equal to it. So
    the child is refused exactly when a later entry of S's table equals
    its own, and the walk's `nbc` rule is all the count needs; the walk
    also drops the subsets with no common point.
    """
    if order is not None:
        order = tuple(order)
        if sorted(order) != list(range(arr.m)):
            raise InputError(f"order {order} is not a permutation of 0..{arr.m - 1}")
        arr = Arrangement(arr.dim, tuple([arr.hyperplanes[j] for j in order]))
    _check_guard(arr, guard)
    counts = [0] * (arr.m + 1)
    counts[0] = 1  # empty subset
    for size, r in _subset_walk(arr, nbc=True):
        if r is not None:
            counts[size] += 1
    return tuple(counts)

"""Circuits, broken circuits, and no-broken-circuit subset counting.

The circuit sweep runs on the arrangements module's depth-first subset
walk, which grows each subset by larger indices, classifies each child
from the residual table its parent carries and never descends from an
empty intersection. It is the one place that decides dependence; graphs
participate via their graphic arrangements.

The NBC sweep grows subsets by larger indices too, under one
broken-circuit rule: each admitted subset carries its forbidden set, the
indices that would complete a broken circuit in it. A child S + i is
admitted when i is not forbidden in S, and adding i forbids the largest
index, the top, of every broken circuit whose other members end at i and
all lie in S + i. So a child is judged by one bit test. The sweep needs no
elimination on a central arrangement: a subset with no broken circuit
contains no circuit, so it is independent, and it has a common point
because every subset does. On other arrangements the rule is the walk's
`admit`, and the walk drops the subsets with no common point. A ground
order is a permutation of the hyperplane indices listed from smallest to
largest.
"""

from __future__ import annotations

from typing import Sequence

from .arrangements import Arrangement, _check_guard, _subset_walk, is_central
from .errors import DEFAULT_SUBSET_GUARD, InputError

GroundOrder = tuple[int, ...]


def _validate_order(order: Sequence[int], m: int) -> GroundOrder:
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise InputError(f"order {order} is not a permutation of 0..{m - 1}")
    return order


def circuits(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> tuple[frozenset[int], ...]:
    """All minimal dependent subsets, ordered by size, then lexicographically.

    The walk descends from independent central subsets only. A child S + i
    that is dependent contains a circuit through i, its largest index, and
    every circuit arises so, from its own set minus its largest index.
    Dropping any j != i from such a child leaves (S - j) + i, another child
    of an independent central subset; the child is a circuit exactly when
    none of those is dependent.
    """
    _check_guard(arr, guard)
    dependent = {mask for mask, size, r in _subset_walk(arr) if r is not None and r < size}
    found = []
    for mask in dependent:
        subset = [i for i in range(mask.bit_length()) if mask >> i & 1]
        if all(mask ^ 1 << i not in dependent for i in subset):
            found.append((len(subset), subset))
    return tuple(frozenset(subset) for _, subset in sorted(found))


def broken_circuits(
    arr: Arrangement,
    order: Sequence[int] | None = None,
    guard: int = DEFAULT_SUBSET_GUARD,
    found: Sequence[frozenset[int]] | None = None,
) -> tuple[frozenset[int], ...]:
    """Each circuit minus its order-maximal element, deduplicated.

    Circuits do not depend on the order, so a caller that needs several
    orders computes `circuits(arr)` once and passes it as `found`.
    """
    order = range(arr.m) if order is None else _validate_order(order, arr.m)
    position = {idx: pos for pos, idx in enumerate(order)}
    out: dict[frozenset[int], None] = {}
    for circuit in circuits(arr, guard=guard) if found is None else found:
        top = max(circuit, key=position.__getitem__)
        out[circuit - {top}] = None
    return tuple(out)


def nbc_counts(
    arr: Arrangement,
    order: Sequence[int] | None = None,
    guard: int = DEFAULT_SUBSET_GUARD,
    found: Sequence[frozenset[int]] | None = None,
) -> tuple[int, ...]:
    """Entry k, for k = 0..m: the k-subsets with nonempty intersection and no broken circuit.

    Matches the absolute coefficient of t^(n-k) in the characteristic
    polynomial for 0 <= k <= rank, and is 0 above the rank. Such subsets
    are closed under taking subsets, so a depth-first sweep that grows each
    subset by larger indices reaches every one of them once. A subset that
    passed grows by index i into one holding a broken circuit only when
    that broken circuit's largest index is i, and all its other members
    are already in the subset. So each admitted subset carries the set of
    indices forbidden to it: its parent's, plus the largest index of each
    broken circuit whose other members end at the index just added and are
    all present. A child is admitted when its index is not forbidden. A
    subset with no broken circuit contains no circuit, so it is
    independent; on a central arrangement it therefore has a common point,
    and the sweep needs no elimination. Otherwise the rule is the subset
    walk's `admit`, and the walk also drops the subsets with no common
    point. `found` is as for `broken_circuits`.
    """
    m = arr.m
    # completes[i]: (members below the top, top) for each broken circuit whose members below
    # its largest index, the top, end at i. A circuit has at least three hyperplanes (two
    # distinct ones are independent or miss each other), so no broken circuit is its top alone.
    completes: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for b in broken_circuits(arr, order=order, guard=guard, found=found):
        *rest, top = sorted(b)
        completes[rest[-1]].append((sum(1 << j for j in rest), 1 << top))
    # Admitted subsets not yet expanded, each with its forbidden set: the indices that would
    # complete a broken circuit in it. Both sweeps are depth-first and ask about one subset's
    # children in a row, so the subset asked about is the latest entry left once the entries of
    # finished branches above it are dropped.
    pending = [(0, 0)]
    expanding, forbidden = -1, 0

    def admit(grown: int, i: int) -> bool:
        nonlocal expanding, forbidden
        parent = grown ^ 1 << i
        if parent != expanding:
            while pending[-1][0] != parent:
                pending.pop()
            expanding, forbidden = pending.pop()
        if forbidden >> i & 1:
            return False
        child = forbidden
        for rest, top in completes[i]:
            if rest & grown == rest:
                child |= top
        pending.append((grown, child))
        return True

    counts = [0] * (m + 1)
    counts[0] = 1  # empty subset
    if not is_central(arr):
        for _, size, r in _subset_walk(arr, admit=admit):
            if r is not None:
                counts[size] += 1
        return tuple(counts)
    stack = [(0, 0, 0)]  # mask, next index, size
    while stack:
        mask, start, size = stack.pop()
        for i in range(start, m):
            grown = mask | 1 << i
            if admit(grown, i):
                counts[size + 1] += 1
                stack.append((grown, i + 1, size + 1))
    return tuple(counts)

"""Circuits, broken circuits, and no-broken-circuit subset counting.

Dependence is decided through the arrangements module's exact linear
algebra; graphs participate via their graphic arrangements, so there is a
single dependence implementation. A ground order is a permutation of the
hyperplane indices listed from smallest to largest.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .arrangements import DEFAULT_SUBSET_GUARD, Arrangement, _check_guard, _rank, is_central
from .errors import InputError

GroundOrder = tuple[int, ...]


def default_order(m: int) -> GroundOrder:
    return tuple(range(m))


def _validate_order(order: Sequence[int], m: int) -> GroundOrder:
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise InputError(f"order {order} is not a permutation of 0..{m - 1}")
    return order


def is_dependent(arr: Arrangement, subset: Sequence[int]) -> bool:
    """Central but not boolean: nonempty intersection of rank below |subset|."""
    indices = sorted(set(subset))
    r = _rank(arr, indices)
    return r is not None and r < len(indices)


def circuits(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> tuple[frozenset[int], ...]:
    """All minimal dependent subsets, by size-ascending sweep with pruning."""
    _check_guard(arr, guard)
    found: list[frozenset[int]] = []
    found_masks: list[int] = []
    for size in range(1, arr.m + 1):
        for subset in combinations(range(arr.m), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            if any(cm & mask == cm for cm in found_masks):
                continue
            if is_dependent(arr, subset):
                found.append(frozenset(subset))
                found_masks.append(mask)
    return tuple(found)


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
    order = default_order(arr.m) if order is None else _validate_order(order, arr.m)
    position = {idx: pos for pos, idx in enumerate(order)}
    out: list[frozenset[int]] = []
    for circuit in circuits(arr, guard=guard) if found is None else found:
        top = max(circuit, key=position.__getitem__)
        broken = circuit - {top}
        if broken not in out:
            out.append(broken)
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
    are closed under taking subsets, so one depth-first sweep that grows
    each by larger indices only reaches every one of them once. `found`
    is as for `broken_circuits`.
    """
    broken = broken_circuits(arr, order=order, guard=guard, found=found)
    broken_masks = [sum(1 << i for i in b) for b in broken]
    # A central whole arrangement makes every subset central.
    all_central = is_central(arr)
    counts = [0] * (arr.m + 1)
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        subset, mask = stack.pop()
        counts[len(subset)] += 1
        for i in range(subset[-1] + 1 if subset else 0, arr.m):
            grown, grown_mask = subset + (i,), mask | 1 << i
            if any(bm & grown_mask == bm for bm in broken_masks):
                continue
            if all_central or _rank(arr, grown) is not None:
                stack.append((grown, grown_mask))
    return tuple(counts)

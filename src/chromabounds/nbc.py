"""Circuits, broken circuits, and no-broken-circuit subset counting.

Dependence is decided through the arrangements module's exact linear
algebra; graphs participate via their graphic arrangements, so there is a
single dependence implementation. A ground order is a permutation of the
hyperplane indices listed from smallest to largest.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .arrangements import DEFAULT_SUBSET_GUARD, Arrangement, _check_guard, flat_of, is_central
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
    flat = flat_of(arr, indices)
    return flat is not None and arr.dim - flat.dim < len(indices)


def circuits(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> tuple[frozenset[int], ...]:
    """All minimal dependent subsets, by size-ascending sweep with pruning."""
    _check_guard(arr, guard)
    return _circuits_cached(arr)


@lru_cache(maxsize=4096)
def _circuits_cached(arr: Arrangement) -> tuple[frozenset[int], ...]:
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
) -> tuple[frozenset[int], ...]:
    """Each circuit minus its order-maximal element, deduplicated."""
    order = default_order(arr.m) if order is None else _validate_order(order, arr.m)
    position = {idx: pos for pos, idx in enumerate(order)}
    out: list[frozenset[int]] = []
    for circuit in circuits(arr, guard=guard):
        top = max(circuit, key=position.__getitem__)
        broken = circuit - {top}
        if broken not in out:
            out.append(broken)
    return tuple(out)


def nbc_coefficient(
    arr: Arrangement,
    order: Sequence[int] | None = None,
    k: int = 0,
    guard: int = DEFAULT_SUBSET_GUARD,
) -> int:
    """Number of k-subsets with nonempty intersection and no broken circuit.

    Matches the absolute coefficient of t^(n-k) in the characteristic
    polynomial for 0 <= k <= rank, and is 0 above the rank.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    if k > arr.m:
        return 0
    broken = broken_circuits(arr, order=order, guard=guard)
    broken_masks = sorted(
        (sum(1 << i for i in b) for b in broken), key=int.bit_count
    )
    # A central whole arrangement makes every subset central.
    all_central = is_central(arr)
    count = 0
    for subset in combinations(range(arr.m), k):
        mask = 0
        for i in subset:
            mask |= 1 << i
        if any(bm & mask == bm for bm in broken_masks):
            continue
        if all_central or flat_of(arr, subset) is not None:
            count += 1
    return count

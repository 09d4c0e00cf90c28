import random
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import arrangements, checks, linalg
from chromabounds import (
    Arrangement,
    Hyperplane,
    char_poly,
    chromatic_poly,
    coeff_sequence,
    complete,
    graphic_arrangement,
    is_central,
    nbc_counts,
    path,
    rank,
)
from chromabounds.corpus import coordinate_arrangement, random_order
from strategies import binom, dense_graphs, linear_arrangements, reference_flat_of, walk_arrangements

K3_ARR = graphic_arrangement(complete(3))
K4_ARR = graphic_arrangement(complete(4))

PARALLEL_LINES = Arrangement(
    2, (Hyperplane.make((1, 0), 0), Hyperplane.make((1, 0), 1))
)

GENERIC_LINES = Arrangement(
    2,
    (
        Hyperplane.make((1, 0), 0),
        Hyperplane.make((0, 1), 0),
        Hyperplane.make((1, 1), 1),
    ),
)


def reference_is_dependent(arr, subset):
    """Central but not boolean: nonempty intersection of rank below |subset|."""
    flat = reference_flat_of(arr, subset)
    return flat is not None and arr.dim - flat.dim < len(set(subset))


def brute_force_circuits(arr):
    """Every minimal dependent subset, each decided on its own, by size, then lexicographically."""
    dependent = [
        frozenset(s)
        for size in range(1, arr.m + 1)
        for s in combinations(range(arr.m), size)
        if reference_is_dependent(arr, s)
    ]
    return tuple(
        d for d in dependent if not any(other < d for other in dependent)
    )


def broken_circuits(arr, order=None):
    """Each circuit, from `brute_force_circuits`, minus its order-maximal element, deduplicated."""
    order = range(arr.m) if order is None else order
    position = {idx: pos for pos, idx in enumerate(order)}
    out = {}
    for circuit in brute_force_circuits(arr):
        top = max(circuit, key=position.__getitem__)
        out[circuit - {top}] = None
    return tuple(out)


def reference_nbc_counts(arr, order):
    """The route that the pruned walk replaced: circuits, then broken circuits, then a sweep.

    Each grown subset is checked against every broken circuit, and its
    intersection is computed afresh unless the whole arrangement is central.
    """
    broken = broken_circuits(arr, order)
    broken_masks = [sum(1 << i for i in b) for b in broken]
    all_central = is_central(arr)
    counts = [0] * (arr.m + 1)
    stack = [((), 0)]
    while stack:
        subset, mask = stack.pop()
        counts[len(subset)] += 1
        for i in range(subset[-1] + 1 if subset else 0, arr.m):
            grown, grown_mask = subset + (i,), mask | 1 << i
            if any(bm & grown_mask == bm for bm in broken_masks):
                continue
            if all_central or reference_flat_of(arr, grown) is not None:
                stack.append((grown, grown_mask))
    return tuple(counts)


class TestDependence:
    def test_k3_full_set(self):
        assert reference_is_dependent(K3_ARR, (0, 1, 2))

    def test_boolean_subsets_independent(self):
        arr = coordinate_arrangement(4)
        for size in range(1, 5):
            for s in combinations(range(4), size):
                assert not reference_is_dependent(arr, s)

    def test_parallel_pair_not_dependent(self):
        assert not reference_is_dependent(PARALLEL_LINES, (0, 1))


class TestCircuits:
    """The reference circuits, from which `broken_circuits` and the reference NBC route start."""

    def test_k3(self):
        assert brute_force_circuits(K3_ARR) == (frozenset({0, 1, 2}),)

    def test_forest_has_none(self):
        assert brute_force_circuits(graphic_arrangement(path(5))) == ()

    def test_generic_lines_have_none(self):
        assert brute_force_circuits(GENERIC_LINES) == ()

    def test_k4_has_seven_matching_brute_force(self):
        # a graphic arrangement's circuits are the edge sets of the graph's cycles
        edges = sorted(complete(4).edges)
        cycles = {frozenset(edges.index(tuple(sorted((c[i - 1], c[i])))) for i in range(size))
                  for size in (3, 4) for c in permutations(range(4), size)}
        found = brute_force_circuits(K4_ARR)
        assert len(found) == 7 and set(found) == cycles


class TestBrokenCircuits:
    def test_k3_natural_order(self):
        assert broken_circuits(K3_ARR, (0, 1, 2)) == (frozenset({0, 1}),)

    def test_k3_reversed_order(self):
        assert broken_circuits(K3_ARR, (2, 1, 0)) == (frozenset({1, 2}),)

    def test_no_circuits(self):
        assert broken_circuits(GENERIC_LINES) == ()

    def test_nbc_check_calls_no_circuits(self, monkeypatch):
        # each order costs one pruned walk, and no order needs the circuits
        walks = []
        walk = arrangements._subset_walk

        def counting_walk(arr, *args, **kwargs):
            walks.append(kwargs)
            return walk(arr, *args, **kwargs)

        monkeypatch.setattr(arrangements, "_subset_walk", counting_walk)
        rng = random.Random(2)
        case = checks.Case("K4", complete(4), 0, 1, orders=lambda m: [None] + [random_order(rng, m) for _ in range(2)])
        nbc_check = [c for c in checks.GRAPH_CHECKS if c.name == "nbc-coefficient"]
        results = list(checks.run_checks(nbc_check, case))
        assert len(results) == 3 * 4 and all(ok for _, ok, _ in results)
        assert walks == [{"nbc": True}] * 3


class TestNbcCoefficient:
    def test_k3_counts(self):
        assert nbc_counts(K3_ARR, (0, 1, 2))[2] == 2

    def test_one_entry_per_k_up_to_m(self):
        for arr in (K3_ARR, PARALLEL_LINES, Arrangement(2), coordinate_arrangement(4)):
            assert len(nbc_counts(arr)) == arr.m + 1

    def test_k_zero_is_one(self):
        for arr in (K3_ARR, PARALLEL_LINES, Arrangement(2)):
            assert nbc_counts(arr, None)[0] == 1

    def test_boolean_gives_binomials(self):
        arr = coordinate_arrangement(4)
        for k in range(5):
            assert nbc_counts(arr, None)[k] == binom(4, k)

    def test_above_rank_is_zero(self):
        assert nbc_counts(K3_ARR, None)[3] == 0

    def test_matches_coefficients_under_random_orders(self, arrangement_sequences):
        rng = random.Random(99)
        for _, arr, _, s in arrangement_sequences[:15]:
            for order in (random_order(rng, arr.m) for _ in range(3)):
                counts = nbc_counts(arr, order)
                for k in range(arr.m + 1):
                    expected = s.a[k] if k <= s.r else 0
                    assert counts[k] == expected

    def test_matches_chromatic_coefficients(self):
        for g in (complete(4), path(4), complete(3)):
            arr = graphic_arrangement(g)
            s = coeff_sequence(chromatic_poly(g), g.m)
            for k in range(s.r + 1):
                assert nbc_counts(arr, None)[k] == s.a[k]

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.one_of(walk_arrangements, linear_arrangements(), dense_graphs().map(graphic_arrangement)))
    def test_matches_per_subset_sweep(self, data, arr):
        order = data.draw(st.permutations(range(arr.m)))
        assert nbc_counts(arr, order) == reference_nbc_counts(arr, order)

    def test_pinned_elimination_counts(self, monkeypatch):
        boolean = coordinate_arrangement(8)  # built before counting
        calls = 0
        reduce_row = linalg.reduce_row

        def counting(*args):
            nonlocal calls
            calls += 1
            return reduce_row(*args)

        # every elimination is one step, in `arrangements` and inside `linalg.residual` alike
        monkeypatch.setattr(arrangements, "reduce_row", counting)
        monkeypatch.setattr(linalg, "reduce_row", counting)
        # the root table holds the rows as they are; every later row vanishes at a coordinate
        # hyperplane's pivot, so no subset derives a table by elimination
        assert nbc_counts(boolean) == tuple(binom(8, k) for k in range(9))
        assert calls == 0
        # one elimination per later row nonzero at each new pivot
        calls = 0
        assert nbc_counts(K4_ARR) == (1, 6, 11, 6, 0, 0, 0)
        assert calls == 7

    def test_every_ground_order_of_k4(self):
        # the broken circuits change with the ground order
        orders = list(permutations(range(K4_ARR.m)))
        assert len(orders) == 720
        for order in orders:
            assert nbc_counts(K4_ARR, order) == reference_nbc_counts(K4_ARR, order)

    def test_matches_subset_sweep(self):
        # the depth-first sweep against a direct sweep over all 2^m subsets
        rng = random.Random(5)
        for arr in (K3_ARR, K4_ARR, GENERIC_LINES, PARALLEL_LINES):
            order = random_order(rng, arr.m)
            expected = [0] * (arr.m + 1)
            for s in chi_independent_subsets(arr, order):
                expected[len(s)] += 1
            assert nbc_counts(arr, order) == tuple(expected)


def chi_independent_subsets(arr, order):
    broken = broken_circuits(arr, order)
    out = set()
    for size in range(arr.m + 1):
        for s in combinations(range(arr.m), size):
            fs = frozenset(s)
            if any(b <= fs for b in broken):
                continue
            if reference_flat_of(arr, s) is not None:
                out.add(fs)
    return out


class TestStructure:
    def test_subsets_of_independent_stay_independent(self):
        for arr in (K3_ARR, K4_ARR, GENERIC_LINES, PARALLEL_LINES):
            independent = chi_independent_subsets(arr, tuple(range(arr.m)))
            for s in independent:
                for size in range(len(s)):
                    for sub in combinations(s, size):
                        assert frozenset(sub) in independent

    def test_counts_at_least_rank_binomials(self, arrangement_sequences):
        for _, arr, _, s in arrangement_sequences[:15]:
            r = rank(arr)
            counts = nbc_counts(arr, None)
            for k in range(r + 1):
                assert counts[k] >= binom(r, k)

    def test_counts_equal_char_poly_of_subarrangement_free_instances(self):
        # order choice never changes the counts
        rng = random.Random(3)
        p = char_poly(K4_ARR)
        s = coeff_sequence(p, K4_ARR.m)
        for _ in range(3):
            order = random_order(rng, K4_ARR.m)
            counts = nbc_counts(K4_ARR, order)
            for k in range(s.r + 1):
                assert counts[k] == s.a[k]

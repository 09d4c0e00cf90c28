import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import (
    Arrangement,
    Hyperplane,
    InputError,
    IntPolynomial,
    ResourceLimitError,
    SimpleGraph,
    boolean_char_poly,
    char_poly,
    char_poly_whitney,
    chromatic_poly,
    complete,
    decone,
    delete,
    divided_difference,
    essentialize,
    general_position_char_poly,
    graphic_arrangement,
    intersection_poset,
    is_boolean,
    is_central,
    is_general_position,
    nbc_counts,
    path,
    rank,
    restrict,
)
from chromabounds import arrangements, linalg
from chromabounds.arrangements import Flat, IntersectionPoset, _subset_walk
from chromabounds.corpus import coordinate_arrangement, named_graphs, random_hyperplane
from chromabounds.linalg import echelon, reduce_row, residual
from strategies import (
    concurrent_arrangements,
    dense_graphs,
    linear_arrangements,
    random_affine_with_parallels,
    reference_flat_of,
    reference_linear_product,
    walk_arrangements,
)

K3_ARR = graphic_arrangement(complete(3))

GENERIC_LINES = Arrangement(
    2,
    (
        Hyperplane.make((1, 0), 0),
        Hyperplane.make((0, 1), 0),
        Hyperplane.make((1, 1), 1),
    ),
)

PARALLEL_LINES = Arrangement(
    2, (Hyperplane.make((1, 0), 0), Hyperplane.make((1, 0), 1))
)


class TestHyperplane:
    def test_canonicalization_scales_to_primitive(self):
        h = Hyperplane.make((2, -4), 6)
        assert h.normal == (1, -2)
        assert h.offset == 3

    def test_sign_normalization(self):
        h = Hyperplane.make((-1, 2), 1)
        assert h.normal == (1, -2)
        assert h.offset == -1

    def test_fraction_normals(self):
        h = Hyperplane.make((Fraction(1, 2), Fraction(1, 3)), 1)
        assert h.normal == (3, 2)
        assert h.offset == 6

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            Hyperplane.make((0, 0), 1)

    def test_scaled_duplicates_collapse(self):
        arr = Arrangement(
            2, (Hyperplane.make((1, 1), 1), Hyperplane.make((2, 2), 2))
        )
        assert arr.m == 1

    def test_repeats_keep_first_seen_order(self):
        a, b, c = Hyperplane.make((1, 0), 0), Hyperplane.make((0, 1), 2), Hyperplane.make((1, 1), 1)
        arr = Arrangement(2, (b, a, b, c, a, Hyperplane.make((2, 0), 0)))
        assert arr.hyperplanes == (b, a, c)


def reference_make(normal, offset=0):
    """(normal, offset) as the `Fraction` canonicaliser gave them before hyperplanes were integer rows."""
    coeffs = [Fraction(x) for x in normal]
    scale = Fraction(math.lcm(*(c.denominator for c in coeffs)))
    ints = [int(c * scale) for c in coeffs]
    g = math.gcd(*ints)
    scale /= g
    ints = [x // g for x in ints]
    if next(x for x in ints if x != 0) < 0:
        scale = -scale
        ints = [-x for x in ints]
    return tuple(ints), Fraction(offset) * scale


int_normals = st.lists(st.integers(-12, 12), min_size=1, max_size=5).filter(any)
nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


class TestMakeFastPath:
    @settings(max_examples=200, deadline=None)
    @given(int_normals, st.integers(-12, 12), nonzero_rationals)
    def test_ints_match_fractions_and_rational_multiples(self, normal, offset, scale):
        h = Hyperplane.make(normal, offset)
        assert h == Hyperplane.make([Fraction(x) for x in normal], Fraction(offset))
        assert h == Hyperplane.make([scale * x for x in normal], scale * offset)
        assert (h.normal, h.offset) == reference_make(normal, offset)
        assert h.dim == len(normal) and h.is_linear() == (offset == 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=5).filter(any),
           st.fractions(max_denominator=6))
    def test_fractions_match_reference(self, normal, offset):
        h = Hyperplane.make(normal, offset)
        assert (h.normal, h.offset) == reference_make(normal, offset)
        d = h.offset.denominator
        assert h.row == tuple(d * x for x in h.normal) + (h.offset.numerator,)


class TestRank:
    def test_coordinate(self):
        assert rank(coordinate_arrangement(3)) == 3

    def test_graphic_k3(self):
        assert rank(K3_ARR) == 2

    def test_empty(self):
        assert rank(Arrangement(3)) == 0


class TestFlatOf:
    def test_empty_subset_is_ambient(self):
        flat = reference_flat_of(K3_ARR, ())
        assert flat is not None and flat.dim == 3 and flat.mask == 0

    def test_parallel_lines_miss(self):
        assert reference_flat_of(PARALLEL_LINES, (0, 1)) is None

    def test_k3_common_line(self):
        flat = reference_flat_of(K3_ARR, (0, 1, 2))
        assert flat is not None and flat.dim == 1

    def test_returns_the_closure(self):
        # the line x1 = x2 = x3 lies on all three hyperplanes of K3
        assert reference_flat_of(K3_ARR, (0, 1)) == reference_flat_of(K3_ARR, (0, 1, 2)) == Flat(1, 0b111)


class TestIntersectionPoset:
    def test_boolean_two_lines(self):
        arr = coordinate_arrangement(2)
        poset = intersection_poset(arr)
        assert len(poset.flats) == 4
        assert sorted(poset.mobius) == [-1, -1, 1, 1]
        by_dim = {}
        for flat, mu in zip(poset.flats, poset.mobius):
            by_dim.setdefault(flat.dim, []).append(mu)
        assert by_dim == {2: [1], 1: [-1, -1], 0: [1]}

    def test_empty_arrangement(self):
        poset = intersection_poset(Arrangement(2))
        assert len(poset.flats) == 1 and poset.mobius == (1,)

    def test_three_generic_lines(self):
        assert len(intersection_poset(GENERIC_LINES).flats) == 7

    def test_guard(self, monkeypatch):
        # the poset takes no subset guard; its step budget counts the sections each new flat is cut
        # from. The boolean arrangement in dimension 5 cuts 5 sections for each of its 5 flats of
        # dimension 4, 4 for each of 10 of dimension 3 and 3 for each of 10 of dimension 2; its
        # coatoms and its center are preset. The 26th flat is the one over budget.
        boolean = coordinate_arrangement(5)
        monkeypatch.setattr(arrangements, "POSET_STEP_BUDGET", 25 + 40 + 30)
        assert len(intersection_poset(boolean).flats) == 2**5
        monkeypatch.setattr(arrangements, "POSET_STEP_BUDGET", 25 + 40 + 30 - 1)
        with pytest.raises(ResourceLimitError, match="budget of 94 elimination steps after 25 flats"):
            intersection_poset(boolean)

    def test_step_budget_bounds_the_eliminations(self, monkeypatch):
        # K6's graphic arrangement: the budget counts at least as many steps as reduce_row takes
        k6 = graphic_arrangement(complete(6))
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return reduce_row(*args)

        monkeypatch.setattr(arrangements, "reduce_row", counting)
        intersection_poset(k6)
        monkeypatch.setattr(arrangements, "POSET_STEP_BUDGET", calls - 1)
        with pytest.raises(ResourceLimitError, match="intersection poset passed its budget"):
            intersection_poset(k6)

    def test_mobius_defining_recursion(self, arrangement_corpus):
        samples = [K3_ARR, GENERIC_LINES, PARALLEL_LINES] + [
            arr for _, arr in arrangement_corpus[:10]
        ]
        for arr in samples:
            poset = intersection_poset(arr)
            assert poset.mobius[0] == 1 and poset.flats[0] == Flat(arr.dim, 0)
            for flat in poset.flats[1:]:
                # other contains flat as point sets when cutting flat with
                # other's hyperplanes leaves it whole (not the mask shortcut)
                total = sum(
                    mu
                    for other, mu in zip(poset.flats, poset.mobius)
                    if _point_set_contains(arr, other, flat)
                )
                assert total == 0

    def test_empty_space_stops_at_the_first_empty_rank(self):
        # a file holding only `dim 3000000` once walked every lower dimension;
        # a budget of traced lines makes that fail at once instead of hanging
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            if lines > 1000:
                raise RuntimeError("intersection_poset kept going past an empty rank")
            return count_lines

        def trace_the_poset(frame, event, arg):
            return count_lines if frame.f_code is intersection_poset.__code__ else None

        dim = 10**18
        previous = sys.gettrace()
        sys.settrace(trace_the_poset)
        try:
            poset = intersection_poset(Arrangement(dim))
        finally:
            sys.settrace(previous)
        assert poset == IntersectionPoset((Flat(dim, 0),), (1,))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(walk_arrangements, linear_arrangements(), dense_graphs().map(graphic_arrangement),
                     concurrent_arrangements(), concurrent_arrangements(max_m=1), linear_arrangements(max_m=1),
                     st.integers(0, 5).map(Arrangement)))
    def test_matches_the_pairwise_scan(self, arr):
        # linear arrangements, rank-deficient ones among them, close at their center; those through a
        # point off the origin and every other affine one take the full loop
        assert intersection_poset(arr) == reference_intersection_poset(arr)
        assert char_poly(arr) == char_poly_whitney(arr)

    def test_pinned_elimination_counts(self, monkeypatch):
        # drawn as the linear family of scripts/arrangement_growth.py draws them, and built before counting
        growth = {(m, seed): growth_arrangement(seed, m) for m in (8, 12, 16) for seed in (1, 2, 3)}
        k4 = graphic_arrangement(complete(4))
        for arr in growth.values():
            assert intersection_poset(arr) == reference_intersection_poset(arr)
        calls = 0
        reduce_row = linalg.reduce_row

        def counting(*args):
            nonlocal calls
            calls += 1
            return reduce_row(*args)

        # every elimination is one step, in `arrangements` and inside `linalg.residual` alike
        monkeypatch.setattr(arrangements, "reduce_row", counting)
        monkeypatch.setattr(linalg, "reduce_row", counting)
        counts = {}
        for key, arr in growth.items():
            calls = 0
            intersection_poset(arr)
            counts[key] = calls
        calls = 0
        assert len(intersection_poset(k4).flats) == 15
        # no coatom's sections are cut, for the price of the rank; before, the linear counts were
        # 421, 436, 456 (m = 8), 2115, 2295, 2345 (m = 12) and 7396, 7107, 7977 (m = 16), and K4's 19
        assert counts == {(8, 1): 216, (8, 2): 200, (8, 3): 204, (12, 1): 692, (12, 2): 732, (12, 3): 715,
                          (16, 1): 1671, (16, 2): 1687, (16, 3): 1825}
        assert calls == 19

    def test_braid_arrangement_of_k6(self):
        # the partition lattice of six elements, where most intervals are not boolean
        arr = graphic_arrangement(complete(6))
        poset = intersection_poset(arr)
        assert len(poset.flats) == 203
        assert poset == reference_intersection_poset(arr)

    def test_affine_arrangements_with_parallels(self):
        # an affine poset is not a lattice, but each interval below a flat is one
        rng = random.Random(1935)
        for _ in range(60):
            arr = random_affine_with_parallels(rng)
            assert intersection_poset(arr) == reference_intersection_poset(arr)

    def test_flats_are_the_subset_intersections(self, arrangement_corpus):
        rng = random.Random(2718)
        samples = [arr for _, arr in arrangement_corpus]
        samples += [random_affine_with_parallels(rng) for _ in range(40)]
        assert any(not is_central(arr) for arr in samples)
        for arr in samples:
            by_subset = {reference_flat_of(arr, _bits(mask)) for mask in range(1 << arr.m)} - {None}
            assert by_subset == set(intersection_poset(arr).flats)


def growth_arrangement(seed, m, dim=4):
    """m distinct linear hyperplanes in dimension 4, as scripts/arrangement_growth.py draws its linear family."""
    rng = random.Random(f"arrangement-growth:linear:{seed}:{m}")
    hyps = []
    while len(hyps) < m:
        h = random_hyperplane(rng, dim, True)
        if h is not None and h not in hyps:
            hyps.append(h)
    return Arrangement(dim, tuple(hyps))


def reference_intersection_poset(arr):
    """The poset as built before residuals were grouped: rank by rank over every dimension,
    each residual row compared with every other, and each Moebius value summed over every
    earlier flat."""
    flats = [Flat(arr.dim, 0)]
    layer = {0: {j: h.row for j, h in enumerate(arr.hyperplanes)}}
    for dim in range(arr.dim - 1, -1, -1):
        found = {}
        for mask, residuals in layer.items():
            produced = 0
            for i, row in residuals.items():
                if produced >> i & 1 or not any(row[:-1]):
                    continue
                # residuals are primitive, so one vanishes against `row` exactly when it is +-row
                neg = tuple(-x for x in row)
                closure = mask
                for j, other in residuals.items():
                    if other == row or other == neg:
                        closure |= 1 << j
                produced |= closure
                if closure not in found:
                    pivot = ((next(c for c, x in enumerate(row) if x), row),)
                    found[closure] = {
                        j: residual(other, pivot)[1] for j, other in residuals.items() if not closure >> j & 1
                    }
        flats.extend(Flat(dim, closure) for closure in sorted(found))
        layer = found
    masks = [flat.mask for flat in flats]
    mobius = [1]
    for mask in masks[1:]:
        mobius.append(-sum(mu for y, mu in zip(masks, mobius) if y & mask == y))
    return IntersectionPoset(tuple(flats), tuple(mobius))


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _point_set_contains(arr, outer, inner):
    meet = reference_flat_of(arr, _bits(outer.mask | inner.mask))
    return meet is not None and meet.dim == inner.dim


class TestCharPoly:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 4), (5, 0)])
    def test_boolean_formula(self, n, m):
        hyps = tuple(
            Hyperplane.make(tuple(1 if j == i else 0 for j in range(n)), 0)
            for i in range(m)
        )
        arr = Arrangement(n, hyps)
        assert char_poly(arr) == boolean_char_poly(n, m)

    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_boolean_formula_is_the_product_of_its_factors(self, nm):
        # t^(n-m) (t-1)^m multiplied out one linear factor at a time
        n, m = nm
        assert boolean_char_poly(n, m) == IntPolynomial(tuple(reference_linear_product([0] * (n - m) + [1] * m)))

    def test_generic_lines(self):
        assert char_poly(GENERIC_LINES) == IntPolynomial((3, -3, 1))

    def test_graphic_k3(self):
        assert char_poly(K3_ARR) == IntPolynomial((0, 2, -3, 1))

    def test_matches_chromatic_for_named_graphs(self):
        for _, g in named_graphs():
            if g.m <= 12:
                assert char_poly(graphic_arrangement(g)) == chromatic_poly(g)

    def test_matches_chromatic_across_corpus(self, graph_corpus, chromatic_memo):
        for label, g in graph_corpus:
            arr = graphic_arrangement(g)
            assert char_poly(arr) == chromatic_poly(g, memo=chromatic_memo), label


class TestWhitney:
    def test_matches_mobius_on_fixed_instances(self):
        for arr in (K3_ARR, GENERIC_LINES, PARALLEL_LINES, coordinate_arrangement(3)):
            assert char_poly_whitney(arr) == char_poly(arr)

    def test_matches_on_graphic_instances(self, graph_corpus, chromatic_memo):
        # the graphic char poly equals the chromatic one (checked separately),
        # so the memoized chromatic side keeps this sweep cheap
        for label, g in graph_corpus:
            if g.m <= 10:
                arr = graphic_arrangement(g)
                assert char_poly_whitney(arr) == chromatic_poly(g, memo=chromatic_memo), label

    def test_matches_on_random_instances(self, arrangement_corpus):
        for _, arr in arrangement_corpus:
            assert char_poly_whitney(arr) == char_poly(arr)


def _subset_rank(arr, subset):
    """Rank of the chosen hyperplanes from a fresh elimination; None when they share no point."""
    basis = echelon(arr.hyperplanes[i].row for i in subset)
    return None if any(not any(b[:-1]) for _, b in basis) else len(basis)


def reference_char_poly_whitney(arr):
    """The signed sum over every subset, each ranked on its own, that the subset walk replaced."""
    coeffs = [0] * (arr.dim + 1)
    coeffs[arr.dim] = 1
    for size in range(1, arr.m + 1):
        for subset in combinations(range(arr.m), size):
            r = _subset_rank(arr, subset)
            if r is not None:
                coeffs[arr.dim - r] += -1 if size % 2 else 1
    return IntPolynomial(tuple(coeffs))


def reference_is_general_position(arr):
    """Every subset ranked on its own: boolean up to the rank, non-central above it."""
    r = rank(arr)
    return all(
        _subset_rank(arr, subset) == (size if size <= r else None)
        for size in range(1, arr.m + 1)
        for subset in combinations(range(arr.m), size)
    )


def reference_subset_walk(arr, expand_dependent=False, nbc=False):
    """The walk as it was before subsets carried residual tables: each subset carries its
    echelon basis, and each child reduces its added row against that whole basis. With `nbc`,
    an independent central child is refused when a later row has the same residual."""
    rows = [h.row for h in arr.hyperplanes]
    stack = [(0, 0, 0, ())]  # mask, next index, size, basis
    while stack:
        mask, start, size, basis = stack.pop()
        for i in range(start, arr.m):
            grown = mask | 1 << i
            lead, res = residual(rows[i], basis)
            if lead < arr.dim:
                if nbc and any(residual(rows[c], basis) == (lead, res) for c in range(i + 1, arr.m)):
                    continue
                yield grown, size + 1, len(basis) + 1
                stack.append((grown, i + 1, size + 1, basis + ((lead, res),)))
            elif lead == arr.dim:
                yield grown, size + 1, None
            else:
                yield grown, size + 1, len(basis)
                if expand_dependent:
                    stack.append((grown, i + 1, size + 1, basis))


class TestSubsetWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(walk_arrangements, linear_arrangements(), dense_graphs().map(graphic_arrangement)))
    def test_matches_the_reference_walk(self, arr):
        for expand_dependent in (False, True):
            for nbc in (False, True):
                expected = [(size, r) for _, size, r in reference_subset_walk(arr, expand_dependent, nbc)]
                assert list(_subset_walk(arr, arr.m, expand_dependent, nbc)) == expected

    @pytest.mark.parametrize("sweep", [char_poly_whitney, nbc_counts, is_general_position])
    def test_guard_is_checked_by_the_walk(self, sweep):
        # every subset sweep takes the walk's guard: m = guard passes, m = guard + 1 is refused
        boolean = coordinate_arrangement(5)
        sweep(boolean, guard=5)
        with pytest.raises(ResourceLimitError, match="^arrangement has 5 hyperplanes; subset enumeration guard is 4$"):
            sweep(boolean, guard=4)

    def test_poset_takes_no_subset_guard(self):
        # 21 hyperplanes, over the default subset guard of 20; the poset has 877 flats
        k7 = graphic_arrangement(complete(7))
        assert len(intersection_poset(k7).flats) == 877
        assert char_poly(k7) == chromatic_poly(complete(7))

    def test_boolean_whitney_reduces_each_row_once(self, monkeypatch):
        # the rows enter as they are, and every later row vanishes at a coordinate hyperplane's
        # pivot, so no child eliminates
        boolean = coordinate_arrangement(8)  # built before counting
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return reduce_row(*args)

        # every elimination is one step, in `arrangements` and inside `linalg.residual` alike
        monkeypatch.setattr(arrangements, "reduce_row", counting)
        monkeypatch.setattr(linalg, "reduce_row", counting)
        assert char_poly_whitney(boolean) == boolean_char_poly(8, 8)
        assert calls == 0

    @settings(max_examples=150, deadline=None)
    @given(walk_arrangements)
    def test_whitney_matches_per_subset_sweep(self, arr):
        assert char_poly_whitney(arr) == reference_char_poly_whitney(arr)

    @settings(max_examples=150, deadline=None)
    @given(walk_arrangements)
    def test_general_position_matches_per_subset_sweep(self, arr):
        assert is_general_position(arr) == reference_is_general_position(arr)


class TestPredicates:
    def test_k3(self):
        assert is_central(K3_ARR)
        assert not is_boolean(K3_ARR)
        assert not is_general_position(K3_ARR)

    def test_parallel(self):
        assert not is_central(PARALLEL_LINES)
        assert not is_boolean(PARALLEL_LINES)

    def test_forest_graphic_is_boolean(self):
        assert is_boolean(graphic_arrangement(path(4)))

    def test_generic_lines_general_position(self):
        assert is_general_position(GENERIC_LINES)

    def test_boolean_is_general_position(self):
        assert is_general_position(coordinate_arrangement(3))

    def test_central_general_position_iff_boolean(self, arrangement_corpus):
        for _, arr in arrangement_corpus:
            if is_central(arr):
                assert is_general_position(arr) == is_boolean(arr)


class TestDeletionRestriction:
    def test_k3_restrict_dedupes(self):
        restricted = restrict(K3_ARR, 0)
        assert restricted.dim == 2 and restricted.m == 1
        assert char_poly(restricted) == IntPolynomial((0, -1, 1))

    def test_k3_delete_is_boolean_pair(self):
        deleted = delete(K3_ARR, 0)
        assert char_poly(deleted) == IntPolynomial((0, 1, -2, 1))

    def test_k3_recurrence_values(self):
        assert char_poly(K3_ARR) == char_poly(delete(K3_ARR, 0)) - char_poly(
            restrict(K3_ARR, 0)
        )

    def test_recurrence_on_corpus(self, arrangement_corpus):
        for _, arr in arrangement_corpus[:20]:
            p = char_poly(arr)
            for h in range(arr.m):
                assert p == char_poly(delete(arr, h)) - char_poly(restrict(arr, h))


class TestGraphicArrangement:
    def test_single_edge(self):
        arr = graphic_arrangement(SimpleGraph(2, frozenset({(0, 1)})))
        assert arr.m == 1 and arr.hyperplanes[0].normal == (1, -1)

    def test_k3(self):
        assert K3_ARR.m == 3 and rank(K3_ARR) == 2

    def test_edgeless(self):
        arr = graphic_arrangement(SimpleGraph(3))
        assert arr.m == 0
        assert char_poly(arr) == IntPolynomial.term(1, 3)


class TestEssentialize:
    def test_graphic_k3(self):
        ess = essentialize(K3_ARR)
        assert ess.dim == 2 and ess.m == 3
        assert char_poly(ess) == IntPolynomial((2, -3, 1))

    def test_already_essential_unchanged(self):
        ess = essentialize(GENERIC_LINES)
        assert ess == GENERIC_LINES

    def test_empty(self):
        ess = essentialize(Arrangement(3))
        assert ess.dim == 0
        assert char_poly(ess) == IntPolynomial.constant(1)

    def test_preserves_count_and_coefficients(self, arrangement_corpus):
        for _, arr in arrangement_corpus:
            r = rank(arr)
            ess = essentialize(arr)
            assert ess.m == arr.m and ess.dim == r
            assert char_poly(ess).shift(arr.dim - r) == char_poly(arr)


class TestDecone:
    def test_graphic_k3_every_choice(self):
        expected = IntPolynomial((0, -2, 1))
        for k0 in range(3):
            deconed = decone(K3_ARR, k0)
            assert deconed.dim == 2 and deconed.m == 2
            assert char_poly(deconed) == expected
        assert divided_difference(char_poly(K3_ARR)) == expected

    def test_boolean_pair(self):
        arr = coordinate_arrangement(2)
        for k0 in range(2):
            assert char_poly(decone(arr, k0)) == IntPolynomial((-1, 1))
        assert divided_difference(boolean_char_poly(2, 2)) == IntPolynomial((-1, 1))

    def test_single_hyperplane(self):
        arr = coordinate_arrangement(1)
        deconed = decone(arr, 0)
        assert deconed.dim == 0 and deconed.m == 0
        assert char_poly(deconed) == IntPolynomial.constant(1)

    def test_rejects_affine_input(self):
        with pytest.raises(InputError):
            decone(PARALLEL_LINES, 1)

    def test_matches_divided_difference_on_random_central(self):
        from chromabounds.corpus import random_arrangement

        rng = random.Random(7)
        seen = 0
        while seen < 10:
            arr = random_arrangement(rng, max_dim=4, max_m=5, linear=True)
            if arr.m == 0:
                continue
            seen += 1
            p = char_poly(arr)
            for k0 in range(arr.m):
                assert char_poly(decone(arr, k0)) == divided_difference(p)


def reference_random_hyperplane(rng, dim, linear):
    """The corpus generator's hyperplane as it was built through `Fraction` offsets."""
    normal = [rng.randint(-3, 3) for _ in range(dim)]
    if all(x == 0 for x in normal):
        return None
    offset = Fraction(0) if linear else Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
    return Hyperplane.make(normal, offset)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
def test_random_hyperplanes_match_the_fraction_generator(seed, dim, linear):
    # the same hyperplanes from the same random calls, so every seeded corpus stays the same
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert random_hyperplane(rng, dim, linear) == reference_random_hyperplane(ref, dim, linear)
    assert rng.getstate() == ref.getstate()


def reference_affine_chart(normal, offset):
    """Deterministic parametrization x = p + sum u_c v_c of the hyperplane normal . x = offset.

    The pivot coordinate is the first nonzero normal entry; the free
    coordinates, in increasing order, carry the chart's basis vectors.
    """
    n = len(normal)
    j0 = next(i for i, x in enumerate(normal) if x != 0)
    a0 = Fraction(normal[j0])
    point = [Fraction(0)] * n
    point[j0] = offset / a0
    basis = []
    for c in range(n):
        if c == j0:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        v[j0] = -Fraction(normal[c]) / a0
        basis.append(tuple(v))
    return tuple(point), tuple(basis)


def reference_restrict_onto(hyps, normal, offset):
    """Pull hyperplanes back to the chart coordinates of normal . x = offset; parallel ones are dropped."""
    point, basis = reference_affine_chart(normal, offset)
    restricted = []
    for h in hyps:
        new_normal = tuple(sum(Fraction(b) * v[i] for i, b in enumerate(h.normal)) for v in basis)
        new_offset = h.offset - sum(Fraction(b) * point[i] for i, b in enumerate(h.normal))
        if all(x == 0 for x in new_normal):
            assert new_offset != 0, "coincident hyperplane slipped past deduplication"
            continue
        restricted.append(Hyperplane.make(new_normal, new_offset))
    return Arrangement(len(normal) - 1, tuple(restricted))


def reference_restrict(arr, h):
    """Restriction through the `Fraction` chart, which the one-step integer elimination replaced."""
    target = arr.hyperplanes[h]
    others = [x for i, x in enumerate(arr.hyperplanes) if i != h]
    return reference_restrict_onto(others, target.normal, target.offset)


def reference_decone(arr, k0):
    """Deconing through the `Fraction` chart of {normal_k0 . x = 1}."""
    others = [x for i, x in enumerate(arr.hyperplanes) if i != k0]
    return reference_restrict_onto(others, arr.hyperplanes[k0].normal, Fraction(1))


def _is_linear(arr):
    return all(h.is_linear() for h in arr.hyperplanes)


class TestRestrictionStep:
    """Restriction and deconing by one integer elimination step agree with the chart, order included."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(walk_arrangements, linear_arrangements()))
    def test_restrict_matches_chart(self, arr):
        for h in range(arr.m):
            assert restrict(arr, h) == reference_restrict(arr, h)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(walk_arrangements.filter(_is_linear), linear_arrangements()))
    def test_decone_matches_chart(self, arr):
        for k0 in range(arr.m):
            assert decone(arr, k0) == reference_decone(arr, k0)


def test_general_position_iff_binomial_shape(arrangement_corpus):
    both_seen = set()
    for _, arr in arrangement_corpus:
        r = rank(arr)
        gp = is_general_position(arr)
        shape = char_poly(arr) == general_position_char_poly(arr.dim, arr.m, r)
        assert gp == shape
        both_seen.add(gp)
    assert both_seen == {True, False}

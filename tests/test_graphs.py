import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import (
    InputError,
    InvariantError,
    IntPolynomial,
    ResourceLimitError,
    SimpleGraph,
    boolean_char_poly,
    chromatic_poly,
    chromatic_poly_interpolated,
    coeff_sequence,
    complete,
    contract_edge,
    cycle,
    delete_edge,
    is_forest,
    path,
    rank_info,
)
from chromabounds import graphs
from chromabounds.corpus import random_graph
from chromabounds.graphs import disjoint_union
from strategies import (
    dense_graphs,
    reference_canonical,
    reference_linear_product,
    reference_ordered_partitions,
    reference_reduce,
    regular_graphs,
    small_graphs,
)


def join(g, h):
    """g and h side by side, with every vertex of g adjacent to every vertex of h."""
    union = disjoint_union(g, h)
    return SimpleGraph(union.n, union.edges | {(u, g.n + v) for u in range(g.n) for v in range(h.n)})


# K_u joined to a disconnected H: the u clique vertices are universal, and
# stripping them leaves at least two components
universal_joins = st.builds(
    lambda u, h1, h2: join(complete(u), disjoint_union(h1, h2)),
    st.integers(1, 2), small_graphs(max_n=3), small_graphs(max_n=3) | dense_graphs(max_n=3),
)
# joins of edgeless parts; a part of one vertex is universal
complete_multipartite = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda parts: reduce(join, map(SimpleGraph, parts))
)
# built from K_1 by disjoint unions and joins; stripping and splitting take
# a connected one apart down to single vertices
cographs = st.recursive(
    st.just(SimpleGraph(1)),
    lambda parts: st.builds(lambda op, g, h: op(g, h), st.sampled_from([disjoint_union, join]), parts, parts),
    max_leaves=9,
)

K4_POLY = IntPolynomial((0, -6, 11, -6, 1))
C4_POLY = IntPolynomial((0, -3, 6, -4, 1))


def reference_chromatic_poly(g, memo):
    """The smallest-edge recurrence on labelled graphs that the bitmask kernel replaced."""
    if not g.edges:
        return IntPolynomial.term(1, g.n)
    key = (g.n, tuple(g.sorted_edges()))
    if key not in memo:
        e = min(g.edges)
        memo[key] = reference_chromatic_poly(delete_edge(g, e), memo) - reference_chromatic_poly(contract_edge(g, e), memo)
    return memo[key]


def kernel_adjacency(data, g):
    """g's neighbour masks on a drawn `live` set, as the kernel holds them mid-expansion.

    A live vertex sees only live neighbours; a vertex outside `live` keeps
    its stale mask, as a peeled or contracted vertex does.
    """
    everyone = (1 << g.n) - 1
    live = data.draw(st.just(everyone) | st.integers(0, everyone), label="live")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return [a & live if live >> v & 1 else a for v, a in enumerate(adj)], live


def reference_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


kernel_graphs = small_graphs(max_n=9) | dense_graphs(max_n=9) | regular_graphs


def reference_count_colorings(g, t):
    """The backtracking over color assignments that the inclusion-exclusion oracle replaced.

    Vertices are colored in order, each avoiding its earlier neighbours'
    colors. Unlike the replaced code, the colors it must avoid are gathered
    once per vertex and the last vertex's free colors are counted, not
    enumerated, which makes it about 6x faster on 7 vertices.
    """
    earlier = [[] for _ in range(g.n)]
    for u, v in g.edges:
        earlier[max(u, v)].append(min(u, v))
    colors = [0] * g.n

    def assign(v):
        if v == g.n:
            return 1
        used = {colors[u] for u in earlier[v]}
        if v == g.n - 1:
            return t - len(used)
        total = 0
        for c in range(t):
            if c not in used:
                colors[v] = c
                total += assign(v + 1)
        return total

    return assign(0)


class TestSimpleGraph:
    def test_rejects_loops(self):
        with pytest.raises(InputError):
            SimpleGraph(3, frozenset({(2, 2)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            SimpleGraph(2, frozenset({(0, 2)}))

    def test_normalizes_orientation(self):
        g = SimpleGraph(3, frozenset({(2, 0)}))
        assert g.edges == frozenset({(0, 2)})


class TestRankInfo:
    def test_path(self):
        info = rank_info(path(5))
        assert (info.components, info.rank) == (1, 4)

    def test_two_triangles(self):
        info = rank_info(disjoint_union(complete(3), complete(3)))
        assert (info.components, info.rank) == (2, 4)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_edgeless(self, n):
        info = rank_info(SimpleGraph(n))
        assert (info.components, info.rank) == (n, 0)


class TestChromaticPoly:
    def test_edgeless(self):
        assert chromatic_poly(SimpleGraph(4)) == IntPolynomial.term(1, 4)

    def test_path3(self):
        assert chromatic_poly(path(3)) == IntPolynomial((0, 1, -2, 1))

    def test_k4(self):
        assert chromatic_poly(complete(4)) == K4_POLY

    def test_c4(self):
        assert chromatic_poly(cycle(4)) == C4_POLY


class TestCountColorings:
    # the oracle's count with t colors is its polynomial's value at t
    def test_triangle(self):
        assert chromatic_poly_interpolated(complete(3))(3) == 6

    def test_zero_colors(self):
        assert chromatic_poly_interpolated(SimpleGraph(2))(0) == 0
        assert chromatic_poly_interpolated(path(3))(0) == 0
        assert chromatic_poly_interpolated(SimpleGraph(0))(0) == 1

    def test_single_edge(self):
        assert chromatic_poly_interpolated(path(2))(2) == 2

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            chromatic_poly_interpolated(SimpleGraph(30), cap=10**6)


class TestOracleAgainstBacktracking:
    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_n=7))
    def test_every_count_and_the_interpolation(self, g):
        p = chromatic_poly_interpolated(g)
        for t in range(g.n + 2):
            assert p(t) == reference_count_colorings(g, t)
        assert p == chromatic_poly(g)

    def test_cap_counts_the_work(self):
        # n^2 2^n = 256 for n = 4
        assert chromatic_poly_interpolated(SimpleGraph(4), cap=256) == IntPolynomial.term(1, 4)
        with pytest.raises(ResourceLimitError, match="n=4 .* 256"):
            chromatic_poly_interpolated(SimpleGraph(4), cap=255)


class TestPackedOracleAgainstTheListCode:
    """The oracle's packed polynomials against the list code they replaced, e_j for e_j."""

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=8) | dense_graphs(max_n=8))
    def test_drawn_graphs(self, g):
        assert graphs._ordered_partitions(g, 10**9) == reference_ordered_partitions(g, 10**9)

    @pytest.mark.parametrize("n", range(13))
    def test_edgeless_complete_and_random_graphs(self, n):
        # edgeless: the widest coefficients; complete: the fewest distinct r_S; and two seeded G(n, 1/2)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        halves = [random.Random(100 * n + seed) for seed in range(2)]
        drawn = [SimpleGraph(n, frozenset(e for e in pairs if rng.random() < 0.5)) for rng in halves]
        for g in (SimpleGraph(n), complete(n), *drawn):
            assert graphs._ordered_partitions(g, 10**9) == reference_ordered_partitions(g, 10**9)


class TestInterpolation:
    def test_k3(self):
        assert chromatic_poly_interpolated(complete(3)) == IntPolynomial((0, 2, -3, 1))

    def test_edgeless_two(self):
        assert chromatic_poly_interpolated(SimpleGraph(2)) == IntPolynomial.term(1, 2)

    def test_c4(self):
        assert chromatic_poly_interpolated(cycle(4)) == C4_POLY


class TestIsForest:
    def test_examples(self):
        assert is_forest(path(4))
        assert not is_forest(complete(3))
        two_edges = SimpleGraph(4, frozenset({(0, 1), (2, 3)}))
        assert is_forest(two_edges)


class TestContraction:
    def test_parallel_edges_collapse(self):
        # contracting one triangle edge leaves a single edge, not a doubled one
        g = contract_edge(complete(3), (0, 1))
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_relabeling_stays_in_range(self):
        g = contract_edge(cycle(5), (1, 2))
        assert g.n == 4
        assert all(0 <= u < 4 and 0 <= v < 4 for u, v in g.edges)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_deletion_contraction_matches_oracle(self, g):
        assert chromatic_poly(g) == chromatic_poly_interpolated(g)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_sign_alternation_and_low_coefficients(self, g):
        s = coeff_sequence(chromatic_poly(g), g.m)  # raises if the pattern breaks
        assert s.a[0] == 1
        if s.r >= 1:
            assert s.a[1] == g.m
        assert all(x > 0 for x in s.a)
        assert s.r == rank_info(g).rank

    @settings(max_examples=30, deadline=None)
    @given(small_graphs())
    def test_forest_iff_product_form(self, g):
        product = boolean_char_poly(g.n, g.m) if g.m <= g.n else None
        assert is_forest(g) == (product is not None and chromatic_poly(g) == product)

    @settings(max_examples=25, deadline=None)
    @given(small_graphs())
    def test_deletion_contraction_identity_each_edge(self, g):
        p = chromatic_poly(g)
        for e in g.sorted_edges():
            assert p == chromatic_poly(delete_edge(g, e)) - chromatic_poly(contract_edge(g, e))


class TestKernelAgainstSlowPaths:
    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_n=9))
    def test_matches_the_labelled_recurrence(self, g):
        assert chromatic_poly(g) == reference_chromatic_poly(g, {})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabelling_keeps_the_polynomial(self, data):
        g = data.draw(small_graphs(max_n=9))
        perm = data.draw(st.permutations(range(g.n)))
        relabelled = SimpleGraph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))
        assert chromatic_poly(relabelled) == chromatic_poly(g)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_graphs(max_n=8) | dense_graphs(max_n=9), max_size=8))
    def test_shared_memo_matches_fresh_memos(self, gs):
        # sparse and dense components, expanded by different recurrences, share one memo
        memo = {}
        assert [chromatic_poly(g, memo) for g in gs] == [chromatic_poly(g, {}) for g in gs]

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(max_n=7, max_m=10))
    def test_matches_networkx(self, g):
        # networkx expands on sympy expressions, whose cost grows steeply with m
        nx = pytest.importorskip("networkx")
        sympy = pytest.importorskip("sympy")
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        descending = sympy.Poly(nx.chromatic_polynomial(h), sympy.Symbol("x")).all_coeffs()
        assert chromatic_poly(g).coeffs == tuple(int(c) for c in reversed(descending))


class TestKernelStepsAgainstTheGeneratorWalk:
    """The kernel's inline mask loops against the bit-generator code they replaced, output for output."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reduce_matches_the_reference(self, data):
        # offsets and components must come out in the same order, and `adj` be left the same
        g = data.draw(kernel_graphs)
        adj, live = kernel_adjacency(data, g)
        todo = data.draw(st.just(live) | st.integers(0, live), label="todo") & live
        fast, slow = list(adj), list(adj)
        assert graphs._reduce(fast, live, todo) == reference_reduce(slow, live, todo)
        assert fast == slow

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_canonical_matches_the_reference(self, data):
        # a key is taken of a union of components of the live graph, which is closed under adjacency
        g = data.draw(kernel_graphs)
        adj, live = kernel_adjacency(data, g)
        comps = []
        while live:
            comp = frontier = live & -live
            while frontier:
                reach = 0
                for v in range(g.n):
                    if frontier >> v & 1:
                        reach |= adj[v]
                frontier = reach & ~comp
                comp |= frontier
            comps.append(comp)
            live ^= comp
        chosen = data.draw(st.lists(st.sampled_from(comps), unique=True) if comps else st.just([]), label="comps")
        comp = sum(chosen)
        assert graphs._canonical(adj, comp) == reference_canonical(adj, comp)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-2, 3) | st.integers(-40, 40), max_size=12),
        st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda p: p[-1]), max_size=3),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=4),
    )
    def test_evaluate_matches_factor_by_factor(self, offsets, polys, comps):
        # repeated offsets go through (t - d)^e, single ones are multiplied in place,
        # and a component at shift s contributes its polynomial at t - s
        memo = {(i,): tuple(p) for i, p in enumerate(polys)}
        comps = [(s, (i,)) for s, i in comps if i < len(polys)]
        expected = reference_linear_product(offsets)
        for s, key in comps:
            shifted = [0] * len(memo[key])
            for i, c in enumerate(memo[key]):
                for j, x in enumerate(reference_linear_product([s] * i)):
                    shifted[j] += c * x
            expected = reference_product(expected, shifted)
        assert graphs._evaluate((offsets, comps), memo) == expected


class TestAdditionContraction:
    """Dense components expand by P(G) = P(G + e) + P(G / e) on a non-edge e."""

    @settings(max_examples=80, deadline=None)
    @given(dense_graphs(max_n=9))
    def test_matches_the_labelled_recurrence_and_the_oracle(self, g):
        p = chromatic_poly(g)
        assert p == reference_chromatic_poly(g, {})
        assert p == chromatic_poly_interpolated(g)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=9) | dense_graphs(max_n=9))
    def test_every_memoized_component_is_reduced(self, g):
        # each branch re-tests only the vertices that can have become
        # simplicial; one it missed would reach the memo unpeeled. No key
        # holds a universal vertex either: those are stripped before it.
        memo = {}
        chromatic_poly(g, memo)
        for key in memo:
            everyone = (1 << len(key)) - 1
            for v, nb in enumerate(key):
                clique = all(nb & ~key[x] == 1 << x for x in range(len(key)) if nb >> x & 1)
                assert nb & (nb - 1) and not clique, (key, v)
                assert nb != everyone ^ 1 << v, (key, v)


class TestUniversalVertices:
    """A component's universal vertices U come off as P(G)(t) = t(t-1)...(t-|U|+1) P(G - U)(t - |U|)."""

    @settings(max_examples=60, deadline=None)
    @given(universal_joins | complete_multipartite | cographs)
    def test_matches_the_labelled_recurrence_and_the_oracle(self, g):
        p = chromatic_poly(g)
        assert p == reference_chromatic_poly(g, {})
        assert p == chromatic_poly_interpolated(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), small_graphs(max_n=8) | dense_graphs(max_n=8))
    def test_joined_clique_adds_no_memo_entry(self, u, h):
        # a vertex of H is simplicial in K_u + H exactly when it is in H, and
        # the clique is stripped, so both expand the same components
        joined, alone = {}, {}
        chromatic_poly(join(complete(u), h), joined)
        chromatic_poly(h, alone)
        assert joined.keys() == alone.keys()

    @given(st.integers(-6, 6), st.integers(0, 12))
    def test_linear_power_is_the_product_of_its_factors(self, d, e):
        assert graphs._linear_power(d, e) == reference_linear_product([d] * e)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=9), st.integers(-6, 6))
    def test_argument_shift_matches_evaluation(self, coeffs, s):
        shifted = graphs._shift(coeffs, s)
        for t in range(-3, 11):
            assert IntPolynomial(tuple(shifted))(t) == IntPolynomial(tuple(coeffs))(t - s)


class TestOracleExpansion:
    def test_rejects_counts_not_divisible_by_the_block_orders(self, monkeypatch):
        # 3 ordered partitions into 2 blocks cannot come from unordered ones
        monkeypatch.setattr(graphs, "_ordered_partitions", lambda g, cap: [0, 1, 3])
        with pytest.raises(InvariantError, match="multiple of 2!"):
            chromatic_poly_interpolated(path(2))


def test_random_graph_generator_is_deterministic():
    a = random_graph(random.Random(5), 6)
    b = random_graph(random.Random(5), 6)
    assert a == b


def test_oracle_agreement_on_seven_vertices():
    # the two routes must agree up through n = 7
    rng = random.Random(77)
    for _ in range(8):
        p = rng.uniform(0.3, 0.9)
        edges = frozenset(
            (i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < p
        )
        g = SimpleGraph(7, edges)
        assert chromatic_poly(g) == chromatic_poly_interpolated(g)

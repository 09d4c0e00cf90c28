"""Simple graphs and their chromatic polynomials, by two independent routes.

`SimpleGraph` is an immutable value (`exactmath.Value`): vertices 0..n-1
and a frozenset of edges, each stored as (low, high). Its chromatic
polynomial comes from the deletion-contraction kernel (`chromatic_poly`)
and from the coloring oracle (`chromatic_poly_interpolated`); the two
must agree coefficient-exact.

The oracle expands P(t) = sum_k a_k t(t-1)...(t-k+1), where a_k counts
the partitions of the vertices into k independent sets; giving the k
blocks distinct colors makes a proper coloring. A dynamic program along
a vertex order finds the a_k, by the bounded-width method of Noble
(Combin. Probab. Comput. 7, 1998) and Andrzejak (Discrete Math. 190,
1998). The frontier is the placed vertices that still have unplaced
neighbours. The placed neighbours of an unplaced vertex all lie on the
frontier, so it may join exactly the blocks whose frontier class holds
none of them, and any of the k - f blocks with no frontier member, f
being the number of classes. Partitions of the placed vertices that
agree on k and on their frontier classes thus have the same completions,
and one count per k is kept for each set of classes. A new vertex v
joins a class with no neighbour of v, or one of the k - f blocks, or a
new block; each partition comes from exactly one sequence of such
choices. A vertex leaves the frontier once its last neighbour is placed,
and states that become equal merge. The order (`_next_vertex`) changes
how many states are built, never the counts. The two routes share only
the adjacency bitmasks (`_adjacency`) and `IntPolynomial`.

`chromatic_poly` reduces a graph exactly before it branches: simplicial
vertices are peeled off with a linear factor each, what is left factors
over its connected components, and the vertices adjacent to all others
in a component come off with a falling factorial and an argument shift,
P(K_u + H)(t) = t(t-1)...(t-u+1) P(H)(t - u). So no memoized component
has a simplicial or a universal vertex. Each component is memoized under
a canonical relabelling of its adjacency bitmasks and expanded with an
explicit stack; `SimpleGraph` and `IntPolynomial` appear only at its
boundary. A sparse component is expanded by deletion-contraction on an
edge, a dense one by Zykov's addition-contraction on a non-edge, which
drives it toward cliques that the reduction settles at once.
`delete_edge` and `contract_edge` stay for the callers that check the
recurrence itself.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import COLORING_BUDGET, InputError, ResourceLimitError
from .exactmath import IntPolynomial, Value, binomial_row

# A component expands by addition-contraction when at least this share of
# its vertex pairs, as (numerator, denominator), are adjacent, and by
# deletion-contraction below it. Adding edges makes universal vertices,
# which the reduction strips without branching, so addition pays off below
# half density too: on the 30 random 6-regular graphs of
# scripts/chromatic_growth.py the memo holds 10177 entries at 1/2 and 6551
# at 1/3.
ZYKOV_DENSITY = (1, 3)

Edge = tuple[int, int]


class SimpleGraph(Value):
    """Vertices 0..n-1 plus a set of unordered edges; no loops, no multi-edges. Immutable."""

    __slots__ = ("n", "edges")
    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: frozenset[Edge] = frozenset()) -> None:
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        normalized = set()
        for e in edges:
            u, v = e
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed in a simple graph")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {e} has an endpoint outside 0..{n - 1}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


class GraphRankInfo(NamedTuple):
    components: int
    rank: int


def path(k: int) -> SimpleGraph:
    """Path on k vertices (k-1 edges)."""
    return SimpleGraph(k, frozenset((i, i + 1) for i in range(k - 1)))


def cycle(k: int) -> SimpleGraph:
    """Cycle on k >= 3 vertices."""
    if k < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return SimpleGraph(k, frozenset((i, (i + 1) % k) for i in range(k)))


def complete(k: int) -> SimpleGraph:
    return SimpleGraph(k, frozenset((i, j) for i in range(k) for j in range(i + 1, k)))


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return SimpleGraph(g.n + h.n, frozenset(g.edges) | shifted)


def rank_info(g: SimpleGraph) -> GraphRankInfo:
    """Connected-component count c and rank r = n - c."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = g.n
    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return GraphRankInfo(components=components, rank=g.n - components)


def is_forest(g: SimpleGraph) -> bool:
    return g.m == rank_info(g).rank


def delete_edge(g: SimpleGraph, e: Edge) -> SimpleGraph:
    u, v = min(e), max(e)
    if (u, v) not in g.edges:
        raise InputError(f"edge {e} not in graph")
    return SimpleGraph(g.n, g.edges - {(u, v)})


def contract_edge(g: SimpleGraph, e: Edge) -> SimpleGraph:
    """Contract e = (u, v): merge v into u, drop loops, collapse parallels.

    Vertices above v are relabeled down by one so the result stays on
    0..n-2. Collapsing parallel edges keeps the graph simple without
    changing its chromatic polynomial.
    """
    u, v = min(e), max(e)
    if (u, v) not in g.edges:
        raise InputError(f"edge {e} not in graph")

    def relabel(w: int) -> int:
        if w == v:
            return u
        return w - 1 if w > v else w

    new_edges = set()
    for a, b in g.edges:
        if (a, b) == (u, v):
            continue
        ra, rb = relabel(a), relabel(b)
        if ra != rb:
            new_edges.add((min(ra, rb), max(ra, rb)))
    return SimpleGraph(g.n - 1, frozenset(new_edges))


# The deletion-contraction kernel works on adjacency bitmasks: a graph is a
# tuple (or list) of neighbour masks on vertices 0..k-1 and a polynomial is a
# list of ints, ascending by power of t. A reduced graph is a Term: the
# offsets d of its linear factors (t - d), one per peeled simplicial vertex
# and per stripped universal vertex, and the components left over, each as
# (shift, canonical key), contributing its polynomial at t - shift.
Adjacency = tuple[int, ...]
Term = tuple[list[int], list[tuple[int, Adjacency]]]

# `_reduce` and `_canonical` run for every term of every branch, so they
# walk a mask's set bits in explicit loops (low = mask & -mask) and index
# lists by vertex: resuming a bit generator dominated the cost per branch.
# Under cProfile on the six graph-dc inputs of benchmark seed 1, the two
# resumed `_bits` 214,364 times, and with the relabelling's dicts,
# generator expressions and sort-key lambda that took 0.19 of 0.51 s.
# `_branch` runs once per memo miss and keeps `_bits`.


def _adjacency(g: SimpleGraph) -> list[int]:
    """A new list of g's neighbour masks: bit v of entry u is set when uv is an edge."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _linear_power(d: int, e: int) -> list[int]:
    """(t - d)^e; the coefficient of t^j is C(e, j) * (-d)^(e - j)."""
    return [c * (-d) ** (e - j) for j, c in enumerate(binomial_row(e, e))]


def _shift(p: Sequence[int], s: int) -> list[int]:
    """p(t - s): the Taylor shift, by Horner's rule from the top coefficient down."""
    out = list(p)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] -= s * out[j + 1]
    return out


def _product(factors: list[Sequence[int]]) -> list[int]:
    out = list(factors.pop()) if factors else [1]
    for f in factors:
        out = _mul(out, f)
    return out


def _evaluate(term: Term, memo: dict) -> list[int]:
    """The polynomial of a reduced graph, once `memo` holds all of its components."""
    offsets, comps = term
    out = _product([_shift(memo[key], s) if s else memo[key] for s, key in comps])
    counts: dict[int, int] = {}
    for d in offsets:
        counts[d] = counts.get(d, 0) + 1
    for d, e in counts.items():
        if not d:
            out = [0] * e + out  # times t^e
        elif e > 1:
            out = _mul(out, _linear_power(d, e))
        else:
            # times (t - d), in place from the top coefficient down
            out.append(0)
            for j in range(len(out) - 1, 0, -1):
                out[j] = out[j - 1] - d * out[j]
            out[0] *= -d
    return out


def _canonical(adj: Sequence[int], comp: int) -> Adjacency:
    """Component `comp` relabelled by (degree, sorted neighbour degrees), ties by index."""
    deg = [0] * len(adj)
    nbrs: list[list[int]] = [[]] * len(adj)
    verts = []
    while comp:
        low = comp & -comp
        comp ^= low
        v = low.bit_length() - 1
        nb = adj[v]
        deg[v] = nb.bit_count()
        ns = []
        while nb:
            b = nb & -nb
            nb ^= b
            ns.append(b.bit_length() - 1)
        nbrs[v] = ns
        verts.append(v)
    keys = sorted([(deg[v], sorted(map(deg.__getitem__, nbrs[v])), v) for v in verts])
    bit = [0] * len(adj)
    for i, key in enumerate(keys):
        bit[key[2]] = 1 << i
    return tuple([sum(map(bit.__getitem__, nbrs[key[2]])) for key in keys])


def _reduce(adj: list[int], live: int, todo: int) -> Term:
    """Peel simplicial vertices off the graph on `live`, split it, strip universal vertices.

    P(G) = (t - d) P(G - v) when N(v) is a clique of size d. Only vertices
    in `todo` are tested at first; removing v can only make its neighbours
    simplicial. A component C whose universal vertices form U, |U| = u, has
    P(C)(t) = t(t - 1)...(t - u + 1) P(C - U)(t - u), and C - U is split and
    stripped again at the shifted argument. Stripping makes no vertex
    simplicial: U is a clique joined to every other vertex, so N(x) is a
    clique exactly when N(x) - U is one. Mutates `adj`.
    """
    offsets: list[int] = []
    while todo:
        low = todo & -todo
        todo ^= low
        nb = adj[low.bit_length() - 1]
        # N(v) is a clique when each x in it sees all of N(v) but itself
        pending = nb if nb & (nb - 1) else 0
        while pending:
            b = pending & -pending
            if nb & ~adj[b.bit_length() - 1] != b:
                break
            pending ^= b
        if pending:
            continue
        offsets.append(nb.bit_count())
        live ^= low
        todo |= nb
        while nb:
            b = nb & -nb
            nb ^= b
            adj[b.bit_length() - 1] ^= low
    comps = []
    parts = [(0, live)]
    while parts:
        shift, live = parts.pop()
        while live:
            start = live & -live
            comp = frontier = start
            rounds = 0
            while frontier:
                reach = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    reach |= adj[b.bit_length() - 1]
                frontier = reach & ~comp
                comp |= frontier
                rounds += 1
            live ^= comp
            universal = 0
            # A universal vertex is adjacent to `start`, so the search from
            # `start` found the whole component in two rounds and ended on
            # the third.
            if rounds <= 3:
                near = comp & (adj[start.bit_length() - 1] | start)
                while near:
                    b = near & -near
                    near ^= b
                    if adj[b.bit_length() - 1] | b == comp:
                        universal |= b
            if universal:
                u = universal.bit_count()
                offsets.extend(range(shift, shift + u))
                rest = comp ^ universal
                parts.append((shift + u, rest))
                while rest:
                    b = rest & -rest
                    rest ^= b
                    adj[b.bit_length() - 1] ^= universal
            else:
                comps.append((shift, _canonical(adj, comp)))
    return offsets, comps


def _branch(adj: Adjacency) -> tuple[Term, Term, int]:
    """One expansion step: the reduced first term, the reduced G / e and the sign between them.

    The first term is G - e for an edge e of a sparse component and G + e
    for a non-edge e of a dense one; `chromatic_poly` says how e is chosen.
    """
    k = len(adj)
    deg = [a.bit_count() for a in adj]
    everyone = (1 << k) - 1
    first = list(adj)
    num, den = ZYKOV_DENSITY
    if den * sum(deg) < num * k * (k - 1):
        u = min(range(k), key=deg.__getitem__)
        w = max(_bits(adj[u]), key=deg.__getitem__)
        sign = -1
        # A key has no simplicial vertex; deleting uw can make only u or w one.
        retest = 1 << u | 1 << w
    else:
        # A key has no universal vertex, so every u has a non-neighbour.
        u = max(range(k), key=deg.__getitem__)
        w = max(_bits(everyone & ~adj[u] & ~(1 << u)),
                key=lambda x: ((adj[u] & adj[x]).bit_count(), deg[x]))
        sign = 1
        # Adding uw can complete only the neighbourhoods of u, w and their
        # common neighbours.
        retest = 1 << u | 1 << w | adj[u] & adj[w]
    first[u] ^= 1 << w
    first[w] ^= 1 << u
    # Merge w into u; parallel edges collapse in the masks. Only u and its
    # new neighbours can have become simplicial.
    contracted = list(adj)
    for x in _bits(adj[w]):
        contracted[x] = contracted[x] & ~(1 << w) | 1 << u
    contracted[u] = (adj[u] | adj[w]) & ~(1 << u | 1 << w)
    return (_reduce(first, everyone, retest),
            _reduce(contracted, everyone ^ 1 << w, 1 << u | contracted[u]),
            sign)


def chromatic_poly(g: SimpleGraph, memo: dict | None = None) -> IntPolynomial:
    """Chromatic polynomial by deletion- or addition-contraction on reduced graphs.

    Before any branching the graph is reduced exactly: a simplicial vertex
    v, whose neighbourhood is a clique of size d, is peeled off with a
    factor (t - d), which covers isolated and pendant vertices, cliques,
    trees and chordal graphs; what is left is split into connected
    components, whose polynomials multiply. The set U of a component's
    universal vertices (adjacent to all its other vertices), u = |U|, is
    stripped: P(G)(t) = t(t - 1)...(t - u + 1) P(G - U)(t - u), since each
    vertex of U needs a colour of its own that no other vertex may use.
    G - U is split and stripped again at the shifted argument, and the
    shift is applied to the product of its components' polynomials by a
    Taylor shift. Stripping makes no vertex simplicial, so no component
    that is memoized or branched on has a simplicial or a universal
    vertex. A component on k vertices with m edges is expanded with an
    explicit stack, so no input is limited by the interpreter's recursion
    depth, and by one of two forms of the same recurrence:

    - below ZYKOV_DENSITY (3m < C(k, 2) at 1/3), by deletion-contraction,
      P(G) = P(G - e) - P(G / e), for e from a minimum-degree vertex to its
      highest-degree neighbour;
    - otherwise by Zykov's addition-contraction, P(G) = P(G + e) + P(G / e),
      for a non-edge e = uw, where u is a vertex of maximum degree and w
      its non-neighbour with the most common neighbours, ties broken by
      degree. Adding edges soon makes vertices universal, and the strip
      removes them without branching; deletion would have to remove most
      of the edges. The switch sits at 1/3, not at 1/2, because with the
      strip addition-contraction also wins on components of density
      between 1/3 and 1/2, where deletion-contraction used to run.

    The walk terminates. Contraction, peeling, splitting and stripping only
    remove vertices. At a fixed vertex count, deletion-contraction only
    removes edges, so its first branch stays below the switch, and
    addition-contraction only adds them, so its first branch stays above
    it; a component can change mode only after it has lost vertices. No
    component is therefore its own descendant, and every chain of first
    branches ends in a graph that the reduction settles.

    `memo` is an opaque dict owned by the caller and may be shared across
    calls; it never changes results. Its keys are components as tuples of
    neighbour bitmasks, relabelled by (degree, sorted neighbour degrees),
    so isomorphic copies often share one entry.
    """
    memo = {} if memo is None else memo
    adj = _adjacency(g)
    everyone = (1 << g.n) - 1
    root = _reduce(adj, everyone, everyone)
    # Each component waits on the stack until the components of both of its
    # branches are in the memo; it is never its own descendant (see above).
    stack = [key for _, key in root[1]]
    branches: dict[Adjacency, tuple[Term, Term, int]] = {}
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
        elif key in branches:
            first, contracted, sign = branches.pop(key)
            out = _evaluate(first, memo)
            for i, c in enumerate(_evaluate(contracted, memo)):
                out[i] += sign * c
            memo[key] = tuple(out)
            stack.pop()
        else:
            branches[key] = terms = _branch(key)
            stack.extend(k for term in terms[:2] for _, k in term[1] if k not in memo)
    return IntPolynomial(tuple(_evaluate(root, memo)))


def _next_vertex(adj: Sequence[int], unplaced: int, frontier: int) -> tuple[int, int]:
    """The unplaced vertex v that leaves the smallest frontier, and the frontier vertices that v closes.

    The candidates are the frontier's neighbours, or every unplaced vertex
    when there is no frontier. Ties go to more placed neighbours, which
    forbid more classes, then to fewer unplaced ones; so a new component
    starts at a vertex of least degree.
    """
    closes: dict[int, int] = {}  # bit of x -> the frontier vertices whose last unplaced neighbour is x
    candidates = 0
    while frontier:
        y = frontier & -frontier
        frontier ^= y
        rest = adj[y.bit_length() - 1] & unplaced
        candidates |= rest
        if not rest & (rest - 1):
            closes[rest] = closes.get(rest, 0) | y
    candidates = candidates or unplaced
    best = None
    while candidates:
        b = candidates & -candidates
        candidates ^= b
        x = b.bit_length() - 1
        rest = adj[x] & unplaced
        # (growth of the frontier, minus the placed neighbours, the unplaced ones)
        key = (bool(rest) - closes.get(b, 0).bit_count(), rest.bit_count() - adj[x].bit_count(), rest.bit_count())
        if best is None or key < best:
            best, v = key, x
    return v, closes.get(1 << v, 0)


def _partition_counts(g: SimpleGraph) -> list[int]:
    """a_k, the number of partitions of the vertices into k independent sets, k = 0..n.

    The frontier DP of the module docstring. A state is the frontier's
    classes as a sorted tuple of disjoint masks, with the partial a_k. The
    walk ends after n steps, one per vertex. A step stores at most B(w)
    states, the Bell number of its frontier's width w, and each new state
    is counted against `COLORING_BUDGET` before it is stored.
    """
    n = g.n
    adj = _adjacency(g)
    states: dict[tuple[int, ...], list[int]] = {(): [1] + [0] * n}
    unplaced = (1 << n) - 1
    frontier = built = 0
    while unplaced:
        v, closed = _next_vertex(adj, unplaced, frontier)
        bit, nb = 1 << v, adj[v]
        unplaced ^= bit
        # the frontier vertices whose last unplaced neighbour is v leave, and so does v when it has none
        keep = ~closed if nb & unplaced else ~(closed | bit)
        frontier = (frontier | bit) & keep
        table: dict[tuple[int, ...], list[int]] = {}
        for classes, counts in states.items():
            f = len(classes)
            # v starts a frontier class: in one of the k - f blocks with no frontier member, or in a new block
            moves = [(classes + (bit,), [k * a + b for k, a, b in zip(range(-f, n + 1), counts, [0, *counts])])]
            # or joins a frontier class with no neighbour of v
            moves += [(classes[:i] + (c | bit,) + classes[i + 1:], counts) for i, c in enumerate(classes) if not c & nb]
            for state, counted in moves:
                state = tuple(sorted([c & keep for c in state if c & keep]))
                old = table.get(state)
                if old is not None:
                    table[state] = [a + b for a, b in zip(old, counted)]
                    continue
                built += 1
                if built > COLORING_BUDGET:
                    raise ResourceLimitError(
                        f"coloring oracle reached {built} frontier states at vertex {n - unplaced.bit_count()} of {n}, "
                        f"over the budget of {COLORING_BUDGET}"
                    )
                table[state] = counted
        states = table
    return states[()]


def chromatic_poly_interpolated(g: SimpleGraph) -> IntPolynomial:
    """The coloring oracle: P(t) = sum_k a_k t(t-1)...(t-k+1), a_k from `_partition_counts`.

    Horner's rule in the falling factorials: from the top, p becomes
    p (t - k) + a_k.
    """
    p: list[int] = []
    for k, blocks in reversed(list(enumerate(_partition_counts(g)))):
        p = [a - k * b for a, b in zip([0, *p], [*p, 0])]
        p[0] += blocks
    return IntPolynomial(tuple(p))

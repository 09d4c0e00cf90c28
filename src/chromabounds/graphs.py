"""Simple graphs and their chromatic polynomials, by two independent routes.

`SimpleGraph` is an immutable value (`exactmath.Value`): vertices 0..n-1
and a frozenset of edges, each stored as (low, high). Its chromatic
polynomial comes from the deletion-contraction kernel (`chromatic_poly`)
and from the coloring oracle (`chromatic_poly_interpolated`); the two
must agree coefficient-exact.

The oracle counts proper colorings by ranked inclusion-exclusion over
independent sets (Bjorklund, Husfeldt & Koivisto 2009): one table of
independent-set polynomials per graph gives the number e_j of ordered
partitions into j independent sets for every j, in about n^2 2^n steps.
The count with t colors is sum_j C(t, j) e_j, which the oracle expands in
integers as P(t) = sum_j (e_j / j!) t(t-1)...(t-j+1), so the count for
any t is the value of that polynomial at t. The oracle's polynomials have
nonnegative coefficients and are packed into integers (Kronecker
substitution), so each step of its recurrence and each power is one
integer operation; the deletion-contraction kernel keeps coefficient
lists, whose signed coefficients do not pack. The oracle and the kernel
share only the exact-arithmetic primitives of `exactmath`.

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

from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from .errors import COLORING_BUDGET, InputError, InvariantError, ResourceLimitError
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
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
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


def _ones(count: int, width: int) -> int:
    """1 + z + ... + z^(count - 1) packed at `width` >= 1 bits per coefficient."""
    return ((1 << count * width) - 1) // ((1 << width) - 1)


def _ordered_partitions(g: SimpleGraph) -> list[int]:
    """e_j, the number of ordered partitions of the vertices into j nonempty independent sets, j = 0..n.

    Ranked inclusion-exclusion (Bjorklund, Husfeldt & Koivisto, "Set
    partitioning via inclusion-exclusion", SIAM J. Comput. 39(2), 2009):
    with r_S(z) the sum of z^|I| over the independent sets I of S,
    e_j = sum over S of (-1)^(n - |S|) [z^n] (r_S(z) - 1)^j. The coefficient
    counts j-tuples of nonempty independent subsets of S whose sizes add up
    to n; the alternating sum keeps those that cover every vertex, which
    are then disjoint.

    The work grows as n^2 2^n: a table of 2^n polynomials of degree <= n,
    each distinct one raised to the powers 1..n truncated at z^n. That
    count is checked against `COLORING_BUDGET` before the table is allocated.

    Every polynomial here has nonnegative coefficients, so each is packed
    into one integer, its value at z = 2^b for a width of b bits above all
    of its coefficients (Kronecker substitution): a sum or a product is one
    integer operation, no coefficient carries into the next, and
    coefficient k is read back by shift and mask. The table packs r_S at
    n + 1 bits, since [z^k] r_S counts k-subsets of S, at most
    C(n, k) < 2^(n+1). With r_S - 1 = z w_S, the coefficients of w_S add up
    to 2^|S| - 1 < 2^n, so those of w_S^j, and of any truncation of it, add
    up to less than 2^(nj) <= 2^(n^2) for j <= n. So n^2 + 1 bits hold every
    coefficient of the powers. They get (n + 1)^2, the width at which a
    distinct w_S is spread from the table's width by one multiplication and
    one mask, just before its powers are taken; the table itself stays
    narrow.
    """
    n = g.n
    work = n * n << n
    if work > COLORING_BUDGET:
        raise ResourceLimitError(
            f"coloring oracle on n={n} vertices needs n^2*2^n = {work} steps, over the cap of {COLORING_BUDGET}"
        )
    if n == 0:
        return [1]  # the empty partition
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # table[S] holds r_S; with v the highest vertex of S, the independent
    # sets of S either avoid v or are v plus one of S - N[v]:
    # r_S = r_{S - v} + z r_{S - N[v]}.
    narrow, wide = n + 1, (n + 1) ** 2
    table = [1]
    for v in range(n):
        avoid = ~adj[v]
        table += [r + (table[s & avoid] << narrow) for s, r in enumerate(table)]
    # w_S spans n * narrow = wide - narrow bits. Times `copies` it lies n
    # times side by side, copy k shifted by k (wide - narrow) bits, which
    # puts its coefficient k at bit k * wide, where `fields` keeps it.
    copies, fields = _ones(n, wide - narrow), ((1 << narrow) - 1) * _ones(n, wide)
    # (j, bit of z^(n-j), mask of z^0..z^(n-j)): w^j is needed only up to z^(n-j).
    steps = [(j, (n - j) * wide, (1 << (n - j + 1) * wide) - 1) for j in range(1, n + 1)]
    e = [0] * (n + 1)
    # Many subsets share one r_S, and each distinct one is expanded once.
    for r, count in Counter(table).items():
        if r == 1:
            continue  # S is empty: (r_S - 1)^j vanishes for j >= 1
        # r_S - 1 = z w(z), so [z^n] (r_S - 1)^j = [z^(n-j)] w^j.
        w = (r >> narrow) * copies & fields
        weight = -count if (n ^ w) & 1 else count  # w(0) = |S|
        power = 1
        for j, top, mask in steps:
            power = power * w & mask
            e[j] += weight * (power >> top)
    return e


def chromatic_poly_interpolated(g: SimpleGraph) -> IntPolynomial:
    """The oracle's counts at every t at once, expanded in integers.

    P(t) = sum_j C(t, j) e_j = sum_j (e_j / j!) t(t-1)...(t-j+1), with the
    falling factorials built one factor at a time. The j blocks of an
    ordered partition can be put in any of j! orders, so j! divides e_j;
    a remainder means the table is wrong.
    """
    e = _ordered_partitions(g)
    coeffs = [0] * (g.n + 1)
    falling, factorial = [1], 1
    for j, count in enumerate(e):
        if j:
            # times (t - (j - 1))
            falling = [a - (j - 1) * b for a, b in zip([0, *falling], [*falling, 0])]
            factorial *= j
        blocks, rest = divmod(count, factorial)
        if rest:
            raise InvariantError(f"{count} ordered partitions into {j} blocks is not a multiple of {j}!")
        for p, c in enumerate(falling):
            coeffs[p] += blocks * c
    return IntPolynomial(tuple(coeffs))

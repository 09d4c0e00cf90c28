"""Random inputs shared by the test modules.

`small_graphs` and its complements, `dense_graphs`, feed the chromatic
kernel on both sides of its switch between deletion-contraction and
addition-contraction.

The arrangement families feed the property tests of the depth-first subset
walk against the per-subset sweeps it replaced: affine arrangements with
parallel hyperplanes, repeated directions and fractional offsets (empty
intersections to prune), random linear ones (every subset central, many
dependent), generic affine ones (general position occurs) and graphic
arrangements of small graphs. `linear_arrangements` feeds the property
tests of restriction and deconing with wider normals, repeated directions
and scaled copies. `concurrent_arrangements` feeds the poset's test
against the pairwise scan with hyperplanes through one point, whose
normals often span less than the space: linear ones, which the poset
closes at their center, and ones through a point off the origin, which
take its full loop.

`reference_flat_of` computes one intersection from a fresh elimination, the
slow path that the poset, the walk and the NBC sweep are checked against.

`binom` computes one generalized binomial from its falling factorial, the
reference for the package's rows of binomials and for the closed forms
that read them. `reference_linear_product` expands a product of linear
factors one factor at a time, the reference for the closed forms of
(t - 1)^m and (t - d)^e.

`reference_reduce` and `reference_canonical` are the chromatic kernel's
reduction step and memo key written over a bit generator, dicts and a
sort-key lambda, the slow paths that the kernel's inline mask loops must
match output for output. `regular_graphs` feeds them 6-regular graphs like
those of the benchmark's graph-dc workload.

`reference_ordered_partitions` counts the ordered partitions into
independent sets by ranked inclusion-exclusion on coefficient lists, the
reference that the coloring oracle's frontier DP must match: e_k = k! a_k.

`reference_format_arrangement` prints an arrangement with each offset
as a `Fraction`, the slow path that the command line's integer printer
must match byte for byte on `fractional_arrangements`.

`digit_limit` reads the interpreter's int-string digit limit, which no
test may leave changed.

`K3_ARR`, `K4_ARR`, `GENERIC_LINES` and `PARALLEL_LINES` are the fixed
arrangements that several modules pin.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from chromabounds import Arrangement, Hyperplane, SimpleGraph, complete, graphic_arrangement
from chromabounds.arrangements import Flat
from chromabounds.corpus import random_arrangement
from chromabounds.errors import ResourceLimitError
from chromabounds.linalg import echelon, residual

K3_ARR = graphic_arrangement(complete(3))
K4_ARR = graphic_arrangement(complete(4))
GENERIC_LINES = Arrangement(2, (Hyperplane.make((1, 0), 0), Hyperplane.make((0, 1), 0), Hyperplane.make((1, 1), 1)))
PARALLEL_LINES = Arrangement(2, (Hyperplane.make((1, 0), 0), Hyperplane.make((1, 0), 1)))


def digit_limit():
    """The interpreter's int-string digit limit, None where it has none (before Python 3.11)."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def binom(x: int, j: int) -> int:
    """Generalized binomial coefficient for integer x (possibly negative).

    Computed as the falling factorial x(x-1)...(x-j+1) / j!. Returns 0 for
    j < 0 by convention, 1 for j == 0. The product of j consecutive
    integers is divisible by j!, so the division is exact.
    """
    if j < 0:
        return 0
    if j == 0:
        return 1
    num = 1
    for i in range(j):
        num *= x - i
    return num // math.factorial(j)


def reference_linear_product(roots):
    """Ascending coefficients of the product of (t - d) over `roots`, multiplied in one factor at a time."""
    out = [1]
    for d in roots:
        out = [a - d * b for a, b in zip([0] + out, out + [0])]
    return out


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_canonical(adj, comp):
    """Component `comp` relabelled by (degree, sorted neighbour degrees), ties by index."""
    nbrs = {v: list(bits(adj[v])) for v in bits(comp)}
    deg = {v: len(ns) for v, ns in nbrs.items()}
    order = sorted(nbrs, key=lambda v: (deg[v], sorted(map(deg.__getitem__, nbrs[v])), v))
    bit = {v: 1 << i for i, v in enumerate(order)}
    return tuple(sum(map(bit.__getitem__, nbrs[v])) for v in order)


def reference_reduce(adj, live, todo):
    """Peel simplicial vertices off the graph on `live`, split it, strip universal vertices.

    P(G) = (t - d) P(G - v) when N(v) is a clique of size d. Only vertices
    in `todo` are tested at first; removing v can only make its neighbours
    simplicial. A component C whose universal vertices form U, |U| = u, has
    P(C)(t) = t(t - 1)...(t - u + 1) P(C - U)(t - u), and C - U is split and
    stripped again at the shifted argument. Stripping makes no vertex
    simplicial: U is a clique joined to every other vertex, so N(x) is a
    clique exactly when N(x) - U is one. Mutates `adj`.
    """
    offsets = []
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        nb = adj[v]
        if nb & (nb - 1) == 0 or all(nb & ~adj[x] == 1 << x for x in bits(nb)):
            offsets.append(nb.bit_count())
            live ^= low
            for x in bits(nb):
                adj[x] ^= low
            todo |= nb
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
                for v in bits(frontier):
                    reach |= adj[v]
                frontier = reach & ~comp
                comp |= frontier
                rounds += 1
            live ^= comp
            universal = 0
            # A universal vertex is adjacent to `start`, so the search from
            # `start` found the whole component in two rounds and ended on
            # the third.
            if rounds <= 3:
                for v in bits(comp & (adj[start.bit_length() - 1] | start)):
                    if adj[v] | 1 << v == comp:
                        universal |= 1 << v
            if universal:
                u = universal.bit_count()
                offsets.extend(range(shift, shift + u))
                rest = comp ^ universal
                for x in bits(rest):
                    adj[x] ^= universal
                parts.append((shift + u, rest))
            else:
                comps.append((shift, reference_canonical(adj, comp)))
    return offsets, comps


def reference_ordered_partitions(g: SimpleGraph, cap: int) -> list[int]:
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
    count is checked against `cap` before the table is allocated.
    """
    n = g.n
    work = n * n << n
    if work > cap:
        raise ResourceLimitError(
            f"coloring oracle on n={n} vertices needs n^2*2^n = {work} steps, over the cap of {cap}"
        )
    closed = [1 << v for v in range(n)]
    for u, v in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    # table[S] holds r_S ascending; with v the lowest vertex of S, the
    # independent sets of S either avoid v or are v plus one of S - N[v]:
    # r_S = r_{S - v} + z r_{S - N[v]}.
    table = [(1,)] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        without, with_v = table[s ^ low], table[s & ~closed[low.bit_length() - 1]]
        r = list(without)
        if len(with_v) == len(r):
            r.append(0)
        for i, c in enumerate(with_v):
            r[i + 1] += c
        table[s] = tuple(r)
    e = [1 if n == 0 else 0] + [0] * n
    # Many subsets share one r_S, and each distinct one is expanded once.
    for r, count in Counter(table).items():
        if len(r) == 1:
            continue  # S is empty: (r_S - 1)^j vanishes for j >= 1
        weight = -count if (n - r[1]) % 2 else count  # r[1] = |S|
        # r_S - 1 = z w(z), so [z^n] (r_S - 1)^j = [z^(n-j)] w^j.
        w = r[1:]
        power = [1]
        for j in range(1, n + 1):
            size = n - j + 1  # w^j is needed only below degree n - j + 1
            nxt = [0] * min(size, len(power) + len(w) - 1)
            for i, x in enumerate(power[:size]):
                for k, y in enumerate(w[:size - i]):
                    nxt[i + k] += x * y
            power = nxt
            if len(power) == size:
                e[j] += weight * power[-1]
    return e


@st.composite
def small_graphs(draw, max_n=5, max_m=None):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=max_m)) if pairs else set()
    return SimpleGraph(n, frozenset(edges))


def _complement(g):
    return SimpleGraph(g.n, frozenset((i, j) for i in range(g.n) for j in range(i + 1, g.n)) - g.edges)


def dense_graphs(max_n=5, max_m=None):
    """Complements of `small_graphs`, so most vertex pairs are adjacent."""
    return small_graphs(max_n, max_m).map(_complement)


def random_regular(rng, n, d=6):
    """A d-regular graph on n > d vertices: the circulant on offsets 1..d/2 (d even), mixed by 10n edge switches.

    A switch replaces edges ab and ce by ac and be when neither is present,
    which keeps every degree and the graph simple.
    """
    edges = {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in range(1, d // 2 + 1)}
    for _ in range(10 * n):
        (a, b), (c, e) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted((a, c))), tuple(sorted((b, e)))}
        if len({a, b, c, e}) == 4 and not new & edges:
            edges -= {(a, b), (c, e)}
            edges |= new
    return SimpleGraph(n, frozenset(edges))


regular_graphs = st.builds(random_regular, st.integers(0, 2**32 - 1).map(random.Random), st.integers(7, 14))


def random_affine_with_parallels(rng):
    """Up to 7 hyperplanes in dimension 1-3, some sharing a normal, with fractional offsets."""
    dim = rng.randint(1, 3)
    normals, wanted = [], rng.randint(1, 4)
    while len(normals) < wanted:
        normal = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(normal):
            normals.append(normal)
    hyps = [
        Hyperplane.make(rng.choice(normals), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 7))
    ]
    return Arrangement(dim, tuple(hyps))


_rngs = st.integers(0, 2**32 - 1).map(random.Random)

walk_arrangements = st.one_of(
    _rngs.map(random_affine_with_parallels),
    _rngs.map(lambda rng: random_arrangement(rng, max_dim=4, max_m=8, linear=True)),
    _rngs.map(lambda rng: random_arrangement(rng, max_dim=4, max_m=8)),
    small_graphs().map(graphic_arrangement),
)


@st.composite
def linear_arrangements(draw, max_dim=5, max_m=8):
    """Linear arrangements with integer normals in -9..9; multiples of one normal give one hyperplane."""
    dim = draw(st.integers(1, max_dim))
    normals = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).filter(any)
    return Arrangement(dim, tuple(Hyperplane.make(normal, 0) for normal in draw(st.lists(normals, max_size=max_m))))


@st.composite
def concurrent_arrangements(draw, max_dim=5, max_m=8):
    """Hyperplanes through the origin or one rational point off it, normals drawn from a span of rank <= dim."""
    dim = draw(st.integers(1, max_dim))
    span = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=dim))
    combinations = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span)),
                                 max_size=max_m))
    normals = [[sum(c * v[j] for c, v in zip(cs, span)) for j in range(dim)] for cs in combinations]
    point = draw(st.one_of(st.just([0] * dim),
                           st.lists(st.fractions(-3, 3, max_denominator=4), min_size=dim, max_size=dim)))
    hyps = [Hyperplane.make(normal, sum(a * x for a, x in zip(normal, point))) for normal in normals if any(normal)]
    return Arrangement(dim, tuple(hyps))


@st.composite
def fractional_arrangements(draw, max_dim=4, max_m=6):
    """Arrangements read from rational coordinates and offsets, some denominators and numerators long."""
    dim = draw(st.integers(1, max_dim))
    values = st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                       st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)))
    normals = st.lists(values, min_size=dim, max_size=dim).filter(any)
    rows = draw(st.lists(st.tuples(normals, values), max_size=max_m))
    return Arrangement(dim, tuple(Hyperplane.make(normal, offset) for normal, offset in rows))


def reference_format_arrangement(arr: Arrangement) -> str:
    lines = [f"dim {arr.dim}"]
    for h in arr.hyperplanes:
        coords = " ".join(str(x) for x in h.normal)
        lines.append(f"{coords} {h.offset}")
    return "\n".join(lines)


def reference_flat_of(arr, subset):
    """Intersection of the chosen hyperplanes, as its closure; None when empty.

    The empty subset yields the ambient space.
    """
    basis = echelon(arr.hyperplanes[i].row for i in sorted(set(subset)))
    if any(not any(b[:-1]) for _, b in basis):
        return None
    mask = sum(1 << j for j, h in enumerate(arr.hyperplanes) if not any(residual(h.row, basis)[1]))
    return Flat(arr.dim - len(basis), mask)

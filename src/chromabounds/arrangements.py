"""Rational affine hyperplane arrangements and their characteristic polynomials.

A hyperplane is one primitive integer row (normal | offset) with a
canonical sign, so equality and deduplication are structural and all the
arithmetic is on integers. Restriction and deconing are one elimination
step on these rows. A flat is identified by its closure, the bitmask of
the hyperplanes containing it, so flat equality and containment are bit
operations. The characteristic polynomial is computed from the
intersection poset's Moebius values, with an independent signed-subset
expansion (`char_poly_whitney`) as a cross-check. `nbc_rule` and
`decone_rule` are the NBC and deconing identities, each with its detail,
for both `verify`'s check table and the `nbc` and `decone` commands.

Both the intersection poset and the subset walk below take each
hyperplane's row as it is, with its pivot (`Hyperplane.pivoted`): the row
is already primitive with a positive pivot entry, so it needs no
elimination to enter. Every later cut is one `linalg.reduce_row` step
against one pivot row.

The intersection poset is built rank by rank. Each flat keeps its
sections as a dict from the (pivot, row) of a cut to the mask of the
hyperplanes that make that cut, so each child flat is produced once, and
hyperplanes parallel to the flat are dropped. Each Moebius value comes
from the flat's covers by Weisner's theorem (L. Weisner, Trans. AMS 38,
1935; R. Stanley, Enumerative Combinatorics I, Cor. 3.9.3): in a finite
lattice with bottom 0 and top 1, for any a != 0, the sum of mu(0, x) over
the x with x v a = 1 is 0. The flats containing a flat X form the
intersection lattice of the central arrangement of the hyperplanes
through X, a geometric lattice with X on top. Take for a the lowest
hyperplane H through X; the join Y v H is the intersection of Y with H.
By semimodularity a flat Y with Y v H = X is X itself or a cover of X,
and a cover Y of X has Y v H = X exactly when Y does not lie in H. So
mu(X) = -(sum of mu(Y) over the covers Y of X that do not lie in H), and
each Moebius value is summed as the covers are found, with no set of the
flats above X.

A linear arrangement of rank r closes at its center. Every hyperplane
holds the origin, so the center, the intersection of all m hyperplanes,
is a flat of dimension n - r that lies in every flat, and each coatom (a
flat of dimension n - r + 1) has the center as its only child. So the
poset gives each coatom the one section of all hyperplanes, with no
elimination, and appends the center from the coatoms. Its Moebius value
is Weisner's sum with H = hyperplane 0, the lowest bit of the center's
closure since the center lies in every hyperplane: mu(center) = -(sum of
mu(Y) over the coatoms Y whose closure lacks bit 0). On a generic linear
arrangement the rank-k flats number C(m, k) and each cuts about m
sections, so their sections cost Theta(m^(k+1)) eliminations; skipping
those of rank r - 1 takes the count from Theta(m^r) to Theta(m^(r-1)).
The rank is one echelon pass over the normals, which stops once they
span the ambient space. An arrangement with an offset, even one whose
hyperplanes share a point, takes the loop as it is.

The poset enumerates no subsets, so no subset guard applies to it. Its
cost is bounded by the work it does: each new flat whose sections are
computed counts the sections its parent's grouping loop reads, an upper
bound on that flat's `reduce_row` steps, and past `POSET_STEP_BUDGET`
steps the build stops with `ResourceLimitError`. Preset flats (a point,
and in a linear arrangement each coatom and the center) cost no step.

The sweeps over subsets of hyperplanes (`char_poly_whitney`,
`is_general_position` and the no-broken-circuit count `nbc_counts`) share
one depth-first walk, `_subset_walk`, and it alone checks the subset
guard: a walk over more than `SUBSET_GUARD` hyperplanes raises
`ResourceLimitError` before its first subset. It grows each subset by
larger indices only. Each subset carries the residuals of the rows it can
still add against its echelon basis, so the pivot of a child's entry
classifies the child with no elimination. A child of higher rank derives
its own table from its parent's, one elimination step for each later row
that is nonzero at the new pivot; a dependent child shares its parent's.
A pivot in the offset column means the child's hyperplanes have no common
point; the walk does not descend from it, since every superset of an
empty intersection is empty. The walk shares only the elimination
step `linalg.reduce_row` with `intersection_poset`, so the Moebius and
Whitney routes stay independent.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import POSET_STEP_BUDGET, SUBSET_GUARD, InputError, ResourceLimitError
from .exactmath import IntPolynomial, Value, binomial_row
from .linalg import Pivoted, Row, echelon, reduce_row, residual

if TYPE_CHECKING:
    from fractions import Fraction

    from .graphs import SimpleGraph


class Hyperplane(Value):
    """The affine locus normal . x = offset, as one integer row (normal | offset). Immutable.

    The row is scaled to integers by the offset's denominator, then made
    primitive with a positive first nonzero entry by `linalg.residual`
    against no basis; that entry must lie in the normal. Rows that are
    nonzero multiples of each other give equal hyperplanes. So the row
    enters elimination as it is, with its pivot (`pivoted`).
    """

    __slots__ = ("row",)
    row: Row

    def __init__(self, row: Sequence[int]) -> None:
        pivot, row = residual(row, ())
        if pivot >= len(row) - 1:  # the normal is zero
            raise InputError("hyperplane normal must be nonzero")
        object.__setattr__(self, "row", row)

    @classmethod
    def make(cls, normal: Sequence[Fraction | int], offset: Fraction | int = 0) -> "Hyperplane":
        """The hyperplane normal . x = offset, from any values `Fraction` accepts, scaled to one integer row."""
        from fractions import Fraction

        values = [Fraction(x) for x in [*normal, offset]]
        scale = lcm(*(v.denominator for v in values))
        return cls([v.numerator * (scale // v.denominator) for v in values])

    @property
    def dim(self) -> int:
        return len(self.row) - 1

    @property
    def pivoted(self) -> Pivoted:
        """(pivot, row), as elimination takes a row: the pivot is its first nonzero column."""
        row = self.row
        lead = 0
        while not row[lead]:
            lead += 1
        return lead, row

    @property
    def normal(self) -> tuple[int, ...]:
        """Primitive integer normal, first nonzero entry positive."""
        g = gcd(*self.row[:-1])
        return tuple([x // g for x in self.row[:-1]])

    @property
    def offset(self) -> Fraction:
        """Right-hand side for the primitive normal."""
        from fractions import Fraction

        return Fraction(self.row[-1], gcd(*self.row[:-1]))

    def is_linear(self) -> bool:
        return not self.row[-1]


class Arrangement(Value):
    """Ambient dimension plus an ordered, deduplicated hyperplane list. Immutable."""

    __slots__ = ("dim", "hyperplanes")
    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __init__(self, dim: int, hyperplanes: tuple[Hyperplane, ...] = ()) -> None:
        if dim < 0:
            raise InputError("ambient dimension must be nonnegative")
        for h in hyperplanes:
            if h.dim != dim:
                raise InputError(
                    f"hyperplane normal has length {h.dim}, expected {dim}"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "hyperplanes", tuple(dict.fromkeys(hyperplanes)))

    @property
    def m(self) -> int:
        return len(self.hyperplanes)


class Flat(NamedTuple):
    """Nonempty intersection of hyperplanes, identified by its closure.

    Bit i of `mask` is set when hyperplane i contains the flat; the ambient
    space has mask 0. One flat contains another exactly when its mask is a
    subset of the other's.
    """

    dim: int
    mask: int


def _subset_walk(arr: Arrangement, nbc: bool = False) -> Iterator[tuple[int, int | None]]:
    """Depth-first over nonempty subsets grown by larger indices; yields (size, rank).

    The one place that enumerates subsets, so the one place that checks the
    subset guard: more than `SUBSET_GUARD` hyperplanes raise `ResourceLimitError`
    before the first subset is yielded.

    `rank` is None when the subset has no common point. Each subset carries
    a table: for every hyperplane it can still add, the (pivot, primitive
    residual) of its row against the subset's echelon basis. The root table,
    for the empty subset, holds each hyperplane's (pivot, row) as it is,
    with no elimination. The pivot of the added row's entry classifies a
    child with no elimination. A zero residual (pivot past the last column)
    means the child is dependent (central, rank unchanged), a pivot in the
    offset column means an empty intersection, and a pivot in the normal
    raises the rank by one. The walk descends from every central subset,
    dependent or not, and never from those with an empty intersection, nor
    from a child with no larger index left to add. A dependent child spans
    what its parent spans, so it shares its parent's table. A child that
    raises the rank derives its table when it is popped: each later entry
    that is nonzero at the new pivot takes one `reduce_row` step against
    the child's residual row, and the others are kept as they are. So the
    stack holds one table per depth.

    With `nbc`, an independent central child S + i whose entry equals a
    later entry of S's table, that of some c > i, is refused: it is
    neither yielded nor descended from. `nbc_counts` proves that this rule
    refuses exactly the subsets holding a broken circuit, so this walk
    meets no dependent child.
    """
    n, m = arr.dim, arr.m
    if m > SUBSET_GUARD:
        raise ResourceLimitError(f"arrangement has {m} hyperplanes; subset enumeration guard is {SUBSET_GUARD}")
    # next index, size, rank, table, index of the table's first entry, and the pivoted row
    # that the table has yet to be reduced by (None when the table is the subset's own)
    stack: list[tuple[int, int, int, list[Pivoted], int, Pivoted | None]] = [
        (0, 0, 0, [h.pivoted for h in arr.hyperplanes], 0, None)
    ]
    while stack:
        start, size, r, table, first, pivot = stack.pop()
        if pivot is not None:
            col, prow = pivot
            derived = []  # an inline loop, for the reason given in `linalg._primitive`
            for e in table[start - first:]:
                derived.append(reduce_row(e[1], col, prow) if e[1][col] else e)
            table, first = derived, start
        for i in range(start, m):
            entry = table[i - first]
            lead = entry[0]
            if lead < n:
                if nbc and entry in table[i + 1 - first:]:
                    continue
                yield size + 1, r + 1
                if i + 1 < m:
                    stack.append((i + 1, size + 1, r + 1, table, first, entry))
            elif lead == n:
                yield size + 1, None
            else:
                yield size + 1, r
                if i + 1 < m:
                    stack.append((i + 1, size + 1, r, table, first, None))


def rank(arr: Arrangement) -> int:
    """Dimension of the span of the normal vectors (exact elimination)."""
    return len(echelon(h.row[:-1] for h in arr.hyperplanes))


def is_central(arr: Arrangement) -> bool:
    """The hyperplanes share a point: no echelon row of (normal | offset) has its pivot in the offset column.

    Such a row has a zero normal and a nonzero offset, so a linear arrangement always passes.
    """
    return all(lead < arr.dim for lead, _ in echelon(h.row for h in arr.hyperplanes))


def is_boolean(arr: Arrangement) -> bool:
    """Rank equals hyperplane count; independence forces centrality."""
    if rank(arr) != arr.m:
        return False
    assert is_central(arr), "independent normals must have a common point"
    return True


def is_general_position(arr: Arrangement) -> bool:
    """Every subset of size <= r is boolean, every larger subset non-central.

    The walk yields a subset before it descends from it, and the test
    returns at the first dependent central subset, so only independent
    ones are descended from. No subset of size r + 1 is independent, so
    the walk stops at size r + 1.
    """
    r = rank(arr)
    for size, sub_rank in _subset_walk(arr):
        if sub_rank != (size if size <= r else None):
            return False
    return True


class IntersectionPoset(NamedTuple):
    """Flats ordered by reverse inclusion with their Moebius values.

    Flats are sorted by decreasing dimension (ambient space first), then by
    closure mask, and `mobius[i]` belongs to `flats[i]`.
    """

    flats: tuple[Flat, ...]
    mobius: tuple[int, ...]


def intersection_poset(arr: Arrangement) -> IntersectionPoset:
    """All distinct nonempty intersections, with Moebius values.

    Built rank by rank, until a rank has no flats. A flat keeps its
    sections: the cuts of the flat by the hyperplanes that meet it in a
    hyperplane of the flat, as a dict from each cut's (pivot, row) to the
    mask of the hyperplanes that make it. A cut is a residual against the
    flat's system, primitive with a positive pivot, so equal cuts are equal
    keys. The ambient space's sections are the hyperplanes' own rows, which
    enter with their pivots as they are. A hyperplane whose residual has a
    zero normal is parallel to the flat; it contains no flat below it and
    is dropped. Each section gives one child, whose closure adds the
    section's mask. The first parent to reach a child cuts the other
    sections by the child's pivot row, one `linalg.reduce_row` step each;
    a section that already vanishes at the pivot is kept as the same key.
    The cuts are grouped in one dict pass, and that dict is the child's
    sections. A point has no sections, so none are computed for it. When
    every offset is zero (the test `is_central` makes first), r = rank(arr)
    gives the dimension n - r of the center: no sections are computed for
    a coatom or the center, each coatom's one section is the center (every
    hyperplane), and the center comes last, one rank below the coatoms
    (see the module docstring). Every parent that reaches a child is a
    cover of the child.

    The build counts its elimination steps: each new flat whose sections
    are computed adds the number of its parent's sections, which bounds
    its `reduce_row` calls. Once the count passes `POSET_STEP_BUDGET`,
    `ResourceLimitError` names the budget and the flats built so far. The
    check runs as each flat is found, so no layer runs unbounded.

    The Moebius function follows from the covers alone, by Weisner's
    theorem (see the module docstring): mu(V) = 1, and mu(X) = -sum of
    mu(Y) over the covers Y of X whose closure lacks the lowest set bit of
    X's closure. Each cover adds its term as it reaches the child, so a
    rank keeps only its flats' values and sections.
    """
    n = arr.dim
    steps = 0  # sections read by the grouping loops, a bound on the reduce_row calls
    # dimension -> the sections its flats get with no elimination: a point has none, and in a
    # linear arrangement the center has none and each coatom has one, the center (its key is unused)
    preset: dict[int, dict] = {0: {}}
    if all(h.is_linear() for h in arr.hyperplanes):
        center = n - rank(arr)
        preset = {center: {}, center + 1: {None: (1 << arr.m) - 1}}
    flats = [Flat(n, 0)]
    mobius = [1]
    # each flat of the current rank as (Moebius value, closure, sections as {(pivot, row): mask})
    layer = [(1, 0, {h.pivoted: 1 << j for j, h in enumerate(arr.hyperplanes)})]
    dim = n
    while layer:
        dim -= 1
        found: dict[int, list] = {}  # closure -> [mu summed over the covers so far, sections]
        for mu, mask, sections in layer:
            for section, bits in sections.items():
                closure = mask | bits
                child = found.get(closure)
                if child is None:
                    grouped = preset.get(dim)
                    if grouped is None:
                        steps += len(sections)
                        if steps > POSET_STEP_BUDGET:
                            raise ResourceLimitError(
                                f"intersection poset passed its budget of {POSET_STEP_BUDGET} elimination steps "
                                f"after {len(flats) + len(found)} flats")
                        grouped = {}
                        lead, row = section
                        for other, other_bits in sections.items():
                            if other[1][lead]:  # so is the section's own row, which is skipped
                                if other is section:
                                    continue
                                other = reduce_row(other[1], lead, row)
                                if other[0] >= n:  # parallel to the child
                                    continue
                            grouped[other] = grouped.get(other, 0) | other_bits
                    child = found[closure] = [0, grouped]
                if not mask & closure & -closure:  # the cover misses the child's lowest hyperplane
                    child[0] -= mu
        layer = []
        for closure in sorted(found):
            mu, sections = found[closure]
            layer.append((mu, closure, sections))
            flats.append(Flat(dim, closure))
            mobius.append(mu)
    return IntersectionPoset(tuple(flats), tuple(mobius))


def char_poly(arr: Arrangement) -> IntPolynomial:
    """Characteristic polynomial: sum of mu(X) t^dim(X) over the poset.

    Takes no subset guard: the poset is bounded by `POSET_STEP_BUDGET`.
    """
    poset = intersection_poset(arr)
    coeffs = [0] * (arr.dim + 1)
    for flat, mu in zip(poset.flats, poset.mobius):
        coeffs[flat.dim] += mu
    return IntPolynomial(tuple(coeffs))


def char_poly_whitney(arr: Arrangement) -> IntPolynomial:
    """Signed sum over central subsets B of (-1)^|B| t^(n - rank(B)).

    Independent of the poset route; the two must agree on every input.
    """
    coeffs = [0] * (arr.dim + 1)
    coeffs[arr.dim] = 1  # empty subset
    for size, r in _subset_walk(arr):
        if r is not None:
            coeffs[arr.dim - r] += -1 if size % 2 else 1
    return IntPolynomial(tuple(coeffs))


def nbc_counts(arr: Arrangement, order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Entry k, for k = 0..m: the k-subsets with nonempty intersection and no broken circuit.

    Matches the absolute coefficient of t^(n-k) in the characteristic
    polynomial for 0 <= k <= rank, and is 0 above the rank. A ground order
    is a permutation of the hyperplane indices listed from smallest to
    largest; the hyperplanes are first permuted into `order`, so the proof
    below is stated in index order. No circuit is enumerated.

    An independent subset S with a common point holds a broken circuit
    exactly when some c not in S has its row (normal | offset) in the span
    of the rows of {s in S : s < c}. If it does, that set plus c is
    central and dependent, so it holds a circuit C through c, whose
    largest index is c, and C - c lies in S. Conversely, if C - c lies in
    S for a circuit C with largest index c, then c is not in S (S is
    independent) and its row is in the span of C - c, all below c.

    Such subsets are closed under taking subsets, so a walk that grows
    each subset by larger indices reaches every one of them once, and it
    may prune at the first subset that holds a broken circuit: every
    superset holds it too, or holds the whole circuit and is dependent.
    For each subset S without a broken circuit, none of the residuals in
    S's table is zero, or S would hold a broken circuit. A child S + i
    holds one through some c < i exactly when S does, since the rows below
    c are the same. Through some c > i, it holds one exactly when c's row
    is in the span of S + i but not of S, that is, when c's residual is a
    nonzero multiple of i's; both are primitive with a positive pivot, so
    this is when they are equal. So the walk's `nbc` rule refuses exactly
    the subsets with a broken circuit, and it also drops the subsets with
    no common point.
    """
    if order is not None:
        order = tuple(order)
        if sorted(order) != list(range(arr.m)):
            raise InputError(f"order {order} is not a permutation of 0..{arr.m - 1}")
        arr = Arrangement(arr.dim, tuple([arr.hyperplanes[j] for j in order]))
    counts = [0] * (arr.m + 1)
    counts[0] = 1  # empty subset
    for size, r in _subset_walk(arr, nbc=True):
        if r is not None:
            counts[size] += 1
    return tuple(counts)


def nbc_rule(counts: Sequence[int], a: Sequence[int], order: Sequence[int] | None) -> list[tuple[bool, str]]:
    """The `nbc-coefficient` identity: (ok, "k=... order=...") for each k <= r, counts[k] in `order` against a_k."""
    return [(counts[k] == a_k, f"k={k} order={order}") for k, a_k in enumerate(a)]


def delete(arr: Arrangement, h: int) -> Arrangement:
    """Remove one hyperplane; ambient space unchanged."""
    if not 0 <= h < arr.m:
        raise InputError(f"hyperplane index {h} out of range")
    hyps = arr.hyperplanes[:h] + arr.hyperplanes[h + 1 :]
    return Arrangement(arr.dim, hyps)


def _restrict_rows(rows: Iterable[Row], target: Row) -> Arrangement:
    """Intersect each row's hyperplane with the hyperplane of `target`, one dimension down.

    With j0 the first nonzero normal entry of `target`, each row's residual
    against `target` clears column j0; the other columns, in increasing
    order, are the coordinates on the target hyperplane. A residual with its
    pivot in the offset column (a zero normal) is parallel to the target and
    misses it, so it is dropped; coincident restrictions collapse through
    Arrangement deduplication.
    """
    j0 = next(j for j, x in enumerate(target) if x)
    n = len(target) - 1
    restricted: list[Hyperplane] = []
    for row in rows:
        lead, out = reduce_row(row, j0, target)
        if lead < n:
            restricted.append(Hyperplane(out[:j0] + out[j0 + 1:]))
        else:
            assert lead == n, "coincident hyperplane slipped past deduplication"
    return Arrangement(n - 1, tuple(restricted))


def restrict(arr: Arrangement, h: int) -> Arrangement:
    """Restriction: intersect every other hyperplane with hyperplane h."""
    if not 0 <= h < arr.m:
        raise InputError(f"hyperplane index {h} out of range")
    others = [x.row for i, x in enumerate(arr.hyperplanes) if i != h]
    return _restrict_rows(others, arr.hyperplanes[h].row)


def graphic_arrangement(g: SimpleGraph) -> Arrangement:
    """One hyperplane x_i - x_j = 0 per edge (i, j), in sorted edge order."""
    hyps = []
    for i, j in sorted(g.edges):
        row = [0] * (g.n + 1)
        row[i] = 1
        row[j] = -1
        hyps.append(Hyperplane(row))
    return Arrangement(g.n, tuple(hyps))


def essentialize(arr: Arrangement) -> Arrangement:
    """Coordinates on the span of the normals; strips the t^(n-r) factor.

    Every hyperplane is invariant under translation along the orthogonal
    complement of that span, so cutting with the span preserves the
    intersection poset up to a uniform dimension shift. Any basis of the
    span does; this one is the integer echelon basis of the normals.
    """
    basis = echelon(h.row[:-1] for h in arr.hyperplanes)
    hyps = []
    for h in arr.hyperplanes:
        normal = h.row[:-1]
        hyps.append(Hyperplane([sum(x * y for x, y in zip(normal, b)) for _, b in basis] + [h.row[-1]]))
    return Arrangement(len(basis), tuple(hyps))


def decone(arr: Arrangement, k0: int) -> Arrangement:
    """Slice a linear arrangement with the affine chart of hyperplane k0 set to 1.

    The remaining hyperplanes are cut with {normal_k0 . x = 1}; the result
    is an affine arrangement one dimension down whose characteristic
    polynomial is the divided difference of the original one.
    """
    if not 0 <= k0 < arr.m:
        raise InputError(f"hyperplane index {k0} out of range for m={arr.m}")
    if not all(h.is_linear() for h in arr.hyperplanes):
        raise InputError("deconing requires a linear arrangement (all offsets zero)")
    chart = arr.hyperplanes[k0].row[:-1] + (1,)
    others = [x.row for i, x in enumerate(arr.hyperplanes) if i != k0]
    return _restrict_rows(others, chart)


def decone_rule(chi_deconed: IntPolynomial, expected: IntPolynomial, k0: int) -> tuple[bool, str]:
    """The `decone-divided-difference` identity at k0: (ok, "k0=..."), chi of the deconing against Delta chi."""
    return chi_deconed == expected, f"k0={k0}"


def boolean_char_poly(n: int, m: int) -> IntPolynomial:
    """t^(n-m) (t-1)^m, the characteristic polynomial of any boolean arrangement."""
    return general_position_char_poly(n, m, m)


def general_position_char_poly(n: int, m: int, r: int) -> IntPolynomial:
    """Alternating binomial polynomial characterizing general position."""
    if r > n:
        raise ValueError(f"rank {r} exceeds the dimension {n}")
    coeffs = [0] * (n + 1)
    for k, c in enumerate(binomial_row(m, r)):
        coeffs[n - k] = (-1) ** k * c
    return IntPolynomial(tuple(coeffs))

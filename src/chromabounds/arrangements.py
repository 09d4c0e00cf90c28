"""Rational affine hyperplane arrangements and their characteristic polynomials.

A hyperplane is one primitive integer row (normal | offset) with a
canonical sign, so equality and deduplication are structural and all the
arithmetic is on integers. Restriction and deconing are one elimination
step on these rows. A flat is identified by its closure, the bitmask of
the hyperplanes containing it, so flat equality and containment are bit
operations. The characteristic polynomial is computed from the
intersection poset's Moebius values, with an independent signed-subset
expansion (`char_poly_whitney`) as a cross-check.

The sweeps over subsets of hyperplanes (`char_poly_whitney`,
`is_general_position`, and the circuit and NBC sweeps of the nbc module)
share one depth-first walk, `_subset_walk`. It grows each subset by larger
indices only and carries the subset's echelon basis down to its children,
so a child costs one residual. A residual leading in the offset column
means the child's hyperplanes have no common point; the walk does not
descend from it, since every superset of an empty intersection is empty.
The walk shares only `linalg.residual` with `intersection_poset`, so the
Moebius and Whitney routes stay independent.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DEFAULT_SUBSET_GUARD, InputError, ResourceLimitError
from .exactmath import IntPolynomial, Value, binom
from .linalg import Row, echelon, residual

if TYPE_CHECKING:
    from fractions import Fraction

    from .graphs import SimpleGraph


class Hyperplane(Value):
    """The affine locus normal . x = offset, as one integer row (normal | offset). Immutable.

    The row is scaled to integers by the offset's denominator, made
    primitive, and signed so that its first nonzero entry, which lies in the
    normal, is positive. Rows that are nonzero multiples of each other give
    equal hyperplanes.
    """

    __slots__ = ("row",)
    row: Row

    def __init__(self, row: Sequence[int]) -> None:
        for first in row[:-1]:
            if first:
                break
        else:
            raise InputError("hyperplane normal must be nonzero")
        g = gcd(*row) if first > 0 else -gcd(*row)
        object.__setattr__(self, "row", tuple(row) if g == 1 else tuple([x // g for x in row]))

    @classmethod
    def make(cls, normal: Sequence[Fraction | int], offset: Fraction | int = 0) -> "Hyperplane":
        """The hyperplane normal . x = offset, from ints or any values `Fraction` accepts."""
        row = [*normal, offset]
        if not all(type(x) is int for x in row):
            from fractions import Fraction

            values = [Fraction(x) for x in row]
            scale = lcm(*(v.denominator for v in values))
            row = [v.numerator * (scale // v.denominator) for v in values]
        return cls(row)

    @property
    def dim(self) -> int:
        return len(self.row) - 1

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


def _meets_nowhere(row: Row) -> bool:
    """A residual leading in the offset column: the equation 0 = c with c != 0."""
    return not any(row[:-1])


def _subset_walk(
    arr: Arrangement,
    expand_dependent: bool = False,
    admit: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, int, int | None]]:
    """Depth-first over nonempty subsets grown by larger indices; yields (mask, size, rank).

    Bit i of `mask` is set when hyperplane i is in the subset; `rank` is None
    when the subset has no common point. Each child costs one residual of
    the added hyperplane against its parent's echelon basis: zero means the
    child is dependent (central, rank unchanged), a residual leading in the
    offset column means an empty intersection, anything else raises the
    rank by one. The walk descends from independent central subsets, from
    dependent ones too when `expand_dependent`, and never from those with
    an empty intersection. `admit(mask, i)`, when given, is asked before
    the residual whether the child `mask` grown by index i is visited at all.
    """
    rows = [h.row for h in arr.hyperplanes]
    m = arr.m
    stack: list[tuple[int, int, int, tuple[Row, ...]]] = [(0, 0, 0, ())]  # mask, next index, size, basis
    while stack:
        mask, start, size, basis = stack.pop()
        for i in range(start, m):
            grown = mask | 1 << i
            if admit is not None and not admit(grown, i):
                continue
            res = residual(rows[i], basis)
            if any(res[:-1]):
                yield grown, size + 1, len(basis) + 1
                stack.append((grown, i + 1, size + 1, basis + (res,)))
            elif res[-1]:
                yield grown, size + 1, None
            else:
                yield grown, size + 1, len(basis)
                if expand_dependent:
                    stack.append((grown, i + 1, size + 1, basis))


def rank(arr: Arrangement) -> int:
    """Dimension of the span of the normal vectors (exact elimination)."""
    return len(echelon(h.row[:-1] for h in arr.hyperplanes))


def is_central(arr: Arrangement) -> bool:
    return not any(_meets_nowhere(b) for b in echelon(h.row for h in arr.hyperplanes))


def is_boolean(arr: Arrangement) -> bool:
    """Rank equals hyperplane count; independence forces centrality."""
    if rank(arr) != arr.m:
        return False
    assert is_central(arr), "independent normals must have a common point"
    return True


def _check_guard(arr: Arrangement, guard: int) -> None:
    if arr.m > guard:
        raise ResourceLimitError(
            f"arrangement has {arr.m} hyperplanes; subset enumeration guard is {guard}"
        )


def is_general_position(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> bool:
    """Every subset of size <= r is boolean, every larger subset non-central.

    Every superset of a non-central subset is non-central, so the walk
    stops at size r + 1: only independent subsets are descended from, and
    none of size r + 1 can be central without failing the test.
    """
    _check_guard(arr, guard)
    r = rank(arr)
    for _, size, sub_rank in _subset_walk(arr):
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


def intersection_poset(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> IntersectionPoset:
    """All distinct nonempty intersections, with Moebius values.

    Built rank by rank. A flat keeps, for each hyperplane outside its
    closure, that hyperplane's residual against the flat's system. Meeting
    hyperplane i gives the flat whose closure adds every hyperplane whose
    residual vanishes against i's; a new flat then keeps the residuals of
    the rest against i's. Every hyperplane in that closure meets the flat
    in the same place, so each flat meets only the hyperplanes outside the
    closures it has already produced.
    """
    _check_guard(arr, guard)
    flats = [Flat(arr.dim, 0)]
    layer = {0: {j: h.row for j, h in enumerate(arr.hyperplanes)}}
    for dim in range(arr.dim - 1, -1, -1):
        found: dict[int, dict[int, Row]] = {}
        for mask, residuals in layer.items():
            produced = 0
            for i, row in residuals.items():
                if produced >> i & 1 or _meets_nowhere(row):
                    continue
                # Residuals are primitive, so one vanishes against `row` exactly when it is +-row.
                neg = tuple(-x for x in row)
                closure = mask
                for j, other in residuals.items():
                    if other == row or other == neg:
                        closure |= 1 << j
                produced |= closure
                if closure not in found:
                    found[closure] = {
                        j: residual(other, (row,)) for j, other in residuals.items() if not closure >> j & 1
                    }
        flats.extend(Flat(dim, closure) for closure in sorted(found))
        layer = found

    # mu(V) = 1; top-down, mu(X) = -sum of mu over flats strictly containing X,
    # the flats whose closure is a proper subset of X's.
    masks = [flat.mask for flat in flats]
    mobius = [1]
    for mask in masks[1:]:
        mobius.append(-sum(mu for y, mu in zip(masks, mobius) if y & mask == y))
    return IntersectionPoset(tuple(flats), tuple(mobius))


def char_poly(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> IntPolynomial:
    """Characteristic polynomial: sum of mu(X) t^dim(X) over the poset."""
    poset = intersection_poset(arr, guard=guard)
    coeffs = [0] * (arr.dim + 1)
    for flat, mu in zip(poset.flats, poset.mobius):
        coeffs[flat.dim] += mu
    return IntPolynomial(tuple(coeffs))


def char_poly_whitney(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> IntPolynomial:
    """Signed sum over central subsets B of (-1)^|B| t^(n - rank(B)).

    Independent of the poset route; the two must agree on every input.
    """
    _check_guard(arr, guard)
    coeffs = [0] * (arr.dim + 1)
    coeffs[arr.dim] = 1  # empty subset
    for _, size, r in _subset_walk(arr, expand_dependent=True):
        if r is not None:
            coeffs[arr.dim - r] += -1 if size % 2 else 1
    return IntPolynomial(tuple(coeffs))


def delete(arr: Arrangement, h: int) -> Arrangement:
    """Remove one hyperplane; ambient space unchanged."""
    if not 0 <= h < arr.m:
        raise InputError(f"hyperplane index {h} out of range")
    hyps = arr.hyperplanes[:h] + arr.hyperplanes[h + 1 :]
    return Arrangement(arr.dim, hyps)


def _restrict_rows(rows: Iterable[Row], target: Row) -> Arrangement:
    """Intersect each row's hyperplane with the hyperplane of `target`, one dimension down.

    With j0 the first nonzero normal entry of `target`, the step
    target[j0] * row - row[j0] * target clears column j0; the other columns,
    in increasing order, are the coordinates on the target hyperplane, and
    `Hyperplane` makes the result primitive. A result with a zero normal is parallel to the target and misses it, so it
    is dropped; coincident restrictions collapse through Arrangement
    deduplication.
    """
    j0 = next(j for j, x in enumerate(target) if x)
    p = target[j0]
    restricted: list[Hyperplane] = []
    for row in rows:
        f = row[j0]
        out = [p * x - f * y for x, y in zip(row, target)]
        del out[j0]
        if any(out[:-1]):
            restricted.append(Hyperplane(out))
        else:
            assert out[-1], "coincident hyperplane slipped past deduplication"
    return Arrangement(len(target) - 2, tuple(restricted))


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
        hyps.append(Hyperplane([sum(x * y for x, y in zip(normal, b)) for b in basis] + [h.row[-1]]))
    return Arrangement(len(basis), tuple(hyps))


def decone(arr: Arrangement, k0: int) -> Arrangement:
    """Slice a linear arrangement with the affine chart of hyperplane k0 set to 1.

    The remaining hyperplanes are cut with {normal_k0 . x = 1}; the result
    is an affine arrangement one dimension down whose characteristic
    polynomial is the divided difference of the original one.
    """
    if not 0 <= k0 < arr.m:
        raise InputError(f"hyperplane index {k0} out of range")
    if not all(h.is_linear() for h in arr.hyperplanes):
        raise InputError("deconing requires a linear arrangement (all offsets zero)")
    chart = arr.hyperplanes[k0].row[:-1] + (1,)
    others = [x.row for i, x in enumerate(arr.hyperplanes) if i != k0]
    return _restrict_rows(others, chart)


def boolean_char_poly(n: int, m: int) -> IntPolynomial:
    """t^(n-m) (t-1)^m, the characteristic polynomial of any boolean arrangement."""
    if m > n:
        raise ValueError("a boolean arrangement cannot have more hyperplanes than dimensions")
    t_minus_1 = IntPolynomial((-1, 1))
    out = IntPolynomial.constant(1)
    for _ in range(m):
        out = out * t_minus_1
    return out.shift(n - m)


def general_position_char_poly(n: int, m: int, r: int) -> IntPolynomial:
    """Alternating binomial polynomial characterizing general position."""
    coeffs = [0] * (n + 1)
    for k in range(r + 1):
        coeffs[n - k] = (-1) ** k * binom(m, k)
    return IntPolynomial(tuple(coeffs))

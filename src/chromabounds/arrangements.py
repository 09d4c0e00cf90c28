"""Rational affine hyperplane arrangements and their characteristic polynomials.

Hyperplanes are canonicalized (primitive integer normal, first nonzero
entry positive) so equality and deduplication are structural. Flats are
canonical RREF systems, so flat equality is also structural. The
characteristic polynomial is computed from the intersection poset's
Moebius values, with an independent signed-subset expansion
(`char_poly_whitney`) as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError, ResourceLimitError
from .exactmath import IntPolynomial, binom
from .graphs import SimpleGraph
from .linalg import Row, reduce_row, rref

DEFAULT_SUBSET_GUARD = 20


@dataclass(frozen=True)
class Hyperplane:
    """The affine locus normal . x = offset, in canonical form."""

    normal: tuple[int, ...]
    offset: Fraction

    @classmethod
    def make(cls, normal: Sequence[Fraction | int], offset: Fraction | int = 0) -> "Hyperplane":
        coeffs = [Fraction(x) for x in normal]
        if all(c == 0 for c in coeffs):
            raise InputError("hyperplane normal must be nonzero")
        scale = Fraction(math.lcm(*(c.denominator for c in coeffs)))
        ints = [int(c * scale) for c in coeffs]
        g = math.gcd(*ints)
        scale /= g
        ints = [x // g for x in ints]
        first = next(x for x in ints if x != 0)
        if first < 0:
            scale = -scale
            ints = [-x for x in ints]
        return cls(tuple(ints), Fraction(offset) * scale)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def is_linear(self) -> bool:
        return self.offset == 0

    def augmented_row(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x) for x in self.normal) + (self.offset,)


@dataclass(frozen=True)
class Arrangement:
    """Ambient dimension plus an ordered, deduplicated hyperplane list."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise InputError("ambient dimension must be nonnegative")
        seen = []
        for h in self.hyperplanes:
            if h.dim != self.dim:
                raise InputError(
                    f"hyperplane normal has length {h.dim}, expected {self.dim}"
                )
            if h not in seen:
                seen.append(h)
        object.__setattr__(self, "hyperplanes", tuple(seen))

    @property
    def m(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class Flat:
    """Nonempty intersection of hyperplanes: canonical RREF system plus dimension.

    The empty row tuple is the ambient space. Pivot columns never include
    the offset column (that would be an inconsistent, i.e. empty, system).
    """

    dim: int
    rows: tuple[Row, ...] = ()

    def ambient_dim(self) -> int:
        return self.dim + len(self.rows)


def ambient_flat(n: int) -> Flat:
    return Flat(dim=n, rows=())


def _flat_from_rows(n: int, rows: Iterable[Sequence[Fraction | int]]) -> Flat | None:
    """RREF an augmented system; None when inconsistent (empty intersection)."""
    reduced, pivots = rref(list(rows))
    if pivots and pivots[-1] == n:
        return None
    return Flat(dim=n - len(reduced), rows=reduced)


def intersect_flat(flat: Flat, h: Hyperplane) -> Flat | None:
    n = flat.ambient_dim()
    return _flat_from_rows(n, list(flat.rows) + [h.augmented_row()])


def flat_contains(outer: Flat, inner: Flat) -> bool:
    """True when outer >= inner as point sets (inner's system implies outer's)."""
    if outer.dim < inner.dim:
        return False
    pivots = tuple(next(i for i, x in enumerate(row) if x == 1) for row in inner.rows)
    for row in outer.rows:
        if any(x != 0 for x in reduce_row(row, inner.rows, pivots)):
            return False
    return True


def rank(arr: Arrangement) -> int:
    """Dimension of the span of the normal vectors (exact elimination)."""
    return len(rref([h.normal for h in arr.hyperplanes])[1])


def flat_of(arr: Arrangement, subset: Iterable[int]) -> Flat | None:
    """Intersection of the chosen hyperplanes; None when empty.

    The empty subset yields the ambient space.
    """
    indices = sorted(set(subset))
    if indices and not (0 <= indices[0] and indices[-1] < arr.m):
        raise InputError(f"hyperplane indices {indices} out of range for m={arr.m}")
    return _flat_from_rows(
        arr.dim, [arr.hyperplanes[i].augmented_row() for i in indices]
    )


def is_central(arr: Arrangement) -> bool:
    return flat_of(arr, range(arr.m)) is not None


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
    """Every subset of size <= r is boolean, every larger subset non-central."""
    _check_guard(arr, guard)
    r = rank(arr)
    for size in range(1, arr.m + 1):
        for subset in combinations(range(arr.m), size):
            flat = flat_of(arr, subset)
            if size <= r:
                if flat is None or arr.dim - flat.dim != size:
                    return False
            elif flat is not None:
                return False
    return True


@dataclass(frozen=True)
class IntersectionPoset:
    """Flats ordered by reverse inclusion with their Moebius values.

    Flats are sorted by decreasing dimension (ambient space first) with a
    deterministic tiebreak, and `mobius[i]` belongs to `flats[i]`.
    """

    ambient_dim: int
    flats: tuple[Flat, ...]
    mobius: tuple[int, ...]


def intersection_poset(arr: Arrangement, guard: int = DEFAULT_SUBSET_GUARD) -> IntersectionPoset:
    """All distinct nonempty intersections, with Moebius values.

    Built by incremental closure: sweep the hyperplanes in order and
    intersect each with every flat found so far. A single ordered sweep
    reaches every subset intersection.
    """
    _check_guard(arr, guard)
    flats: list[Flat] = [ambient_flat(arr.dim)]
    seen = {flats[0]}
    for h in arr.hyperplanes:
        for flat in list(flats):
            g = intersect_flat(flat, h)
            if g is not None and g not in seen:
                seen.add(g)
                flats.append(g)
    flats.sort(key=lambda f: (-f.dim, f.rows))

    # mu(V) = 1; top-down, mu(X) = -sum of mu over flats strictly containing X.
    mobius: list[int] = []
    for i, flat in enumerate(flats):
        if not flat.rows:
            mobius.append(1)
            continue
        acc = 0
        for j in range(i):
            if flats[j].dim > flat.dim and flat_contains(flats[j], flat):
                acc += mobius[j]
        mobius.append(-acc)
    return IntersectionPoset(arr.dim, tuple(flats), tuple(mobius))


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
    for size in range(1, arr.m + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(range(arr.m), size):
            flat = flat_of(arr, subset)
            if flat is not None:
                coeffs[flat.dim] += sign
    return IntPolynomial(tuple(coeffs))


def delete(arr: Arrangement, h: int) -> Arrangement:
    """Remove one hyperplane; ambient space unchanged."""
    if not 0 <= h < arr.m:
        raise InputError(f"hyperplane index {h} out of range")
    hyps = arr.hyperplanes[:h] + arr.hyperplanes[h + 1 :]
    return Arrangement(arr.dim, hyps)


def _affine_chart(target: Hyperplane) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """Deterministic parametrization x = p + sum u_c v_c of a hyperplane.

    Derived from the canonical form: the pivot coordinate is the first
    nonzero normal entry; the free coordinates, in increasing order, carry
    the chart's basis vectors.
    """
    n = target.dim
    j0 = next(i for i, x in enumerate(target.normal) if x != 0)
    a0 = Fraction(target.normal[j0])
    point = [Fraction(0)] * n
    point[j0] = target.offset / a0
    basis = []
    for c in range(n):
        if c == j0:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        v[j0] = -Fraction(target.normal[c]) / a0
        basis.append(tuple(v))
    return tuple(point), tuple(basis)


def _restrict_onto(hyps: Iterable[Hyperplane], target: Hyperplane) -> Arrangement:
    """Pull hyperplanes back to the chart coordinates of `target`.

    Empty intersections (parallel hyperplanes) are dropped; coincident
    restrictions collapse through Arrangement deduplication.
    """
    point, basis = _affine_chart(target)
    restricted: list[Hyperplane] = []
    for h in hyps:
        new_normal = tuple(
            sum(Fraction(b) * v[i] for i, b in enumerate(h.normal)) for v in basis
        )
        new_offset = h.offset - sum(Fraction(b) * point[i] for i, b in enumerate(h.normal))
        if all(x == 0 for x in new_normal):
            assert new_offset != 0, "coincident hyperplane slipped past deduplication"
            continue
        restricted.append(Hyperplane.make(new_normal, new_offset))
    return Arrangement(target.dim - 1, tuple(restricted))


def restrict(arr: Arrangement, h: int) -> Arrangement:
    """Restriction: intersect every other hyperplane with hyperplane h."""
    if not 0 <= h < arr.m:
        raise InputError(f"hyperplane index {h} out of range")
    target = arr.hyperplanes[h]
    others = [x for i, x in enumerate(arr.hyperplanes) if i != h]
    return _restrict_onto(others, target)


def graphic_arrangement(g: SimpleGraph) -> Arrangement:
    """One hyperplane x_i - x_j = 0 per edge (i, j), in sorted edge order."""
    hyps = []
    for i, j in sorted(g.edges):
        normal = [0] * g.n
        normal[i] = 1
        normal[j] = -1
        hyps.append(Hyperplane.make(normal, 0))
    return Arrangement(g.n, tuple(hyps))


def essentialize(arr: Arrangement) -> Arrangement:
    """Coordinates on the span of the normals; strips the t^(n-r) factor.

    Every hyperplane is invariant under translation along the orthogonal
    complement of that span, so cutting with the span preserves the
    intersection poset up to a uniform dimension shift.
    """
    basis, _ = rref([h.normal for h in arr.hyperplanes])
    r = len(basis)
    hyps = []
    for h in arr.hyperplanes:
        new_normal = tuple(
            sum(Fraction(b) * g[i] for i, b in enumerate(h.normal)) for g in basis
        )
        hyps.append(Hyperplane.make(new_normal, h.offset))
    return Arrangement(r, tuple(hyps))


def decone(arr: Arrangement, k0: int) -> Arrangement:
    """Slice a linear arrangement with the affine chart of hyperplane k0 set to 1.

    The remaining hyperplanes are cut with {normal_k0 . x = 1}; the result
    is an affine arrangement one dimension down whose characteristic
    polynomial is the divided difference of the original one.
    """
    if not 0 <= k0 < arr.m:
        raise InputError(f"hyperplane index {k0} out of range")
    nonlinear = [h for h in arr.hyperplanes if not h.is_linear()]
    if nonlinear:
        raise InputError("deconing requires a linear arrangement (all offsets zero)")
    chart = Hyperplane(arr.hyperplanes[k0].normal, Fraction(1))
    others = [x for i, x in enumerate(arr.hyperplanes) if i != k0]
    return _restrict_onto(others, chart)


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

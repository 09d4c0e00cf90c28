"""The named invariants that `verify` and the acceptance suite evaluate.

One ordered table per instance kind; an entry has a name, a condition for
when it applies, and the identity it evaluates. The table only drives the
oracles: each side of an identity comes from the module that owns it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .arrangements import (
    Arrangement, boolean_char_poly, char_poly, char_poly_whitney, decone, delete, essentialize,
    general_position_char_poly, graphic_arrangement, is_boolean, is_central, is_general_position, nbc_counts,
    rank, restrict,
)
from .bounds import (
    coeff_sequence, divided_difference, divided_difference_formula, divided_difference_iter, h_vector,
    is_logconcave, verify_bounds,
)
from .errors import DEFAULT_COLORING_CAP, DEFAULT_SUBSET_GUARD, ResourceLimitError
from .exactmath import IntPolynomial
from .graphs import (
    SimpleGraph, chromatic_poly, chromatic_poly_interpolated, contract_edge, delete_edge, is_forest,
    rank_info,
)


class Case:
    """A graph or arrangement under test, with the values its checks share.

    `orders(m)` gives the NBC ground orders (None is the identity order); it
    is called only when the NBC check applies. A graph's graphic
    arrangement and its characteristic polynomial are built on first use.
    `memo` is the chromatic memo its graph polynomials share; None gives
    the case a fresh one.
    """

    def __init__(
        self,
        label: str,
        obj: SimpleGraph | Arrangement,
        q_min: int,
        q_max: int,
        orders: Callable[[int], Sequence[tuple[int, ...] | None]] = lambda m: [None],
        cap_subsets: int = DEFAULT_SUBSET_GUARD,
        cap_colorings: int = DEFAULT_COLORING_CAP,
        memo: dict | None = None,
    ) -> None:
        self.label = label
        self.obj = obj
        self.q_min = q_min
        self.q_max = q_max
        self.orders = orders
        self.cap_subsets = cap_subsets
        self.cap_colorings = cap_colorings
        self.memo = {} if memo is None else memo
        self.m = obj.m
        if isinstance(obj, SimpleGraph):
            self.poly = chromatic_poly(obj, memo=self.memo)
            self.rank = rank_info(obj).rank
            size = {"n": obj.n, "m": obj.m}
        else:
            self.poly = char_poly(obj)
            self.rank = rank(obj)
            size = {"dim": obj.dim, "m": obj.m}
        self.seq = coeff_sequence(self.poly, self.m)  # raises on any sign-pattern defect
        self.bounds = verify_bounds(self.seq, self.q_min, self.q_max)
        self.row = {"instance": self.label, **size, "rank": self.rank, "logconcave": is_logconcave(self.seq)}

    @cached_property
    def arrangement(self) -> Arrangement:
        return graphic_arrangement(self.obj) if isinstance(self.obj, SimpleGraph) else self.obj

    @cached_property
    def graphic_poly(self) -> IntPolynomial | None:
        """The graphic arrangement's characteristic polynomial; None when its poset passes its step budget."""
        try:
            return char_poly(self.arrangement)
        except ResourceLimitError:
            return None

    @cached_property
    def general_position(self) -> bool:
        return is_general_position(self.obj, guard=self.cap_subsets)

    @cached_property
    def essential(self) -> Arrangement:
        return essentialize(self.obj)


class Check(NamedTuple):
    name: str
    evaluate: Callable[[Case], Iterable[tuple[bool, str]]]  # one (ok, detail) per comparison
    applies: Callable[[Case], bool] | None = None  # None: always


def _once(name: str, failures: Callable[[Case], Iterable[str]], applies: Callable[[Case], bool] | None = None) -> Check:
    """One comparison per instance: ok when the lazy `failures` yields nothing, else its first detail."""
    def evaluate(case: Case) -> list[tuple[bool, str]]:
        for detail in failures(case):
            return [(False, detail)]
        return [(True, "")]

    return Check(name, evaluate, applies)


def _equal(name: str, sides: Callable[[Case], tuple], applies: Callable[[Case], bool] | None = None) -> Check:
    """The identity left == right; a failure shows both sides."""
    return _once(name, lambda c: (f"{left} != {right}" for left, right in [sides(c)] if left != right), applies)


def run_checks(table: Iterable[Check], case: Case) -> Iterator[tuple[str, bool, str]]:
    """Yield (name, ok, detail) for every entry of `table` that applies, in table order."""
    for check in table:
        if check.applies is None or check.applies(case):
            for ok, detail in check.evaluate(case):
                yield check.name, ok, detail


def _deletion_contraction(c: Case) -> Iterator[tuple[bool, str]]:
    for e in c.obj.sorted_edges():
        rest = chromatic_poly(delete_edge(c.obj, e), memo=c.memo) - chromatic_poly(contract_edge(c.obj, e), memo=c.memo)
        yield c.poly == rest, f"edge {e}"


def _deletion_restriction(c: Case) -> Iterator[tuple[bool, str]]:
    for h in range(c.m):
        rest = char_poly(delete(c.obj, h)) - char_poly(restrict(c.obj, h))
        yield c.poly == rest, f"hyperplane {h}"


def _nbc_counts(c: Case) -> Iterator[tuple[bool, str]]:
    for order in c.orders(c.m):
        counts = nbc_counts(c.arrangement, order=order, guard=c.cap_subsets)
        for k in range(c.seq.r + 1):
            yield counts[k] == c.seq.a[k], f"k={k} order={order}"


def _divided_difference_closed_form(c: Case) -> Iterator[tuple[bool, str]]:
    essential = char_poly(c.essential)
    s = coeff_sequence(essential, c.m)
    for j in range(s.r + 1):
        yield divided_difference_iter(essential, j) == divided_difference_formula(s, j), f"j={j}"


def _walkable(c: Case) -> bool:
    """Whether the subset walks (Whitney, NBC, general position) may range over the case's hyperplanes."""
    return c.m <= c.cap_subsets


def _sequence_tail(tight_name: str, nbc_applies: Callable[[Case], bool]) -> tuple[Check, ...]:
    """Checks on the coefficient sequence; the grid is tight exactly when m = r."""
    return (
        _equal("rank-vs-degree", lambda c: (c.seq.r, c.rank)),
        Check("nbc-coefficient", _nbc_counts, nbc_applies),
        _once("two-sided-bounds", lambda c: (f"q={q} k={k}" for q, k in c.bounds.failures())),
        _equal(tight_name, lambda c: (c.bounds.all_tight, c.m == c.rank)),
        _once("coefficient-lower-bounds", lambda c: (f"h_{j}={v}" for j, v in enumerate(h_vector(c.seq)) if v < 0)),
    )


GRAPH_CHECKS: tuple[Check, ...] = (
    _equal("coloring-oracle", lambda c: (c.poly, chromatic_poly_interpolated(c.obj, cap=c.cap_colorings))),
    # m > n rules out a forest outright; otherwise compare to the product form.
    _equal("forest-formula",
           lambda c: (is_forest(c.obj), c.m <= c.obj.n and c.poly == boolean_char_poly(c.obj.n, c.m))),
    Check("deletion-contraction", _deletion_contraction),
    # skipped, as a subset walk over the cap is, when the graphic arrangement's poset passes its budget
    _equal("graphic-char-poly", lambda c: (c.graphic_poly, c.poly), lambda c: c.graphic_poly is not None),
    # Graphs get the 2^m-subset Whitney sum up to m = 10 and NBC enumeration up to m = 12,
    # both within --cap-subsets.
    _equal("whitney-agreement", lambda c: (char_poly_whitney(c.arrangement, guard=c.cap_subsets), c.poly),
           lambda c: c.m <= min(10, c.cap_subsets)),
    *_sequence_tail("bounds-tight-iff-forest", lambda c: c.m <= min(12, c.cap_subsets)),
)

ARRANGEMENT_CHECKS: tuple[Check, ...] = (
    _equal("whitney-agreement", lambda c: (char_poly_whitney(c.obj, guard=c.cap_subsets), c.poly), _walkable),
    Check("deletion-restriction", _deletion_restriction),
    _equal("boolean-formula", lambda c: (c.poly, boolean_char_poly(c.obj.dim, c.m)), lambda c: is_boolean(c.obj)),
    _equal("general-position-iff-shape",
           lambda c: (c.general_position, c.poly == general_position_char_poly(c.obj.dim, c.m, c.rank)), _walkable),
    _equal("central-gp-iff-boolean", lambda c: (c.general_position, is_boolean(c.obj)),
           lambda c: _walkable(c) and is_central(c.obj)),
    _equal("essentialize-count", lambda c: (c.essential.m, c.m)),
    _equal("essentialize-coefficients",
           lambda c: (char_poly(c.essential).shift(c.obj.dim - c.rank), c.poly)),
    *_sequence_tail("bounds-tight-iff-boolean", _walkable),
)

LINEAR_CENTRAL_CHECKS: tuple[Check, ...] = (
    Check("decone-divided-difference", lambda c: (
        (char_poly(decone(c.obj, k0)) == divided_difference(c.poly), f"k0={k0}")
        for k0 in range(c.m))),
    Check("divided-difference-formula", _divided_difference_closed_form),
)

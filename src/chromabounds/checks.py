"""The named invariants that `verify` and the acceptance suite evaluate.

One ordered table per instance kind; an entry has a name, a condition for
when it applies, and the identity it evaluates. The table only drives the
oracles: each side of an identity comes from the module that owns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .arrangements import (
    DEFAULT_SUBSET_GUARD, Arrangement, boolean_char_poly, char_poly, char_poly_whitney, decone,
    delete, essentialize, general_position_char_poly, graphic_arrangement, is_boolean, is_central,
    is_general_position, rank, restrict,
)
from .bounds import (
    check_coefficient_lower_bounds, coeff_sequence, divided_difference, divided_difference_formula,
    divided_difference_iter, is_logconcave, verify_bounds,
)
from .graphs import (
    DEFAULT_COLORING_CAP, SimpleGraph, chromatic_poly, chromatic_poly_interpolated, contract_edge,
    delete_edge, is_forest, rank_info,
)
from .nbc import nbc_coefficient

@dataclass(eq=False)
class Case:
    """A graph or arrangement under test, with the values its checks share.

    `orders(m)` gives the NBC ground orders (None is the identity order); it
    is called only when the NBC check applies.
    """

    label: str
    obj: SimpleGraph | Arrangement
    q_min: int
    q_max: int
    orders: Callable[[int], Sequence[tuple[int, ...] | None]] = lambda m: [None]
    cap_subsets: int = DEFAULT_SUBSET_GUARD
    cap_colorings: int = DEFAULT_COLORING_CAP
    memo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        obj = self.obj
        self.m = obj.m
        if isinstance(obj, SimpleGraph):
            self.poly = chromatic_poly(obj, memo=self.memo)
            self.rank = rank_info(obj).rank
            self.arrangement = graphic_arrangement(obj)
            size = {"n": obj.n, "m": obj.m}
        else:
            self.poly = char_poly(obj, guard=self.cap_subsets)
            self.rank = rank(obj)
            self.arrangement = obj
            size = {"dim": obj.dim, "m": obj.m}
        self.seq = coeff_sequence(self.poly, self.m)  # raises on any sign-pattern defect
        self.bounds = verify_bounds(self.seq, self.q_min, self.q_max)
        self.row = {"instance": self.label, **size, "rank": self.rank, "logconcave": is_logconcave(self.seq)}


class Check(NamedTuple):
    name: str
    evaluate: Callable[[Case], Iterable[tuple[bool, str]]]  # one (ok, detail) per comparison
    applies: Callable[[Case], bool] | None = None  # None: always


def _once(name: str, test: Callable[[Case], bool], applies: Callable[[Case], bool] | None = None) -> Check:
    return Check(name, lambda case: [(test(case), "")], applies)


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
        rest = char_poly(delete(c.obj, h), guard=c.cap_subsets) - char_poly(restrict(c.obj, h), guard=c.cap_subsets)
        yield c.poly == rest, f"hyperplane {h}"


def _nbc_counts(c: Case) -> Iterator[tuple[bool, str]]:
    for order in c.orders(c.m):
        for k in range(c.seq.r + 1):
            count = nbc_coefficient(c.arrangement, order=order, k=k, guard=c.cap_subsets)
            yield count == c.seq.a[k], f"k={k} order={order}"


def _divided_difference_closed_form(c: Case) -> Iterator[tuple[bool, str]]:
    essential = char_poly(essentialize(c.obj), guard=c.cap_subsets)
    s = coeff_sequence(essential, c.m)
    for j in range(s.r + 1):
        yield divided_difference_iter(essential, j) == divided_difference_formula(s, j), f"j={j}"


def _sequence_tail(tight_name: str, nbc_applies: Callable[[Case], bool] | None) -> tuple[Check, ...]:
    """Checks on the coefficient sequence; the grid is tight exactly when m = r."""
    return (
        _once("rank-vs-degree", lambda c: c.seq.r == c.rank),
        Check("nbc-coefficient", _nbc_counts, nbc_applies),
        _once("two-sided-bounds", lambda c: c.bounds.all_ok),
        _once(tight_name, lambda c: c.bounds.all_tight == (c.m == c.rank)),
        _once("coefficient-lower-bounds", lambda c: check_coefficient_lower_bounds(c.seq).all_ok),
    )


GRAPH_CHECKS: tuple[Check, ...] = (
    _once("coloring-oracle", lambda c: c.poly == chromatic_poly_interpolated(c.obj, cap=c.cap_colorings)),
    # m > n rules out a forest outright; otherwise compare to the product form.
    _once("forest-formula",
          lambda c: is_forest(c.obj) == (c.m <= c.obj.n and c.poly == boolean_char_poly(c.obj.n, c.m))),
    Check("deletion-contraction", _deletion_contraction),
    _once("graphic-char-poly", lambda c: char_poly(c.arrangement, guard=c.cap_subsets) == c.poly,
          lambda c: c.m <= c.cap_subsets),
    # Graphs get the 2^m-subset Whitney sum up to m = 10 and NBC enumeration up to m = 12.
    _once("whitney-agreement", lambda c: char_poly_whitney(c.arrangement) == c.poly, lambda c: c.m <= 10),
    *_sequence_tail("bounds-tight-iff-forest", lambda c: c.m <= 12),
)

ARRANGEMENT_CHECKS: tuple[Check, ...] = (
    _once("whitney-agreement", lambda c: char_poly_whitney(c.obj, guard=c.cap_subsets) == c.poly),
    Check("deletion-restriction", _deletion_restriction),
    _once("boolean-formula", lambda c: c.poly == boolean_char_poly(c.obj.dim, c.m),
          lambda c: is_boolean(c.obj)),
    _once("general-position-iff-shape", lambda c: is_general_position(c.obj, guard=c.cap_subsets)
          == (c.poly == general_position_char_poly(c.obj.dim, c.m, c.rank))),
    _once("central-gp-iff-boolean",
          lambda c: is_general_position(c.obj, guard=c.cap_subsets) == is_boolean(c.obj), lambda c: is_central(c.obj)),
    _once("essentialize-count", lambda c: essentialize(c.obj).m == c.m),
    _once("essentialize-coefficients",
          lambda c: char_poly(essentialize(c.obj), guard=c.cap_subsets).shift(c.obj.dim - c.rank) == c.poly),
    *_sequence_tail("bounds-tight-iff-boolean", None),
)

LINEAR_CENTRAL_CHECKS: tuple[Check, ...] = (
    Check("decone-divided-difference", lambda c: (
        (char_poly(decone(c.obj, k0), guard=c.cap_subsets) == divided_difference(c.poly), f"k0={k0}")
        for k0 in range(c.m))),
    Check("divided-difference-formula", _divided_difference_closed_form),
)

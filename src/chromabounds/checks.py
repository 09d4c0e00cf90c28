"""The named invariants that `verify` and the acceptance suite evaluate, and `verify`'s corpus run.

One ordered table per instance kind; an entry has a name, a condition for
when it applies, and the identity it evaluates. The table only drives the
oracles: each side of an identity comes from the module that owns it, and
so does the outcome of `two-sided-bounds`, `nbc-coefficient` and
`decone-divided-difference`, which the file commands report too. A `Case`
is the `bounds.Instance` that the tables read; `run_corpus` runs them.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import arrangements
from .arrangements import (
    Arrangement, boolean_char_poly, char_poly, char_poly_whitney, decone, decone_rule, delete, essentialize,
    general_position_char_poly, is_boolean, is_central, is_general_position, nbc_counts, nbc_rule, rank, restrict,
)
from .bounds import (
    BoundsReport, Instance, coeff_sequence, divided_difference, divided_difference_formula, divided_difference_iter,
    h_vector, is_logconcave, verify_bounds,
)
from .corpus import linear_central_corpus, named_graphs, random_arrangements, random_graphs, random_order
from .errors import InvariantError, ResourceLimitError
from .exactmath import IntPolynomial
from .graphs import (
    SimpleGraph, chromatic_poly, chromatic_poly_interpolated, contract_edge, delete_edge, is_forest,
    rank_info,
)


class Case(Instance):
    """A graph or arrangement under test: an `Instance` with a label, a q window and the values only the tables read.

    `orders(m)` gives the NBC ground orders (None is the identity order); it
    is called only when the NBC check applies. `deletion-contraction` reuses
    the instance's own fresh memo, which its polynomial filled.
    """

    def __init__(self, label: str, obj: SimpleGraph | Arrangement, q_min: int, q_max: int,
                 orders: Callable[[int], Sequence[tuple[int, ...] | None]] = lambda m: [None]) -> None:
        super().__init__(obj)
        self.label = label
        self.q_min = q_min
        self.q_max = q_max
        self.orders = orders

    @cached_property
    def rank(self) -> int:
        return rank_info(self.obj).rank if self.is_graph else rank(self.obj)

    @cached_property
    def bounds(self) -> BoundsReport:
        return verify_bounds(self.seq, self.q_min, self.q_max)

    @cached_property
    def row(self) -> dict:
        size = {"n": self.obj.n} if self.is_graph else {"dim": self.obj.dim}
        try:
            logconcave = is_logconcave(self.seq)
        except InvariantError:  # the coefficient sequence cannot be built
            logconcave = None
        return {"instance": self.label, **size, "m": self.m, "rank": self.rank, "logconcave": logconcave}

    @cached_property
    def graphic_poly(self) -> IntPolynomial | None:
        """The graphic arrangement's characteristic polynomial; None when its poset passes its step budget."""
        try:
            return char_poly(self.arrangement)
        except ResourceLimitError:
            return None

    @cached_property
    def general_position(self) -> bool:
        return is_general_position(self.obj)

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
    """Yield (name, ok, detail) for every entry of `table` that applies, in table order; a broken invariant that
    an entry meets is that entry's failed outcome, with the error as its detail."""
    for check in table:
        try:
            if check.applies is None or check.applies(case):
                for ok, detail in check.evaluate(case):
                    yield check.name, ok, detail
        except InvariantError as exc:
            yield check.name, False, str(exc)


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
        yield from nbc_rule(nbc_counts(c.arrangement, order=order), c.seq.a, order)


def _divided_difference_closed_form(c: Case) -> Iterator[tuple[bool, str]]:
    essential = char_poly(c.essential)
    s = coeff_sequence(essential, c.m)
    for j in range(s.r + 1):
        yield divided_difference_iter(essential, j) == divided_difference_formula(s, j), f"j={j}"


def _walkable(c: Case) -> bool:
    """Whether the subset walks (Whitney, NBC, general position) may range over the case's hyperplanes."""
    return c.m <= arrangements.SUBSET_GUARD  # the walk's own guard: a lowered one skips the walks, not trips them


def _sequence_tail(tight_name: str, nbc_applies: Callable[[Case], bool]) -> tuple[Check, ...]:
    """Checks on the coefficient sequence; the grid is tight exactly when m = r.

    Below the shift q = -r every cell has k = 0 and is tight, so the
    sharpness check needs a shift q >= -r in the window: there the cell
    (q, 1) is r+q <= m+q <= m+q, tight exactly when m = r.
    """
    return (
        _equal("rank-vs-degree", lambda c: (c.seq.r, c.rank)),
        Check("nbc-coefficient", _nbc_counts, nbc_applies),
        _once("two-sided-bounds", lambda c: c.bounds.failure_details()),
        _equal(tight_name, lambda c: (c.bounds.all_tight, c.m == c.rank), lambda c: c.q_max >= -c.seq.r),
        _once("coefficient-lower-bounds", lambda c: (f"h_{j}={v}" for j, v in enumerate(h_vector(c.seq)) if v < 0)),
    )


GRAPH_CHECKS: tuple[Check, ...] = (
    _equal("coloring-oracle", lambda c: (c.poly, chromatic_poly_interpolated(c.obj))),
    # m > n rules out a forest outright; otherwise compare to the product form.
    _equal("forest-formula",
           lambda c: (is_forest(c.obj), c.m <= c.obj.n and c.poly == boolean_char_poly(c.obj.n, c.m))),
    Check("deletion-contraction", _deletion_contraction),
    # skipped, as a subset walk over the guard is, when the graphic arrangement's poset passes its budget
    _equal("graphic-char-poly", lambda c: (c.graphic_poly, c.poly), lambda c: c.graphic_poly is not None),
    # Graphs get the 2^m-subset Whitney sum up to m = 10 and NBC enumeration up to m = 12,
    # both within the subset guard.
    _equal("whitney-agreement", lambda c: (char_poly_whitney(c.arrangement), c.poly),
           lambda c: _walkable(c) and c.m <= 10),
    *_sequence_tail("bounds-tight-iff-forest", lambda c: _walkable(c) and c.m <= 12),
)

ARRANGEMENT_CHECKS: tuple[Check, ...] = (
    _equal("whitney-agreement", lambda c: (char_poly_whitney(c.obj), c.poly), _walkable),
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
        decone_rule(char_poly(decone(c.obj, k0)), divided_difference(c.poly), k0) for k0 in range(c.m))),
    Check("divided-difference-formula", _divided_difference_closed_form),
)


def run_corpus(seed: int, q_min: int, q_max: int, graph_count: int, max_n: int, arrangement_count: int, max_dim: int,
               max_m: int) -> tuple[dict, list[tuple[str, str, str]]]:
    """`verify`'s run over the corpus drawn from `seed`: its results, and the failing (check, instance, detail).

    The named graphs, `graph_count` random graphs and `arrangement_count`
    random arrangements each give a result row; the linear central corpus
    gives none. Each instance's NBC orders are drawn only when that check
    applies to it. An instance whose own polynomial passes a budget gives no
    row and no outcome; `results` counts such instances as "skipped", if any.
    """
    rng = random.Random(seed)
    outcomes: list[tuple[str, str, bool, str]] = []
    graph_rows, arrangement_rows, skipped = [], [], []  # the rows, and the labels of skipped instances

    def verify(table: tuple[Check, ...], label: str, obj: SimpleGraph | Arrangement, rows: list[dict] | None) -> None:
        case = Case(label, obj, q_min, q_max, orders=lambda m: [None] + [random_order(rng, m) for _ in range(2)])
        try:
            case.poly  # before any oracle, so that only a budget the instance's own polynomial passes skips it
        except ResourceLimitError:
            skipped.append(label)
            return
        outcomes.extend((name, label, ok, detail) for name, ok, detail in run_checks(table, case))
        if rows is not None:
            rows.append(case.row)

    for name, g in named_graphs():
        verify(GRAPH_CHECKS, f"named:{name}", g, graph_rows)
    for i, g in enumerate(random_graphs(rng, graph_count, max_n)):
        verify(GRAPH_CHECKS, f"graph[{i}]", g, graph_rows)
    for i, arr in enumerate(random_arrangements(rng, arrangement_count, max_dim, max_m)):
        verify(ARRANGEMENT_CHECKS, f"arrangement[{i}]", arr, arrangement_rows)
    for i, arr in enumerate(linear_central_corpus(rng)):
        verify(LINEAR_CENTRAL_CHECKS, f"linear[{i}]", arr, None)
    failures = [(name, label, detail) for name, label, ok, detail in outcomes if not ok]
    results = {
        "graphs": graph_rows,
        "arrangements": arrangement_rows,
        "instances": len(graph_rows) + len(arrangement_rows),
        "checks": len(outcomes),
        "violation_count": len(failures),
        **({"skipped": len(skipped)} if skipped else {}),
    }
    return results, failures

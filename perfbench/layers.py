"""Per-layer metrics computed from traced invocations, and what each should move.

A layer is a chromabounds module. `PER_LAYER` maps each metric name to its
unit and how it is computed from the summed output of `traced_cli.py`;
the self-test checks that these match the per_layer list of BENCHMARK.json.
Which end-to-end metric each layer should move is recorded with the
seed-commit numbers in results/. Counts repeat exactly for a given seed; times do not.
A function that no longer exists reads as 0 calls and 0 s.
"""

from __future__ import annotations

from collections import defaultdict

class Totals:
    """Stats and counters summed over the traced invocations of one pass."""

    def __init__(self, reports: list[dict]) -> None:
        self.stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self.counters: dict[str, int] = defaultdict(int)
        for report in reports:
            for name, stat in report["stats"].items():
                for key, value in stat.items():
                    self.stats[name][key] += value
            for name, value in report["counters"].items():
                self.counters[name] += value

    def get(self, name: str, key: str) -> float:
        return self.stats[name][key] if name in self.stats else 0

    def layer_self(self, layer: str) -> float:
        return sum(s["self_s"] for name, s in self.stats.items() if name.split(".", 1)[0] == layer)


def _calls(fn):
    return "count", lambda t: t.get(fn, "calls")


def _self(fn):
    return "s", lambda t: t.get(fn, "self_s")


def _counter(name):
    return "count", lambda t: t.counters[name]


def _ratio(num, den):
    return "ratio", lambda t: num(t) / den(t) if den(t) else 0.0


def _layer_self(layer):
    return "s", lambda t: t.layer_self(layer)


PER_LAYER = {
    "arrangements.intersection_poset.calls": _calls("arrangements.intersection_poset"),
    "arrangements.intersection_poset.self_s": _self("arrangements.intersection_poset"),
    "arrangements.flats_built": _counter("arrangements.flats_built"),
    "arrangements.intersect_flat.calls": _calls("arrangements.intersect_flat"),
    "arrangements.flat_yield": _ratio(
        lambda t: t.counters["arrangements.flats_built"],
        lambda t: t.get("arrangements.intersect_flat", "calls"),
    ),
    "arrangements.flat_contains.calls": _calls("arrangements.flat_contains"),
    "arrangements.flat_contains.self_s": _self("arrangements.flat_contains"),
    "arrangements.flat_of.calls": _calls("arrangements.flat_of"),
    "arrangements.flat_of.self_s": _self("arrangements.flat_of"),
    "arrangements.char_poly_whitney.self_s": _self("arrangements.char_poly_whitney"),
    "arrangements.restrict.self_s": _self("arrangements.restrict"),
    "arrangements.is_general_position.self_s": _self("arrangements.is_general_position"),
    "arrangements.self_s": _layer_self("arrangements"),
    "linalg.rref.calls": _calls("linalg.rref"),
    "linalg.rref.self_s": _self("linalg.rref"),
    "linalg.reduce_row.calls": _calls("linalg.reduce_row"),
    "linalg.reduce_row.self_s": _self("linalg.reduce_row"),
    "linalg.self_s": _layer_self("linalg"),
    "graphs.chromatic_poly.calls": _calls("graphs.chromatic_poly"),
    "graphs.chromatic_poly.self_s": _self("graphs.chromatic_poly"),
    "graphs.dc_expansions": _counter("graphs.dc_expansions"),
    "graphs.contract_edge.self_s": _self("graphs.contract_edge"),
    "graphs.delete_edge.self_s": _self("graphs.delete_edge"),
    "graphs.count_colorings.calls": _calls("graphs.count_colorings"),
    "graphs.count_colorings.self_s": _self("graphs.count_colorings"),
    "graphs.chromatic_poly_interpolated.self_s": _self("graphs.chromatic_poly_interpolated"),
    "graphs.self_s": _layer_self("graphs"),
    "exactmath.poly_ops.calls": _calls("exactmath.poly_ops"),
    "exactmath.poly_ops.self_s": _self("exactmath.poly_ops"),
    "exactmath.binom.calls": _calls("exactmath.binom"),
    "exactmath.self_s": _layer_self("exactmath"),
    "nbc.nbc_coefficient.calls": _calls("nbc.nbc_coefficient"),
    "nbc.nbc_coefficient.self_s": _self("nbc.nbc_coefficient"),
    "nbc.subsets_enumerated": _counter("nbc.subsets_enumerated"),
    "nbc.subset_yield": _ratio(
        lambda t: t.counters["nbc.sets_found"], lambda t: t.counters["nbc.subsets_enumerated"]
    ),
    "nbc.circuits.calls": _calls("nbc.circuits"),
    "nbc.circuits.total_s": ("s", lambda t: t.get("nbc.circuits", "total_s")),
    "nbc.is_dependent.calls": _calls("nbc.is_dependent"),
    "nbc.self_s": _layer_self("nbc"),
    "bounds.verify_bounds.calls": _calls("bounds.verify_bounds"),
    "bounds.verify_bounds.self_s": _self("bounds.verify_bounds"),
    "bounds.records": _counter("bounds.records"),
    "bounds.divided_difference.self_s": _self("bounds.divided_difference"),
    "bounds.self_s": _layer_self("bounds"),
    "corpus.self_s": _layer_self("corpus"),
    "cli.self_s": _layer_self("cli"),
    "cli.parse_input_file.self_s": _self("cli.parse_input_file"),
}

# Not computed from the trace: traced pass wall time minus untraced pass wall time.
TRACE_OVERHEAD = "trace.overhead_s"


def per_layer_metrics(reports: list[dict]) -> dict[str, dict]:
    totals = Totals(reports)
    return {name: {"value": fn(totals), "unit": unit} for name, (unit, fn) in PER_LAYER.items()}


def instance_rows(reports: list[dict]) -> list[dict]:
    """One row per instance: its size and per-layer self time, for growth curves."""
    rows = []
    for i, report in enumerate(reports):
        for row in report["instances"]:
            rows.append({"invocation": i, **row})
    return rows

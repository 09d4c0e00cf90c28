"""Exact chromatic and characteristic polynomials with coefficient bounds.

Everything computes over arbitrary-precision integers and rationals; no
floating point is used anywhere.
"""

# The public names by home module. A name is imported from its module on
# first access, so `import chromabounds` (and `python -m chromabounds`, which
# runs it before the command line) loads no module that a command never runs.
_HOME = {
    name: module
    for module, names in (
        ("arrangements", "Arrangement Flat Hyperplane IntersectionPoset boolean_char_poly char_poly "
                         "char_poly_whitney decone delete essentialize flat_of general_position_char_poly "
                         "graphic_arrangement intersection_poset is_boolean is_central is_general_position "
                         "rank restrict"),
        ("bounds", "BoundsRecord BoundsReport CoeffSequence LowerBoundReport check_coefficient_lower_bounds "
                   "coeff_sequence divided_difference divided_difference_formula divided_difference_iter "
                   "is_logconcave partial_binomial_sum partial_sum_bounds verify_bounds"),
        ("errors", "CoeffSequenceError InputError InvariantError ResourceLimitError"),
        ("exactmath", "IntPolynomial binom vandermonde_sum"),
        ("graphs", "GraphRankInfo SimpleGraph chromatic_poly chromatic_poly_interpolated complete "
                   "complete_bipartite contract_edge count_colorings cycle delete_edge is_forest path rank_info"),
        ("nbc", "broken_circuits circuits default_order is_dependent nbc_counts"),
    )
    for name in names.split()
}

__all__ = [
    "Arrangement",
    "BoundsRecord",
    "BoundsReport",
    "CoeffSequence",
    "CoeffSequenceError",
    "Flat",
    "GraphRankInfo",
    "Hyperplane",
    "InputError",
    "IntersectionPoset",
    "IntPolynomial",
    "InvariantError",
    "LowerBoundReport",
    "ResourceLimitError",
    "SimpleGraph",
    "binom",
    "boolean_char_poly",
    "broken_circuits",
    "char_poly",
    "char_poly_whitney",
    "check_coefficient_lower_bounds",
    "chromatic_poly",
    "chromatic_poly_interpolated",
    "circuits",
    "coeff_sequence",
    "complete",
    "complete_bipartite",
    "contract_edge",
    "count_colorings",
    "cycle",
    "decone",
    "default_order",
    "delete",
    "delete_edge",
    "divided_difference",
    "divided_difference_formula",
    "divided_difference_iter",
    "essentialize",
    "flat_of",
    "general_position_char_poly",
    "graphic_arrangement",
    "intersection_poset",
    "is_boolean",
    "is_central",
    "is_dependent",
    "is_forest",
    "is_general_position",
    "is_logconcave",
    "nbc_counts",
    "partial_binomial_sum",
    "partial_sum_bounds",
    "path",
    "rank",
    "rank_info",
    "restrict",
    "verify_bounds",
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

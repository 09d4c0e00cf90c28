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
        ("arrangements", "Arrangement Hyperplane boolean_char_poly char_poly char_poly_whitney decone delete "
                         "essentialize general_position_char_poly graphic_arrangement intersection_poset "
                         "is_boolean is_central is_general_position nbc_counts rank restrict"),
        ("bounds", "CoeffSequence coeff_sequence divided_difference divided_difference_formula "
                   "divided_difference_iter h_vector is_logconcave verify_bounds"),
        ("errors", "CoeffSequenceError InputError InvariantError ResourceLimitError"),
        ("exactmath", "IntPolynomial"),
        ("graphs", "SimpleGraph chromatic_poly chromatic_poly_interpolated complete complete_bipartite "
                   "contract_edge cycle delete_edge is_forest path rank_info"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

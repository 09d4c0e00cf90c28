"""Exception types shared across the package.

The CLI maps these onto process exit codes: InputError -> 2,
ResourceLimitError -> 3, InvariantError (and report-level violations) -> 1.
Every resource limit lives here too, beside the error it raises: five
fixed budgets, which no flag, setting or parameter changes, each read by
the one module that checks it. So does `quoted`, the excerpt of an input
that an error message echoes. The subset guard bounds only the walks over
subsets of hyperplanes (`arrangements._subset_walk`); the intersection
poset enumerates no subsets and is bounded by the elimination steps it
does.
"""

SUBSET_GUARD = 20  # hyperplanes or edges a subset enumeration may range over
# The coloring oracle keeps a count vector per frontier state, so its time and
# memory grow with the states it builds. 10^5 admits every graph that the tests
# and the benchmark check, at most 785 states, and G(20, 1/2), at 51,522. It
# stops G(24, 1/2) within a second, whose tables otherwise outgrew a 2 GB
# address space (Python 3.11, one core).
COLORING_BUDGET = 10**5  # frontier states one coloring-oracle call may build
POSET_STEP_BUDGET = 10**5  # sections one intersection poset may cut (its reduce_row steps, at most)
GRID_CELL_BUDGET = 10**5  # (q, k) cells one bound grid may hold
CORPUS_INSTANCE_BUDGET = 10**4  # random graphs plus arrangements one verify run may draw


def quoted(text: str) -> str:
    """`text` in quotes for an error message; past 40 characters, its first 40 and its length."""
    if len(text) <= 40:
        return f"'{text}'"
    return f"'{text[:40]}...' ({len(text)} characters)"


class InputError(Exception):
    """Malformed input file or a violated operation precondition."""


class ResourceLimitError(Exception):
    """One of the resource budgets above was exceeded."""


class InvariantError(Exception):
    """An identity that must hold exactly failed at runtime.

    Raised when a cross-check that is guaranteed by construction comes out
    unequal; it always indicates a bug, never bad user input.
    """


class CoeffSequenceError(InvariantError, ValueError):
    """Polynomial does not have the alternating-sign coefficient shape.

    Every polynomial the package builds has that shape, so on a computed
    polynomial this is a broken invariant.
    """

"""Value semantics of the normalising value types: IntPolynomial, SimpleGraph, Hyperplane, Arrangement.

Equal inputs after normalisation give equal objects with equal hashes, the
hash is the one of the field tuple, every field takes part in equality,
objects are immutable, hold no `__dict__` and survive copy and pickle, and
the reprs name every field. The four are exactly the subclasses of
`exactmath.Value`, so a new value type is not left out of these checks.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabounds import Arrangement, Hyperplane, IntPolynomial, SimpleGraph
from chromabounds.exactmath import Value

from strategies import small_graphs, walk_arrangements

coefficient_tuples = st.lists(st.integers(-50, 50), max_size=8).map(tuple)


def assert_value_object(obj, same, fields):
    """`same` was built from other inputs that normalise to the same value as `obj`."""
    values = tuple(getattr(obj, name) for name in fields)
    assert not hasattr(obj, "__dict__")
    assert obj == same and not obj != same
    assert hash(obj) == hash(same) == hash(values)
    assert obj != values and values != obj
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in fields) == values
    assert copy.copy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(obj) == f"{type(obj).__name__}({body})"


def test_the_four_classes_are_every_value_type():
    assert set(Value.__subclasses__()) == {IntPolynomial, SimpleGraph, Hyperplane, Arrangement}


class TestIntPolynomial:
    @settings(max_examples=60, deadline=None)
    @given(coefficient_tuples, st.integers(0, 3))
    def test_trailing_zeros_do_not_matter(self, coeffs, zeros):
        p = IntPolynomial(coeffs)
        assert_value_object(p, IntPolynomial(list(coeffs) + [0] * zeros), ("coeffs",))
        assert p.coeffs[-1:] != (0,)

    def test_other_classes_are_unequal(self):
        assert IntPolynomial(()) != SimpleGraph(0)
        assert IntPolynomial((1,)) != 1


class TestSimpleGraph:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_edge_orientation_does_not_matter(self, g):
        reversed_edges = SimpleGraph(g.n, frozenset((v, u) for u, v in g.edges))
        assert_value_object(g, reversed_edges, ("n", "edges"))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_every_field_takes_part(self, g):
        assert g != SimpleGraph(g.n + 1, g.edges)
        for e in g.edges:
            assert g != SimpleGraph(g.n, g.edges - {e})

    def test_other_classes_are_unequal(self):
        assert SimpleGraph(0) != Arrangement(0)


class TestHyperplane:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any), st.integers(-9, 9),
           st.integers(-4, 4).filter(bool))
    def test_scaled_rows_do_not_matter(self, normal, offset, factor):
        h = Hyperplane.make(normal, offset)
        scaled = Hyperplane([factor * x for x in h.row])
        assert_value_object(h, scaled, ("row",))
        assert h != Hyperplane.make(normal, offset + 1)

    def test_other_classes_are_unequal(self):
        assert Hyperplane((1, 0)) != Arrangement(1)


class TestArrangement:
    @settings(max_examples=60, deadline=None)
    @given(walk_arrangements)
    def test_repeated_hyperplanes_do_not_matter(self, arr):
        repeated = Arrangement(arr.dim, arr.hyperplanes + arr.hyperplanes[::-1])
        assert_value_object(arr, repeated, ("dim", "hyperplanes"))

    @settings(max_examples=60, deadline=None)
    @given(walk_arrangements)
    def test_every_field_takes_part(self, arr):
        assert Arrangement(arr.dim) != Arrangement(arr.dim + 1)
        for i in range(arr.m):
            assert arr != Arrangement(arr.dim, arr.hyperplanes[:i] + arr.hyperplanes[i + 1:])

    def test_other_classes_are_unequal(self):
        assert Arrangement(0) != IntPolynomial(())

"""The package namespace resolves each public name from its home module on first access.

That `import chromabounds` by itself loads no other module of the package is
checked in a fresh interpreter by the start-up guard in test_cli.py.
"""

import importlib

import pytest

import chromabounds


def test_every_public_name_is_its_home_modules_object():
    for name in chromabounds.__all__:
        obj = getattr(chromabounds, name)
        assert obj.__module__.startswith("chromabounds."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from chromabounds import *", namespace)
    assert set(chromabounds.__all__) <= set(namespace)
    assert set(chromabounds.__all__) <= set(dir(chromabounds))


@pytest.mark.parametrize("name", ["no_such_name", "forest_equivalence", "ForestEquivalence"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(chromabounds, name)
    assert not hasattr(chromabounds, name)

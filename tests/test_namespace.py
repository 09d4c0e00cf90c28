"""The package namespace resolves each public name from its home module on first access.

The public names are the ones README.md documents and the experiment
scripts import. That `import chromabounds` by itself loads no other module
of the package is checked in a fresh interpreter by the start-up guard in
test_cli.py.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import chromabounds

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _imported_from_package(source):
    """The names a Python source imports with `from chromabounds import ...`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "chromabounds" for alias in node.names}


def test_all_is_the_home_table():
    assert chromabounds.__all__ == sorted(chromabounds._HOME)


def test_quick_tour_and_scripts_import_only_public_names():
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README, re.S).group(1)
    imported = _imported_from_package(tour)
    assert imported
    for script in sorted((ROOT / "scripts").glob("*.py")):
        imported |= _imported_from_package(script.read_text())
    assert imported <= set(chromabounds.__all__)


def test_readme_lists_the_public_names():
    line = re.search(r"^Public names: (.*)$", README, re.M).group(1)
    assert re.findall(r"`(\w+)`", line) == chromabounds.__all__


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


@pytest.mark.parametrize("name", ["no_such_name", "forest_equivalence", "ForestEquivalence", "count_colorings",
                                  "is_dependent", "flat_of", "vandermonde_sum", "BoundsReport",
                                  "check_coefficient_lower_bounds", "circuits", "binom"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(chromabounds, name)
    assert not hasattr(chromabounds, name)

"""The docstring examples of every module in the package."""

import doctest
import importlib
import pkgutil

import pytest

import k3ord


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(k3ord.__path__)))
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(f"k3ord.{name}")).failed == 0

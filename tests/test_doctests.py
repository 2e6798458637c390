"""The docstring examples of every raisepeel module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import raisepeel

MODULES = sorted(info.name for info in pkgutil.iter_modules(raisepeel.__path__))

# modules whose docstrings document worked examples; each must keep some
DOCUMENTED = {"qfield", "stationary", "tq"}


def test_documented_modules_exist():
    assert DOCUMENTED <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, attempted = doctest.testmod(
        importlib.import_module(f"raisepeel.{name}"), verbose=False)
    assert failures == 0
    if name in DOCUMENTED:
        assert attempted > 0

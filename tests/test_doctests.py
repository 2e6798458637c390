"""The docstring examples of every raisepeel module run and hold, and no
module checks a result with assert."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

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


def test_package_has_no_assert():
    # python -O strips assert statements: a correctness check must raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(raisepeel.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

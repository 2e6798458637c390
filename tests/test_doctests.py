"""The docstring examples of every raisepeel module run and hold, no
module checks a result with assert, and the README's library example
runs and its commands parse."""

import ast
import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import raisepeel
from raisepeel.cli import build_parser

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
    package = Path(raisepeel.__file__).parent
    found = [f"{path.relative_to(package)}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_keeps_no_test_only_code():
    # every top-level function and class is named (a load, an attribute or
    # an import) somewhere in package code outside its own definition, so
    # what only tests or demos call lives with them, as tests/reference.py
    # does.  Methods are not checked: their names collide across classes
    # (ColumnMatrix had a toarray, and spinchain.SectorOperator has one)
    package = Path(raisepeel.__file__).parent
    defined, named = [], set()
    for path in sorted(package.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def:
                defined.append((f"{path.relative_to(package)}:{top.lineno}", top))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name is not None:
                    named.add((name, top if is_def else None))
    unused = [f"{where} {top.name}" for where, top in defined
              if not any(name == top.name and owner is not top for name, owner in named)]
    assert unused == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_library_example_runs():
    [example] = _readme_blocks("python")
    exec(compile(example, str(README), "exec"), {})


def test_readme_commands_parse():
    # a renamed subcommand or flag fails here, not in a reader's shell;
    # flags are matched whole, since argparse also takes a unique prefix
    parser, subparsers = build_parser()
    commands = [shlex.split(line, comments=True) for block in _readme_blocks("")
                for line in block.splitlines() if line.startswith("raisepeel ")]
    assert len(commands) >= 9
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        flags = subparsers[argv[1]]._option_string_actions
        assert [arg for arg in argv if arg.startswith("--") and arg not in flags] == []

"""Rules every module of the package keeps, checked on its syntax tree.

- No ``assert`` statement: it vanishes under ``python -O``, so an
  invariant the package relies on is a check that raises instead.
- No use of ``gc``: collector tuning is no fix for a slow path.
- No ``sys.setrecursionlimit``: deep decompositions run iteratively.
- A name the package exports is in its module's ``__all__``, where the
  module has one, so the two public lists agree.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import vecdom

SOURCES = sorted(Path(vecdom.__file__).parent.glob("*.py"))


def _broken_rules(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "gc" for alias in node.names
        ):
            found.append(f"{where}: gc import")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gc":
            found.append(f"{where}: gc import")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
            alias.name == "setrecursionlimit" for alias in node.names
        ):
            found.append(f"{where}: setrecursionlimit import")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "gc":
                found.append(f"{where}: gc.{node.attr}")
            elif node.value.id == "sys" and node.attr == "setrecursionlimit":
                found.append(f"{where}: sys.setrecursionlimit")
    return found


def test_every_module_is_checked() -> None:
    assert {path.name for path in SOURCES} >= {"__init__.py", "exact.py", "io.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_source_rules(path) -> None:
    assert _broken_rules(ast.parse(path.read_text("utf-8"), str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "assert x",
        "import gc",
        "import gc as collector",
        "from gc import collect",
        "gc.disable()",
        "import sys\nsys.setrecursionlimit(10**6)",
        "from sys import setrecursionlimit",
    ],
)
def test_each_rule_is_seen(source) -> None:
    assert _broken_rules(ast.parse(source))


def _export_homes() -> dict[str, str]:
    """Each name the package imports from one of its modules, with that module."""
    tree = ast.parse(Path(vecdom.__file__).read_text("utf-8"))
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def test_package_exports_are_in_their_module_all() -> None:
    homes = _export_homes()
    missing = []
    for name in vecdom.__all__:
        module = importlib.import_module(f"vecdom.{homes[name]}")
        if hasattr(module, "__all__") and name not in module.__all__:
            missing.append(f"{name} from vecdom.{homes[name]}")
    assert missing == []

"""Checks on the package source itself: no module imports a name it does not
use, and every private name a module defines is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fdmarch"
ALL_MODULES = sorted(SRC.glob("*.py"))
# __init__.py imports names to re-export them
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that no name in its code reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # from __future__ import annotations
                    bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "from typing import Iterable, Iterator\nimport numpy as np\nx: Iterable = np.ones(1)\n"
    assert unused_imports(source) == ["Iterator"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(source: str) -> list[str]:
    """The private module-level functions, classes and constants, and the
    private methods, that a module defines and no name or attribute in it reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defined.extend(f.name for f in node.body if isinstance(f, ast.FunctionDef))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [name for name in defined if _private(name) and name not in read]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_finds_an_unread_private_name():
    source = (
        "_LIMIT = 3\n_USED = 4\n"
        "def _helper(): return _USED\n"
        "def _left(): pass\n"
        "class _Scan:\n"
        "    def _point(self): return _helper()\n"
        "    def _old(self): pass\n"
        "    def __init__(self): self._point()\n"
        "_Scan()\n"
    )
    assert unread_private_names(source) == ["_LIMIT", "_left", "_old"]

"""Every module of the package and of the tests uses each name it imports.

The scan reads each module's syntax tree only.  An imported name counts
as used when it appears as a name anywhere in the module, inside a
string annotation, or in the module's __all__; imports from __future__
bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/subindep/*.py"), *ROOT.glob("tests/*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line binding it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for annotation in filter(None, _annotations(tree)):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _names(ast.parse(n.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_each_kind_of_use():
    source = '''
from __future__ import annotations
import os.path
import json as j
from typing import Any, Mapping, Sequence
from x import exported, spare

__all__ = ["exported"]

def f(a: "Mapping[str, Any]") -> Sequence:
    return os.path.join(a)
'''
    assert unused_imports(source) == [(4, "j"), (6, "spare")]


def test_the_scan_covers_package_and_tests():
    names = {p.name for p in MODULES}
    assert {"atlas.py", "checks.py", "conftest.py", "oracles.py", "test_imports.py"} <= names

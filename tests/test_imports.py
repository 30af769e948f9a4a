"""Every name a module of ``ratsym`` imports is used in it or exported.

There is no linter in the toolchain, so this walks each module's syntax
tree with :mod:`ast`: a name bound by ``import`` or ``from ... import``
must be read somewhere in the module or listed in its ``__all__``.
``__init__.py`` re-exports by design and is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "ratsym").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\n"
                     "__all__ = ['sep']\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 2)"]

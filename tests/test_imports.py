"""Every name a module of ``ratsym`` imports is used in it or exported,
every private definition is used, and the package imports nothing outside
the standard library.

There is no linter in the toolchain, so this walks each module's syntax
tree with :mod:`ast`: a name bound by ``import`` or ``from ... import``
must be read somewhere in the module or listed in its ``__all__``.
``__init__.py`` re-exports by design and is left out.  A module-level
function or class whose name starts with one underscore must be read
somewhere in the package outside its own definition, or be a name that
the benchmark's tracer wraps (``bench/tracer.py``), which resolves every
such name when it installs.  No statement may follow a ``return``,
``raise``, ``continue`` or ``break`` in the same block, where it could
never run.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracer import COUNTS, SPANS  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted(p for p in (SRC / "ratsym").glob("*.py") if p.name != "__init__.py")


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


def _unused_private_definitions(trees: list[ast.Module], kept: set[str]) -> list[str]:
    defined, read = [], set()
    for tree in trees:
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    read.add(name)
    return sorted(name for name in defined if name not in read | kept)


def test_every_private_definition_is_used():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted((SRC / "ratsym").glob("*.py"))]
    kept = {attr for _, attr in {**SPANS, **COUNTS}}
    assert _unused_private_definitions(trees, kept) == []


def test_an_unused_private_definition_is_found():
    # _a is read through an attribute, _b only by itself, _c nowhere; _d is
    # a name the tracer wraps, and public names are not checked
    trees = [ast.parse("def _a():\n    pass\n\n"
                       "def _b(n):\n    return _b(n - 1)\n\n"
                       "class _c:\n    pass\n\n"
                       "def _d():\n    pass\n\n"
                       "def public():\n    pass\n"),
             ast.parse("import m\nm._a()\n")]
    assert _unused_private_definitions(trees, {"_d"}) == ["_b", "_c"]


def _unreachable_statements(tree: ast.Module) -> list[int]:
    jumps = (ast.Return, ast.Raise, ast.Continue, ast.Break)
    lines = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            lines += [after.lineno for stmt, after in zip(block, block[1:])
                      if isinstance(stmt, jumps)]
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_statement_is_unreachable(path):
    assert _unreachable_statements(ast.parse(path.read_text(), str(path))) == []


def test_an_unreachable_statement_is_found():
    # each jump ends its own block only: the loop's else, the handler and
    # the statement after the loop still run
    tree = ast.parse("def f(xs):\n"
                     "    for x in xs:\n"
                     "        if x:\n"
                     "            continue\n"
                     "            x += 1\n"
                     "        break\n"
                     "    else:\n"
                     "        raise ValueError\n"
                     "    try:\n"
                     "        return 1\n"
                     "    except ValueError:\n"
                     "        return 2\n"
                     "        pass\n"
                     "    return 3\n"
                     "    f(xs)\n")
    assert _unreachable_statements(tree) == [5, 13, 15]


def test_the_cli_imports_only_the_standard_library():
    # every module that importing the CLI adds to a fresh interpreter's
    # start-up set: the package has no runtime dependency, and each module
    # outside it would add to every fresh start
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys; before = set(sys.modules); import ratsym.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True).stdout.split()
    assert "ratsym.cli" in out
    assert [m for m in out if m.split(".")[0] not in sys.stdlib_module_names
            and m.split(".")[0] != "ratsym"] == []

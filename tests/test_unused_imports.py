"""Every module-level import under ``src/repro``, ``tests`` and
``benchmarks`` is used.

A stdlib-``ast`` check, since no linter ships with the test
dependencies. A name counts as used when the module reads it, names it
in a string annotation or lists it in ``__all__``. Package
``__init__.py`` files are exempt: their imports are the re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _module_imports(body: List[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` per import at module level, including the
    imports under a module-level ``if`` (``TYPE_CHECKING``) or ``try``."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [s for h in node.handlers for s in h.body]
            yield from _module_imports(
                node.body + handlers + node.orelse + node.finalbody
            )


def _names_used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("Worker") reads the name it spells.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            )
    return used


def unused_imports(root: Path) -> List[str]:
    found: List[str] = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_used(tree)
        for name, line in _module_imports(tree.body):
            if name not in used:
                found.append(f"{path.relative_to(root.parent)}:{line}: {name}")
    return found


def test_src_has_no_unused_module_imports():
    assert SRC.is_dir()
    assert unused_imports(SRC) == []


@pytest.mark.parametrize("tree", ["tests", "benchmarks"])
def test_test_trees_have_no_unused_module_imports(tree):
    root = ROOT / tree
    assert root.is_dir()
    assert unused_imports(root) == []


def test_the_check_sees_an_unused_import(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from os import path\n")
    (pkg / "mod.py").write_text(
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from os import sep\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    return {}\n"
        "__all__ = ['json']\n"
    )
    assert unused_imports(pkg) == ["pkg/mod.py:1: List", "pkg/mod.py:4: sep"]

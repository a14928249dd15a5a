"""Every module of the package and the scripts uses each name it imports.

A name counts as used when the module reads it anywhere (``ast.Name``) or
lists it in ``__all__``; ``from __future__`` imports are compiler switches
and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "foglink").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "import numpy.linalg\nfrom typing import Optional, Sequence\n"
              "from .x import exported\n__all__ = ['exported']\n"
              "def f(a: Optional[int]) -> None:\n    return numpy.linalg.norm(a)\n")
    assert unused_imports(source) == ["os", "system", "Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []

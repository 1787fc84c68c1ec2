"""Import lint: every module-level import in the library is used.

A name bound by an import at the top level of a module must be read
somewhere in that module.  A package `__init__.py` re-exports names, so
those listed in its `__all__` count as used.
"""
import ast
from pathlib import Path

import padicsp

SRC = Path(padicsp.__file__).resolve().parent


def _bound_names(stmt):
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    # `import a.b` binds `a`
    return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]


def _exported(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def unused_imports(root=SRC):
    """(module, name) for each module-level import that the module never reads."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= _exported(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                found.update((module, name) for name in _bound_names(stmt) if name not in used)
    return found


def test_every_library_import_is_used():
    assert unused_imports() == set()


def test_import_lint_sees_each_binding_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import json as js\n"
        "from fractions import Fraction as Q, gcd\n"
        "from .x import used, unused\n"
        "def f():\n"
        "    import sys\n"
        "    return os.path.join(Q(1), used)\n"
    )
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .m import exported, dropped\n__all__ = ['exported']\n"
    )
    assert unused_imports(tmp_path) == {
        ("m", "math"),
        ("m", "js"),
        ("m", "gcd"),
        ("m", "unused"),
        ("pkg.__init__", "dropped"),
    }

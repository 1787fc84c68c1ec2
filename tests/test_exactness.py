"""Exactness lint: floats live only in the complex embeddings and the report encoder.

Every value the library computes is exact (Fraction, Mono, Cyclo).  This
walks the source and lists each function that touches cmath, the name
complex, a complex literal or a float(...) call; the list must be the
short allow-list below.
"""
import ast
from pathlib import Path

import padicsp

SRC = Path(padicsp.__file__).resolve().parent

ALLOWED = {
    "padic.Mono.as_complex",  # the embedding of one exact scalar
    "padic.Cyclo.as_complex",  # the same embedding, summed over a canonical form
}


def _is_float_use(node) -> bool:
    if isinstance(node, ast.Name) and node.id in ("cmath", "complex"):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, complex):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def float_users(root=SRC):
    """Qualified names of the functions (or modules) that use floats."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    walk(child, scope + [child.name])
                    continue
                if _is_float_use(child):
                    found.add(".".join([module] + scope))
                walk(child, scope)

        walk(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_floats_only_in_the_allow_list():
    assert float_users() == ALLOWED


def test_lint_sees_every_kind_of_float_use(tmp_path):
    (tmp_path / "m.py").write_text(
        "import cmath\n"
        "def a(x):\n    return float(x)\n"
        "class K:\n    def b(self):\n        return 1j\n"
        "    def c(self):\n        return cmath.pi\n"
        "def d(x) -> complex:\n    return x\n"
        "def e(x):\n    return x + 1\n"
        "Z = complex(1, 2)\n"
    )
    assert float_users(tmp_path) == {"m.a", "m.K.b", "m.K.c", "m.d", "m"}

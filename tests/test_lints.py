"""Source lints: six rules the library's code must keep, read off its syntax.

- floats live only in the two complex embeddings (every value the
  library computes is exact: Fraction, Mono, Cyclo);
- every module-level import is used;
- one helper splits the prime off an integer;
- only the valuation readers take a PAdic;
- only the chevalley functions that read p take a PrimeCtx;
- only the campaign driver starts processes.

One walker names each node by the innermost function or class around
it, module-qualified (`padic.Mono.as_complex`, `harness.checks.<module>`
at module level); a function's own signature counts as inside it.  Each
lint has a `tmp_path` self-test showing every form it must see.
"""
import ast
from pathlib import Path

import padicsp

SRC = Path(padicsp.__file__).resolve().parent

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef,)


def modules(root=SRC):
    """(module name, parsed tree) for each Python file under root."""
    for path in sorted(Path(root).rglob("*.py")):
        name = ".".join(path.relative_to(root).with_suffix("").parts)
        yield name, ast.parse(path.read_text(encoding="utf-8"))


def scoped_nodes(root=SRC):
    """(qualified name, node) for every node of every module under root."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, _SCOPES) else scope
            yield ".".join(inner if len(inner) > 1 else inner + ["<module>"]), child
            yield from walk(child, inner)

    for module, tree in modules(root):
        yield from walk(tree, [module])


def _params(fn):
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs


# ------------------------------------------------------------- floats

ALLOWED_FLOAT_USERS = {
    "padic.Mono.as_complex",  # the embedding of one exact scalar
    "padic.Cyclo.as_complex",  # the same embedding, summed over a canonical form
}


def _is_float_use(node) -> bool:
    if isinstance(node, ast.Name) and node.id in ("cmath", "complex"):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, complex):
        return True
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"


def float_users(root=SRC):
    """The functions (or <module>s) that touch cmath, the name complex, a
    complex literal or a float(...) call."""
    return {name for name, node in scoped_nodes(root) if _is_float_use(node)}


def test_floats_only_in_the_allow_list():
    assert float_users() == ALLOWED_FLOAT_USERS


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
    assert float_users(tmp_path) == {"m.a", "m.K.b", "m.K.c", "m.d", "m.<module>"}


# ------------------------------------------------------------ imports

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
    """(module, name) for each module-level import that the module never
    reads; a package `__init__` also uses the names in its `__all__`."""
    found = set()
    for module, tree in modules(root):
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module.rpartition(".")[2] == "__init__":
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


# -------------------------------------------------------- p-stripping

def _divides_by_p(node) -> bool:
    """node floor-divides by a name or an attribute p: k //= p, k // p or divmod(k, p)."""

    def is_p(n):
        return "p" in (getattr(n, "id", None), getattr(n, "attr", None))

    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
        return is_p(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
        return is_p(node.right)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod":
        return len(node.args) == 2 and is_p(node.args[1])
    return False


def p_stripping_loops(root=SRC):
    """The functions (or <module>s) holding a while loop that floor-divides by p."""
    return {
        name for name, node in scoped_nodes(root)
        if isinstance(node, ast.While) and any(_divides_by_p(n) for n in ast.walk(node))
    }


def test_only_strip_splits_p_off_an_integer():
    assert p_stripping_loops() == {"padic._strip"}


def test_p_stripping_lint_sees_methods_nested_functions_and_each_division(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(k, p):\n    while k % p == 0:\n        k //= p\n    return k\n"
        "class K:\n    def c(self, k):\n        while not k % self.p:\n            k = k // self.p\n        return k\n"
        "def d(k, p):\n    def e(k):\n        while True:\n            q, r = divmod(k, p)\n"
        "            if r:\n                return k\n            k = q\n    return e(k)\n"
        "k, p = 9, 3\nwhile k % p == 0:\n    k //= p\n"
    )
    (tmp_path / "n.py").write_text(
        "def f(k, p):\n    while k > p:\n        k -= p\n    return k // p\n"
        "def g(k, p):\n    while k % p == 0:\n        k = k // 2\n    return k\n"
    )
    assert p_stripping_loops(tmp_path) == {"m.a", "m.K.c", "m.d.e", "m.<module>"}


# -------------------------------------------------------------- PAdic

# The functions that read a valuation, with the parameters that take a
# number as ctx.of(x); every other function takes Fractions.
PADIC_READERS = {
    "padic.psi": ("x",),
    "padic.hilbert_symbol": ("a", "b"),
    "padic.weil_index": ("a",),
    "padic.mu_psi": ("a",),
    "padic.is_square": ("a",),
}


def _names_padic(node) -> bool:
    """node names PAdic: a name, an attribute, a string annotation, an import or the class."""
    if isinstance(node, ast.Constant):
        return node.value == "PAdic"
    return "PAdic" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))


def padic_annotations(root=SRC):
    """(takers, returners, named): {function: parameters annotated PAdic},
    the functions annotated to return a PAdic, and the modules that use
    the name PAdic at all."""
    takers, returners = {}, set()
    for name, node in scoped_nodes(root):
        if isinstance(node, _FUNCTIONS):
            args = node.args
            params = _params(node) + [a for a in (args.vararg, args.kwarg) if a is not None]
            tagged = tuple(a.arg for a in params if _names_padic(a.annotation))
            if tagged:
                takers[name] = tagged
            if _names_padic(node.returns):
                returners.add(name)
    named = {module for module, tree in modules(root) if any(map(_names_padic, ast.walk(tree)))}
    return takers, returners, named


def test_only_the_valuation_readers_take_a_padic():
    assert padic_annotations() == (PADIC_READERS, {"padic.PrimeCtx.of"}, {"padic", "__init__"})


def test_padic_lint_sees_methods_nested_functions_and_string_annotations(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(x: PAdic, y):\n    return x\n"
        "def b(x: 'PAdic') -> 'PAdic':\n    return x\n"
        "class K:\n    def c(self, *, z: padic.PAdic) -> PAdic:\n        return z\n"
        "def d(x):\n    def e(*w: PAdic):\n        return w\n    return e\n"
    )
    (tmp_path / "n.py").write_text("def f(x: Fraction) -> Fraction:\n    return x\n")
    (tmp_path / "o.py").write_text("from .padic import PAdic\n")
    assert padic_annotations(tmp_path) == (
        {"m.a": ("x",), "m.b": ("x",), "m.K.c": ("z",), "m.d.e": ("w",)},
        {"m.b", "m.K.c"},
        {"m", "o"},
    )


# ---------------------------------------------------------------- ctx

# The functions of chevalley.py that read p, each taking a PrimeCtx as
# its leading argument; cells, root groups and Weyl representatives never
# read it.
P_READERS = {
    "conjugating_torus",
    "in_standard_level",
    "in_skew_level",
    "generic_character",
    "skew_level_character",
    "cell_word_rewrite",
}


def prime_takers(root=SRC):
    """{function: position of its ctx parameter}."""
    found = {}
    for name, node in scoped_nodes(root):
        if isinstance(node, _FUNCTIONS):
            params = [a.arg for a in _params(node)]
            if "ctx" in params:
                found[name] = params.index("ctx")
    return found


def test_only_the_valuation_readers_take_a_prime():
    takers = {k: v for k, v in prime_takers().items() if k.startswith("chevalley.")}
    assert takers == {f"chevalley.{name}": 0 for name in P_READERS}


def test_prime_lint_sees_methods_nested_functions_and_keyword_parameters(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(ctx, x):\n    return x\n"
        "def b(x, *, ctx):\n    return x\n"
        "class K:\n    def c(self, ctx):\n        return ctx\n"
        "    @classmethod\n    def d(cls, x):\n        return x\n"
        "def e(x):\n    def f(ctx):\n        return ctx\n    return f\n"
    )
    assert prime_takers(tmp_path) == {"m.a": 0, "m.b": 1, "m.K.c": 1, "m.e.f": 0}


# ---------------------------------------------------------- processes

# A lane is a forked process that leaves by os._exit; both belong to the
# campaign driver alone, and the library starts no process pool.
_LANE_CALLS = ("fork", "_exit")
_POOL_MODULES = ("multiprocessing", "concurrent")


def _process_uses(node):
    if isinstance(node, ast.Attribute) and node.attr in _LANE_CALLS and getattr(node.value, "id", None) == "os":
        return {f"os.{node.attr}"}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "os":
            return {f"os.{a.name}" for a in node.names if a.name in _LANE_CALLS}
        return {node.module.split(".")[0]} & set(_POOL_MODULES)
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names} & set(_POOL_MODULES)
    return set()


def process_starters(root=SRC):
    """(function, use) for each os.fork or os._exit and each import of
    multiprocessing or concurrent."""
    return {(name, use) for name, node in scoped_nodes(root) for use in _process_uses(node)}


def test_only_the_campaign_driver_forks():
    assert process_starters() == {
        ("harness.checks._run_lanes", "os.fork"),
        ("harness.checks._lane", "os._exit"),
    }


def test_process_lint_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import os\n"
        "import multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from os import fork as f, getpid\n"
        "def a():\n    return os.fork()\n"
        "class K:\n    def b(self):\n        import concurrent\n        os._exit(0)\n"
        "exit_now = os._exit\n"
    )
    (tmp_path / "n.py").write_text(
        "import os\nimport multiprocessor\nfrom .concurrent import x\n"
        "def c():\n    return os.getpid(), os.forkpty, x.fork()\n"
    )
    assert process_starters(tmp_path) == {
        ("m.<module>", "multiprocessing"),
        ("m.<module>", "concurrent"),
        ("m.<module>", "os.fork"),
        ("m.a", "os.fork"),
        ("m.K.b", "concurrent"),
        ("m.K.b", "os._exit"),
        ("m.<module>", "os._exit"),
    }

"""Source lints: fifteen rules the code must keep, read off its syntax.

- the library never touches cmath, complex or float(): every value it
  computes is exact (Fraction, Mono, Cyclo), and the complex embedding
  is a test helper;
- every module-level import is used, in the library and in the tests;
- one helper splits the prime off an integer;
- only the valuation readers take a PAdic;
- only the Sp_2n functions that read p take a PrimeCtx;
- only the campaign driver starts processes;
- the integer kernels (matrix rows, quadratic-extension elements) never
  touch a Fraction view;
- of the package outside itself, the integer-row kernel (intmat and
  intelim) imports only padic;
- only padic and schwartz use the trusted Mono constructor;
- every acceptance criterion runs a catalog check through run_check;
- no module has more than 3,000 AST nodes;
- every check function of the harness is the fn of exactly one catalog
  entry, and every entry's fn is one of them;
- only the value base and four named classes define __eq__ or __hash__;
- only padic's input helpers test a number's type or a sign's value, only
  PrimeCtx tests primality, and int(...) only parses text;
- every public class of the table's modules is in the input table of
  test_inputs or named as trusted there.

One walker names each node by the innermost function or class around
it, module-qualified (`padic.Mono.inverse`, `harness.checks.<module>`
at module level); a function's own signature counts as inside it.  Each
lint has a `tmp_path` self-test showing every form it must see.
"""
import ast
from pathlib import Path

import padicsp
from padicsp.harness.checks import CATALOG, CheckSpec
from test_inputs import INPUT_TABLE, TABLE_MODULES, TRUSTED_CLASSES

SRC = Path(padicsp.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

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

ALLOWED_FLOAT_USERS = set()


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


def test_every_test_import_is_used():
    assert unused_imports(TESTS) == set()


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

# The functions of the Sp_2n modules (chevalley and the congruence and
# subgroups modules split off it) that read p, each taking a PrimeCtx as
# its leading argument; cells, root groups and Weyl representatives never
# read it.
GROUP_MODULES = ("chevalley", "congruence", "subgroups")
P_READERS = {
    "subgroups.conjugating_torus",
    "congruence.in_standard_level",
    "congruence.in_skew_level",
    "congruence.generic_character",
    "congruence.skew_level_character",
    "chevalley.cell_word_rewrite",
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
    takers = {k: v for k, v in prime_takers().items() if k.split(".")[0] in GROUP_MODULES}
    assert takers == dict.fromkeys(P_READERS, 0)


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


# ------------------------------------------------------ integer kernels

# Every function of the kernel (intmat and intelim), the chevalley
# routines that hand it integer rows over one denominator, the cover generators, which build their 2x2
# rows as integers, and the quadratic-extension arithmetic on (an, bn)
# over den; none of them may build or read a Fraction view (a Mat's rows,
# an element's a and b).
INTEGER_KERNELS = {
    "chevalley.Mat.__mul__",
    "chevalley.Mat.inverse",
    "chevalley.symplectic_inverse",
    "chevalley.is_symplectic",
    "chevalley.root_product",
    "chevalley.mul_root_elem",
    "chevalley.weyl_from_rank_pattern",
    "chevalley.bruhat_decompose",
    "chevalley.cell_collapse_witness",  # its cell from the corner ranks
    "intmat.lowest",
    "intmat.tuple_rows",
    "intmat.eye",
    "intmat.unit_diagonal",
    "intmat.from_entries",  # L^-1, B and diagonals from (num, den) entries
    "intmat.integer_rows",
    "intmat.over_common_den",
    "intmat.reduced_row",
    "intmat.levi_block",
    "intmat.mul",  # the body of Mat.__mul__
    "intmat.symplectic_inverse",
    "intmat.is_symplectic",
    "intmat.times_roots",  # the word kernel behind root_product and mul_root_elem
    "intmat.signed_conjugate",
    "intmat.times_monomial",  # products by a torus or Weyl factor
    "intmat.diagonal_conjugate",
    "intmat.in_level",
    "intelim.inverse",  # the body of Mat.inverse
    "intelim.peel",
    "intelim.monomial_form",  # the elimination of bruhat_decompose
    "intelim.unitriangular_ul",
    "intelim.corner_ranks",  # the one-sweep rank table of weyl_from_rank_pattern
    "metaplectic.MetaSL2.identity",
    "metaplectic.MetaSL2.upper",
    "metaplectic.MetaSL2.lower",
    "metaplectic.MetaSL2.diag",
    "metaplectic.MetaSL2.flip",
    "quadext.QuadExtElem.__add__",
    "quadext.QuadExtElem.__sub__",
    "quadext.QuadExtElem.__mul__",
    "quadext.QuadExtElem.__truediv__",
}
_FRACTION_CALLS = ("Mat", "integer_rows", "Q", "Fraction")
_FRACTION_VIEWS = ("rows", "a", "b")


def _fraction_view_use(node):
    """The form of the Fraction view that node uses, or None: .rows, .a or
    .b, or a call of Mat, integer_rows, Q or Fraction (bare or as an
    attribute)."""
    if isinstance(node, ast.Attribute) and node.attr in _FRACTION_VIEWS:
        return f".{node.attr}"
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in _FRACTION_CALLS:
            return f"{name}("
    return None


def fraction_view_users(root=SRC):
    """(function, form) for each use of the Fraction view of a matrix."""
    return {
        (name, form) for name, node in scoped_nodes(root)
        if (form := _fraction_view_use(node)) is not None
    }


def test_integer_kernels_never_touch_the_fraction_view():
    functions = {name for name, node in scoped_nodes() if isinstance(node, _FUNCTIONS)}
    assert INTEGER_KERNELS <= functions
    assert {name for name in functions if name.split(".")[0] in KERNEL_IMPORTS} <= INTEGER_KERNELS
    assert {(name, form) for name, form in fraction_view_users() if name in INTEGER_KERNELS} == set()


def test_fraction_view_lint_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "from fractions import Fraction\n"
        "def a(g):\n    return g.rows[0]\n"
        "class K:\n    def b(self, rows):\n        return Mat(rows)\n"
        "    def c(self):\n        return intmat.integer_rows(self.num)\n"
        "def d(x):\n    def e(y):\n        return Q(y, 3)\n    return e(x)\n"
        "def f(x):\n    return Fraction(x)\n"
        "def g(x):\n    return chevalley.Mat(x), fractions.Fraction(1, 2)\n"
        "class E:\n    def __mul__(self, o):\n        return self.a * o.b\n"
        "Z = Q(1)\n"
    )
    (tmp_path / "n.py").write_text(
        "def h(g, rows):\n    return _mat(g.den, rows), Mat.identity(2), g.num, rows, Mat, g.an, g.ab\n"
    )
    assert fraction_view_users(tmp_path) == {
        ("m.a", ".rows"),
        ("m.K.b", "Mat("),
        ("m.K.c", "integer_rows("),
        ("m.d.e", "Q("),
        ("m.f", "Fraction("),
        ("m.g", "Mat("),
        ("m.g", "Fraction("),
        ("m.E.__mul__", ".a"),
        ("m.E.__mul__", ".b"),
        ("m.<module>", "Q("),
    }


# --------------------------------------------------------------- kernel

# intmat and intelim are the integer-row kernel under chevalley, its ring
# arithmetic and its elimination routines.  Of the package outside the
# kernel they read only padic's valuations, so a rank-n cover can sit on
# them without the group structure above them.
KERNEL_IMPORTS = {"intmat": {"padic"}, "intelim": {"padic", "intmat"}}


def package_imports(module, root=SRC):
    """The package modules that module imports anywhere in its body, named
    relative to the package: relative imports, `import padicsp.x` and
    `from padicsp[.x] import y`."""
    tree = dict(modules(root))[module]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.removeprefix("padicsp.") for a in node.names if a.name.split(".")[0] == "padicsp"}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base.split(".")[0] != "padicsp":
                    continue
                base = base.removeprefix("padicsp").removeprefix(".")
            found |= {base} if base else {a.name for a in node.names}
    return found


def test_the_kernel_imports_only_padic():
    for module, allowed in KERNEL_IMPORTS.items():
        assert package_imports(module) <= allowed, module


def test_kernel_import_lint_sees_each_form(tmp_path):
    (tmp_path / "k.py").write_text(
        "import math\nimport padicsp.chevalley\nfrom . import schwartz, padic\n"
        "from .metaplectic import MetaSL2\nfrom padicsp import rootsys\n"
        "from padicsp.harness.checks import CATALOG\nfrom functools import lru_cache\n"
        "def f():\n    from .quadext import QuadExt\n    import padicsp\n    return QuadExt\n"
    )
    assert package_imports("k", tmp_path) == {
        "chevalley", "schwartz", "padic", "metaplectic", "rootsys", "harness.checks", "quadext", "padicsp",
    }


# ------------------------------------------------- trusted constructor

# padic._mono skips Mono's coercions, so its caller must hand it
# normalised Fraction fields; only the scalar layer and the Schwartz term
# path (schwartz and its term arithmetic chirp), whose arithmetic
# establishes that, may use it.
TRUSTED_MONO_MODULES = {"padic", "schwartz", "chirp"}


def _uses_trusted_mono(node) -> bool:
    return "_mono" in (getattr(node, "id", None), getattr(node, "attr", None))


def trusted_mono_users(root=SRC):
    """The functions (or <module>s) that call or take a reference to _mono,
    bare or as an attribute; importing it is not a use."""
    return {name for name, node in scoped_nodes(root) if _uses_trusted_mono(node)}


def test_only_the_scalar_layer_builds_trusted_monos():
    users = trusted_mono_users()
    assert {"padic.Mono.__mul__", "schwartz._regroup"} <= users
    assert {name.split(".")[0] for name in users} == TRUSTED_MONO_MODULES


def test_trusted_mono_lint_sees_calls_references_and_attributes(tmp_path):
    (tmp_path / "m.py").write_text(
        "from .padic import _mono\n"
        "def a(r):\n    return _mono(r, 0, 0)\n"
        "class K:\n    def b(self):\n        return padic._mono(1, 0, 0)\n"
        "def c():\n    def d():\n        return _mono\n    return d\n"
        "ONE = _mono(1, 0, 0)\n"
    )
    (tmp_path / "n.py").write_text(
        "def _mono(r, e, t):\n    return Mono(r, e, t)\n"
        "def e(x):\n    return mono(x), x._mono_cache, '_mono'\n"
    )
    assert trusted_mono_users(tmp_path) == {"m.a", "m.K.b", "m.c.d", "m.<module>"}


# ---------------------------------------------------------- release gate

# The release gate decides each verdict through a catalog check, so that
# `padicsp verify` runs every property the gate holds; a criterion adds
# only the oracles of the per-module suites.


def _calls_run_check(node) -> bool:
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and "run_check" in (getattr(func, "id", None), getattr(func, "attr", None))


def criteria_running_checks(root=TESTS):
    """{criterion: whether its own body calls run_check} for each
    test_criterion_* function of test_acceptance."""
    criteria, callers = set(), set()
    for name, node in scoped_nodes(root):
        if not name.startswith("test_acceptance."):
            continue
        if isinstance(node, _FUNCTIONS) and node.name.startswith("test_criterion_"):
            criteria.add(name)
        if _calls_run_check(node):
            callers.add(name)
    return {name: name in callers for name in criteria}


def test_every_criterion_runs_a_catalog_check():
    verdicts = criteria_running_checks()
    assert len(verdicts) == 13
    assert [name for name, checked in verdicts.items() if not checked] == []


def test_gate_lint_sees_each_criterion(tmp_path):
    (tmp_path / "test_acceptance.py").write_text(
        "def run_check(check, seed, problems):\n    return 0\n"
        "def test_criterion_01_bare():\n    assert run_check(None, 1, []) == 0\n"
        "def test_criterion_02_attribute():\n    assert gate.run_check(None, 2, []) == 0\n"
        "def test_criterion_03_inline():\n    assert all(k < 3 for k in range(3))\n"
        "def test_criterion_04_nested():\n"
        "    def inner():\n        return run_check(None, 4, [])\n    assert inner() == 0\n"
        "def test_criterion_05_reference():\n    assert run_check is not None\n"
        "def helper():\n    return 0\n"
    )
    (tmp_path / "test_other.py").write_text(
        "def test_criterion_06_elsewhere():\n    assert True\n"
    )
    assert criteria_running_checks(tmp_path) == {
        "test_acceptance.test_criterion_01_bare": True,
        "test_acceptance.test_criterion_02_attribute": True,
        "test_acceptance.test_criterion_03_inline": False,
        "test_acceptance.test_criterion_04_nested": False,
        "test_acceptance.test_criterion_05_reference": False,
    }


# ---------------------------------------------------------- module size

# A module's compile peak grows with its syntax tree, and the process
# keeps its RSS high-water mark, so the largest compile of a run sets a
# floor under its peak memory, and every run without bytecode compiles
# the library.  At 3,000 nodes no module's compile rises above the rest
# of the imports.
MAX_NODES = 3000


def oversized_modules(root=SRC, cap=MAX_NODES):
    """{module: AST node count} for each module under root with more than cap nodes."""
    sizes = {module: sum(1 for _ in ast.walk(tree)) for module, tree in modules(root)}
    return {module: n for module, n in sizes.items() if n > cap}


def test_no_module_outgrows_the_node_cap():
    assert oversized_modules() == {}


def test_size_lint_sees_each_harness_module(tmp_path):
    def tuple_module(nodes):
        # Module, Assign, Name, Store, Tuple and Load, and one Constant per entry
        return "x = (" + "1, " * (nodes - 6) + ")\n"

    (tmp_path / "harness").mkdir()
    (tmp_path / "lib.py").write_text(tuple_module(MAX_NODES + 1))
    (tmp_path / "small.py").write_text("\n")  # 1 node
    (tmp_path / "harness" / "equal.py").write_text(tuple_module(MAX_NODES))
    (tmp_path / "harness" / "big.py").write_text(tuple_module(MAX_NODES + 2))
    (tmp_path / "harness" / "nested").mkdir()
    (tmp_path / "harness" / "nested" / "deep.py").write_text("def f(x):\n    return x\n" + tuple_module(MAX_NODES))
    assert oversized_modules(tmp_path) == {
        "lib": MAX_NODES + 1,
        "harness.big": MAX_NODES + 2,
        "harness.nested.deep": MAX_NODES + 6,
    }


# -------------------------------------------------------------- catalog

# The catalog lists checks from several harness modules; a check defined
# but never listed would silently stop running, and one listed twice
# would run twice.


def harness_checks(root=SRC):
    """The module-level check_* functions of the modules under harness/,
    module-qualified."""
    return {
        f"{module}.{stmt.name}"
        for module, tree in modules(root) if module.startswith("harness.")
        for stmt in tree.body if isinstance(stmt, _FUNCTIONS) and stmt.name.startswith("check_")
    }


def catalog_tally(catalog, root=SRC):
    """{function: number of catalog entries whose fn it is} over every
    harness check function and every entry's fn, module-qualified."""
    tally = dict.fromkeys(harness_checks(root), 0)
    for spec in catalog.values():
        name = f"{spec.fn.__module__}.{spec.fn.__qualname__}".removeprefix("padicsp.")
        tally[name] = tally.get(name, 0) + 1
    return tally


def test_every_check_is_one_catalog_entry():
    tally = catalog_tally(CATALOG)
    assert set(tally) == harness_checks()
    assert {name: k for name, k in tally.items() if k != 1} == {}


def test_catalog_lint_sees_unlisted_repeated_and_foreign_checks(tmp_path):
    (tmp_path / "harness").mkdir()
    (tmp_path / "harness" / "a.py").write_text(
        "def check_x(cfg, rng):\n    return 0, {}\n"
        "async def check_y(cfg, rng):\n    return 0, {}\n"
        "def helper():\n    def check_inner(cfg, rng):\n        return 0, {}\n    return check_inner\n"
        "class K:\n    def check_method(self, cfg, rng):\n        return 0, {}\n"
    )
    (tmp_path / "harness" / "b.py").write_text("def check_z(cfg, rng):\n    return 0, {}\n")
    (tmp_path / "lib.py").write_text("def check_w(cfg, rng):\n    return 0, {}\n")

    def entry(qualified):
        def fn(cfg, rng):
            return 0, {}

        fn.__module__, _, fn.__qualname__ = f"padicsp.{qualified}".rpartition(".")
        return CheckSpec(fn, False)

    catalog = {
        "x": entry("harness.a.check_x"),
        "x-again": entry("harness.a.check_x"),
        "z": entry("harness.b.check_z"),
        "w": entry("lib.check_w"),
        "inner": entry("harness.a.helper.<locals>.check_inner"),
    }
    assert harness_checks(tmp_path) == {"harness.a.check_x", "harness.a.check_y", "harness.b.check_z"}
    assert catalog_tally(catalog, tmp_path) == {
        "harness.a.check_x": 2,
        "harness.a.check_y": 0,
        "harness.b.check_z": 1,
        "lib.check_w": 1,
        "harness.a.helper.<locals>.check_inner": 1,
    }


# ---------------------------------------------------------- value types

# value._Value gives every immutable value type one equality and one hash,
# read off its public slots.  Cyclo and QuadExtElem compare equal to
# rationals, and the mutable CheckRecord and Report have no hash; no
# other class defines its own.
EQUALITY_OWNERS = {
    "value._Value",
    "padic.Cyclo",
    "quadext.QuadExtElem",
    "harness.report.CheckRecord",
    "harness.report.Report",
}


def _defines_equality(stmt) -> bool:
    if isinstance(stmt, _FUNCTIONS):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        names = {getattr(stmt.target, "id", None)}
    else:
        return False
    return bool(names & {"__eq__", "__hash__"})


def equality_definers(root=SRC):
    """The classes whose own body defines __eq__ or __hash__, by a def or
    by an assignment."""
    return {
        name for name, node in scoped_nodes(root)
        if isinstance(node, ast.ClassDef) and any(_defines_equality(stmt) for stmt in node.body)
    }


def test_only_the_value_base_and_the_named_classes_define_equality():
    assert equality_definers() == EQUALITY_OWNERS


def test_equality_lint_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n    def __eq__(self, other):\n        return True\n"
        "class B:\n    def __hash__(self):\n        return 0\n"
        "class C:\n    __hash__ = None\n"
        "class D:\n    __eq__, __hash__ = object.__eq__, object.__hash__\n"
        "class E:\n    __hash__: object = None\n"
        "def f():\n    class G:\n        __eq__ = lambda self, other: True\n    return G\n"
        "class H:\n    class I:\n        def __hash__(self):\n            return 1\n"
    )
    (tmp_path / "n.py").write_text(
        "def __eq__(a, b):\n    return True\n"
        "__hash__ = None\n"
        "class J:\n    def __ne__(self, other):\n        return False\n"
        "    def key(self):\n        __hash__ = 0\n        return self.__eq__, __hash__\n"
        "class K(J):\n    eq = J.__eq__\n"
    )
    assert equality_definers(tmp_path) == {"m.A", "m.B", "m.C", "m.D", "m.E", "m.f.G", "m.H.I"}


# --------------------------------------------------------- number input

# padic holds the whole rule for a number input: _as_fraction takes a
# rational, _as_int a count or a level, _as_sign a sign, and a bool is
# none of these; PrimeCtx alone decides what a prime is.  No other
# function tests a number's type or a sign's value by hand, and int(...)
# only parses text.
NUMBER_TESTS = {
    ("padic._as_fraction", "type() is int"),
    ("padic._as_int", "type() is int"),
    ("padic._as_sign", "type() is int"),
    ("padic._as_sign", "in (1, -1)"),
    ("padic.PrimeCtx.__init__", "_is_prime()"),
    ("harness.config._parse_int", "int()"),
    ("harness.config._parse_int_list", "int()"),
    ("harness.checks.case_seed", "int()"),
}


def _name_of(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_unit_pair(node) -> bool:
    """node is a literal tuple, list or set of exactly 1 and -1."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return False
    try:
        return sorted(ast.literal_eval(elt) for elt in node.elts) == [-1, 1]
    except (ValueError, TypeError):
        return False


def _is_type_call(node) -> bool:
    return isinstance(node, ast.Call) and _name_of(node.func) == "type"


def _number_tests_in(node):
    """The hand-written number tests that node is: isinstance(x, bool),
    type(x) is [not] int, x [not] in (1, -1), int(...) and _is_prime(...)."""
    if isinstance(node, ast.Call):
        name = _name_of(node.func)
        if name == "isinstance" and len(node.args) == 2 and _name_of(node.args[1]) == "bool":
            yield "isinstance(, bool)"
        elif name in ("int", "_is_prime"):
            yield f"{name}()"
    elif isinstance(node, ast.Compare):
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            pair = (left, right)
            if isinstance(op, (ast.Is, ast.IsNot)) and "int" in map(_name_of, pair) and any(map(_is_type_call, pair)):
                yield "type() is int"
            if isinstance(op, (ast.In, ast.NotIn)) and _is_unit_pair(right):
                yield "in (1, -1)"
            left = right


def number_tests(root=SRC):
    """(function, form) for each hand-written number test under root."""
    return {(name, form) for name, node in scoped_nodes(root) for form in _number_tests_in(node)}


def test_only_the_input_helpers_test_a_number():
    assert number_tests() == NUMBER_TESTS


def test_number_lint_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(x):\n    return isinstance(x, bool) or not isinstance(x, int)\n"
        "class K:\n    def b(self, x):\n        return type(x) is int\n"
        "    def c(self, x):\n        return int is not type(x)\n"
        "def d(z):\n    def e():\n        return z not in (1, -1)\n    return e\n"
        "def f(z):\n    return z in [-1, 1] or 0 < z in {1, -1}\n"
        "def g(r):\n    return int(r), _is_prime(r), padic._is_prime(r)\n"
        "SIGNS = 1 in (1, -1)\n"
    )
    (tmp_path / "n.py").write_text(
        "def h(x):\n    for s in (1, -1):\n        x = isinstance(x, (int, bool)), type(x) is Q, x in (1, 2)\n"
        "    return x == int, isinstance(x, int), x in (-1, 0, 1), Q(x), x is not None\n"
    )
    assert number_tests(tmp_path) == {
        ("m.a", "isinstance(, bool)"),
        ("m.K.b", "type() is int"),
        ("m.K.c", "type() is int"),
        ("m.d.e", "in (1, -1)"),
        ("m.f", "in (1, -1)"),
        ("m.g", "int()"),
        ("m.g", "_is_prime()"),
        ("m.<module>", "in (1, -1)"),
    }


# ---------------------------------------------------------- input table

def _is_exception(cls: ast.ClassDef) -> bool:
    return any((_name_of(base) or "").endswith(("Error", "Exception")) for base in cls.bases)


def public_classes(modules_of, root=SRC):
    """The module-level classes of the named modules under root whose
    names do not start with "_", exceptions apart, module-qualified."""
    return {
        f"{module}.{stmt.name}"
        for module, tree in modules(root) if module in modules_of
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_") and not _is_exception(stmt)
    }


def tabled_classes(targets, classes):
    """The classes that some target names: the class itself or one of its methods."""
    return {cls for cls in classes for t in targets if t == cls or t.startswith(cls + ".")}


def test_every_public_class_is_in_the_input_table():
    classes = public_classes(TABLE_MODULES)
    targets = {param.values[0] for param in INPUT_TABLE}
    assert TRUSTED_CLASSES <= classes
    assert classes - tabled_classes(targets, classes) == TRUSTED_CLASSES


def test_table_lint_sees_each_class(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(
        "class A:\n    class Inner:\n        pass\n"
        "class _Private:\n    pass\n"
        "class AError(ValueError):\n    pass\n"
        "class BError(AError):\n    pass\n"
        "class Warned(padic.PadicError):\n    pass\n"
        "class B(_Private):\n    pass\n"
        "def f():\n    class C:\n        pass\n    return C\n"
    )
    (tmp_path / "pkg" / "b.py").write_text("class D:\n    pass\nclass DE(Exception):\n    pass\n")
    (tmp_path / "c.py").write_text("class Elsewhere:\n    pass\n")
    classes = public_classes(("a", "pkg.b"), tmp_path)
    assert classes == {"a.A", "a.B", "pkg.b.D"}
    assert tabled_classes({"a.A.method", "a.AB", "pkg.b.D", "c.Elsewhere"}, classes) == {"a.A", "pkg.b.D"}

"""What the benchmark and the callers see of the library, pinned.

bench/tracer.py wraps the public callables that each layer module
defines itself (their __module__ is that module), and bench/run.py reads
the spans named in its TRACED table; bench/child.py patches
schwartz._regroup and binds a few names of checks and schwartz.  The
library's modules are split to keep each compile small, so a split must
keep every traced span in its layer, and every public name must keep one
home and its signature.  bench/ is read as text: nothing here imports
it.
"""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import padicsp

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The tracer's label for a dunder method that it reports by a plain name.
_DUNDER_NAMES = {"mul": "__mul__"}


def traced_spans(path=BENCH / "run.py"):
    """The span names of the TRACED table of bench/run.py, read off its syntax."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in stmt.targets):
            return [span for span, _ in ast.literal_eval(stmt.value)]
    raise AssertionError("bench/run.py has no TRACED table")


def test_every_traced_span_is_defined_in_its_layer():
    spans = traced_spans()
    assert "chevalley.Mat.mul" in spans
    for span in spans:
        layer, *path = span.split(".")
        obj = importlib.import_module(f"padicsp.{layer}")
        for part in path:
            obj = vars(obj)[_DUNDER_NAMES.get(part, part)]
        fn = getattr(obj, "__func__", obj)
        assert callable(fn) and fn.__module__ == f"padicsp.{layer}", span


def test_what_the_benchmark_binds_stays_in_its_module():
    from padicsp import schwartz
    from padicsp.harness import checks

    # bench/child.py patches _regroup on the module, so it and its callers
    # (canonical, the split sweep, its own recursion) must live there
    assert vars(schwartz)["_regroup"].__module__ == "padicsp.schwartz"
    for fn in (schwartz.SchwartzFn.canonical, schwartz._disjointify):
        assert "_regroup" in fn.__code__.co_names and fn.__module__ == "padicsp.schwartz"
    for name in ("weil_index", "rao_cocycle", "CheckSpec", "CATALOG"):
        assert name in vars(checks), name
    for name in ("mu_psi", "SchwartzFn", "phi_m", "check_rep_identity", "SchwartzError"):
        assert name in vars(schwartz), name


def test_traced_span_reader_sees_the_table(tmp_path):
    (tmp_path / "run.py").write_text(
        "X = 1\nTRACED = (\n    (\"padic.psi\", (\"calls\",)),\n    (\"chevalley.Mat.mul\", (\"calls\", \"self_s\")),\n)\n"
    )
    assert traced_spans(tmp_path / "run.py") == ["padic.psi", "chevalley.Mat.mul"]


# ------------------------------------------------------------- surface

# Each module that was split to keep its compile small, with the modules
# it was split into (its own name first).
SPLITS = {
    "chevalley": ("chevalley", "congruence", "subgroups"),
    "schwartz": ("schwartz", "chirp", "words"),
    "rootsys": ("rootsys", "badtriples"),
    "intmat": ("intmat", "intelim"),
    "padic": ("padic", "value"),
    "harness.checks": ("harness.checks", "harness.scalar_checks", "harness.cover_checks"),
    "harness.matrix_checks": ("harness.matrix_checks", "harness.cell_checks"),
}

# Every public class and function of those modules before the split, with
# the public methods of its classes and __mul__: {name: (home now,
# inspect.signature before the split, None for an exception)}.
PARENT_SURFACE = {
    "chevalley": {
        "FactorizationError": ("chevalley", None),
        "Mat": ("chevalley", "(rows)"),
        "Mat.__mul__": ("chevalley", "(self, other: \"'Mat'\") -> \"'Mat'\""),
        "Mat.diagonal": ("chevalley", "(entries) -> \"'Mat'\""),
        "Mat.identity": ("chevalley", "(size: 'int') -> \"'Mat'\""),
        "Mat.inverse": ("chevalley", "(self) -> \"'Mat'\""),
        "Mat.is_diagonal": ("chevalley", "(self) -> 'bool'"),
        "Mat.is_identity": ("chevalley", "(self) -> 'bool'"),
        "Mat.is_upper_triangular": ("chevalley", "(self) -> 'bool'"),
        "Mat.is_upper_unitriangular": ("chevalley", "(self) -> 'bool'"),
        "Mat.transpose": ("chevalley", "(self) -> \"'Mat'\""),
        "MatrixError": ("congruence", None),
        "bruhat_decompose": ("chevalley", "(g: 'Mat')"),
        "cell_collapse_witness": ("chevalley", "(t: 'Mat', w: 'WeylElem', roots, rs, bad_index: 'int' = None)"),
        "cell_identity_borel_part": ("subgroups", "(n: 'int', root: 'Root', r) -> 'Mat'"),
        "cell_word_rewrite": ("chevalley", "(ctx, t: 'Mat', w: 'WeylElem', rs, u: 'Mat', m: 'int')"),
        "commutator_coefficients": ("subgroups", "(n: 'int', g1: 'Root', r, g2: 'Root', s)"),
        "conjugating_torus": ("subgroups", "(ctx, n: 'int', m: 'int') -> 'Mat'"),
        "corner_column_unipotent": ("subgroups", "(n: 'int', ys, x) -> 'Mat'"),
        "first_axis_torus": ("subgroups", "(n: 'int', a) -> 'Mat'"),
        "generic_character": ("congruence", "(ctx, u: 'Mat') -> 'Mono'"),
        "in_skew_level": ("congruence", "(ctx, g: 'Mat', m: 'int') -> 'bool'"),
        "in_standard_level": ("congruence", "(ctx, g: 'Mat', m: 'int') -> 'bool'"),
        "is_symplectic": ("chevalley", "(g: 'Mat') -> 'bool'"),
        "level_exponents": ("congruence", "(n: 'int', m: 'int')"),
        "levi_embed": ("subgroups", "(n: 'int', a_rows) -> 'Mat'"),
        "mul_root_elem": ("chevalley", "(g: 'Mat', root: 'Root', r) -> 'Mat'"),
        "negative_coordinate_bound": ("congruence", "(root: 'Root', m: 'int') -> 'int'"),
        "peel_unipotent": ("subgroups", "(u: 'Mat')"),
        "radical_coordinate_bound": ("congruence", "(root: 'Root', m: 'int') -> 'int'"),
        "radical_embed": ("subgroups", "(n: 'int', x_rows) -> 'Mat'"),
        "root_elem": ("chevalley", "(n: 'int', root: 'Root', r) -> 'Mat'"),
        "root_product": ("chevalley", "(n: 'int', factors) -> 'Mat'"),
        "rotate_conjugate": ("subgroups", "(g: 'Mat') -> 'Mat'"),
        "rotation_matrix": ("subgroups", "(n: 'int') -> 'Mat'"),
        "skew_level_character": ("congruence", "(ctx, h: 'Mat', m: 'int') -> 'Mono'"),
        "sl2_embed": ("subgroups", "(n: 'int', g2) -> 'Mat'"),
        "symplectic_inverse": ("chevalley", "(g: 'Mat') -> 'Mat'"),
        "top_cell_matrix": ("subgroups", "(n: 'int') -> 'Mat'"),
        "torus": ("subgroups", "(entries) -> 'Mat'"),
        "volume_exponent": ("congruence", "(kind: 'str', n: 'int', m: 'int', root: 'Root' = None, w: 'WeylElem' = None) -> 'int'"),
        "weyl_from_monomial_pattern": ("chevalley", "(n: 'int', positions) -> 'WeylElem'"),
        "weyl_from_rank_pattern": ("chevalley", "(g: 'Mat') -> 'WeylElem'"),
        "weyl_rep": ("chevalley", "(w: 'WeylElem') -> 'Mat'"),
    },
    "schwartz": {
        "HeisenbergElem": ("words", "(x: 'Q', xp: 'Q', z: 'Q')"),
        "HeisenbergElem.__mul__": ("words", "(self, other: \"'HeisenbergElem'\") -> \"'HeisenbergElem'\""),
        "HeisenbergElem.inverse": ("words", "(self) -> \"'HeisenbergElem'\""),
        "HeisenbergElem.is_identity": ("words", "(self) -> 'bool'"),
        "SchwartzError": ("chirp", None),
        "SchwartzFn": ("schwartz", "(ctx: 'PrimeCtx', terms: 'tuple')"),
        "SchwartzFn.canonical": ("schwartz", "(self) -> \"'SchwartzFn'\""),
        "SchwartzFn.difference_witness": ("schwartz", "(self, other: \"'SchwartzFn'\") -> 'Q | None'"),
        "SchwartzFn.equals": ("schwartz", "(self, other: \"'SchwartzFn'\") -> 'bool'"),
        "SchwartzFn.from_terms": ("schwartz", "(ctx: 'PrimeCtx', terms) -> \"'SchwartzFn'\""),
        "SchwartzFn.indicator": ("schwartz", "(ctx: 'PrimeCtx', center=0, rad: 'int' = 0) -> \"'SchwartzFn'\""),
        "SchwartzFn.integral": ("schwartz", "(self) -> 'Cyclo'"),
        "SchwartzFn.minus": ("schwartz", "(self, other: \"'SchwartzFn'\") -> \"'SchwartzFn'\""),
        "SchwartzFn.norm_sq": ("schwartz", "(self)"),
        "SchwartzFn.plus": ("schwartz", "(self, other: \"'SchwartzFn'\") -> \"'SchwartzFn'\""),
        "SchwartzFn.reflect": ("schwartz", "(self) -> \"'SchwartzFn'\""),
        "SchwartzFn.scaled": ("schwartz", "(self, co: 'Mono') -> \"'SchwartzFn'\""),
        "SchwartzFn.value_at": ("schwartz", "(self, x) -> 'Cyclo'"),
        "SchwartzFn.zero": ("schwartz", "(ctx: 'PrimeCtx') -> \"'SchwartzFn'\""),
        "Term": ("chirp", "(coeff: 'Mono', freq: 'Q', center: 'Q', rad: 'int', quad: 'Q' = Fraction(0, 1))"),
        "Term.contains": ("chirp", "(self, x: 'Q', p: 'int') -> 'bool'"),
        "Term.phase": ("chirp", "(self, x: 'Q', p: 'int') -> 'Mono'"),
        "canonical_word": ("words", "(g: 'MetaSL2') -> 'list'"),
        "check_rep_identity": ("schwartz", "(g1, g2, phi: 'SchwartzFn', twist: 'int' = 1) -> 'bool'"),
        "cover_lift": ("words", "(ctx: 'PrimeCtx', word) -> 'MetaSL2'"),
        "fourier": ("schwartz", "(phi: 'SchwartzFn', twist: 'int' = 1) -> 'SchwartzFn'"),
        "phi_m": ("schwartz", "(ctx: 'PrimeCtx', m: 'int', n: 'int') -> 'SchwartzFn'"),
        "rep_identity_witness": ("schwartz", "(g1, g2, phi: 'SchwartzFn', twist: 'int' = 1)"),
        "weil_act": ("schwartz", "(word, phi: 'SchwartzFn', twist: 'int' = 1) -> 'SchwartzFn'"),
        "weil_act_cover": ("schwartz", "(g: 'MetaSL2', phi: 'SchwartzFn', twist: 'int' = 1) -> 'SchwartzFn'"),
    },
    "rootsys": {
        "Root": ("rootsys", "(n: 'int', coeffs: 'tuple')"),
        "Root.euclid": ("rootsys", "(self) -> 'tuple'"),
        "Root.from_euclid": ("rootsys", "(n: 'int', vec) -> \"'Root'\""),
        "Root.in_levi": ("rootsys", "(self) -> 'bool'"),
        "Root.in_radical": ("rootsys", "(self) -> 'bool'"),
        "Root.is_long": ("rootsys", "(self) -> 'bool'"),
        "Root.is_negative": ("rootsys", "(self) -> 'bool'"),
        "Root.is_positive": ("rootsys", "(self) -> 'bool'"),
        "Root.pairing": ("rootsys", "(self, other: \"'Root'\") -> 'int'"),
        "Root.reflect": ("rootsys", "(self, other: \"'Root'\") -> \"'Root'\""),
        "RootError": ("rootsys", None),
        "WeylElem": ("rootsys", "(n: 'int', imgs: 'tuple')"),
        "WeylElem.__mul__": ("rootsys", "(self, other: \"'WeylElem'\") -> \"'WeylElem'\""),
        "WeylElem.apply": ("rootsys", "(self, root: 'Root') -> 'Root'"),
        "WeylElem.apply_euclid": ("rootsys", "(self, vec) -> 'tuple'"),
        "WeylElem.from_word": ("rootsys", "(n: 'int', word) -> \"'WeylElem'\""),
        "WeylElem.identity": ("rootsys", "(n: 'int') -> \"'WeylElem'\""),
        "WeylElem.in_levi": ("rootsys", "(self) -> 'bool'"),
        "WeylElem.inverse": ("rootsys", "(self) -> \"'WeylElem'\""),
        "WeylElem.is_identity": ("rootsys", "(self) -> 'bool'"),
        "WeylElem.kept_positive_roots": ("rootsys", "(self)"),
        "WeylElem.length": ("rootsys", "(self) -> 'int'"),
        "WeylElem.negated_positive_roots": ("rootsys", "(self)"),
        "WeylElem.reduced_word": ("rootsys", "(self) -> 'tuple'"),
        "WeylElem.right_descents": ("rootsys", "(self)"),
        "WeylElem.simple": ("rootsys", "(n: 'int', k: 'int') -> \"'WeylElem'\""),
        "bad_pair_weyl_factorizations": ("badtriples", "(g1: 'Root', g2: 'Root')"),
        "bad_pair_witness": ("badtriples", "(g1: 'Root', g2: 'Root')"),
        "bad_pairs": ("rootsys", "(n: 'int')"),
        "bad_triples": ("badtriples", "(n: 'int')"),
        "bad_triples_for_pair": ("badtriples", "(g1: 'Root', g2: 'Root')"),
        "bruhat_leq": ("rootsys", "(w1: 'WeylElem', w2: 'WeylElem') -> 'bool'"),
        "chain_word_sigma": ("badtriples", "(n: 'int', i: 'int', j: 'int') -> 'tuple'"),
        "coordinate_rotation": ("rootsys", "(n: 'int') -> 'WeylElem'"),
        "full_weyl_group": ("rootsys", "(n: 'int')"),
        "highest_root_reflection": ("rootsys", "(n: 'int') -> 'WeylElem'"),
        "is_bad_pair": ("rootsys", "(g1: 'Root', g2: 'Root') -> 'bool'"),
        "ordered_negated_roots": ("rootsys", "(w: 'WeylElem')"),
        "positive_roots": ("rootsys", "(n: 'int')"),
        "reflection": ("rootsys", "(root: 'Root') -> 'WeylElem'"),
        "root_decompositions": ("badtriples", "(n: 'int', vec)"),
        "root_from_vector": ("rootsys", "(n: 'int', vec)"),
        "simple_roots": ("rootsys", "(n: 'int')"),
        "subword_products": ("rootsys", "(n: 'int', word)"),
        "weyl_below": ("rootsys", "(w: 'WeylElem')"),
    },
    "intmat": {
        "corner_ranks": ("intelim", "(num: tuple) -> list"),
        "diagonal_conjugate": ("intmat", "(dnum: tuple, xden: int, xnum: tuple)"),
        "eye": ("intmat", "(size: int) -> tuple"),
        "from_entries": ("intmat", "(size: int, entries)"),
        "in_level": ("intmat", "(p: int, den: int, num: tuple, m: int, es) -> bool"),
        "integer_rows": ("intmat", "(rows)"),
        "inverse": ("intelim", "(den: int, num: tuple)"),
        "is_symplectic": ("intmat", "(den: int, num: tuple) -> bool"),
        "levi_block": ("intmat", "(aden: int, anum: tuple, iden: int, inum: tuple)"),
        "lowest": ("intmat", "(den: int, num: tuple)"),
        "monomial_form": ("intelim", "(den: int, num: tuple)"),
        "mul": ("intmat", "(aden: int, anum: tuple, bden: int, bnum: tuple)"),
        "over_common_den": ("intmat", "(rows)"),
        "peel": ("intelim", "(den: int, num: tuple, cands)"),
        "reduced_row": ("intmat", "(row, den)"),
        "signed_conjugate": ("intmat", "(mnum: tuple, xnum: tuple) -> tuple"),
        "symplectic_inverse": ("intmat", "(num: tuple) -> tuple"),
        "times_monomial": ("intmat", "(aden: int, anum: tuple, mden: int, mnum: tuple)"),
        "times_roots": ("intmat", "(den: int, num: tuple, letters)"),
        "tuple_rows": ("intmat", "(rows) -> tuple"),
        "unit_diagonal": ("intmat", "(size: int) -> list"),
        "unitriangular_ul": ("intelim", "(den: int, num: tuple)"),
    },
    "padic": {
        "Cyclo": ("padic", "(p: 'int', terms: 'tuple')"),
        "Cyclo.is_zero": ("padic", "(self) -> 'bool'"),
        "Cyclo.of": ("padic", "(p: 'int', monos) -> \"'Cyclo'\""),
        "Cyclo.rational": ("padic", "(self)"),
        "Mono": ("padic", "(rat: 'Q' = Fraction(1, 1), qexp: 'Q' = Fraction(0, 1), turn: 'Q' = Fraction(0, 1))"),
        "Mono.__mul__": ("padic", "(self, other: \"'Mono'\") -> \"'Mono'\""),
        "Mono.conjugate": ("padic", "(self) -> \"'Mono'\""),
        "Mono.inverse": ("padic", "(self) -> \"'Mono'\""),
        "Mono.is_one": ("padic", "(self) -> 'bool'"),
        "Mono.is_zero": ("padic", "(self) -> 'bool'"),
        "Mono.one": ("padic", "() -> \"'Mono'\""),
        "Mono.zero": ("padic", "() -> \"'Mono'\""),
        "PAdic": ("padic", "(value: 'Q', ctx: 'PrimeCtx')"),
        "PadicError": ("padic", None),
        "PrimeCtx": ("padic", "(p: 'int')"),
        "PrimeCtx.of": ("padic", "(self, x) -> \"'PAdic'\""),
        "fraction_valuation": ("padic", "(x: 'Q', p: 'int')"),
        "hilbert_symbol": ("padic", "(a: 'PAdic', b: 'PAdic') -> 'int'"),
        "is_square": ("padic", "(a: 'PAdic') -> 'bool'"),
        "mu_psi": ("padic", "(a: 'PAdic', twist=1) -> 'Mono'"),
        "psi": ("padic", "(x: 'PAdic') -> 'Mono'"),
        "weil_index": ("padic", "(a: 'PAdic', twist=1) -> 'Mono'"),
    },
    "harness.checks": {
        "CheckSpec": ("harness.checks", "(fn, sampled: bool)"),
        "case_seed": ("harness.checks", "(seed: int, name: str) -> int"),
        "check_big_cell": ("harness.cover_checks", "(cfg, rng)"),
        "check_hilbert_symbol": ("harness.scalar_checks", "(cfg, rng)"),
        "check_intertwining_volume": ("harness.cover_checks", "(cfg, rng)"),
        "check_norm_one_split": ("harness.scalar_checks", "(cfg, rng)"),
        "check_psi_character": ("harness.scalar_checks", "(cfg, rng)"),
        "check_quad_ext": ("harness.scalar_checks", "(cfg, rng)"),
        "check_rao_cocycle": ("harness.checks", "(cfg, rng)"),
        "check_section_law": ("harness.cover_checks", "(cfg, rng)"),
        "check_weil_index": ("harness.checks", "(cfg, rng)"),
        "run_campaign": ("harness.checks", "(cfg) -> padicsp.harness.report.Report"),
    },
    "harness.matrix_checks": {
        "check_bruhat_oracle": ("harness.cell_checks", "(cfg, rng)"),
        "check_cell_collapse": ("harness.cell_checks", "(cfg, rng)"),
        "check_cell_identity": ("harness.cell_checks", "(cfg, rng)"),
        "check_cell_word_rewrite": ("harness.cell_checks", "(cfg, rng)"),
        "check_chevalley_commutators": ("harness.matrix_checks", "(cfg, rng)"),
        "check_congruence_structure": ("harness.matrix_checks", "(cfg, rng)"),
        "check_levi_stability": ("harness.matrix_checks", "(cfg, rng)"),
        "check_obstructed_decompositions": ("harness.cell_checks", "(cfg, rng)"),
        "check_symplectic_generators": ("harness.matrix_checks", "(cfg, rng)"),
        "check_volumes": ("harness.matrix_checks", "(cfg, rng)"),
    },
}


def _defining_modules(name):
    """The package modules (relative names) that define name themselves."""
    found = []
    for info in pkgutil.walk_packages(padicsp.__path__, "padicsp."):
        module = importlib.import_module(info.name)
        if getattr(vars(module).get(name), "__module__", None) == info.name:
            found.append(info.name.removeprefix("padicsp."))
    return found


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return None


def test_public_surface_keeps_one_home_and_its_signature():
    assert set(PARENT_SURFACE) == set(SPLITS)
    for parent, names in PARENT_SURFACE.items():
        for dotted, (home, signature) in names.items():
            top, *attrs = dotted.split(".")
            assert [m for m in _defining_modules(top) if m in SPLITS[parent]] == [home], dotted
            obj = vars(importlib.import_module(f"padicsp.{home}"))[top]
            for attr in attrs:
                assert attr in vars(obj), dotted
                obj = getattr(obj, attr)
            assert _signature(obj) == signature, dotted

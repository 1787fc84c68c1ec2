"""The verification catalog: every named check behind `padicsp verify`.

Each check re-validates one cluster of library invariants on seeded
samples or small exhaustive grids and reports a replayable
counterexample on the first violation.  Checks are pure functions of
(config, rng); the campaign driver owns timing and status bookkeeping.
The root-system checks, which read no prime, live in `root_checks`.

A library routine that verifies its own result and raises has the one
home of that verification: its check does not recompute it, but turns
the raise on a case into that case's failure, with the case's
parameters and the library's message (`_raised`), and spends its own
time on what the routine does not verify.  Conversely, a library routine
that returns a closed form does not sample it: its check does.

Because each check draws from its own seeded rng, the driver runs them
in lanes, one per usable CPU (`os.sched_getaffinity`).  This process is
one lane; the others are forked processes.  Every lane takes the next
check off one shared task pipe, and a forked lane sends each record
back as a JSON line of encoded values.  Records are kept in the
configured order, and the report encodes every value once more, which
changes nothing, so the report bytes do not depend on the lane count.
With one usable CPU nothing is forked and every call is made here, where
profilers, debuggers and in-process tracers see it: `taskset -c 0
padicsp verify` gives the one-process run.
"""

import hashlib
import json
import os
from fractions import Fraction as Q
from functools import lru_cache

from .. import __version__
from ..padic import (
    Mono,
    PadicError,
    PrimeCtx,
    _immutable,
    _legendre,
    _restore,
    _set,
    _slots_repr,
    fraction_valuation,
    hilbert_symbol,
    mu_psi,
    psi,
    weil_index,
)
from ..quadext import QuadExt, norm_one_decompose
from ..rootsys import (
    WeylElem,
    bad_triples,
    bruhat_leq,
    coordinate_rotation,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
    root_from_vector,
)
from .. import chevalley as ch
from ..chevalley import FactorizationError, MatrixError
from ..metaplectic import (
    MetaError,
    MetaSL2,
    SectionFsi,
    decompose_big_cell,
    eval_fsi_exact,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
    rao_cocycle,
)
from .. import schwartz as sw
from .report import FAIL, PASS, SKIPPED, CheckFailure, CheckRecord, Report, encode_value
from .root_checks import (
    check_bad_pair_factorizations,
    check_bad_pairs,
    check_bad_triple_shapes,
    check_bruhat_order,
    check_reflection_positivity,
    check_sigma_minus_order,
)


def case_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()
    return int(digest[:16], 16)


def nonresidue(p: int) -> int:
    for u in range(2, p):
        if _legendre(u, p) == -1:
            return u
    raise AssertionError(p)


@lru_cache(maxsize=None)
def square_classes(p: int):
    u0 = nonresidue(p)
    return (Q(1), Q(u0), Q(p), Q(u0 * p))


def sample_rational(rng, p: int, m: int = 1, square_class=None, signed=False) -> Q:
    """u * p^k with unit height <= 10^3, |k| <= 3m, square class controlled."""
    if square_class is None:
        square_class = rng.choice(square_classes(p))
    num = rng.randint(1, 1000)
    while num % p == 0:
        num = rng.randint(1, 1000)
    den = rng.randint(1, 1000)
    while den % p == 0:
        den = rng.randint(1, 1000)
    span = max(0, (3 * m - abs(fraction_valuation(square_class, p))) // 2)
    k = rng.randint(-span, span)
    num, den = square_class.numerator * num * num, square_class.denominator * den * den
    if k >= 0:
        num *= p ** (2 * k)
    else:
        den *= p ** (-2 * k)
    if signed and rng.random() < 0.5:
        num = -num
    return Q(num, den)


def matrix_ranks(cfg):
    return [n for n in cfg.n if n <= 3]


def _power_times(c: int, p: int, v: int) -> Q:
    """c p^v as one Fraction, from integer powers."""
    return Q(c * p**v) if v >= 0 else Q(c, p**-v)


def _raised(case: dict, exc: Exception) -> CheckFailure:
    """The failure of one case on which a library self-check raised exc."""
    return CheckFailure({**case, "error": f"{type(exc).__name__}: {exc}"})


def _deep_unipotent(p, n, rng, m):
    factors = []
    for g in positive_roots(n):
        v = ch.radical_coordinate_bound(g, m) + rng.randrange(0, 3)
        factors.append((g, _power_times(rng.randint(-5, 5), p, v)))
    return ch.root_product(n, factors)


def _random_torus(p, n, rng):
    return ch.torus([_power_times(rng.choice([1, 2, -1]), p, rng.randrange(-2, 3)) for _ in range(n)])


# =============================================================== padic

def check_psi_character(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        if psi(ctx.of(Q(1, p))).is_one() or not psi(ctx.of(1)).is_one():
            raise CheckFailure({"p": p, "reason": "conductor is not the integer ring"})
        for _ in range(cfg.samples):
            x = sample_rational(rng, p, signed=True)
            y = sample_rational(rng, p, signed=True)
            if psi(ctx.of(x + y)) != psi(ctx.of(x)) * psi(ctx.of(y)):
                raise CheckFailure({"p": p, "x": x, "y": y, "reason": "additivity"})
            if not (psi(ctx.of(x)) * psi(ctx.of(-x))).is_one():
                raise CheckFailure({"p": p, "x": x, "reason": "inverse"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_hilbert_symbol(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        reps = square_classes(p)
        for a in reps:
            for b in reps:
                s = hilbert_symbol(ctx.of(a), ctx.of(b))
                if s != hilbert_symbol(ctx.of(b), ctx.of(a)):
                    raise CheckFailure({"p": p, "a": a, "b": b, "reason": "symmetry"})
                if hilbert_symbol(ctx.of(a * b * b), ctx.of(b)) != s:
                    raise CheckFailure({"p": p, "a": a, "b": b, "reason": "square invariance"})
                cases += 1
            if hilbert_symbol(ctx.of(a), ctx.of(-a)) != 1:
                raise CheckFailure({"p": p, "a": a, "reason": "(a,-a) = 1"})
            if a != 1 and hilbert_symbol(ctx.of(a), ctx.of(1 - a)) != 1:
                raise CheckFailure({"p": p, "a": a, "reason": "(a,1-a) = 1"})
        for _ in range(max(cfg.samples, 4)):
            a = sample_rational(rng, p, signed=True)
            b = sample_rational(rng, p, signed=True)
            c = sample_rational(rng, p, signed=True)
            lhs = hilbert_symbol(ctx.of(a), ctx.of(b * c))
            rhs = hilbert_symbol(ctx.of(a), ctx.of(b)) * hilbert_symbol(ctx.of(a), ctx.of(c))
            if lhs != rhs:
                raise CheckFailure({"p": p, "a": a, "b": b, "c": c, "reason": "bimultiplicativity"})
            cases += 1
    return cases, {"p": list(cfg.p)}


def check_weil_index(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for twist in (1, -1):
            if not weil_index(ctx.of(1), twist=twist).is_one():
                raise CheckFailure({"p": p, "twist": twist, "reason": "normalization at 1"})
        for _ in range(cfg.samples):
            a = sample_rational(rng, p, signed=True)
            b = sample_rational(rng, p, signed=True)
            lhs = mu_psi(ctx.of(a)) * mu_psi(ctx.of(b))
            rhs = mu_psi(ctx.of(a * b))
            h = hilbert_symbol(ctx.of(a), ctx.of(b))
            if lhs != rhs * Mono(h):
                raise CheckFailure({"p": p, "a": a, "b": b, "reason": "mu cocycle"})
            u = sample_rational(rng, p, square_class=Q(1))
            if mu_psi(ctx.of(a * u)) != mu_psi(ctx.of(a)):
                raise CheckFailure({"p": p, "a": a, "u": u, "reason": "square-class invariance"})
            if mu_psi(ctx.of(a), twist=-1) != mu_psi(ctx.of(a)).conjugate():
                raise CheckFailure({"p": p, "a": a, "reason": "twist conjugation"})
            cases += 1
        # the cocycle on every pair of strata (square class and valuation),
        # one draw per 40 samples, moved within the stratum by a square
        u0 = nonresidue(p)
        strata = [Q(1), Q(u0), Q(p), Q(u0 * p), Q(1, p), Q(u0, p)]
        for a0 in strata:
            for b0 in strata:
                for _ in range(max(1, cfg.samples // 40)):
                    sa = _power_times(rng.choice([1, 2, 4, 7]), p, rng.randint(-1, 1))
                    sb = _power_times(rng.choice([1, 2, 4, 7]), p, rng.randint(-1, 1))
                    a, b = a0 * sa * sa, b0 * sb * sb
                    h = hilbert_symbol(ctx.of(a), ctx.of(b))
                    if mu_psi(ctx.of(a)) * mu_psi(ctx.of(b)) != mu_psi(ctx.of(a * b)) * Mono(h):
                        raise CheckFailure({"p": p, "a": a, "b": b, "reason": "stratified mu cocycle"})
                    cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


# ============================================================= quadext

def _extensions(p: int):
    ctx = PrimeCtx(p)
    u0 = nonresidue(p)
    return [QuadExt(ctx, Q(u0)), QuadExt(ctx, Q(p)), QuadExt(ctx, Q(u0 * p))]


def _random_ext_elem(rng, ext, m: int = 1):
    a = sample_rational(rng, ext.ctx.p, m, signed=True)
    b = sample_rational(rng, ext.ctx.p, m, signed=True)
    if rng.random() < 0.2:
        b = Q(0)
    return ext.elem(a, b)


def check_quad_ext(cfg, rng):
    cases = 0
    for p in cfg.p:
        for ext in _extensions(p):
            for _ in range(cfg.samples):
                x = _random_ext_elem(rng, ext)
                y = _random_ext_elem(rng, ext)
                if (x * y).norm() != x.norm() * y.norm():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "y": str(y), "reason": "norm"})
                if (x * y).conjugate() != x.conjugate() * y.conjugate():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "y": str(y), "reason": "conjugation"})
                if x.norm() != 0 and (x / x) != ext.one():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "reason": "division"})
                tr = x + x.conjugate()
                if tr.b != 0 or tr.a != x.trace():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "reason": "trace"})
                cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_norm_one_split(cfg, rng):
    cases = 0
    for p in cfg.p:
        for ext in _extensions(p):
            for m in cfg.m:
                for _ in range(cfg.samples):
                    e0 = ext.chart(sample_rational(rng, p, signed=True))
                    u0 = ext.one() + ext.elem(rng.randint(-8, 8) * p**m, rng.randint(-8, 8) * p**m)
                    x = e0 * u0
                    # the split verifies N(e) = 1, e u = x and the depth of u
                    try:
                        norm_one_decompose(x, m)
                    except PadicError as exc:
                        raise _raised({"p": p, "d": ext.d, "x": str(x), "m": m}, exc) from exc
                    cases += 1
    return cases, {"p": list(cfg.p), "m": list(cfg.m), "samples": cfg.samples}


# ============================================================ chevalley

def _random_word_matrix(p, n, rng):
    roots = positive_roots(n)
    factors = []
    for _ in range(6):
        root = roots[rng.randrange(len(roots))]
        if rng.random() < 0.5:
            root = -root
        factors.append((root, Q(rng.randint(-6, 6), rng.choice([1, 1, 3]))))
    # the torus and the Weyl generators are monomial: column moves
    g = ch._times_monomial(ch.root_product(n, factors), _random_torus(p, n, rng))
    for k in [rng.randrange(1, n + 1) for _ in range(rng.randrange(3))]:
        g = ch._times_monomial(g, ch.weyl_rep(WeylElem.simple(n, k)))
    return g


def check_symplectic_generators(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for g in positive_roots(n):
                r = sample_rational(rng, p, signed=True)
                if not ch.is_symplectic(ch.root_elem(n, g, r)):
                    raise CheckFailure({"p": p, "n": n, "root": g, "r": r})
                cases += 1
            for w in (WeylElem.simple(n, 1), highest_root_reflection(n)):
                if not ch.is_symplectic(ch.weyl_rep(w)):
                    raise CheckFailure({"p": p, "n": n, "w": w})
                cases += 1
            # the generator word of the top reflection is its corner matrix
            if ch.weyl_rep(highest_root_reflection(n)) != ch.top_cell_matrix(n):
                raise CheckFailure({"p": p, "n": n, "reason": "top cell representative"})
            for _ in range(max(1, cfg.samples // 4)):
                g = _random_word_matrix(p, n, rng)
                if not ch.is_symplectic(g):
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows})
                if ch.symplectic_inverse(g) != g.inverse():
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows, "reason": "form inverse"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_chevalley_commutators(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            roots = positive_roots(n)
            eye = ch.Mat.identity(2 * n)
            for g1 in roots:
                for g2 in roots:
                    if g1 == g2 or g1 == -g2:
                        continue
                    r = sample_rational(rng, p, signed=True)
                    s = sample_rational(rng, p, signed=True)
                    x = ch.root_elem(n, g1, r)
                    y = ch.root_elem(n, g2, s)
                    # x_g(r)^-1 = x_g(-r), checked rather than assumed
                    x_inv, y_inv = ch.root_elem(n, g1, -r), ch.root_elem(n, g2, -s)
                    if x * x_inv != eye or y * y_inv != eye:
                        raise CheckFailure({"p": p, "n": n, "g1": g1, "g2": g2, "r": r, "s": s, "reason": "root inverse"})
                    comm = x * y * x_inv * y_inv
                    coeffs = ch.commutator_coefficients(n, g1, r, g2, s)
                    factors = []
                    for (i, j), c in sorted(coeffs.items(), key=lambda t: sum(t[0])):
                        vec = tuple(i * a + j * b for a, b in zip(g1.euclid(), g2.euclid()))
                        factors.append((root_from_vector(n, vec), c))
                    rebuilt = ch.root_product(n, factors)
                    if comm != rebuilt:
                        raise CheckFailure(
                            {"p": p, "n": n, "g1": g1, "g2": g2, "r": r, "s": s}
                        )
                    if is_bad_pair(g1, g2) and coeffs:
                        raise CheckFailure(
                            {"p": p, "n": n, "g1": g1, "g2": g2, "reason": "bad pair must commute"}
                        )
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_cell_identity(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for g in positive_roots(n):
                for _ in range(max(1, cfg.samples // 8)):
                    r = sample_rational(rng, p, signed=True)
                    # b = W(s_g)^-1 x_g(r) x_-g(-1/r), checked to lie in the Borel
                    try:
                        ch.cell_identity_borel_part(n, g, r)
                    except MatrixError as exc:
                        raise _raised({"p": p, "n": n, "root": g, "r": r}, exc) from exc
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_bruhat_oracle(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for _ in range(cfg.samples):
                g = _random_word_matrix(p, n, rng)
                # the decomposition verifies its recomposition; the rank
                # pattern is the independent route to its cell
                try:
                    w = ch.bruhat_decompose(g)[2]
                except MatrixError as exc:
                    raise _raised({"p": p, "n": n, "rows": g.rows}, exc) from exc
                if ch.weyl_from_rank_pattern(g) != w:
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows, "reason": "rank pattern"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "samples": cfg.samples}


def check_levi_stability(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for _ in range(cfg.samples):
                a = [[Q(0)] * n for _ in range(n)]
                for i in range(n):
                    a[i][i] = Q(rng.choice([1, 2, -1]))
                    for j in range(i + 1, n):
                        a[i][j] = Q(rng.randint(-3, 3))
                ga = ch.levi_embed(n, a)
                if not ch.is_symplectic(ga):
                    raise CheckFailure({"p": p, "n": n, "rows": ga.rows, "reason": "levi not symplectic"})
                # the radical block is symmetric about the antidiagonal
                x = [[Q(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        mi, mj = n - 1 - j, n - 1 - i
                        x[i][j] = x[mi][mj] if (mi, mj) < (i, j) else Q(rng.randint(-4, 4))
                gx = ch.radical_embed(n, x)
                prod = ga * gx * ga.inverse()
                if not prod.is_upper_unitriangular():
                    raise CheckFailure({"p": p, "n": n, "reason": "radical not normalized"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def _with_column(n, at, values):
    """The n x n identity block with the top of column `at` set to values."""
    block = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i, value in enumerate(values):
        block[i][at] = value
    return block


def check_congruence_structure(cfg, rng):
    """At the matrix ranks: x_g(r) and x_-g(r) lie in the depth-m skew
    level exactly when v(r) reaches the bound (2 ht g -/+ 1) m, in and
    one step out; 8 deep unipotents per (p, n, m) lie in the level,
    conjugate into the standard level, and carry the generic character
    additively; and at each rank from 3, 8 seeded pairs per p of the
    corner-slice identities, the torus product through the coordinate
    rotation and the conjugation by a chain root, whose bump carries the
    generic character psi(y r)."""
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for m in cfg.m:
                exps = ch.level_exponents(n, m)
                if len(exps) != 2 * n or exps[-1] != (2 * n - 1) * m:
                    raise CheckFailure({"p": p, "n": n, "m": m, "exps": exps})
                for g in positive_roots(n):
                    b, nb = ch.radical_coordinate_bound(g, m), ch.negative_coordinate_bound(g, m)
                    if b != -(2 * g.height - 1) * m or nb != (2 * g.height + 1) * m:
                        raise CheckFailure({"p": p, "n": n, "m": m, "root": g, "reason": "bound formula"})
                    for root, v in ((g, b), (-g, nb)):
                        if not ch.in_skew_level(ctx, ch.root_elem(n, root, Q(p) ** v), m):
                            raise CheckFailure({"p": p, "n": n, "m": m, "root": root, "reason": "bound in"})
                        if ch.in_skew_level(ctx, ch.root_elem(n, root, Q(p) ** (v - 1)), m):
                            raise CheckFailure({"p": p, "n": n, "m": m, "root": root, "reason": "bound sharp"})
                    cases += 1
                t = ch.conjugating_torus(ctx, n, m)
                t_inv = ch.Mat.diagonal([Q(p) ** -e for e in exps])
                for _ in range(8):
                    u = _deep_unipotent(p, n, rng, m)
                    if not ch.in_skew_level(ctx, u, m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "box not in level"})
                    if not ch.in_standard_level(ctx, t_inv * u * t, m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "conjugation level"})
                    u2 = _deep_unipotent(p, n, rng, m)
                    lhs = ch.skew_level_character(ctx, u * u2, m)
                    rhs = ch.skew_level_character(ctx, u, m) * ch.skew_level_character(ctx, u2, m)
                    if lhs != rhs:
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "character additivity"})
                    if ch.skew_level_character(ctx, u, m) != ch.generic_character(ctx, u):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "character content"})
                    cases += 1
        for n in matrix_ranks(cfg):
            if n < 3:
                continue
            if ch.weyl_from_rank_pattern(ch.rotation_matrix(n)) != coordinate_rotation(n):
                raise CheckFailure({"p": p, "n": n, "reason": "rotation cell"})
            for _ in range(8):
                ys = [Q(rng.randint(-6, 6), rng.choice([1, p])) for _ in range(n - 2)]
                a = Q(rng.choice([1, 2, 5]), rng.choice([1, p]))
                lhs = ch.first_axis_torus(n, a) * ch.rotate_conjugate(ch.corner_column_unipotent(n, ys, 0))
                if lhs != ch.levi_embed(n, _with_column(n, 0, [a] + ys)):
                    raise CheckFailure({"p": p, "n": n, "a": a, "ys": ys, "reason": "torus-product identity"})
                k = 1 + rng.randrange(n - 2)
                ys = [Q(rng.randint(-6, 6), rng.choice([1, p])) for _ in range(k)]
                a = Q(rng.choice([1, 2, 5]), rng.choice([1, p]))
                mid = ch.levi_embed(n, _with_column(n, 0, [a] + ys))
                r = Q(rng.randint(-5, 5), rng.choice([1, p, p * p]))
                chain = root_from_vector(n, tuple(1 if t == 0 else (-1 if t == k + 1 else 0) for t in range(n)))
                bump = ch.levi_embed(n, _with_column(n, k + 1, [(a - 1) * r] + [y * r for y in ys]))
                if ch.root_elem(n, chain, -r) * mid * ch.root_elem(n, chain, r) != bump * mid:
                    raise CheckFailure({"p": p, "n": n, "a": a, "ys": ys, "r": r, "reason": "conjugation identity"})
                if ch.generic_character(ctx, bump) != psi(ctx.of(ys[-1] * r)):
                    raise CheckFailure({"p": p, "n": n, "ys": ys, "r": r, "reason": "character extraction"})
                cases += 2
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


@lru_cache(maxsize=None)
def _cells_below_top(n: int) -> tuple:
    """The cells w <= the top reflection other than 1, in full_weyl_group order."""
    w0 = highest_root_reflection(n)
    return tuple([w for w in full_weyl_group(n) if bruhat_leq(w, w0) and not w.is_identity()])


def _admissible_rewrite_case(p, n, m, rng):
    ws = _cells_below_top(n)
    w = ws[rng.randrange(len(ws))]
    order = ordered_negated_roots(w)
    q_at = rng.randrange(len(order))
    rs = []
    for k, g in enumerate(order):
        bound = ch.radical_coordinate_bound(g, m)
        if k == q_at:
            v = bound - 1 - rng.randrange(3)
        elif k < q_at:
            v = bound + rng.randrange(3)
        else:
            v = bound - rng.randrange(3)
        unit = rng.choice([1, 2, 4, 7])
        while unit % p == 0:
            unit = rng.choice([1, 2, 4, 7])
        rs.append(_power_times(unit, p, v))
    u = _deep_unipotent(p, n, rng, m)
    t = _random_torus(p, n, rng)
    return w, rs, u, t, q_at


def check_cell_word_rewrite(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for m in cfg.m:
                for _ in range(max(1, cfg.samples // 4)):
                    w, rs, u, t, q_at = _admissible_rewrite_case(p, n, m, rng)
                    case = {"p": p, "n": n, "m": m, "w": w, "rs": rs, "u": u, "t": t}
                    # the rewrite verifies its identity, and its peel residue
                    # that rs_t is the coefficient word of the lower factor
                    try:
                        u_t, rs_t, qpos = ch.cell_word_rewrite(ctx, t, w, rs, u, m)
                    except MatrixError as exc:
                        raise _raised(case, exc) from exc
                    if qpos > q_at or not u_t.is_upper_unitriangular():
                        raise CheckFailure({**case, "reason": "pivot position"})
                    if fraction_valuation(rs_t[qpos], p) != fraction_valuation(rs[qpos], p):
                        raise CheckFailure({**case, "reason": "pivot size"})
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


def check_cell_collapse(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            ws = _cells_below_top(n)
            for _ in range(cfg.samples):
                w = ws[rng.randrange(len(ws))]
                order = ordered_negated_roots(w)
                q = rng.randrange(len(order))
                tail = sorted(order[q:], key=lambda g: g.height)
                bad_ls = [l for l in range(1, len(tail)) if is_bad_pair(tail[0], tail[l])]
                t = _random_torus(p, n, rng)
                rs = [Q(rng.choice([1, 2, 5]), rng.choice([1, p])) for _ in tail]
                # the witness checks that its cell drops below w
                try:
                    ch.cell_collapse_witness(t, w, tail, rs, bad_index=bad_ls[0] if bad_ls else None)
                except MatrixError as exc:
                    raise _raised({"p": p, "n": n, "w": w, "q": q, "t": t, "rs": rs}, exc) from exc
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "samples": cfg.samples}


def check_obstructed_decompositions(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for g1, g2, w in bad_triples(n):
                for _ in range(max(1, cfg.samples // 8)):
                    t = _random_torus(p, n, rng)
                    rs = [
                        Q(rng.choice([1, 2, 5]), rng.choice([1, p])),
                        Q(rng.choice([1, 2]), rng.choice([1, p])),
                    ]
                    try:
                        ch.cell_collapse_witness(t, w, [g1, g2], rs, bad_index=1)
                    except MatrixError as exc:
                        raise _raised({"p": p, "n": n, "g1": g1, "g2": g2, "w": w, "t": t, "rs": rs}, exc) from exc
                    cases += 1
            # a word with every coefficient at depth must be rejected
            m = min(cfg.m)
            w0 = highest_root_reflection(n)
            order = ordered_negated_roots(w0)
            rs = [Q(p) ** ch.radical_coordinate_bound(g, m) for g in order]
            u = _deep_unipotent(p, n, rng, m)
            t = ch.torus([Q(1)] * n)
            try:
                ch.cell_word_rewrite(ctx, t, w0, rs, u, m)
            except FactorizationError as exc:
                if "already lies at depth" not in str(exc):
                    # a failed self-check, not the rejection
                    raise _raised({"p": p, "n": n, "m": m, "rs": rs, "u": u}, exc) from exc
                cases += 1
            else:
                raise CheckFailure({"p": p, "n": n, "m": m, "reason": "in-depth word accepted"})
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_volumes(cfg, rng):
    """The closed-form box volumes at every rank and level: U sums
    (2 ht - 1) m over the positive roots, U_w0^- and U_w0^+ split it, and
    the first-row slice D is m n (3n - 2).  The exponents do not depend
    on p; criterion 13 counts the cosets."""
    cases = 0
    for n in cfg.n:
        roots = positive_roots(n)
        w0 = highest_root_reflection(n)
        for m in cfg.m:
            total = sum((2 * g.height - 1) * m for g in roots)
            if ch.volume_exponent("U", n, m) != total:
                raise CheckFailure({"n": n, "m": m, "kind": "U"})
            for g in roots:
                if ch.volume_exponent("U_gamma", n, m, root=g) != (2 * g.height - 1) * m:
                    raise CheckFailure({"n": n, "m": m, "kind": "U_gamma", "root": g})
                cases += 1
            minus = ch.volume_exponent("U_w_minus", n, m, w=w0)
            plus = ch.volume_exponent("U_w_plus", n, m, w=w0)
            if minus != (2 * n - 1) ** 2 * m or minus + plus != total:
                raise CheckFailure({"n": n, "m": m, "reason": "minus/plus partition"})
            # 2e_1 has height 2n-1 and e_1+e_j height 2n-j: m n(3n-2) in all
            d_exp = ch.volume_exponent("D", n, m)
            if d_exp != m * n * (3 * n - 2):
                raise CheckFailure({"n": n, "m": m, "kind": "D", "got": d_exp})
            cases += 3
    return cases, {"n": list(cfg.n), "m": list(cfg.m)}


# =========================================================== metaplectic

def _random_sl2(rng, ctx):
    p = ctx.p
    kind = rng.randrange(4)
    if kind == 0:
        return MetaSL2.flip(ctx)
    if kind == 1:
        return MetaSL2.upper(ctx, sample_rational(rng, p, signed=True))
    if kind == 2:
        return MetaSL2.diag(ctx, sample_rational(rng, p, signed=True))
    return MetaSL2.lower(ctx, sample_rational(rng, p, signed=True))


def check_rao_cocycle(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        ident = MetaSL2.identity(ctx)
        for _ in range(cfg.samples):
            g1 = _random_sl2(rng, ctx)
            g2 = _random_sl2(rng, ctx)
            g3 = _random_sl2(rng, ctx)
            lhs = rao_cocycle(ctx, g1.rows, g2.rows) * rao_cocycle(ctx, (g1 * g2).rows, g3.rows)
            rhs = rao_cocycle(ctx, g2.rows, g3.rows) * rao_cocycle(ctx, g1.rows, (g2 * g3).rows)
            if lhs != rhs:
                raise CheckFailure({"p": p, "g1": g1.rows, "g2": g2.rows, "g3": g3.rows})
            if rao_cocycle(ctx, ident.rows, g1.rows) != 1 or rao_cocycle(ctx, g1.rows, ident.rows) != 1:
                raise CheckFailure({"p": p, "g": g1.rows, "reason": "normalization"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_section_law(cfg, rng):
    """g g^-1 is the identity on the identity's sheet.  Associativity is
    not tested here: on unit-sheet lifts it is rao-cocycle's cocycle
    identity."""
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        ident = MetaSL2.identity(ctx)
        for _ in range(cfg.samples):
            g = _random_sl2(rng, ctx)
            if g * g.inverse() != ident:
                raise CheckFailure({"p": p, "g": g.rows, "reason": "inverse sheet"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_big_cell(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for _ in range(cfg.samples):
            y = sample_rational(rng, p, signed=True)
            x = sample_rational(rng, p, signed=True)
            if 1 + x * y == 0:
                continue
            try:
                a, xv, ybar = decompose_big_cell(y, x)
            except MetaError as exc:
                raise _raised({"p": p, "x": x, "y": y}, exc) from exc
            lhs = (MetaSL2.lower(ctx, y) * MetaSL2.upper(ctx, x)).mat
            borel = MetaSL2(ctx, ((a, xv), (0, 1 / a)))
            rhs = (borel * MetaSL2.lower(ctx, ybar)).mat
            if lhs != rhs:
                raise CheckFailure({"p": p, "x": x, "y": y, "reason": "recomposition"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_intertwining_volume(cfg, rng):
    """For two conductor-1 characters, two s and the levels lvl, lvl + 1,
    the section's intertwining integral on |x| <= p is exactly q^(-3i)
    at six points, the integrand is exactly 1 at lower(-b)*upper(x) for
    b = -z/(1 - z x), z = t p^(3i) with t in {1, 2, p - 1}, and a point
    outside its stabilised set is refused."""
    cases, ran = 0, set()
    for p in cfg.p:
        ctx = PrimeCtx(p)
        etas = [
            ramified_character(ctx, 1, 1),
            ramified_character(ctx, 1, 1, varpi_phase=Q(1, 4)),
        ]
        bound = p
        for eta in etas:
            lvl = intertwine_level(eta, bound)
            ran.update((lvl, lvl + 1))
            for s in (Q(1, 2), Q(2, 3)):
                for i in (lvl, lvl + 1):
                    sec = SectionFsi(i, eta, s)
                    for xval in (Q(0), Q(1), Q(2), Q(1, p), Q(2, p), Q(p)):
                        got = intertwine_eval_exact(sec, xval, bound)
                        if got != Mono(1, -3 * i):
                            raise CheckFailure(
                                {"p": p, "i": i, "s": s, "x": xval, "got": got}
                            )
                        upper = MetaSL2.upper(ctx, xval)
                        for t in (1, 2, p - 1):
                            z = _power_times(t, p, 3 * i)
                            value = eval_fsi_exact(sec, MetaSL2.lower(ctx, z / (1 - z * xval)) * upper)
                            if not value.is_one():
                                raise CheckFailure(
                                    {"p": p, "i": i, "s": s, "x": xval, "t": t, "value": value}
                                )
                        cases += 1
                    try:
                        intertwine_eval_exact(sec, Q(p) ** (-3 * i - 1), Q(p) ** (3 * i + 1))
                    except MetaError:
                        cases += 1
                    else:
                        raise CheckFailure(
                            {"p": p, "i": i, "s": s, "reason": "level gate missing"}
                        )
    return cases, {"p": list(cfg.p), "i": sorted(ran)}


# ============================================================= schwartz

def _rep_word(rng, p, span):
    """1-3 letters from flip, upper, diag and sign, entries u p^k, u in {1, 2, -1}, |k| <= span."""
    out = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(4)
        if k == 0:
            out.append(("flip",))
        elif k == 1:
            out.append(("upper", _power_times(rng.choice([1, 2, -1]), p, rng.randint(-span, span))))
        elif k == 2:
            out.append(("diag", _power_times(rng.choice([1, 2, -1]), p, rng.randint(-span, span))))
        else:
            out.append(("sign", rng.choice([1, -1])))
    return out


def check_weil_rep_identity(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        phis = [
            sw.SchwartzFn.indicator(ctx),
            sw.phi_m(ctx, 1, 2),
            sw.SchwartzFn.indicator(ctx, Q(1), 1),
        ]
        for _ in range(cfg.samples):
            g1, g2 = _rep_word(rng, p, max(cfg.m) + 1), _rep_word(rng, p, max(cfg.m) + 1)
            phi = rng.choice(phis)
            eps = rng.choice([1, -1])
            if not sw.check_rep_identity(g1, g2, phi, twist=eps):
                witness = sw.rep_identity_witness(g1, g2, phi, twist=eps)
                raise CheckFailure(
                    {"p": p, "g1": g1, "g2": g2, "twist": eps, "witness": witness}
                )
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_fourier_closure(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        unit = sw.SchwartzFn.indicator(ctx)
        # both sides are one-term functions, so comparing tuples compares functions
        if sw.fourier(unit) != unit:
            raise CheckFailure({"p": p, "reason": "self-dual ball"})
        cases += 1
        for _ in range(cfg.samples):
            c = Q(rng.randint(-6, 6), rng.choice([1, p]))
            r = rng.randint(-1, 2)
            f = sw.SchwartzFn.indicator(ctx, c, r)
            # both sides are one-term functions, so comparing tuples compares functions
            if sw.fourier(sw.fourier(f)) != f.reflect():
                raise CheckFailure({"p": p, "center": c, "rad": r, "reason": "double transform"})
            if sw.fourier(f).norm_sq() != f.norm_sq():
                raise CheckFailure({"p": p, "center": c, "rad": r, "reason": "mass"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def _deep_ball_cases(p, n, m):
    """(kind, b, fixed) for each letter that deep-ball-invariance applies
    to phi_m = 1_(P^r), r = (2n-1)m, and whether it fixes phi_m.

    The upper unipotent of b multiplies by psi(-b x^2), so it fixes phi_m
    exactly when v(b) >= -2r; the lower one, through the flip, exactly
    when v(b) >= 2r.  The paper's radii -(4n-3)m and (4n-1)m lie m steps
    inside these walls.  Every unit u < p, at every valuation from one
    step past the wall through the radius and on to one step (upper) or
    two (lower) beyond it.
    """
    r = (2 * n - 1) * m
    upper, lower = -(4 * n - 3) * m, (4 * n - 1) * m
    for u in range(1, p):
        for v in range(-2 * r - 1, upper + 2):
            yield "upper", _power_times(u, p, v), v >= -2 * r
        for v in range(2 * r - 1, lower + 3):
            yield "lower", _power_times(u, p, v), v >= 2 * r


def check_deep_ball_invariance(cfg, rng):
    """Each `_deep_ball_cases` letter fixes phi_m exactly where its wall
    says, a fixed image being phi_m's own one-term tuple; and the
    flip sends phi_m to gamma q^-r 1_(P^-r)."""
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        gamma = weil_index(ctx.of(1), twist=-1)
        for n in matrix_ranks(cfg):
            for m in cfg.m:
                f = sw.phi_m(ctx, m, n)
                for kind, b, fixed in _deep_ball_cases(p, n, m):
                    if kind == "upper":
                        out = sw.weil_act([("upper", b)], f, twist=-1)
                    else:
                        out = sw.weil_act_cover(MetaSL2.lower(ctx, b), f, twist=-1)
                    # a fixed image must be phi_m's own one-term tuple, and
                    # `==` decides between one-term functions
                    same = out == f if fixed or len(out.terms) == 1 else out.equals(f)
                    if same != fixed:
                        raise CheckFailure({"p": p, "n": n, "m": m, kind: b, "fixed": fixed, "reason": "wall"})
                    cases += 1
                r = (2 * n - 1) * m
                out = sw.weil_act([("flip",)], f, twist=-1)
                want = sw.SchwartzFn.indicator(ctx, 0, -r).scaled(gamma * Mono(qexp=-r))
                # both sides are one-term functions, so comparing tuples compares functions
                if out != want:
                    raise CheckFailure({"p": p, "n": n, "m": m, "reason": "transform closed form"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


def check_heisenberg_law(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        phis = [sw.SchwartzFn.indicator(ctx), sw.SchwartzFn.indicator(ctx, Q(1), 1)]
        for _ in range(cfg.samples):
            def pick():
                return Q(rng.randint(-4, 4), rng.choice([1, p, p * p]))

            h1 = sw.HeisenbergElem(pick(), pick(), pick())
            h2 = sw.HeisenbergElem(pick(), pick(), pick())
            phi = rng.choice(phis)
            eps = rng.choice([1, -1])
            lhs = sw.weil_act([h1], sw.weil_act([h2], phi, twist=eps), twist=eps)
            rhs = sw.weil_act([h1 * h2], phi, twist=eps)
            if not lhs.equals(rhs):
                raise CheckFailure({"p": p, "h1": str(h1), "h2": str(h2), "twist": eps})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


# ============================================================== catalog

class CheckSpec:
    """A catalog entry: the check function and whether it draws samples."""

    __slots__ = ("fn", "sampled")

    def __init__(self, fn, sampled: bool):
        _set(self, "fn", fn)
        _set(self, "sampled", sampled)

    __setattr__ = __delattr__ = _immutable
    __setstate__ = _restore
    __repr__ = _slots_repr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.fn, self.sampled) == (other.fn, other.sampled)

    def __hash__(self):
        return hash((self.fn, self.sampled))


CATALOG = {
    "psi-character": CheckSpec(check_psi_character, True),
    "hilbert-symbol": CheckSpec(check_hilbert_symbol, False),
    "weil-index": CheckSpec(check_weil_index, True),
    "quad-ext": CheckSpec(check_quad_ext, True),
    "norm-one-split": CheckSpec(check_norm_one_split, True),
    "bad-pairs": CheckSpec(check_bad_pairs, False),
    "bad-pair-factorizations": CheckSpec(check_bad_pair_factorizations, False),
    "bad-triple-shapes": CheckSpec(check_bad_triple_shapes, False),
    "bruhat-order": CheckSpec(check_bruhat_order, False),
    "sigma-minus-order": CheckSpec(check_sigma_minus_order, False),
    "reflection-positivity": CheckSpec(check_reflection_positivity, False),
    "symplectic-generators": CheckSpec(check_symplectic_generators, True),
    "chevalley-commutators": CheckSpec(check_chevalley_commutators, True),
    "cell-identity": CheckSpec(check_cell_identity, True),
    "bruhat-oracle": CheckSpec(check_bruhat_oracle, True),
    "levi-stability": CheckSpec(check_levi_stability, True),
    "congruence-structure": CheckSpec(check_congruence_structure, False),
    "cell-word-rewrite": CheckSpec(check_cell_word_rewrite, True),
    "cell-collapse": CheckSpec(check_cell_collapse, True),
    "obstructed-decompositions": CheckSpec(check_obstructed_decompositions, True),
    "volumes": CheckSpec(check_volumes, False),
    "rao-cocycle": CheckSpec(check_rao_cocycle, True),
    "section-law": CheckSpec(check_section_law, True),
    "big-cell": CheckSpec(check_big_cell, True),
    "intertwining-volume": CheckSpec(check_intertwining_volume, True),
    "weil-rep-identity": CheckSpec(check_weil_rep_identity, True),
    "fourier-closure": CheckSpec(check_fourier_closure, True),
    "deep-ball-invariance": CheckSpec(check_deep_ball_invariance, False),
    "heisenberg-law": CheckSpec(check_heisenberg_law, True),
}


# =============================================================== driver

def _run_check(cfg, name) -> CheckRecord:
    """One check's record, made in whichever process runs it.

    Sampled checks are skipped outright when the sample budget is zero;
    enumerative ones always run.  A raised CheckFailure becomes a fail
    record carrying the counterexample plus the campaign seed, and any
    other exception is reported as a fail with its message, so one
    broken check never takes down the campaign.
    """
    import random
    import time

    spec = CATALOG[name]
    if spec.sampled and cfg.samples == 0:
        return CheckRecord(name, SKIPPED, 0, {"reason": "samples = 0"})
    rng = random.Random(case_seed(cfg.seed, name))
    start = time.perf_counter()
    try:
        cases, parameters = spec.fn(cfg, rng)
        return CheckRecord(name, PASS, cases, dict(parameters), None, time.perf_counter() - start)
    except CheckFailure as exc:
        payload = {"seed": cfg.seed, **exc.payload}
    except Exception as exc:
        payload = {"seed": cfg.seed, "error": f"{type(exc).__name__}: {exc}"}
    return CheckRecord(name, FAIL, 0, {}, payload, time.perf_counter() - start)


def _lane(cfg, names, tasks, out, inherited):
    """A forked lane: close the parent's other pipe ends, then take check
    indices off the task pipe until it is empty; before running each,
    write its index as one JSON line, then its encoded record as another.
    Never returns."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(out, "w") as fh:
            while taken := os.read(tasks, 1):
                fh.write(f"{taken[0]}\n")
                fh.flush()
                record = _run_check(cfg, names[taken[0]])
                fields = {
                    "name": record.name,
                    "status": record.status,
                    "cases": record.cases,
                    "parameters": record.parameters,
                    "counterexample": record.counterexample,
                    "seconds": record.seconds,
                }
                fh.write(json.dumps(encode_value(fields)) + "\n")
                fh.flush()
        status = 0
    finally:
        os._exit(status)


def _run_lanes(cfg, names, forks) -> list:
    """The records of `names`, in order, from this process and `forks`
    forked lanes.

    One shared task pipe holds one byte per check index, and each process
    takes the next check in order until the pipe is empty.  This process
    reads the lanes' record pipes only after that, which cannot deadlock:
    a lane whose pipe is full stops taking checks, and the rest fall to
    this process.  A check that a lane took but never reported fails with
    the lane's exit status.
    """
    tasks, fill = os.pipe()
    os.write(fill, bytes(range(len(names))))
    os.close(fill)
    lanes_out, records, unannounced = {}, {}, []
    try:
        for _ in range(forks):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _lane(cfg, names, tasks, write, [read] + [fh.fileno() for fh in lanes_out.values()])
            os.close(write)
            lanes_out[pid] = os.fdopen(read)
        while taken := os.read(tasks, 1):
            records[taken[0]] = _run_check(cfg, names[taken[0]])
        for pid, fh in list(lanes_out.items()):
            taken = None
            for line in fh:
                if not line.endswith("\n"):
                    break
                item = json.loads(line)
                if isinstance(item, int):
                    taken = item
                else:
                    records[taken], taken = CheckRecord(**item), None
            del lanes_out[pid]
            fh.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if taken is not None:
                records[taken] = _lane_failure(cfg, names[taken], status)
            elif status:
                unannounced.append(status)
    except BaseException:
        import signal

        for pid, fh in lanes_out.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(tasks)
    # A lane killed between reading an index and writing it back leaves
    # that check unreported and announces nothing; each such check goes to
    # one of the lanes that died that way (with one forked lane, to it).
    missing = [i for i in range(len(names)) if i not in records]
    for i, status in zip(missing, unannounced):
        records[i] = _lane_failure(cfg, names[i], status)
    return [records[i] for i in range(len(names))]


def _lane_failure(cfg, name, status) -> CheckRecord:
    return CheckRecord(name, FAIL, 0, {}, {"seed": cfg.seed, "error": f"lane exited with status {status}"})


def run_campaign(cfg) -> Report:
    """Run the configured checks, in one lane per usable CPU, and collect
    a deterministic report."""
    cfg.validate(CATALOG)
    names = list(cfg.checks) if cfg.checks else sorted(CATALOG)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    records = _run_lanes(cfg, names, min(cpus, len(names)) - 1)
    return Report(version=__version__, config=cfg.as_dict(), checks=records)

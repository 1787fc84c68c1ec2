"""The verification catalog: every named check behind `padicsp verify`.

Each check re-validates one cluster of library invariants on seeded
samples or small exhaustive grids and reports a replayable
counterexample on the first violation.  Checks are pure functions of
(config, rng); the campaign driver owns timing and status bookkeeping.

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
from dataclasses import dataclass
from fractions import Fraction as Q

from .. import __version__
from ..padic import (
    Mono,
    PrimeCtx,
    _legendre,
    fraction_valuation,
    hilbert_symbol,
    mu_psi,
    psi,
    weil_index,
)
from ..quadext import QuadExt, norm_one_decompose
from ..rootsys import (
    Root,
    WeylElem,
    bad_pair_witness,
    bad_pairs,
    bad_triples,
    bad_triples_for_pair,
    bruhat_leq,
    chain_word_sigma,
    full_weyl_group,
    has_order_conflict,
    highest_root_reflection,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
    reflection,
    root_from_vector,
    subword_products,
    weyl_below,
)
from .. import chevalley as ch
from ..chevalley import FactorizationError
from ..metaplectic import (
    MetaError,
    MetaSL2,
    SectionFsi,
    decompose_big_cell,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
    rao_cocycle,
)
from .. import schwartz as sw
from .report import FAIL, PASS, SKIPPED, CheckRecord, Report, encode_value


class CheckFailure(Exception):
    """Carries the replayable counterexample payload."""

    def __init__(self, payload: dict):
        super().__init__(str(payload))
        self.payload = payload


def case_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()
    return int(digest[:16], 16)


def nonresidue(p: int) -> int:
    for u in range(2, p):
        if _legendre(u, p) == -1:
            return u
    raise AssertionError(p)


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
    out = square_class * Q(num, den) ** 2 * Q(p) ** (2 * k)
    if signed and rng.random() < 0.5:
        out = -out
    return out


def matrix_ranks(cfg):
    return [n for n in cfg.n if n <= 3]


def _deep_unipotent(p, n, rng, m):
    u = ch.Mat.identity(2 * n)
    for g in positive_roots(n):
        v = ch.radical_coordinate_bound(g, m) + rng.randrange(0, 3)
        u = ch.mul_root_elem(u, g, Q(rng.randint(-5, 5)) * Q(p) ** v)
    return u


def _random_torus(p, n, rng):
    entries = [Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randrange(-2, 3) for _ in range(n)]
    return ch.torus(entries)


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
                    u0 = ext.one() + ext.elem(
                        Q(rng.randint(-8, 8)) * Q(p) ** m, Q(rng.randint(-8, 8)) * Q(p) ** m
                    )
                    x = e0 * u0
                    e, u = norm_one_decompose(x, m)
                    if e * u != x or e.norm() != 1:
                        raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "m": m, "reason": "split"})
                    if (u - ext.one()).base_valuation() < m:
                        raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "m": m, "reason": "depth"})
                    cases += 1
    return cases, {"p": list(cfg.p), "m": list(cfg.m), "samples": cfg.samples}


# ============================================================= rootsys

BAD_PAIR_COUNTS = {2: 1, 3: 3, 4: 6}


def check_bad_pairs(cfg, rng):
    cases = 0
    counts = {}
    for n in cfg.n:
        pairs = bad_pairs(n)
        counts[f"n={n}"] = len(pairs)
        want = BAD_PAIR_COUNTS.get(n, n * (n - 1) // 2)
        if len(pairs) != want:
            raise CheckFailure({"n": n, "count": len(pairs), "expected": want})
        roots = positive_roots(n)
        for g1 in roots:
            for g2 in roots:
                flagged = is_bad_pair(g1, g2)
                witness = bad_pair_witness(g1, g2)
                if flagged != (witness is not None):
                    raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "predicate vs witness"})
                if flagged:
                    i, j = witness
                    if not 1 <= i < j <= n:
                        raise CheckFailure({"n": n, "g1": g1, "g2": g2, "witness": [i, j]})
                cases += 1
    return cases, {"n": list(cfg.n), "counts": counts}


def check_bad_pair_factorizations(cfg, rng):
    n = 3
    w0 = highest_root_reflection(n)
    expected = {
        (1, 2): {w0},
        (1, 3): {w0, WeylElem.from_word(n, [2, 3, 2, 1])},
        (2, 3): {WeylElem.from_word(n, [1, 2, 3, 2]), WeylElem.from_word(n, [2, 3, 2])},
    }
    cases = 0
    for g1, g2 in bad_pairs(n):
        i, j = bad_pair_witness(g1, g2)
        got = set(bad_triples_for_pair(g1, g2))
        if got != expected[(i, j)]:
            raise CheckFailure({"pair": [i, j], "got": sorted(w.imgs for w in got)})
        cases += 1
    return cases, {"n": [n]}


def check_bad_triple_shapes(cfg, rng):
    cases = 0
    for n in cfg.n:
        for g1, g2, w in bad_triples(n):
            if not is_bad_pair(g1, g2):
                raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "pair not bad"})
            if w not in set(bad_triples_for_pair(g1, g2)):
                raise CheckFailure({"n": n, "g1": g1, "g2": g2, "w": w, "reason": "element mismatch"})
            neg = set(w.negated_positive_roots())
            if g1 not in neg or g2 not in neg:
                raise CheckFailure({"n": n, "g1": g1, "g2": g2, "w": w, "reason": "roots not negated"})
            cases += 1
        for g1, g2 in bad_pairs(n):
            if not bad_triples_for_pair(g1, g2):
                raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "no completion"})
            cases += 1
    return cases, {"n": list(cfg.n)}


WEYL_BELOW_COUNTS = {2: 6, 3: 20, 4: 68}


def check_bruhat_order(cfg, rng):
    cases = 0
    for n in cfg.n:
        w0 = highest_root_reflection(n)
        below = weyl_below(w0)
        if len(below) != WEYL_BELOW_COUNTS[n]:
            raise CheckFailure({"n": n, "count": len(below), "expected": WEYL_BELOW_COUNTS[n]})
        subs = subword_products(n, w0.reduced_word())
        if set(below) != set(subs):
            raise CheckFailure({"n": n, "reason": "subword set mismatch"})
        cases += len(below)
        if n == 2:
            group = full_weyl_group(2)
            for w1 in group:
                for w2 in group:
                    le = bruhat_leq(w1, w2)
                    if le and bruhat_leq(w2, w1) and w1 != w2:
                        raise CheckFailure({"n": n, "w1": w1, "w2": w2, "reason": "antisymmetry"})
                    if le and w1 != w2 and w1.length() >= w2.length():
                        raise CheckFailure({"n": n, "w1": w1, "w2": w2, "reason": "length monotonicity"})
                    cases += 1
    return cases, {"n": list(cfg.n)}


def check_sigma_minus_order(cfg, rng):
    frozen = [Root(2, (1, 0)), Root(2, (2, 1)), Root(2, (1, 1))]
    if ordered_negated_roots(highest_root_reflection(2)) != frozen:
        raise CheckFailure({"n": 2, "reason": "frozen insertion order"})
    cases = 1
    for n in cfg.n:
        for w in weyl_below(highest_root_reflection(n)):
            order = ordered_negated_roots(w)
            if sorted(order, key=lambda g: (g.height, g.coeffs)) != w.negated_positive_roots():
                raise CheckFailure({"n": n, "w": w, "reason": "order is not a permutation"})
            inside = set(order)
            partners = {}
            for g1, g2 in bad_pairs(n):
                if g1 in inside and g2 in inside:
                    partners.setdefault(g2, []).append(g1)
            for g2, g1s in partners.items():
                if len(g1s) == 1:
                    k = order.index(g1s[0])
                    if k == 0 or order[k - 1] != g2:
                        raise CheckFailure({"n": n, "w": w, "reason": "tall partner not adjacent"})
            shared = any(len(v) > 1 for v in partners.values())
            if has_order_conflict(w) != shared:
                raise CheckFailure({"n": n, "w": w, "reason": "conflict flag"})
            tall = set(partners)
            heights = [g.height for g in order if g not in tall]
            if heights != sorted(heights):
                raise CheckFailure({"n": n, "w": w, "reason": "trimmed order not monotone"})
            cases += 1
        for g1, g2 in bad_pairs(n):
            i, j = bad_pair_witness(g1, g2)
            sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
            if sigma.apply(g1).is_positive() or sigma.apply(g2).is_positive():
                raise CheckFailure({"n": n, "pair": [i, j], "reason": "chain word misses the pair"})
            cases += 1
    return cases, {"n": list(cfg.n)}


def check_reflection_positivity(cfg, rng):
    cases = 0
    for n in cfg.n:
        roots = positive_roots(n)
        all_roots = set(roots) | {-g for g in roots}
        for g in roots:
            s = reflection(g)
            if s.apply(g) != -g:
                raise CheckFailure({"n": n, "root": g, "reason": "reflection fixes its root"})
            if {s.apply(h) for h in all_roots} != all_roots:
                raise CheckFailure({"n": n, "root": g, "reason": "not a root permutation"})
            flipped = [h for h in roots if s.apply(h).is_negative()]
            if len(flipped) % 2 == 0:
                raise CheckFailure({"n": n, "root": g, "reason": "even inversion count"})
            cases += 1
    return cases, {"n": list(cfg.n)}


# ============================================================ chevalley

def _random_word_matrix(p, n, rng, length=6):
    roots = positive_roots(n)
    g = ch.Mat.identity(2 * n)
    for _ in range(length):
        root = roots[rng.randrange(len(roots))]
        if rng.random() < 0.5:
            root = -root
        g = ch.mul_root_elem(g, root, Q(rng.randint(-6, 6), rng.choice([1, 1, 3])))
    g = g * _random_torus(p, n, rng)
    for k in [rng.randrange(1, n + 1) for _ in range(rng.randrange(3))]:
        g = g * ch.weyl_rep(WeylElem.simple(n, k))
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
                    rebuilt = eye
                    for (i, j), c in sorted(coeffs.items(), key=lambda t: sum(t[0])):
                        vec = tuple(i * a + j * b for a, b in zip(g1.euclid(), g2.euclid()))
                        rebuilt = ch.mul_root_elem(rebuilt, root_from_vector(n, vec), c)
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
                    borel = ch.cell_identity_borel_part(n, g, r)
                    lhs = ch.root_product(n, [(g, r), (-g, -1 / r)])
                    if not borel.is_upper_triangular() or ch.weyl_rep(reflection(g)) * borel != lhs:
                        raise CheckFailure({"p": p, "n": n, "root": g, "r": r})
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_bruhat_oracle(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for _ in range(cfg.samples):
                g = _random_word_matrix(p, n, rng)
                u, d, w, um = ch.bruhat_decompose(g)
                if u * d * ch.weyl_rep(w) * um != g:
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows, "reason": "recomposition"})
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


def check_congruence_structure(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for m in cfg.m:
                exps = ch.level_exponents(n, m)
                if len(exps) != 2 * n or exps[-1] != (2 * n - 1) * m:
                    raise CheckFailure({"p": p, "n": n, "m": m, "exps": exps})
                for g in positive_roots(n):
                    b = ch.radical_coordinate_bound(g, m)
                    if not ch.in_skew_level(ctx, ch.root_elem(n, g, Q(p) ** b), m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "root": g, "reason": "bound in"})
                    if ch.in_skew_level(ctx, ch.root_elem(n, g, Q(p) ** (b - 1)), m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "root": g, "reason": "bound sharp"})
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
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


def _admissible_rewrite_case(p, n, m, rng):
    w0 = highest_root_reflection(n)
    ws = [w for w in full_weyl_group(n) if bruhat_leq(w, w0) and w.length() >= 1]
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
        rs.append(Q(unit) * Q(p) ** v)
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
                    u_t, rs_t, qpos = ch.cell_word_rewrite(ctx, t, w, rs, u, m)
                    order = ordered_negated_roots(w)
                    if qpos > q_at or not u_t.is_upper_unitriangular():
                        raise CheckFailure({"p": p, "n": n, "m": m, "rs": rs, "reason": "pivot position"})
                    if fraction_valuation(rs_t[qpos], p) != fraction_valuation(rs[qpos], p):
                        raise CheckFailure({"p": p, "n": n, "m": m, "rs": rs, "reason": "pivot size"})
                    lhs = t * ch.weyl_rep(w)
                    for k in range(len(order) - 1, qpos - 1, -1):
                        lhs = ch.mul_root_elem(lhs, order[k], rs[k])
                    lhs = lhs * u
                    rhs = u_t * t * ch.weyl_rep(w)
                    for k in range(len(order) - 1, -1, -1):
                        rhs = ch.mul_root_elem(rhs, order[k], rs_t[k])
                    if lhs != rhs:
                        raise CheckFailure({"p": p, "n": n, "m": m, "rs": rs, "reason": "identity"})
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


def check_cell_collapse(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            w0 = highest_root_reflection(n)
            ws = [w for w in full_weyl_group(n) if bruhat_leq(w, w0) and not w.is_identity()]
            for _ in range(cfg.samples):
                w = ws[rng.randrange(len(ws))]
                order = ordered_negated_roots(w)
                q = rng.randrange(len(order))
                tail = sorted(order[q:], key=lambda g: g.height)
                bad_ls = [l for l in range(1, len(tail)) if is_bad_pair(tail[0], tail[l])]
                t = _random_torus(p, n, rng)
                rs = [Q(rng.choice([1, 2, 5]), rng.choice([1, p])) for _ in tail]
                if bad_ls:
                    w_prime = ch.cell_collapse_witness(t, w, tail, rs, bad_index=bad_ls[0])
                else:
                    w_prime = ch.cell_collapse_witness(t, w, tail, rs)
                if not (bruhat_leq(w_prime, w) and w_prime != w):
                    raise CheckFailure({"p": p, "n": n, "w": w, "q": q, "rs": rs})
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
                    w_prime = ch.cell_collapse_witness(t, w, [g1, g2], rs, bad_index=1)
                    if not (bruhat_leq(w_prime, w) and w_prime != w):
                        raise CheckFailure({"p": p, "n": n, "g1": g1, "g2": g2, "rs": rs})
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
                    raise  # a failed self-check, not the rejection
                cases += 1
            else:
                raise CheckFailure({"p": p, "n": n, "m": m, "reason": "in-depth word accepted"})
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_volumes(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            m = 1
            roots = positive_roots(n)
            total = sum((2 * g.height - 1) * m for g in roots)
            if ch.volume_exponent("U", n, m) != total:
                raise CheckFailure({"p": p, "n": n, "kind": "U"})
            for g in roots:
                bound = (2 * g.height - 1) * m
                if ch.volume_exponent("U_gamma", n, m, root=g) != bound:
                    raise CheckFailure({"p": p, "n": n, "kind": "U_gamma", "root": g})
                layer = p**bound
                if layer <= 3000:
                    reps = {Q(a, layer) for a in range(layer)}
                    if len(reps) != layer:
                        raise CheckFailure({"p": p, "n": n, "root": g, "reason": "coset count"})
                cases += 1
            w0 = highest_root_reflection(n)
            minus = ch.volume_exponent("U_w_minus", n, m, w=w0)
            plus = ch.volume_exponent("U_w_plus", n, m, w=w0)
            if minus != (2 * n - 1) ** 2 * m or minus + plus != total:
                raise CheckFailure({"p": p, "n": n, "reason": "minus/plus partition"})
            # 2e_1 has height 2n-1 and e_1+e_j height 2n-j: m n(3n-2) in all
            d_exp = ch.volume_exponent("D", n, m)
            if d_exp != m * n * (3 * n - 2):
                raise CheckFailure({"p": p, "n": n, "kind": "D", "got": d_exp})
            cases += 3
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": [1]}


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
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        ident = MetaSL2.identity(ctx)
        for _ in range(cfg.samples):
            g1 = _random_sl2(rng, ctx)
            g2 = _random_sl2(rng, ctx)
            g3 = _random_sl2(rng, ctx)
            if (g1 * g2) * g3 != g1 * (g2 * g3):
                raise CheckFailure(
                    {"p": p, "g1": g1.rows, "g2": g2.rows, "g3": g3.rows, "reason": "associativity"}
                )
            if g1 * g1.inverse() != ident:
                raise CheckFailure({"p": p, "g": g1.rows, "reason": "inverse sheet"})
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
            a, xv, ybar = decompose_big_cell(y, x)
            if a != 1 - xv * ybar or a * y != ybar:
                raise CheckFailure({"p": p, "x": x, "y": y, "reason": "relations"})
            lhs = (MetaSL2.lower(ctx, y) * MetaSL2.upper(ctx, x)).rows
            borel = MetaSL2(ctx, ((a, xv), (0, 1 / a)))
            rhs = (borel * MetaSL2.lower(ctx, ybar)).rows
            if lhs != rhs:
                raise CheckFailure({"p": p, "x": x, "y": y, "reason": "recomposition"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_intertwining_volume(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        etas = [
            ramified_character(ctx, 1, 1),
            ramified_character(ctx, 1, 1, varpi_phase=Q(1, 4)),
        ]
        bound = p
        for eta in etas:
            lvl = intertwine_level(eta, bound)
            for s in (Q(1, 2), Q(2, 3)):
                for i in cfg.i:
                    if i < lvl or i > 3:
                        continue
                    sec = SectionFsi(i, eta, s)
                    for xval in (Q(0), Q(1), Q(2), Q(1, p)):
                        got = intertwine_eval_exact(sec, xval, bound)
                        if got != Mono(1, -3 * i):
                            raise CheckFailure(
                                {"p": p, "i": i, "s": s, "x": xval, "got": got}
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
    return cases, {"p": list(cfg.p), "i": list(cfg.i)}


# ============================================================= schwartz

def _rep_word(rng, p):
    """1-3 letters from flip, upper, diag and sign, entries u p^k, u in {1, 2, -1}, |k| <= 2."""
    out = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(4)
        if k == 0:
            out.append(("flip",))
        elif k == 1:
            out.append(("upper", Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-2, 2)))
        elif k == 2:
            out.append(("diag", Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-2, 2)))
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
            g1, g2 = _rep_word(rng, p), _rep_word(rng, p)
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


def check_deep_ball_invariance(cfg, rng):
    cases = 0
    ctx = PrimeCtx(3)
    for n in matrix_ranks(cfg):
        for m in cfg.m:
            f = sw.phi_m(ctx, m, n)
            for u in (1, 2):
                b = Q(u) * Q(3) ** (-(4 * n - 3) * m)
                if not sw.weil_act([("upper", b)], f, twist=-1).equals(f):
                    raise CheckFailure({"n": n, "m": m, "b": b, "reason": "upper invariance"})
                cases += 1
            g = MetaSL2.lower(ctx, Q(3) ** ((4 * n - 1) * m))
            if not sw.weil_act_cover(g, f, twist=-1).equals(f):
                raise CheckFailure({"n": n, "m": m, "reason": "lower invariance"})
            cases += 1
            r = (2 * n - 1) * m
            out = sw.weil_act([("flip",)], f, twist=-1)
            gamma = weil_index(ctx.of(1), twist=-1)
            want = sw.SchwartzFn.indicator(ctx, 0, -r).scaled(
                gamma * Mono(qexp=-r)
            )
            # both sides are one-term functions, so comparing tuples compares functions
            if out != want:
                raise CheckFailure({"n": n, "m": m, "reason": "transform closed form"})
            cases += 1
    return cases, {"n": matrix_ranks(cfg), "m": list(cfg.m)}


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

@dataclass(frozen=True)
class CheckSpec:
    fn: object
    sampled: bool


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
                fh.write(json.dumps(encode_value(vars(_run_check(cfg, names[taken[0]])))) + "\n")
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

"""Checks of the scalar layers: the character psi, the Hilbert symbol and
the quadratic extensions with their norm-one split.

The Weil-index check, the other scalar check, stays in checks, where the
benchmark's wrapper probe reads `weil_index` as a name of that module.
"""

from fractions import Fraction as Q

from ..padic import PadicError, PrimeCtx, hilbert_symbol, psi
from ..quadext import QuadExt, norm_one_decompose
from .common import _raised, nonresidue, sample_rational, square_classes
from .report import CheckFailure


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

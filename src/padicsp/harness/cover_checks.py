"""Checks of the metaplectic cover of SL2: the section law, the big cell
and the intertwining volume of the induced sections.

The Rao-cocycle check stays in checks, where the benchmark's wrapper
probe reads `rao_cocycle` as a name of that module; it draws its cover
elements with `_random_sl2`, as section-law does.
"""

from fractions import Fraction as Q

from ..metaplectic import (
    MetaError,
    MetaSL2,
    SectionFsi,
    decompose_big_cell,
    eval_fsi_exact,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
)
from ..padic import Mono, PrimeCtx
from .common import _power_times, _raised, sample_rational
from .report import CheckFailure


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
    """For two conductor-1 characters and one of conductor 3, two s and
    the levels lvl, lvl + 1, the section's intertwining integral on
    |x| <= p is exactly q^(-3i) at six points, the integrand is exactly 1
    at lower(-b)*upper(x) for b = -z/(1 - z x), z = t p^(3i) with t in
    {1, 2, p - 1}, and a point outside its stabilised set is refused.
    Conductor 3 is the least whose level on |x| <= p differs from
    conductor 1's: it needs 3i >= 4 where conductor 1 needs 3i >= 2."""
    cases, ran = 0, set()
    for p in cfg.p:
        ctx = PrimeCtx(p)
        etas = [
            ramified_character(ctx, 1, 1),
            ramified_character(ctx, 1, 1, varpi_phase=Q(1, 4)),
            ramified_character(ctx, 3, 1),
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

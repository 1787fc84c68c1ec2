"""The Weil-representation checks of the catalog: the representation
identity on seeded words, Fourier closure, the invariance walls of the
deep balls phi_m, and the Heisenberg law.

`checks` lists them in `CATALOG` and says why the catalog is split.
"""

from fractions import Fraction as Q

from ..padic import Mono, PrimeCtx, weil_index
from ..metaplectic import MetaSL2
from .. import schwartz as sw
from ..words import HeisenbergElem
from .common import _power_times, matrix_ranks
from .report import CheckFailure


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

            h1 = HeisenbergElem(pick(), pick(), pick())
            h2 = HeisenbergElem(pick(), pick(), pick())
            phi = rng.choice(phis)
            eps = rng.choice([1, -1])
            lhs = sw.weil_act([h1], sw.weil_act([h2], phi, twist=eps), twist=eps)
            rhs = sw.weil_act([h1 * h2], phi, twist=eps)
            if not lhs.equals(rhs):
                raise CheckFailure({"p": p, "h1": str(h1), "h2": str(h2), "twist": eps})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}

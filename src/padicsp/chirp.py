"""Chirp terms on p-adic balls: the arithmetic under the Schwartz functions.

A term is c * psi(quad x^2 + freq x) * 1_B(x) on a ball B = center +
P^rad, its coefficient c an exact Mono.  Here is everything that works
on terms without forming a function: normalising a term (folding the
tails of its center, quad and freq into its coefficient and frequency),
cutting a ball into its children, gluing complete families of sibling
balls, and the Gaussian integrals over a ball, by p-adic stationary
phase, with the Gram sums of the L2 mass that decide equality.  schwartz
builds SchwartzFn, its canonical form and the Weil action on top of
them.  SchwartzError, the error of the whole Schwartz layer, is here.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .padic import (
    Mono,
    PadicError,
    PrimeCtx,
    _ZERO,
    _head,
    _mono,
    _pfrac,
    _strip,
    _turn_sum,
    fraction_valuation,
    weil_index,
)
from .value import _Value, _set


class SchwartzError(PadicError):
    pass


_ONE = Q(1)


class Term(_Value):
    """coeff * psi(quad * x^2 + freq * x) on the ball center + P^rad.

    In reduced form the center keeps its digits below rad, quad those
    below -2 rad (so quad is 0 when the square phase is affine on the
    ball) and freq those below -rad; every dropped tail is a constant or a
    frequency on the ball and lives in coeff and freq instead.
    """

    __slots__ = ("coeff", "freq", "center", "rad", "quad")

    def __init__(self, coeff: Mono, freq: Q, center: Q, rad: int, quad: Q = _ZERO):
        _set(self, "coeff", coeff)
        _set(self, "freq", freq)
        _set(self, "center", center)
        _set(self, "rad", rad)
        _set(self, "quad", quad)

    def contains(self, x: Q, p: int) -> bool:
        return fraction_valuation(x - self.center, p) >= self.rad

    def phase(self, x: Q, p: int) -> Mono:
        """coeff * psi(quad x^2 + freq x), the value at a point of the ball."""
        return self.coeff * _mono(_ONE, _ZERO, _pfrac((self.quad * x + self.freq) * x, p))


def _reduce_coeff(co: Mono, p: int) -> Mono:
    # move every factor of p from the rational part into the q exponent
    num, den = co.rat.numerator, co.rat.denominator
    if not num or num % p and den % p:
        return co
    if num % p:
        v, den = _strip(den, p)
        v = -v
    else:
        v, num = _strip(num, p)
    return _mono(Q(num, den), co.qexp + v, co.turn)


def _normalize_term(t: Term, p: int) -> Term | None:
    # _head hands back a field that is already reduced as the same object
    # (a zero as _ZERO), so `is` tells which tails are there to fold; a
    # zero from elsewhere only costs one needless rebuild.
    co = t.coeff
    if not co.rat:
        return None
    rad = t.rad
    c_red = _head(t.center, rad, p)
    freq, a_red, shift = t.freq, t.quad, _ZERO
    if a_red:
        # on c + P^rad, a x^2 = 2 a c x - a c^2 mod Z_p for a in P^(-2 rad)
        a_red = _head(t.quad, -2 * rad, p)
        if c_red and a_red is not t.quad:
            ac = (t.quad - a_red) * c_red
            freq += ac + ac
            shift = -ac * c_red
    f_red = _head(freq, -rad, p)
    co = _reduce_coeff(co, p)
    if c_red and f_red is not freq:
        shift += (freq - f_red) * c_red
    if shift:
        co = _mono(co.rat, co.qexp, _turn_sum(co.turn, _pfrac(shift, p)))
    elif co is t.coeff and c_red is t.center and f_red is t.freq and a_red is t.quad:
        return t  # already reduced: no tail to fold
    return Term(co, f_red, c_red, rad, a_red)


def _split_term(t: Term, new_rad: int, p: int):
    # cut the ball into its p^(new_rad - rad) cosets of radius new_rad
    if new_rad <= t.rad:
        yield t
        return
    step = Q(p) ** t.rad
    for k in range(p ** (new_rad - t.rad)):
        yield Term(t.coeff, t.freq, t.center + k * step, new_rad, t.quad)


def _merge_siblings(terms, p):
    # Merge sweep, finest radius to coarsest: p sibling balls carrying the
    # same (coeff, freq, quad) terms glue into their parent.  A normalised
    # child's phase is already reduced at the parent's radius, and a glued
    # parent can only complete a family one radius further up.  Fewer
    # than p terms cannot fill a family.
    if len(terms) < p:
        return terms
    levels = {}
    for t in terms:
        levels.setdefault(t.rad, {}).setdefault(t.center, []).append(t)
    rad = max(levels, default=0)
    while levels and rad >= min(levels):
        families = {}
        for center, ts in levels.get(rad, {}).items():
            families.setdefault(_head(center, rad - 1, p), []).append(ts)
        for pc, kids in families.items():
            if len(kids) == p and len({frozenset((t.coeff, t.freq, t.quad) for t in ts) for ts in kids}) == 1:
                for ts in kids:
                    del levels[rad][ts[0].center]
                glued = [Term(t.coeff, t.freq, pc, rad - 1, t.quad) for t in kids[0]]
                levels.setdefault(rad - 1, {})[pc] = glued
        rad -= 1
    return [t for balls in levels.values() for ts in balls.values() for t in ts]


def _gauss_integral(a: Q, b: Q, r: int, ctx: PrimeCtx) -> Mono:
    """The integral of psi(a t^2 + b t) over P^r, by p-adic stationary phase.

    Put j = v(a) + 2r.  When j >= 0, psi(a t^2) is 1 on P^r and the
    integral is vol(P^r) = q^-r if b is in P^-r, else 0.  When j < 0 it is
    0 unless v(b) >= v(a) + r; then completing the square gives
    psi(-b^2/4a) q^-r q^(j/2) gamma(a), gamma the Weil index
    (Igusa, Local Zeta Functions, 2000; Ranga Rao 1993).
    """
    p = ctx.p
    va = fraction_valuation(a, p)
    if va + 2 * r >= 0:
        return Mono(1, -r) if fraction_valuation(b, p) >= -r else Mono.zero()
    if fraction_valuation(b, p) < va + r:
        return Mono.zero()
    gamma = weil_index(ctx.of(a))
    return Mono(1, Q(va, 2), gamma.turn + _pfrac(-b * b / (4 * a), p))


def _ball_integral(a: Q, b: Q, center: Q, r: int, ctx: PrimeCtx) -> Mono:
    # the integral of psi(a x^2 + b x) over center + P^r, with x = center + t
    lead = Mono(turn=_pfrac((a * center + b) * center, ctx.p))
    return lead * _gauss_integral(a, 2 * a * center + b, r, ctx)


def _gram(terms, ctx: PrimeCtx):
    # the monomials of the L2 mass of a sum of terms on one ball:
    # c_i conj(c_j) times the integral of psi((a_i - a_j) x^2 + (b_i - b_j) x)
    for ti in terms:
        for tj in terms:
            if ti.quad == tj.quad and ti.freq == tj.freq:
                vol = Mono(1, -ti.rad)
            else:
                vol = _ball_integral(ti.quad - tj.quad, ti.freq - tj.freq, ti.center, ti.rad, ctx)
            yield ti.coeff * tj.coeff.conjugate() * vol

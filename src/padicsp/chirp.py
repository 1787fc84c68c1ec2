"""Chirp terms on p-adic balls: the arithmetic under the Schwartz functions.

A term is c * psi(quad x^2 + freq x) * 1_B(x) on a ball B = center +
P^rad, its coefficient c an exact Mono.  Here is everything that works
on terms without forming a function: normalising a term (folding the
tails of its center, quad and freq into its coefficient and frequency),
cutting a ball into its children, gluing complete families of sibling
balls, the Gaussian integrals over a ball, by p-adic stationary phase,
with the Gram sums of the L2 mass that decide equality, and the image of
one term under each Weil generator.  Those kernels work on the integer
numerators and denominators of a term's fields and build each output
field as one Fraction.  schwartz builds SchwartzFn, its canonical form
and the Weil action on top of them.  SchwartzError, the error of the
whole Schwartz layer, is here.
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
        n, d = _phase_parts(self, x)
        return _coeff(self.coeff, 0, 1, _turn_plus(self.coeff.turn, n, d, p))


def _reduce_coeff(co: Mono, p: int) -> Mono:
    # move every factor of p from the rational part into the q exponent:
    # Mono(Q(num, den), qexp + v, turn), the q exponent one Fraction
    num, den = co.rat.numerator, co.rat.denominator
    if not num or num % p and den % p:
        return co
    if num % p:
        v, den = _strip(den, p)
        v = -v
    else:
        v, num = _strip(num, p)
    e = co.qexp
    return _mono(Q(num, den), Q(e.numerator + v * e.denominator, e.denominator), co.turn)


def _turn_plus(turn: Q, n: int, d: int, p: int, g: Q = _ZERO) -> Q:
    """(turn + g + _pfrac(Q(n, d), p)) % 1 as one Fraction, for turns turn
    and g in [0, 1) and integers n and d != 0, not necessarily coprime.

    With d = p^v u, u prime to p, the p-part of n / d is h / p^v for
    h = n u^-1 mod p^v, as in _head.
    """
    v, u = _strip(d, p)
    pv = p**v
    h = n * pow(u, -1, pv) % pv
    if not (h or g):
        return turn
    tn, td, gn, gd = turn.numerator, turn.denominator, g.numerator, g.denominator
    den = td * gd * pv
    return Q(((tn * gd + gn * td) * pv + h * td * gd) % den, den)


def _phase_parts(t: Term, x: Q):
    # (quad x + freq) x as integer parts (n, d)
    q, f = t.quad, t.freq
    qd, fd, xn, xd = q.denominator, f.denominator, x.numerator, x.denominator
    return (q.numerator * xn * fd + f.numerator * qd * xd) * xn, qd * fd * xd * xd


def _tail_times(x: Q, h: Q, c: Q):
    # (x - h) * c as integer parts (n, d): the tail of x past its head h, times c
    xd, hd = x.denominator, h.denominator
    return (x.numerator * hd - h.numerator * xd) * c.numerator, xd * hd * c.denominator


def _coeff(co: Mono, qn: int, qd: int, turn: Q) -> Mono:
    # co * q^(qn / qd) with its turn replaced by turn: the q exponent is the
    # one Fraction Q(en qd + qn ed, ed qd); a zero coefficient stays zero
    if not co.rat:
        return co
    e = co.qexp
    return _mono(co.rat, Q(e.numerator * qd + qn * e.denominator, e.denominator * qd) if qn else e, turn)


def _normalize_term(t: Term, p: int) -> Term | None:
    # _head hands back a field that is already reduced as the same object
    # (a zero as _ZERO), so `is` tells which tails are there to fold; a
    # zero from elsewhere only costs one needless rebuild.  The constant
    # phase the folds collect, shift = sn / sd, stays in integer parts and
    # reaches the turn as one Fraction.
    co = t.coeff
    if not co.rat:
        return None
    rad = t.rad
    c_red = _head(t.center, rad, p)
    freq, a_red, sn, sd = t.freq, t.quad, 0, 1
    if a_red:
        # on c + P^rad, a x^2 = 2 a c x - a c^2 mod Z_p for a in P^(-2 rad):
        # with ac = (quad - a_red) c, freq += 2 ac and shift = -ac c
        a_red = _head(t.quad, -2 * rad, p)
        if c_red and a_red is not t.quad:
            n, d = _tail_times(t.quad, a_red, c_red)
            freq = Q(freq.numerator * d + 2 * n * freq.denominator, freq.denominator * d)
            sn, sd = -n * c_red.numerator, d * c_red.denominator
    f_red = _head(freq, -rad, p)
    co = _reduce_coeff(co, p)
    if c_red and f_red is not freq:
        # shift += (freq - f_red) c
        n, d = _tail_times(freq, f_red, c_red)
        sn, sd = sn * d + n * sd, sd * d
    if sn:
        co = _mono(co.rat, co.qexp, _turn_plus(co.turn, sn, sd, p))
    elif co is t.coeff and c_red is t.center and f_red is t.freq and a_red is t.quad:
        return t  # already reduced: no tail to fold
    return Term(co, f_red, c_red, rad, a_red)


# The Weil action term by term.  Each generator maps a term to one term
# (schwartz's _op_diag, _op_flip and _op_heis loop over these kernels);
# every Fraction field is built once from the integer parts of the
# term's fields, and each kernel states the Fraction formula it computes.


def _diag_term(t: Term, a: Q, v: int, mu: Mono) -> Term:
    # m1(a), mu = mu_psi(a) a pure phase and v = v(a):
    #   Term(coeff * mu * _mono(1, -v/2, 0), freq * a, center / a, rad - v, quad * a * a)
    an, ad = a.numerator, a.denominator
    f, c, q = t.freq, t.center, t.quad
    return Term(
        _coeff(t.coeff, -v, 2, _turn_sum(t.coeff.turn, mu.turn)),
        Q(f.numerator * an, f.denominator * ad) if f else f,
        Q(c.numerator * ad, c.denominator * an) if c else c,
        t.rad - v,
        Q(q.numerator * an * an, q.denominator * ad * ad) if q else q,
    )


def _flip_term(t: Term, eps: int, ctx: PrimeCtx) -> Term:
    # The transform of c psi(a x^2 + f x) 1_(x0 + P^r) at y is
    # c psi(a x0^2 + f x0 + 2 eps x0 y) G(a, 2 a x0 + f + 2 eps y), G the
    # Gaussian integral over P^r; it lives on the ball where G is not 0,
    # centred at y0 = -eps (2 a x0 + f) / 2.  When psi(a t^2) is affine on
    # P^r that ball has radius -r and the phase is linear:
    #   Term(c * _mono(1, -r, _pfrac(f x0 + a x0^2)), 2 eps x0, y0, -r).
    # Otherwise it has radius v(a) + r, and completing the square leaves
    # q^(v(a)/2) gamma(a) psi(-f^2/4a) psi(-y^2/a - eps f y / a):
    #   Term(c * _mono(1, v(a)/2, gamma(a).turn + _pfrac(-f^2 / 4a)),
    #        -eps f / a, y0, v(a) + r, -1 / a).
    p = ctx.p
    a, f, x0, r = t.quad, t.freq, t.center, t.rad
    an, ad, fn, fd = a.numerator, a.denominator, f.numerator, f.denominator
    xn, xd = x0.numerator, x0.denominator
    y0 = Q(-eps * (2 * an * xn * fd + fn * ad * xd), 2 * ad * xd * fd)
    va = fraction_valuation(a, p)
    co = t.coeff
    if va + 2 * r >= 0:
        # f x0 + a x0^2 = (fn ad xd + an xn fd) xn / (fd ad xd^2)
        turn = _turn_plus(co.turn, (fn * ad * xd + an * xn * fd) * xn, fd * ad * xd * xd, p)
        return Term(_coeff(co, -r, 1, turn), Q(2 * eps * xn, xd), y0, -r)
    turn = _turn_plus(co.turn, -fn * fn * ad, 4 * an * fd * fd, p, weil_index(ctx.of(a)).turn)
    return Term(_coeff(co, va, 2, turn), Q(-eps * fn * ad, fd * an), y0, va + r, Q(-ad, an))


def _heis_term(t: Term, x: Q, k: Q, e2: Q, p: int) -> Term:
    # phi(y + x) psi(k + e2 y), k = eps (z + x xp) and e2 = 2 eps xp, on one
    # term: the square phase shifts by x into the frequency and constant,
    #   Term(coeff * _mono(1, 0, _pfrac(k + (quad x + freq) x)),
    #        freq + e2 + 2 quad x, center - x, rad, quad)
    q, f, c = t.quad, t.freq, t.center
    qd, fd, xn, xd, ed = q.denominator, f.denominator, x.numerator, x.denominator, e2.denominator
    n, d = _phase_parts(t, x)
    turn = _turn_plus(t.coeff.turn, k.numerator * d + n * k.denominator, k.denominator * d, p)
    fn = (f.numerator * ed + e2.numerator * fd) * qd * xd + 2 * q.numerator * xn * fd * ed
    return Term(
        _coeff(t.coeff, 0, 1, turn),
        Q(fn, fd * ed * qd * xd),
        Q(c.numerator * xd - xn * c.denominator, c.denominator * xd),
        t.rad,
        q,
    )


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

"""Exact Schwartz functions on the p-adic line and the Weil action on them.

A function is stored as a finite list of terms c * psi(a x^2 + beta x) * 1_B(x),
where B is a ball center + P^rad, a and beta are rationals and the
coefficient c is an exact Mono: a positive rational times a half-integer
power of q times a root of unity recorded by its rational turn.  Every
generator of the metaplectic SL2 (and of the Heisenberg group) maps each
term to one term in closed form: upper(b) adds to a, diag and the
Heisenberg group scale and shift, and the flip is p-adic stationary phase
(Weil, Acta Math. 111, 1964).  So no generator ever cuts a ball.

Chirps psi(a x^2 + beta x) on one ball are linearly dependent, so
equality is decided by the exact L2 mass of the difference, a Gram sum of
the same Gaussian integrals.  Values, integrals, masses and equality are
exact sums in the cyclotomic form Cyclo, with no floating-point arithmetic
at all.

The term arithmetic (normalising, splitting, sibling merge, the Gaussian
integrals and the Gram sums) is in chirp, and the generator words with
their cover lifts are in words; this module holds SchwartzFn, its
canonical form (_regroup and the split sweep), the generator operators
and the Weil action.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .chirp import (
    _ONE,
    SchwartzError,
    Term,
    _ball_integral,
    _gram,
    _merge_siblings,
    _normalize_term,
    _split_term,
)
from .metaplectic import MetaSL2
from .padic import (
    Cyclo,
    Mono,
    PrimeCtx,
    _HALF,
    _ZERO,
    _as_fraction,
    _as_instance,
    _as_int,
    _as_sign,
    _head,
    _mono,
    _pfrac,
    _turn_sum,
    fraction_valuation,
    hilbert_symbol,
    mu_psi,
    weil_index,
)
from .value import _Value, _set
from .words import _norm_item, canonical_word, cover_lift


def _regroup(terms, p):
    # one slot per ball, reduced phase and monomial; the half turn is
    # folded into the sign so that c and -c cancel exactly.  Slots are
    # keyed on integer pairs, which hash far cheaper than Fractions.  A
    # normalised term has no power of p in its rational part, so one term
    # is its own slot.
    if len(terms) == 1:
        tn = _normalize_term(terms[0], p)
        return [] if tn is None else [tn]
    slots = {}
    for t in terms:
        tn = _normalize_term(t, p)
        if tn is None:
            continue
        co = tn.coeff
        rat, ph = co.rat, co.turn
        if 2 * ph.numerator >= ph.denominator:
            rat, ph = -rat, ph - _HALF
        c, f, a, e = tn.center, tn.freq, tn.quad, co.qexp
        key = (
            c.numerator, c.denominator, tn.rad, f.numerator, f.denominator, a.numerator,
            a.denominator, e.numerator, e.denominator, ph.numerator, ph.denominator,
        )
        slot = slots.get(key)
        if slot is None:
            slots[key] = [rat, tn, ph]
        else:
            slot[0] += rat
    # ph < 1/2, so the sign of a sum moves into its turn with no reduction
    out = []
    for v, tn, ph in slots.values():
        sign = v.numerator
        if sign:
            co = _mono(v, tn.coeff.qexp, ph) if sign > 0 else _mono(-v, tn.coeff.qexp, ph + _HALF)
            out.append(Term(co, tn.freq, tn.center, tn.rad, tn.quad))
    if len(out) > _REFINE_CAP:
        raise SchwartzError("ball refinement exceeded the term budget")
    # Denominators stay prime to p, but a sum can be divisible by p; its
    # power of p then moves into the q exponent, where it may meet another
    # monomial of the slot.  Each such pass merges slots, so this ends.
    if any(t.coeff.rat.numerator % p == 0 for t in out):
        return _regroup(out, p)
    return out


_REFINE_CAP = 20000  # term budget of the split sweep that separates nested balls


def _disjointify(terms, p):
    # Split sweep, coarsest radius to finest.  A ball must be cut exactly
    # when it is a strict ancestor of another ball, so every ancestor of
    # every ball is marked once; cutting a marked ball yields its marked
    # child one radius further down, and the sweep reaches it next.  With
    # fewer than two balls no ball lies inside another.
    if len(terms) < 2:
        return terms
    top = min(t.rad for t in terms)
    marked = {}
    for center, rad in {(t.center, t.rad) for t in terms}:
        for r in range(top, rad):
            marked.setdefault(r, set()).add(_head(center, r, p))
    for r in sorted(marked):
        nxt = []
        for t in terms:
            if t.rad == r and t.center in marked[r]:
                nxt.extend(_split_term(t, r + 1, p))
            else:
                nxt.append(t)
        if len(nxt) != len(terms):
            terms = _regroup(nxt, p)
    return terms


class SchwartzFn(_Value):
    """Finite exact combination of quadratic-phase-times-ball terms.

    `==` compares term lists and `equals` compares functions.  One
    function can have several canonical term lists (see `canonical`), so
    `==` decides equality of functions only between one-term functions;
    everything else needs `equals`.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: PrimeCtx, terms: tuple):
        _set(self, "ctx", ctx)
        _set(self, "terms", terms)

    @classmethod
    def zero(cls, ctx: PrimeCtx) -> "SchwartzFn":
        return cls(ctx, ())

    @classmethod
    def indicator(cls, ctx: PrimeCtx, center=0, rad: int = 0) -> "SchwartzFn":
        _as_instance(ctx, PrimeCtx, SchwartzError, "ctx")
        t = Term(Mono(), Q(0), _as_fraction(center), _as_int(rad, SchwartzError, "rad"))
        return cls(ctx, (t,)).canonical()

    @classmethod
    def from_terms(cls, ctx: PrimeCtx, terms) -> "SchwartzFn":
        return cls(ctx, tuple(terms)).canonical()

    def canonical(self) -> "SchwartzFn":
        """The same function on pairwise disjoint balls, in one fixed form.

        Terms are normalised (quad mod P^(-2 rad), freq mod P^(-rad), the
        tails folded into freq and the coefficient) and summed per ball,
        reduced phase and monomial.  A split sweep then cuts every ball
        that contains a finer one, coarse radius to fine; a merge sweep
        glues every complete set of p sibling balls with equal terms into
        its parent, fine to coarse.  A single term has exactly one reduced
        form, so two equal one-term functions are equal tuples.

        This is a fixed form of a term list, not of a function: siblings
        glue only when their terms are equal, so psi(x/3) 1_O and its
        three pieces psi(k/3) 1_(k+P) stay two tuples for one function.
        `==` compares these tuples; `equals` compares the functions.
        """
        p = self.ctx.p
        terms = _regroup(list(self.terms), p)
        terms = _disjointify(terms, p)
        terms = _merge_siblings(terms, p)
        terms.sort(key=lambda t: (t.rad, t.center, t.freq, t.quad, t.coeff.qexp, t.coeff.turn))
        return SchwartzFn(self.ctx, tuple(terms))

    def scaled(self, co: Mono) -> "SchwartzFn":
        return SchwartzFn(
            self.ctx,
            tuple(Term(t.coeff * co, t.freq, t.center, t.rad, t.quad) for t in self.terms),
        )

    def plus(self, other: "SchwartzFn") -> "SchwartzFn":
        if other.ctx.p != self.ctx.p:
            raise SchwartzError("mixed prime contexts")
        return SchwartzFn(self.ctx, self.terms + other.terms).canonical()

    def minus(self, other: "SchwartzFn") -> "SchwartzFn":
        return self.plus(other.scaled(Mono(-1)))

    def reflect(self) -> "SchwartzFn":
        return SchwartzFn(
            self.ctx,
            tuple(Term(t.coeff, -t.freq, -t.center, t.rad, t.quad) for t in self.terms),
        ).canonical()

    def value_at(self, x) -> Cyclo:
        xq = _as_fraction(x)
        p = self.ctx.p
        return Cyclo.of(p, (t.phase(xq, p) for t in self.terms if t.contains(xq, p)))

    def integral(self) -> Cyclo:
        ctx = self.ctx
        return Cyclo.of(ctx.p, (
            t.coeff * _ball_integral(t.quad, t.freq, t.center, t.rad, ctx) for t in self.terms
        ))

    def _balls(self):
        # the terms of each ball; on a canonical function the balls are disjoint
        balls = {}
        for t in self.terms:
            balls.setdefault((t.center, t.rad), []).append(t)
        return balls

    def norm_sq(self):
        """Squared L2 mass: the Gram sum of c_i conj(c_j) psi-integrals over each ball.

        The result is a Fraction when the mass is rational, else its exact
        Cyclo (1_O + zeta_8 1_O has mass 2 + sqrt 2).
        """
        ctx = self.ctx
        mass = Cyclo.of(ctx.p, (
            m for ts in self.canonical()._balls().values() for m in _gram(ts, ctx)
        ))
        r = mass.rational()
        return mass if r is None else r

    def _residual_balls(self):
        # the balls of a canonical function on which it is not 0: one term
        # is never 0, and a sum is 0 exactly when its L2 mass is
        ctx = self.ctx
        return [
            key for key, ts in self._balls().items()
            if len(ts) == 1 or Cyclo.of(ctx.p, _gram(ts, ctx))
        ]

    def equals(self, other: "SchwartzFn") -> bool:
        return not self.minus(other)._residual_balls()

    def difference_witness(self, other: "SchwartzFn") -> Q | None:
        """A rational point where the two functions differ, or None.

        Starting from a ball where the difference has mass, descend into a
        child ball that keeps mass until the difference is nonzero at the
        center; the function is locally constant, so this ends.
        """
        diff = self.minus(other)
        bad = diff._residual_balls()
        if not bad:
            return None
        ctx = self.ctx
        p = ctx.p
        center, rad = bad[0]
        terms = diff._balls()[bad[0]]
        while not Cyclo.of(p, (t.phase(center, p) for t in terms)):
            for k in range(p):
                child = center + k * Q(p) ** rad
                kids = [Term(t.coeff, t.freq, child, rad + 1, t.quad) for t in terms]
                if Cyclo.of(p, _gram(kids, ctx)):
                    break
            else:
                raise SchwartzError("difference detected but no witness point found")
            center, rad, terms = child, rad + 1, kids
        return center


def phi_m(ctx: PrimeCtx, m: int, n: int) -> SchwartzFn:
    """Indicator of P^((2n-1)m), the deep-ball test vector at level m."""
    m, n = _as_int(m, SchwartzError, "m", 1), _as_int(n, SchwartzError, "n", 1)
    return SchwartzFn.indicator(ctx, 0, (2 * n - 1) * m)


def _op_upper(phi: SchwartzFn, b: Q, eps: int) -> SchwartzFn:
    # multiply by psi_eps(b x^2): every term's quadratic coefficient gains eps b
    if b == 0:
        return phi
    return SchwartzFn(phi.ctx, tuple(
        Term(t.coeff, t.freq, t.center, t.rad, t.quad + eps * b) for t in phi.terms
    )).canonical()


def _op_diag(phi: SchwartzFn, a: Q, eps: int) -> SchwartzFn:
    if a == 0:
        raise SchwartzError("m1(a) needs a nonzero")
    ctx = phi.ctx
    v = fraction_valuation(a, ctx.p)
    scale = mu_psi(ctx.of(a), twist=eps) * _mono(_ONE, Q(-v, 2), _ZERO)
    out = []
    for t in phi.terms:
        out.append(Term(t.coeff * scale, t.freq * a, t.center / a, t.rad - v, t.quad * a * a))
    return SchwartzFn(ctx, tuple(out)).canonical()


def _op_flip(phi: SchwartzFn, eps: int) -> SchwartzFn:
    # The transform of c psi(a x^2 + f x) 1_(x0 + P^r) at y is
    # c psi(a x0^2 + f x0 + 2 eps x0 y) G(a, 2 a x0 + f + 2 eps y), G the
    # Gaussian integral over P^r; it lives on the ball where G is not 0,
    # centred at y0 = -eps (2 a x0 + f) / 2.  When psi(a t^2) is affine on
    # P^r that ball has radius -r and the phase is linear; otherwise it has
    # radius v(a) + r, and completing the square leaves
    # q^(v(a)/2) gamma(a) psi(-f^2/4a) psi(-y^2/a - eps f y / a).
    ctx = phi.ctx
    p = ctx.p
    out = []
    for t in phi.terms:
        a, f, x0, r = t.quad, t.freq, t.center, t.rad
        va = fraction_valuation(a, p)
        if va + 2 * r >= 0:
            phase = f * x0
            if a:  # a x^2 = 2 a x0 x - a x0^2 on the ball
                f += 2 * a * x0
                phase += a * x0 * x0
            co = t.coeff * _mono(_ONE, Q(-r), _pfrac(phase, p))
            out.append(Term(co, 2 * eps * x0, Q(-eps) * f / 2, -r))
            continue
        y0 = -eps * (2 * a * x0 + f) / 2
        turn = _turn_sum(weil_index(ctx.of(a)).turn, _pfrac(-f * f / (4 * a), p))
        out.append(Term(t.coeff * _mono(_ONE, Q(va, 2), turn), -eps * f / a, y0, va + r, -1 / a))
    return SchwartzFn(ctx, tuple(out)).canonical()


def _op_heis(phi: SchwartzFn, x: Q, xp: Q, z: Q, eps: int) -> SchwartzFn:
    # phi(y + x) psi_eps(z + x xp + 2 xp y); the square phase of a term
    # shifts by x into its frequency and constant
    p = phi.ctx.p
    out = []
    for t in phi.terms:
        turn = _pfrac(eps * (z + x * xp) + (t.quad * x + t.freq) * x, p)
        freq = t.freq + 2 * eps * xp + 2 * t.quad * x
        out.append(Term(t.coeff * _mono(_ONE, _ZERO, turn), freq, t.center - x, t.rad, t.quad))
    return SchwartzFn(phi.ctx, tuple(out)).canonical()


def fourier(phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Integral transform with kernel psi_twist(2xy), self-dual measure.

    This is also the `flip` letter of `weil_act`: its Weil index factor
    gamma(1) is 1 for both twists, since v(1) is even."""
    return _op_flip(phi, _as_sign(twist, SchwartzError, "twist"))


def weil_act(word, phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Apply the product of generator operators, rightmost factor first."""
    eps = _as_sign(twist, SchwartzError, "twist")
    items = [_norm_item(it) for it in word]
    out = phi
    for it in reversed(items):
        tag = it[0]
        if tag == "upper":
            out = _op_upper(out, it[1], eps)
        elif tag == "diag":
            out = _op_diag(out, it[1], eps)
        elif tag == "flip":
            out = _op_flip(out, eps)
        elif tag == "sign":
            out = out.scaled(Mono(it[1])).canonical()
        else:
            out = _op_heis(out, it[1], it[2], it[3], eps)
    return out


def weil_act_cover(g: MetaSL2, phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Action of a cover element, routed through its canonical word.

    The unit-sheet lifts of the word multiply to the sheet (-c, -1), c
    the lower-left entry (1 when c = 0): upper factors never move the
    sheet, and Rao's cocycle of diag(-1/c) * flip is (-c, -1).
    """
    _as_instance(g, MetaSL2, SchwartzError, "g")
    if g.ctx.p != phi.ctx.p:
        raise SchwartzError("mixed prime contexts")
    c = g.mat.num[1][0]
    sheet = hilbert_symbol(g.ctx.of(Q(-c, g.mat.den)), g.ctx.of(-1)) if c else 1
    out = weil_act(canonical_word(g), phi, twist)
    if g.zeta != sheet:
        out = out.scaled(Mono(-1)).canonical()
    return out


def _rep_identity_sides(g1, g2, phi: SchwartzFn, twist: int):
    # the composed operators, and the action of the product in the cover
    lhs = weil_act(g1, weil_act(g2, phi, twist), twist)
    prod = cover_lift(phi.ctx, g1) * cover_lift(phi.ctx, g2)
    return lhs, weil_act_cover(prod, phi, twist)


def check_rep_identity(g1, g2, phi: SchwartzFn, twist: int = 1) -> bool:
    """Operator composition against the cocycle-weighted product action."""
    lhs, rhs = _rep_identity_sides(g1, g2, phi, twist)
    return lhs.equals(rhs)


def rep_identity_witness(g1, g2, phi: SchwartzFn, twist: int = 1):
    """None when the identity holds; otherwise a point where it fails."""
    lhs, rhs = _rep_identity_sides(g1, g2, phi, twist)
    return lhs.difference_witness(rhs)

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
"""

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional

from .padic import (
    Cyclo,
    Mono,
    PadicError,
    PrimeCtx,
    _HALF,
    _as_fraction,
    _pfrac,
    fraction_valuation,
    hilbert_symbol,
    mu_psi,
    weil_index,
)
from .metaplectic import MetaSL2


class SchwartzError(PadicError):
    pass


def _head(x: Q, k: int, p: int) -> Q:
    # canonical representative of x mod P^k: the digits at positions < k
    if x == 0:
        return Q(0)
    return _pfrac(x * Q(p) ** (-k), p) * Q(p) ** k


@dataclass(frozen=True)
class Term:
    """coeff * psi(quad * x^2 + freq * x) on the ball center + P^rad.

    In reduced form the center keeps its digits below rad, quad those
    below -2 rad (so quad is 0 when the square phase is affine on the
    ball) and freq those below -rad; every dropped tail is a constant or a
    frequency on the ball and lives in coeff and freq instead.
    """

    coeff: Mono
    freq: Q
    center: Q
    rad: int
    quad: Q = Q(0)

    def contains(self, x: Q, p: int) -> bool:
        return fraction_valuation(x - self.center, p) >= self.rad

    def phase(self, x: Q, p: int) -> Mono:
        """coeff * psi(quad x^2 + freq x), the value at a point of the ball."""
        return self.coeff * Mono(turn=_pfrac((self.quad * x + self.freq) * x, p))


def _reduce_coeff(co: Mono, p: int) -> Mono:
    # move every factor of p from the rational part into the q exponent
    if co.rat == 0 or co.rat.numerator % p != 0 and co.rat.denominator % p != 0:
        return co
    v = fraction_valuation(co.rat, p)
    return Mono(co.rat * Q(p) ** (-v), co.qexp + v, co.turn)


def _normalize_term(t: Term, p: int) -> Optional[Term]:
    if t.coeff.is_zero():
        return None
    c_red = _head(t.center, t.rad, p)
    freq, a_red, shift = t.freq, t.quad, Q(0)
    if a_red:
        # on c + P^rad, a x^2 = 2 a c x - a c^2 mod Z_p for a in P^(-2 rad)
        a_red = _head(t.quad, -2 * t.rad, p)
        a_tail = t.quad - a_red
        freq += 2 * a_tail * c_red
        shift = -a_tail * c_red * c_red
    f_red = _head(freq, -t.rad, p)
    co = _reduce_coeff(t.coeff, p)
    shift += (freq - f_red) * c_red
    if shift != 0:
        co = Mono(co.rat, co.qexp, co.turn + _pfrac(shift, p))
    return Term(co, f_red, c_red, t.rad, a_red)


def _split_term(t: Term, new_rad: int, p: int):
    # cut the ball into its p^(new_rad - rad) cosets of radius new_rad
    if new_rad <= t.rad:
        yield t
        return
    step = Q(p) ** t.rad
    for k in range(p ** (new_rad - t.rad)):
        yield Term(t.coeff, t.freq, t.center + k * step, new_rad, t.quad)


def _regroup(terms, p):
    # one slot per ball, reduced phase and monomial; the half turn is
    # folded into the sign so that c and -c cancel exactly
    slots = {}
    for t in terms:
        tn = _normalize_term(t, p)
        if tn is None:
            continue
        rat, ph = tn.coeff.rat, tn.coeff.turn
        if ph >= _HALF:
            rat, ph = -rat, ph - _HALF
        key = (tn.center, tn.rad, tn.freq, tn.quad, tn.coeff.qexp, ph)
        v = slots.get(key, 0) + rat
        if v:
            slots[key] = v
        else:
            del slots[key]
    out = [
        Term(Mono(v, qexp, ph), freq, center, rad, quad)
        for (center, rad, freq, quad, qexp, ph), v in slots.items()
    ]
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
    # child one radius further down, and the sweep reaches it next.
    if not terms:
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


def _merge_siblings(terms, p):
    # Merge sweep, finest radius to coarsest: p sibling balls carrying the
    # same (coeff, freq, quad) terms glue into their parent.  A normalised
    # child's phase is already reduced at the parent's radius, and a glued
    # parent can only complete a family one radius further up.
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


@dataclass(frozen=True)
class SchwartzFn:
    """Finite exact combination of quadratic-phase-times-ball terms.

    `==` compares term lists and `equals` compares functions.  One
    function can have several canonical term lists (see `canonical`), so
    `==` decides equality of functions only between one-term functions;
    everything else needs `equals`.
    """

    ctx: PrimeCtx
    terms: tuple

    @classmethod
    def zero(cls, ctx: PrimeCtx) -> "SchwartzFn":
        return cls(ctx, ())

    @classmethod
    def indicator(cls, ctx: PrimeCtx, center=0, rad: int = 0) -> "SchwartzFn":
        t = Term(Mono(), Q(0), _as_fraction(center), int(rad))
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

    def difference_witness(self, other: "SchwartzFn") -> Optional[Q]:
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
    if m < 1 or n < 1:
        raise SchwartzError("phi_m needs m >= 1 and n >= 1")
    return SchwartzFn.indicator(ctx, 0, (2 * n - 1) * m)


def _check_twist(twist: int) -> int:
    if twist not in (1, -1):
        raise SchwartzError(f"twist must be +1 or -1, got {twist}")
    return twist


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
    scale = mu_psi(ctx.of(a), twist=eps) * Mono(qexp=Q(-v, 2))
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
            co = t.coeff * Mono(1, -r, _pfrac(phase, p))
            out.append(Term(co, 2 * eps * x0, Q(-eps) * f / 2, -r))
            continue
        y0 = -eps * (2 * a * x0 + f) / 2
        turn = weil_index(ctx.of(a)).turn + _pfrac(-f * f / (4 * a), p)
        out.append(Term(t.coeff * Mono(1, Q(va, 2), turn), -eps * f / a, y0, va + r, -1 / a))
    return SchwartzFn(ctx, tuple(out)).canonical()


def _op_heis(phi: SchwartzFn, x: Q, xp: Q, z: Q, eps: int) -> SchwartzFn:
    # phi(y + x) psi_eps(z + x xp + 2 xp y); the square phase of a term
    # shifts by x into its frequency and constant
    p = phi.ctx.p
    out = []
    for t in phi.terms:
        turn = _pfrac(eps * (z + x * xp) + (t.quad * x + t.freq) * x, p)
        freq = t.freq + 2 * eps * xp + 2 * t.quad * x
        out.append(Term(t.coeff * Mono(turn=turn), freq, t.center - x, t.rad, t.quad))
    return SchwartzFn(phi.ctx, tuple(out)).canonical()


def fourier(phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Integral transform with kernel psi_twist(2xy), self-dual measure.

    This is also the `flip` letter of `weil_act`: its Weil index factor
    gamma(1) is 1 for both twists, since v(1) is even."""
    return _op_flip(phi, _check_twist(twist))


@dataclass(frozen=True)
class HeisenbergElem:
    """Group element [x, xp, z] of rationals; the commutator pairing carries a factor 2."""

    x: Q
    xp: Q
    z: Q

    def __post_init__(self):
        for name in ("x", "xp", "z"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))

    def __mul__(self, other: "HeisenbergElem") -> "HeisenbergElem":
        shift = self.x * other.xp - other.x * self.xp
        return HeisenbergElem(self.x + other.x, self.xp + other.xp, self.z + other.z + shift)

    def inverse(self) -> "HeisenbergElem":
        return HeisenbergElem(-self.x, -self.xp, -self.z)

    def is_identity(self) -> bool:
        return not (self.x or self.xp or self.z)


def _norm_item(item):
    if isinstance(item, HeisenbergElem):
        return ("heis", item.x, item.xp, item.z)
    if not isinstance(item, tuple) or not item:
        raise SchwartzError(f"bad word item {item!r}")
    tag = item[0]
    if tag == "flip":
        return ("flip",)
    if tag == "upper":
        return ("upper", _as_fraction(item[1]))
    if tag == "diag":
        a = _as_fraction(item[1])
        if a == 0:
            raise SchwartzError("m1(a) needs a nonzero")
        return ("diag", a)
    if tag == "sign":
        z = item[1]
        if z not in (1, -1):
            raise SchwartzError(f"sheet sign must be +1 or -1, got {z}")
        return ("sign", z)
    if tag == "heis":
        return ("heis", _as_fraction(item[1]), _as_fraction(item[2]), _as_fraction(item[3]))
    raise SchwartzError(f"unknown word item tag {tag!r}")


def weil_act(word, phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Apply the product of generator operators, rightmost factor first."""
    eps = _check_twist(twist)
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


def cover_lift(ctx: PrimeCtx, word) -> MetaSL2:
    """Product of the unit-sheet lifts of the SL2 items of a word."""
    out = None
    for item in word:
        it = _norm_item(item)
        tag = it[0]
        if tag == "upper":
            g = MetaSL2.upper(ctx, it[1])
        elif tag == "diag":
            g = MetaSL2.diag(ctx, it[1])
        elif tag == "flip":
            g = MetaSL2.flip(ctx)
        elif tag == "sign":
            g = MetaSL2(ctx, ((1, 0), (0, 1)), it[1])
        else:
            raise SchwartzError("Heisenberg items have no SL2 lift")
        out = g if out is None else out * g
    return MetaSL2.identity(ctx) if out is None else out


def canonical_word(rows) -> list:
    """A fixed generator word for the matrix: Bruhat form of the bottom row."""
    (a, b), (c, d) = [[_as_fraction(x) for x in row] for row in rows]
    if a * d - b * c != 1:
        raise SchwartzError("matrix is not in SL2")
    if c != 0:
        return [("upper", a / c), ("diag", -1 / c), ("flip",), ("upper", d / c)]
    return [("upper", a * b), ("diag", a)]


def weil_act_cover(g: MetaSL2, phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Action of a cover element, routed through its canonical word.

    The unit-sheet lifts of the word multiply to the sheet (-c, -1), c
    the lower-left entry (1 when c = 0): upper factors never move the
    sheet, and Rao's cocycle of diag(-1/c) * flip is (-c, -1).
    """
    if g.ctx.p != phi.ctx.p:
        raise SchwartzError("mixed prime contexts")
    word = canonical_word(g.rows)
    c = g.rows[1][0]
    sheet = hilbert_symbol(g.ctx.of(-c), g.ctx.of(-1)) if c else 1
    out = weil_act(word, phi, twist)
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

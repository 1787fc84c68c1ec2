"""Exact Schwartz functions on the p-adic line and the Weil action on them.

A function is stored as a finite list of terms c * psi(beta*x) * 1_B(x),
where B is a ball center + P^rad and the coefficient c is kept as an exact
monomial: a positive rational times an integer power of sqrt(q) times a
root of unity recorded by its rational turn.  Every generator of the
metaplectic SL2 (and of the Heisenberg group) maps a term list to a term
list in closed form, so operator identities can be checked with no
floating-point error except at the final comparison fallback.
"""

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product
from typing import Optional

from .padic import (
    PAdic,
    PadicError,
    PrimeCtx,
    Mu8,
    _as_fraction,
    _pfrac,
    fraction_valuation,
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
class Coeff:
    """Monomial coefficient rat * q**(halfq/2) * exp(2 pi i phase)."""

    rat: Q = Q(1)
    halfq: int = 0
    phase: Q = Q(0)

    def __post_init__(self):
        rat = _as_fraction(self.rat)
        phase = _as_fraction(self.phase)
        if rat == 0:
            object.__setattr__(self, "rat", Q(0))
            object.__setattr__(self, "halfq", 0)
            object.__setattr__(self, "phase", Q(0))
            return
        if rat < 0:
            rat = -rat
            phase = phase + Q(1, 2)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "phase", phase - (phase.numerator // phase.denominator))

    @classmethod
    def one(cls) -> "Coeff":
        return cls()

    @classmethod
    def zero(cls) -> "Coeff":
        return cls(Q(0))

    def is_zero(self) -> bool:
        return self.rat == 0

    def times(self, other: "Coeff") -> "Coeff":
        return Coeff(self.rat * other.rat, self.halfq + other.halfq, self.phase + other.phase)

    def times_phase(self, turn) -> "Coeff":
        return Coeff(self.rat, self.halfq, self.phase + _as_fraction(turn))

    def times_q(self, halfsteps: int) -> "Coeff":
        return Coeff(self.rat, self.halfq + halfsteps, self.phase)

    def times_sign(self, sign: int) -> "Coeff":
        if sign == 1:
            return self
        if sign == -1:
            return self.times_phase(Q(1, 2))
        raise SchwartzError(f"sign must be +1 or -1, got {sign}")

    def times_mu8(self, m: Mu8) -> "Coeff":
        return self.times_phase(Q(m.k, 8))

    def as_complex(self, q: int) -> complex:
        import cmath

        if self.rat == 0:
            return 0j
        mag = float(self.rat) * float(q) ** (self.halfq / 2)
        return mag * cmath.exp(2j * cmath.pi * float(self.phase))


@dataclass(frozen=True)
class Term:
    """coeff * psi(freq * x) on the ball center + P^rad."""

    coeff: Coeff
    freq: Q
    center: Q
    rad: int

    def contains(self, x: Q, p: int) -> bool:
        return fraction_valuation(x - self.center, p) >= self.rad


def _reduce_coeff(co: Coeff, p: int) -> Coeff:
    # move every factor of p from the rational part into the q exponent
    if co.rat == 0 or co.rat.numerator % p != 0 and co.rat.denominator % p != 0:
        return co
    v = fraction_valuation(co.rat, p)
    return Coeff(co.rat * Q(p) ** (-v), co.halfq + 2 * v, co.phase)


def _normalize_term(t: Term, p: int) -> Optional[Term]:
    if t.coeff.is_zero():
        return None
    c_red = _head(t.center, t.rad, p)
    f_red = _head(t.freq, -t.rad, p)
    co = _reduce_coeff(t.coeff, p)
    tail = t.freq - f_red
    if tail != 0:
        co = co.times_phase(_pfrac(tail * c_red, p))
    return Term(co, f_red, c_red, t.rad)


def _split_term(t: Term, new_rad: int, p: int):
    # cut the ball into its p^(new_rad - rad) cosets of radius new_rad
    if new_rad <= t.rad:
        yield t
        return
    step = Q(p) ** t.rad
    for k in range(p ** (new_rad - t.rad)):
        yield Term(t.coeff, t.freq, t.center + k * step, new_rad)


def _regroup(terms, p):
    # one slot per ball, reduced frequency and monomial; the half turn is
    # folded into the sign so that c and -c cancel exactly
    slots = {}
    for t in terms:
        tn = _normalize_term(t, p)
        if tn is None:
            continue
        rat, ph = tn.coeff.rat, tn.coeff.phase
        if ph >= Q(1, 2):
            rat, ph = -rat, ph - Q(1, 2)
        key = (tn.center, tn.rad, tn.freq, tn.coeff.halfq, ph)
        v = slots.get(key, 0) + rat
        if v:
            slots[key] = v
        else:
            del slots[key]
    out = [
        Term(Coeff(v, halfq, ph), freq, center, rad)
        for (center, rad, freq, halfq, ph), v in slots.items()
    ]
    if len(out) > _REFINE_CAP:
        raise SchwartzError("ball refinement exceeded the term budget")
    # Denominators stay prime to p, but a sum can be divisible by p; its
    # power of p then moves into the q exponent, where it may meet another
    # monomial of the slot.  Each such pass merges slots, so this ends.
    if any(t.coeff.rat.numerator % p == 0 for t in out):
        return _regroup(out, p)
    return out


_REFINE_CAP = 20000  # term budget while separating nested balls


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
    # same (coeff, freq) terms glue into their parent.  A normalised
    # child's frequency is already reduced at the parent's radius, and a
    # glued parent can only complete a family one radius further up.
    levels = {}
    for t in terms:
        levels.setdefault(t.rad, {}).setdefault(t.center, []).append(t)
    rad = max(levels, default=0)
    while levels and rad >= min(levels):
        families = {}
        for center, ts in levels.get(rad, {}).items():
            families.setdefault(_head(center, rad - 1, p), []).append(ts)
        for pc, kids in families.items():
            if len(kids) == p and len({frozenset((t.coeff, t.freq) for t in ts) for ts in kids}) == 1:
                for ts in kids:
                    del levels[rad][ts[0].center]
                glued = [Term(t.coeff, t.freq, pc, rad - 1) for t in kids[0]]
                levels.setdefault(rad - 1, {})[pc] = glued
        rad -= 1
    return [t for balls in levels.values() for ts in balls.values() for t in ts]


@dataclass(frozen=True)
class SchwartzFn:
    """Finite exact combination of character-times-ball terms."""

    ctx: PrimeCtx
    terms: tuple

    @classmethod
    def zero(cls, ctx: PrimeCtx) -> "SchwartzFn":
        return cls(ctx, ())

    @classmethod
    def indicator(cls, ctx: PrimeCtx, center=0, rad: int = 0) -> "SchwartzFn":
        t = Term(Coeff.one(), Q(0), _as_fraction(center), int(rad))
        return cls(ctx, (t,)).canonical()

    @classmethod
    def from_terms(cls, ctx: PrimeCtx, terms) -> "SchwartzFn":
        return cls(ctx, tuple(terms)).canonical()

    def is_structural_zero(self) -> bool:
        return not self.terms

    def canonical(self) -> "SchwartzFn":
        """The same function on pairwise disjoint balls, in one fixed form.

        Terms are normalised and summed per ball, reduced frequency and
        monomial.  A split sweep then cuts every ball that contains a finer
        one, coarse radius to fine; a merge sweep glues every complete set
        of p sibling balls with equal terms into its parent, fine to coarse.
        """
        p = self.ctx.p
        terms = _regroup(list(self.terms), p)
        terms = _disjointify(terms, p)
        terms = _merge_siblings(terms, p)
        terms.sort(key=lambda t: (t.rad, t.center, t.freq, t.coeff.halfq, t.coeff.phase))
        return SchwartzFn(self.ctx, tuple(terms))

    def scaled(self, co: Coeff) -> "SchwartzFn":
        return SchwartzFn(
            self.ctx,
            tuple(Term(t.coeff.times(co), t.freq, t.center, t.rad) for t in self.terms),
        )

    def plus(self, other: "SchwartzFn") -> "SchwartzFn":
        if other.ctx.p != self.ctx.p:
            raise SchwartzError("mixed prime contexts")
        return SchwartzFn(self.ctx, self.terms + other.terms).canonical()

    def minus(self, other: "SchwartzFn") -> "SchwartzFn":
        return self.plus(other.scaled(Coeff(Q(-1))))

    def reflect(self) -> "SchwartzFn":
        return SchwartzFn(
            self.ctx,
            tuple(Term(t.coeff, -t.freq, -t.center, t.rad) for t in self.terms),
        ).canonical()

    def value_at(self, x) -> complex:
        import cmath

        xq = x.value if isinstance(x, PAdic) else _as_fraction(x)
        p = self.ctx.p
        total = 0j
        for t in self.terms:
            if t.contains(xq, p):
                turn = _pfrac(t.freq * xq, p)
                total += t.coeff.as_complex(p) * cmath.exp(2j * cmath.pi * float(turn))
        return total

    def integral(self) -> complex:
        import cmath

        p = self.ctx.p
        total = 0j
        for t in self.canonical().terms:
            if t.freq != 0 and fraction_valuation(t.freq, p) < -t.rad:
                continue
            turn = _pfrac(t.freq * t.center, p)
            total += (
                t.coeff.as_complex(p)
                * cmath.exp(2j * cmath.pi * float(turn))
                * float(p) ** (-t.rad)
            )
        return total

    def norm_sq(self):
        """Squared L2 mass, exact whenever each ball-character slot is a monomial.

        Distinct reduced frequencies on one ball are orthogonal, so those
        cross terms vanish exactly.  A slot holding a genuine sum of
        incommensurable monomials falls back to a float.
        """
        q = Q(self.ctx.p)
        slots = {}
        for t in self.canonical().terms:
            slots.setdefault((t.center, t.rad, t.freq), []).append(t.coeff)
        total = Q(0)
        fuzz = 0.0
        exact = True
        for (_, rad, _), cos in slots.items():
            if len(cos) == 1:
                total += cos[0].rat ** 2 * q ** cos[0].halfq * q ** -rad
            else:
                exact = False
                s = sum(co.as_complex(self.ctx.p) for co in cos)
                fuzz += abs(s) ** 2 * float(q) ** -rad
        return total if exact else float(total) + fuzz

    def _residual_groups(self, tol: float):
        groups = {}
        for t in self.canonical().terms:
            key = (t.center, t.rad, t.freq)
            groups[key] = groups.get(key, 0j) + t.coeff.as_complex(self.ctx.p)
        return {k: v for k, v in groups.items() if abs(v) > tol}

    def equals(self, other: "SchwartzFn", tol: float = 1e-9) -> bool:
        diff = self.minus(other)
        if diff.is_structural_zero():
            return True
        return not diff._residual_groups(tol)

    def difference_witness(self, other: "SchwartzFn", tol: float = 1e-9) -> Optional[Q]:
        """A rational point where the two functions visibly differ."""
        diff = self.minus(other)
        if diff.is_structural_zero():
            return None
        bad = diff._residual_groups(tol)
        if not bad:
            return None
        p = self.ctx.p
        probes = []
        for center, rad, _freq in bad.keys():
            probes.append((center, rad))
        for center, rad in sorted(set(probes), key=lambda b: b[1]):
            for depth in range(0, 5):
                for digits in product(range(p), repeat=depth):
                    x = center
                    for j, d in enumerate(digits):
                        x += d * Q(p) ** (rad + j)
                    if abs(self.value_at(x) - other.value_at(x)) > tol / 2:
                        return x
        raise SchwartzError("difference detected but no witness point found")


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
    # multiply by psi_eps(b x^2), refining balls until that is affine
    if b == 0:
        return phi
    p = phi.ctx.p
    v = fraction_valuation(b, p)
    need = (1 - v) // 2  # smallest r with 2r + v(b) >= 0
    cost = sum(p ** max(0, need - t.rad) for t in phi.terms)
    if cost > _REFINE_CAP:
        raise SchwartzError("ball refinement exceeded the term budget")
    out = []
    for t in phi.terms:
        for piece in _split_term(t, max(t.rad, need), p):
            c = piece.center
            co = piece.coeff.times_phase(_pfrac(-eps * b * c * c, p))
            out.append(Term(co, piece.freq + 2 * eps * b * c, c, piece.rad))
    return SchwartzFn(phi.ctx, tuple(out)).canonical()


def _op_diag(phi: SchwartzFn, a: Q, eps: int) -> SchwartzFn:
    if a == 0:
        raise SchwartzError("m1(a) needs a nonzero")
    ctx = phi.ctx
    v = fraction_valuation(a, ctx.p)
    mu = mu_psi(ctx.of(a), twist=eps)
    out = []
    for t in phi.terms:
        co = t.coeff.times_q(-v).times_mu8(mu)
        out.append(Term(co, t.freq * a, t.center / a, t.rad - v))
    return SchwartzFn(ctx, tuple(out)).canonical()


def _op_flip(phi: SchwartzFn, eps: int, with_gamma: bool) -> SchwartzFn:
    ctx = phi.ctx
    out = []
    gamma = weil_index(ctx.of(1), twist=eps) if with_gamma else None
    for t in phi.terms:
        co = t.coeff.times_q(-2 * t.rad).times_phase(_pfrac(t.freq * t.center, ctx.p))
        if gamma is not None:
            co = co.times_mu8(gamma)
        out.append(Term(co, 2 * eps * t.center, Q(-eps) * t.freq / 2, -t.rad))
    return SchwartzFn(ctx, tuple(out)).canonical()


def _op_heis(phi: SchwartzFn, x: Q, xp: Q, z: Q, eps: int) -> SchwartzFn:
    p = phi.ctx.p
    out = []
    for t in phi.terms:
        turn = _pfrac(eps * (z + x * xp) + t.freq * x, p)
        co = t.coeff.times_phase(turn)
        out.append(Term(co, t.freq + 2 * eps * xp, t.center - x, t.rad))
    return SchwartzFn(phi.ctx, tuple(out)).canonical()


def fourier(phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Integral transform with kernel psi_twist(2xy), self-dual measure."""
    return _op_flip(phi, _check_twist(twist), with_gamma=False)


@dataclass(frozen=True)
class HeisenbergElem:
    """Group element [x, xp, z]; the commutator pairing carries a factor 2."""

    x: PAdic
    xp: PAdic
    z: PAdic

    def __post_init__(self):
        ps = {self.x.ctx.p, self.xp.ctx.p, self.z.ctx.p}
        if len(ps) != 1:
            raise SchwartzError("mixed prime contexts in Heisenberg element")

    @property
    def ctx(self) -> PrimeCtx:
        return self.x.ctx

    @classmethod
    def of(cls, ctx: PrimeCtx, x, xp, z) -> "HeisenbergElem":
        return cls(ctx.of(x), ctx.of(xp), ctx.of(z))

    def __mul__(self, other: "HeisenbergElem") -> "HeisenbergElem":
        if other.ctx.p != self.ctx.p:
            raise SchwartzError("mixed prime contexts in Heisenberg product")
        x1, y1 = self.x.value, self.xp.value
        x2, y2 = other.x.value, other.xp.value
        shift = x1 * y2 - x2 * y1
        return HeisenbergElem.of(
            self.ctx, x1 + x2, y1 + y2, self.z.value + other.z.value + shift
        )

    def inverse(self) -> "HeisenbergElem":
        return HeisenbergElem.of(self.ctx, -self.x.value, -self.xp.value, -self.z.value)

    def is_identity(self) -> bool:
        return self.x.value == 0 and self.xp.value == 0 and self.z.value == 0


def _norm_item(item):
    if isinstance(item, HeisenbergElem):
        return ("heis", item.x.value, item.xp.value, item.z.value)
    if isinstance(item, str):
        item = (item,)
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
        if len(item) == 2 and isinstance(item[1], HeisenbergElem):
            h = item[1]
            return ("heis", h.x.value, h.xp.value, h.z.value)
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
            out = _op_flip(out, eps, with_gamma=True)
        elif tag == "sign":
            out = out.scaled(Coeff(Q(it[1]))).canonical()
        else:
            out = _op_heis(out, it[1], it[2], it[3], eps)
    return out


def cover_lift(ctx: PrimeCtx, word) -> MetaSL2:
    """Product of the unit-sheet lifts of the SL2 items of a word."""
    out = MetaSL2.identity(ctx)
    for item in word:
        it = _norm_item(item)
        tag = it[0]
        if tag == "upper":
            out = out * MetaSL2.upper(ctx, it[1])
        elif tag == "diag":
            out = out * MetaSL2.diag(ctx, it[1])
        elif tag == "flip":
            out = out * MetaSL2.flip(ctx)
        elif tag == "sign":
            out = out * MetaSL2(ctx, ((Q(1), Q(0)), (Q(0), Q(1))), it[1])
        else:
            raise SchwartzError("Heisenberg items have no SL2 lift")
    return out


def canonical_word(ctx: PrimeCtx, rows) -> list:
    """A fixed generator word for the matrix: Bruhat form of the bottom row."""
    (a, b), (c, d) = [[_as_fraction(x) for x in row] for row in rows]
    if a * d - b * c != 1:
        raise SchwartzError("matrix is not in SL2")
    if c != 0:
        return [("upper", a / c), ("diag", -1 / c), ("flip",), ("upper", d / c)]
    return [("upper", a * b), ("diag", a)]


def weil_act_cover(g: MetaSL2, phi: SchwartzFn, twist: int = 1) -> SchwartzFn:
    """Action of a cover element, routed through its canonical word."""
    if g.ctx.p != phi.ctx.p:
        raise SchwartzError("mixed prime contexts")
    word = canonical_word(g.ctx, g.rows)
    lifted = cover_lift(g.ctx, word)
    out = weil_act(word, phi, twist)
    sign = g.zeta * lifted.zeta
    if sign == -1:
        out = out.scaled(Coeff(Q(sign))).canonical()
    return out


def _rep_identity_sides(g1, g2, phi: SchwartzFn, twist: int):
    # the composed operators, and the action of the product in the cover
    lhs = weil_act(g1, weil_act(g2, phi, twist), twist)
    prod = cover_lift(phi.ctx, g1) * cover_lift(phi.ctx, g2)
    return lhs, weil_act_cover(prod, phi, twist)


def check_rep_identity(g1, g2, phi: SchwartzFn, twist: int = 1, tol: float = 1e-9) -> bool:
    """Operator composition against the cocycle-weighted product action."""
    lhs, rhs = _rep_identity_sides(g1, g2, phi, twist)
    return lhs.equals(rhs, tol)


def rep_identity_witness(g1, g2, phi: SchwartzFn, twist: int = 1, tol: float = 1e-9):
    """None when the identity holds; otherwise a point where it fails."""
    lhs, rhs = _rep_identity_sides(g1, g2, phi, twist)
    return lhs.difference_witness(rhs, tol)

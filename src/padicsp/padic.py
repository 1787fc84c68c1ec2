"""Exact arithmetic over the p-adic rationals, odd residue characteristic.

Numbers are plain rationals (fractions.Fraction) tagged with a prime
context, so every valuation, character value and symbol below is exact.
The additive character psi is the standard unramified one: psi(x)
depends only on the p-part of x, extracted as a fraction with p-power
denominator.  Values of psi live in PhaseQZ (an exponent in Q/Z with
p-power denominator); Weil indices live in Mu8 (eighth roots of unity).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction

INF = math.inf


class PadicError(ValueError):
    """Domain violation in p-adic arithmetic."""


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def _as_fraction(x) -> Q:
    if isinstance(x, PAdic):
        return x.value
    if isinstance(x, (int, Q)):
        return Q(x)
    raise PadicError(f"cannot coerce {x!r} to an exact rational")


def fraction_valuation(x: Q, p: int):
    """v_p(x) for a rational x; +inf for 0."""
    if x == 0:
        return INF
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _pfrac(x: Q, p: int) -> Q:
    # p-part of x in Q/Z: the unique a/p^k in [0,1) with x - a/p^k in Z_(p)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Q(0)
    pk = p**k
    a = (x.numerator * pow(den, -1, pk)) % pk
    return Q(a, pk)


@dataclass(frozen=True)
class PrimeCtx:
    """An odd prime p with residue field size q = p."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise PadicError(f"p = {self.p} is not prime")
        if self.p == 2:
            raise PadicError("p = 2 rejected: the workbench requires odd residue characteristic")

    @property
    def q(self) -> int:
        return self.p

    def of(self, x) -> "PAdic":
        return PAdic(_as_fraction(x), self)

    def uniformizer(self) -> "PAdic":
        return PAdic(Q(self.p), self)

    def psi(self, x) -> "PhaseQZ":
        return psi(self.of(x))


@dataclass(frozen=True)
class PhaseQZ:
    """A value of the unramified character: exponent in Q/Z, p-power denominator."""

    exponent: Q
    p: int

    def __post_init__(self):
        e = self.exponent - math.floor(self.exponent)
        object.__setattr__(self, "exponent", e)
        den = e.denominator
        while den % self.p == 0:
            den //= self.p
        if den != 1:
            raise PadicError(f"exponent {e} does not have p-power denominator for p={self.p}")

    @classmethod
    def one(cls, p: int) -> "PhaseQZ":
        return cls(Q(0), p)

    def __mul__(self, other: "PhaseQZ") -> "PhaseQZ":
        if self.p != other.p:
            raise PadicError("mixed prime contexts")
        return PhaseQZ(self.exponent + other.exponent, self.p)

    def inverse(self) -> "PhaseQZ":
        return PhaseQZ(-self.exponent, self.p)

    def is_one(self) -> bool:
        return self.exponent == 0

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.exponent))


@dataclass(frozen=True)
class Mu8:
    """An eighth root of unity exp(2 pi i k/8), k mod 8."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % 8)

    @classmethod
    def one(cls) -> "Mu8":
        return cls(0)

    def __mul__(self, other: "Mu8") -> "Mu8":
        return Mu8(self.k + other.k)

    def inverse(self) -> "Mu8":
        return Mu8(-self.k)

    def conjugate(self) -> "Mu8":
        return self.inverse()

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.k / 8)


@dataclass(frozen=True)
class PAdic:
    """An exact rational viewed inside Q_p."""

    value: Q
    ctx: PrimeCtx

    def _lift(self, other) -> Q:
        if isinstance(other, PAdic):
            if other.ctx != self.ctx:
                raise PadicError("mixed prime contexts")
            return other.value
        return _as_fraction(other)

    def __add__(self, other):
        return PAdic(self.value + self._lift(other), self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        return PAdic(self.value - self._lift(other), self.ctx)

    def __rsub__(self, other):
        return PAdic(self._lift(other) - self.value, self.ctx)

    def __mul__(self, other):
        return PAdic(self.value * self._lift(other), self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return PAdic(self.value / self._lift(other), self.ctx)

    def __rtruediv__(self, other):
        return PAdic(self._lift(other) / self.value, self.ctx)

    def __neg__(self):
        return PAdic(-self.value, self.ctx)

    def __eq__(self, other):
        if isinstance(other, PAdic):
            return self.ctx == other.ctx and self.value == other.value
        if isinstance(other, (int, Q)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.ctx.p))

    def __str__(self):
        return str(self.value)

    def valuation(self):
        return fraction_valuation(self.value, self.ctx.p)

    def abs_exp(self):
        """|x| = q**abs_exp(); -inf for 0."""
        v = self.valuation()
        return -v if v is not INF else -INF

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def unit_part(self) -> Q:
        """u with x = u * p^v."""
        if self.value == 0:
            raise PadicError("0 has no unit part")
        return self.value / Q(self.ctx.p) ** self.valuation()

    def is_square(self) -> bool:
        if self.value == 0:
            return True
        v = self.valuation()
        if v % 2 != 0:
            return False
        return _legendre_unit(self.unit_part(), self.ctx.p) == 1


def valuation(x: PAdic):
    return x.valuation()


def psi(x: PAdic) -> PhaseQZ:
    """The unramified additive character, trivial exactly on the integer ring."""
    return PhaseQZ(_pfrac(x.value, x.ctx.p), x.ctx.p)


def _legendre_unit(u: Q, p: int) -> int:
    # u a p-adic unit given as a rational
    m = (u.numerator * pow(u.denominator, -1, p)) % p
    ls = pow(m, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def hilbert_symbol(a: PAdic, b: PAdic) -> int:
    """(a, b) over Q_p, odd p, by the classical unit/valuation formula."""
    if a.ctx != b.ctx:
        raise PadicError("mixed prime contexts")
    if a.value == 0 or b.value == 0:
        raise PadicError("Hilbert symbol needs nonzero arguments")
    p = a.ctx.p
    alpha, beta = a.valuation(), b.valuation()
    u, v = a.unit_part(), b.unit_part()
    s = 1
    if beta % 2 == 1:
        s *= _legendre_unit(u, p)
    if alpha % 2 == 1:
        s *= _legendre_unit(v, p)
    if alpha % 2 == 1 and beta % 2 == 1:
        s *= _legendre_unit(Q(-1), p)
    return s


def weil_index(a: PAdic, twist=1) -> Mu8:
    """gamma(psi_b) for b = twist*a, by the classical Gauss sum evaluation.

    With b = u p^k, u a unit: gamma = 1 when k is even, and
    (u|p) * (1 if p = 1 mod 4 else i) when k is odd (Ranga Rao, Pacific
    J. Math. 157, 1993; Kudla, Notes on the local theta correspondence).
    """
    b = a.value * _as_fraction(twist)
    if b == 0:
        raise PadicError("Weil index needs a nonzero scaling")
    p = a.ctx.p
    k = fraction_valuation(b, p)
    if k % 2 == 0:
        return Mu8(0)
    root = Mu8(0) if p % 4 == 1 else Mu8(2)
    return root if _legendre_unit(b / Q(p) ** k, p) == 1 else root * Mu8(4)


def mu_psi(a: PAdic, twist=1) -> Mu8:
    """mu(a) = gamma(psi_twist) / gamma(psi_{twist*a})."""
    return weil_index(a.ctx.of(1), twist) * weil_index(a, twist).inverse()


def square_root_in_unit_ball(x: PAdic, m: int, extra_digits: int = 8) -> PAdic:
    """A square root of x in 1 + P^m.

    Exact when x is a rational square; otherwise a Hensel approximation y
    with y*y = x mod P^(m + extra_digits).  Requires x in 1 + P^m.
    """
    if m < 1:
        raise PadicError("level m must be >= 1")
    ctx = x.ctx
    p = ctx.p
    if fraction_valuation(x.value - 1, p) < m:
        raise PadicError(f"{x.value} is not in 1 + P^{m}")
    num, den = x.value.numerator, x.value.denominator
    rn, rd = math.isqrt(abs(num)), math.isqrt(den)
    if num > 0 and rn * rn == num and rd * rd == den:
        y = Q(rn, rd)
        if fraction_valuation(y - 1, p) < m:
            y = -y
        if fraction_valuation(y - 1, p) < m:
            raise PadicError("square root escapes the unit ball")  # cannot happen for odd p
        return PAdic(y, ctx)
    level = m + extra_digits
    mod = p**level
    t = (num * pow(den, -1, mod)) % mod
    inv2 = pow(2, -1, mod)
    y = 1
    for _ in range(64):
        if (y * y - t) % mod == 0:
            break
        y = (y + t * pow(y, -1, mod)) * inv2 % mod
    else:
        raise PadicError("Hensel iteration failed to converge")
    if (y - 1) % p**m != 0:
        y = (-y) % mod
    if (y - 1) % p**m != 0:
        raise PadicError("Hensel root escapes the unit ball")
    return PAdic(Q(y), ctx)

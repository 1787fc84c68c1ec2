"""Quadratic extensions E = Q_p(sqrt(d)) in exact arithmetic.

An element a + b*sqrt(d), for a fixed nonsquare d, is stored as
chevalley.Mat stores a matrix: integers (an, bn) over one positive
denominator den, in lowest terms, so equal elements have equal storage.
a and b are its Fraction views, and norm() and trace() return Fractions.
The extension keeps d as integers (num, den) beside its Fraction d, and
the arithmetic works on the integer rows alone.  d, the coordinates and
every lifted operand pass through padic._as_fraction, so a float or a
string is refused.  QuadExt.chart(s) is the rational chart of the norm
conic a^2 - d b^2 = 1.  Valuations are normalized on the base field, so
they are half-integers in the ramified case (v(d) odd).  The one
nontrivial algorithm here splits a unit of almost-trivial norm into an
exact norm-one element times a principal unit by reading the rational
chart of the norm conic at the unit itself, with no square root;
everything it returns is verified exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .padic import (
    INF,
    PadicError,
    PrimeCtx,
    _Value,
    _as_fraction,
    _as_instance,
    _as_int,
    _immutable,
    _set,
    fraction_valuation,
    is_square,
)

Q = Fraction


class QuadExt(_Value):
    """Q_p(sqrt(d)) for a nonsquare d, kept beside d as integers (_dnum, _dden)."""

    __slots__ = ("ctx", "d", "_dnum", "_dden")

    def __init__(self, ctx: PrimeCtx, d: Q):
        _as_instance(ctx, PrimeCtx, PadicError, "ctx")
        d = _as_fraction(d)
        if is_square(ctx.of(d)):
            raise PadicError(f"d = {d} is a square in Q_{ctx.p}, not an extension")
        _set(self, "ctx", ctx)
        _set(self, "d", d)
        _set(self, "_dnum", d.numerator)
        _set(self, "_dden", d.denominator)

    @property
    def ramified(self) -> bool:
        return fraction_valuation(self.d, self.ctx.p) % 2 == 1

    def elem(self, a, b=0) -> "QuadExtElem":
        return QuadExtElem(self, a, b)

    def chart(self, s) -> "QuadExtElem":
        """The norm-one point (1 + s sqrt(d)) / (1 - s sqrt(d)) of parameter s:
        ((1 + d s^2) / (1 - d s^2), 2 s / (1 - d s^2)) on the conic
        a^2 - d b^2 = 1.  d is a nonsquare, so 1 - d s^2 is never 0.
        Over the common denominator dd sd^2 of 1 and d s^2 (s = sn / sd,
        d = dn / dd) both coordinates share the denominator dd sd^2 - dn sn^2."""
        s = _as_fraction(s)
        sn, sd = s.numerator, s.denominator
        one, ds2 = self._dden * sd * sd, self._dnum * sn * sn
        return _elem(self, one + ds2, 2 * sn * sd * self._dden, one - ds2)

    def one(self) -> "QuadExtElem":
        return self.elem(1)

    def gen(self) -> "QuadExtElem":
        """The formal square root of d."""
        return self.elem(0, 1)


class QuadExtElem:
    """(an + bn sqrt(d)) / den with gcd(an, bn, den) == 1 and den > 0.

    QuadExtElem(ext, a, b) coerces a and b; the arithmetic builds its
    results with the trusted _elem, which only reduces.
    """

    __slots__ = ("ext", "an", "bn", "den")

    def __init__(self, ext: QuadExt, a, b=0):
        a, b = _as_fraction(a), _as_fraction(b)
        # a prime dividing the lcm divides one of the two denominators to
        # the full power, so it does not divide that coordinate's numerator
        den = math.lcm(a.denominator, b.denominator)
        _fill(self, ext, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den)

    __setattr__ = __delattr__ = _immutable

    @property
    def a(self) -> Q:
        return Q(self.an, self.den)

    @property
    def b(self) -> Q:
        return Q(self.bn, self.den)

    def _lift(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.ext is not self.ext and other.ext != self.ext:
                raise PadicError("mixed extensions")
            return other
        x = _as_fraction(other)
        return _stored(self.ext, x.numerator, 0, x.denominator)

    def __add__(self, other):
        o = self._lift(other)
        d1, d2 = self.den, o.den
        return _elem(self.ext, self.an * d2 + o.an * d1, self.bn * d2 + o.bn * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        d1, d2 = self.den, o.den
        return _elem(self.ext, self.an * d2 - o.an * d1, self.bn * d2 - o.bn * d1, d1 * d2)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        """(a + b sqrt(d))(a' + b' sqrt(d)) = a a' + d b b' + (a b' + b a') sqrt(d),
        over dd for d = dn / dd."""
        o = self._lift(other)
        ext = self.ext
        a1, b1, a2, b2 = self.an, self.bn, o.an, o.bn
        dd = ext._dden
        return _elem(ext, dd * a1 * a2 + ext._dnum * b1 * b2, dd * (a1 * b2 + b1 * a2), dd * self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self):
        return _stored(self.ext, -self.an, -self.bn, self.den)

    def __truediv__(self, other):
        """x / y = x conj(y) / N(y), with N(y) = (dd a'^2 - dn b'^2) / (dd den'^2)."""
        o = self._lift(other)
        ext = self.ext
        a1, b1, a2, b2 = self.an, self.bn, o.an, o.bn
        dn, dd = ext._dnum, ext._dden
        n = dd * a2 * a2 - dn * b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero in quadratic extension")
        d2 = o.den
        return _elem(ext, d2 * (dd * a1 * a2 - dn * b1 * b2), d2 * dd * (b1 * a2 - a1 * b2), self.den * n)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if isinstance(other, QuadExtElem):
            return (
                (self.ext is other.ext or self.ext == other.ext)
                and self.an == other.an and self.bn == other.bn and self.den == other.den
            )
        if isinstance(other, (int, Q)):
            return not self.bn and self.an == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # an element of the base field hashes as the rational it equals
        if not self.bn:
            return hash(Q(self.an, self.den))
        return hash((self.an, self.bn, self.den, self.ext.d, self.ext.ctx.p))

    def __repr__(self):
        return f"QuadExtElem(ext={self.ext!r}, a={self.a!r}, b={self.b!r})"

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.ext.d})"

    def conjugate(self) -> "QuadExtElem":
        return _stored(self.ext, self.an, -self.bn, self.den)

    def norm(self) -> Q:
        ext = self.ext
        return Q(ext._dden * self.an * self.an - ext._dnum * self.bn * self.bn, ext._dden * self.den * self.den)

    def trace(self) -> Q:
        return Q(2 * self.an, self.den)

    def base_valuation(self):
        """v normalized so v(p) = 1; half-integers occur when ramified."""
        p = self.ext.ctx.p
        vden = fraction_valuation(self.den, p)
        cand = []
        if self.an:
            cand.append(Q(fraction_valuation(self.an, p) - vden))
        if self.bn:
            cand.append(Q(fraction_valuation(self.bn, p) - vden) + Q(fraction_valuation(self.ext.d, p), 2))
        if not cand:
            return INF
        return min(cand)


def _fill(x: QuadExtElem, ext: QuadExt, an: int, bn: int, den: int) -> None:
    _set(x, "ext", ext)
    _set(x, "an", an)
    _set(x, "bn", bn)
    _set(x, "den", den)


def _stored(ext: QuadExt, an: int, bn: int, den: int) -> QuadExtElem:
    """(an + bn sqrt(d)) / den already in lowest terms with den > 0."""
    x = object.__new__(QuadExtElem)
    _fill(x, ext, an, bn, den)
    return x


def _elem(ext: QuadExt, an: int, bn: int, den: int) -> QuadExtElem:
    """(an + bn sqrt(d)) / den for den != 0, reduced to lowest terms with
    den > 0: the trusted constructor of the arithmetic."""
    g = math.gcd(an, bn, den)
    if den < 0:
        g = -g
    if g != 1:
        an, bn, den = an // g, bn // g, den // g
    return _stored(ext, an, bn, den)


def _chart_sign(a: Q, p: int) -> int:
    """The sign sigma with 1 + sigma*a a unit: 1 + a and 1 - a sum to 2."""
    return 1 if fraction_valuation(1 + a, p) == 0 else -1


def norm_one_decompose(x: QuadExtElem, m: int):
    """Split x = e * u with norm(e) = 1 exactly and u in 1 + p^m O_E.

    Requires norm(x) in 1 + P^m, which makes x = a + b sqrt(d) a unit
    with a in Z_p.  The norm-one factor is the rational chart of the
    conic a^2 - d b^2 = 1 read at x itself: with 1 + sigma*a a unit,
    s = sigma*b / (1 + sigma*a) and e = sigma * chart(s).
    At the norm-one point x / sqrt(norm(x)) the chart returns that point;
    at x its parameter moves by b (sqrt(norm(x)) - 1) / unit in P^m while
    1 +- s sqrt(d) stay units, so e moves by a factor in 1 + P^m O_E and
    u = x / e, exact, is a principal unit of level m.
    """
    _as_instance(x, QuadExtElem, PadicError, "x")
    _as_int(m, PadicError, "m", 1)
    ext = x.ext
    p = ext.ctx.p
    t = x.norm()
    if fraction_valuation(t - 1, p) < m:
        raise PadicError(f"norm {t} is not in 1 + P^{m}")
    sigma = _chart_sign(x.a, p)
    # sigma b / (1 + sigma a) = sigma bn / (den + sigma an), on x's integer rows
    e = sigma * ext.chart(Q(sigma * x.bn, x.den + sigma * x.an))
    u = x / e
    if e.norm() != 1:
        raise PadicError("norm-one factor has norm other than 1")
    if e * u != x:
        raise PadicError("factors do not recompose x")
    if (u - ext.one()).base_valuation() < m:
        raise PadicError(f"principal-unit factor is not in 1 + p^{m} O_E")
    return e, u

"""Quadratic extensions E = Q_p(sqrt(d)) in exact arithmetic.

Elements are pairs of rationals a + b*sqrt(d) for a fixed nonsquare d;
d, the coordinates and every lifted operand pass through
padic._as_fraction, so a float or a string is refused.  QuadExt.chart(s)
is the rational chart of the norm conic a^2 - d b^2 = 1.  Valuations
are normalized on the base field, so they are half-integers in the
ramified case (v(d) odd).  The one nontrivial algorithm here
splits a unit of almost-trivial norm into an exact norm-one element
times a principal unit by reading the rational chart of the norm conic
at the unit itself, with no square root; everything it returns is
verified exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import INF, PadicError, PrimeCtx, _as_fraction, fraction_valuation, is_square

Q = Fraction


@dataclass(frozen=True)
class QuadExt:
    ctx: PrimeCtx
    d: Q

    def __post_init__(self):
        d = _as_fraction(self.d)
        object.__setattr__(self, "d", d)
        if is_square(self.ctx.of(d)):
            raise PadicError(f"d = {d} is a square in Q_{self.ctx.p}, not an extension")

    @property
    def ramified(self) -> bool:
        return fraction_valuation(self.d, self.ctx.p) % 2 == 1

    def elem(self, a, b=0) -> "QuadExtElem":
        return QuadExtElem(self, _as_fraction(a), _as_fraction(b))

    def chart(self, s) -> "QuadExtElem":
        """The norm-one point (1 + s sqrt(d)) / (1 - s sqrt(d)) of parameter s:
        ((1 + d s^2) / (1 - d s^2), 2 s / (1 - d s^2)) on the conic
        a^2 - d b^2 = 1.  d is a nonsquare, so 1 - d s^2 is never 0."""
        s = _as_fraction(s)
        ds2 = self.d * s * s
        return QuadExtElem(self, (1 + ds2) / (1 - ds2), 2 * s / (1 - ds2))

    def one(self) -> "QuadExtElem":
        return self.elem(1)

    def gen(self) -> "QuadExtElem":
        """The formal square root of d."""
        return self.elem(0, 1)


@dataclass(frozen=True)
class QuadExtElem:
    ext: QuadExt
    a: Q
    b: Q

    def _lift(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.ext != self.ext:
                raise PadicError("mixed extensions")
            return other
        return QuadExtElem(self.ext, _as_fraction(other), Q(0))

    def __add__(self, other):
        o = self._lift(other)
        return QuadExtElem(self.ext, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return QuadExtElem(self.ext, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        d = self.ext.d
        return QuadExtElem(self.ext, self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExtElem(self.ext, -self.a, -self.b)

    def __truediv__(self, other):
        o = self._lift(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        c = o.conjugate()
        return self * QuadExtElem(self.ext, c.a / n, c.b / n)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            other = self._lift(other)
        if isinstance(other, QuadExtElem):
            return self.ext == other.ext and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.ext.d, self.ext.ctx.p))

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.ext.d})"

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.ext, self.a, -self.b)

    def norm(self) -> Q:
        return self.a * self.a - self.ext.d * self.b * self.b

    def trace(self) -> Q:
        return 2 * self.a

    def base_valuation(self):
        """v normalized so v(p) = 1; half-integers occur when ramified."""
        p = self.ext.ctx.p
        va = fraction_valuation(self.a, p)
        vb = fraction_valuation(self.b, p)
        vd = fraction_valuation(self.ext.d, p)
        cand = []
        if va is not INF:
            cand.append(Q(va))
        if vb is not INF:
            cand.append(Q(vb) + Q(vd, 2))
        if not cand:
            return INF
        return min(cand)


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
    if m < 1:
        raise PadicError("level m must be >= 1")
    ext = x.ext
    p = ext.ctx.p
    t = x.norm()
    if fraction_valuation(t - 1, p) < m:
        raise PadicError(f"norm {t} is not in 1 + P^{m}")
    sigma = _chart_sign(x.a, p)
    e = sigma * ext.chart(sigma * x.b / (1 + sigma * x.a))
    u = x / e
    if e.norm() != 1:
        raise PadicError("norm-one factor has norm other than 1")
    if e * u != x:
        raise PadicError("factors do not recompose x")
    if (u - ext.one()).base_valuation() < m:
        raise PadicError(f"principal-unit factor is not in 1 + p^{m} O_E")
    return e, u

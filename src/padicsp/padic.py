"""Exact arithmetic over the p-adic rationals, odd residue characteristic.

A p-adic number is a plain rational, a fractions.Fraction, so every
valuation, character value and symbol below is exact.  The functions
that read a valuation -- psi, hilbert_symbol, weil_index, mu_psi and
is_square -- take it as ctx.of(x), the Fraction x tagged with its
PrimeCtx; everything else passes Fractions.  A library input becomes a
rational in one place, _as_fraction, which takes an int or a Fraction and
refuses a float or a string; p is split off an integer in one place,
_strip, which every valuation and unit residue below reads.
The additive character psi is the standard unramified one: psi(x)
depends only on the p-part of x, extracted as a fraction with p-power
denominator.  Every scalar the library produces -- psi-values, Weil
indices, Schwartz coefficients, section values -- is one Mono
r * q^e * exp(2 pi i t) with r, e, t rational.  A sum of Monos has one
exact canonical form, Cyclo, in Q(zeta_(8 p^k)), so equality is decided
without a tolerance; floats appear only in the complex embeddings.
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
    """x as an exact rational: a Fraction as it is, an int as a Fraction."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    raise PadicError(f"cannot coerce {x!r} to an exact rational")


def _strip(k: int, p: int):
    """(v, k // p^v) for a nonzero integer k, p^v the largest power of p dividing it."""
    v = 0
    while not k % p:
        k //= p
        v += 1
    return v, k


def fraction_valuation(x: Q, p: int):
    """v_p(x) for a rational x; +inf for 0."""
    if x == 0:
        return INF
    # a Fraction is in lowest terms, so p divides at most one side
    v, _ = _strip(x.numerator, p)
    return v if v else -_strip(x.denominator, p)[0]


def _pfrac(x: Q, p: int) -> Q:
    # p-part of x in Q/Z: the unique a/p^k in [0,1) with x - a/p^k in Z_(p)
    k, den = _strip(x.denominator, p)
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

    def of(self, x) -> "PAdic":
        return PAdic(_as_fraction(x), self)


@dataclass(frozen=True)
class PAdic:
    """A rational tagged with its prime: the argument of a valuation reader."""

    value: Q
    ctx: PrimeCtx


_HALF = Q(1, 2)


@dataclass(frozen=True)
class Mono:
    """The exact scalar rat * q**qexp * exp(2 pi i turn), for q the residue field size.

    rat is kept >= 0 (a sign is half a turn) and turn in [0, 1); zero is
    Mono(0, 0, 0).  psi-values are Mono(turn=t), Weil indices
    Mono(turn=k/8), Schwartz coefficients carry half-integer qexp and
    section values qexp = -v(s + 1/2).  q itself is the context's: only
    the complex embedding needs it.
    """

    rat: Q = Q(1)
    qexp: Q = Q(0)
    turn: Q = Q(0)

    def __post_init__(self):
        rat = _as_fraction(self.rat)
        if not rat:
            object.__setattr__(self, "rat", Q(0))
            object.__setattr__(self, "qexp", Q(0))
            object.__setattr__(self, "turn", Q(0))
            return
        turn = _as_fraction(self.turn)
        if rat < 0:
            rat, turn = -rat, turn + _HALF
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "qexp", _as_fraction(self.qexp))
        if not 0 <= turn < 1:
            turn -= turn.numerator // turn.denominator
        object.__setattr__(self, "turn", turn)

    @classmethod
    def one(cls) -> "Mono":
        return cls()

    @classmethod
    def zero(cls) -> "Mono":
        return cls(Q(0))

    def is_zero(self) -> bool:
        return not self.rat

    def is_one(self) -> bool:
        return self.rat == 1 and not self.qexp and not self.turn

    def __mul__(self, other: "Mono") -> "Mono":
        return Mono(self.rat * other.rat, self.qexp + other.qexp, self.turn + other.turn)

    def inverse(self) -> "Mono":
        if not self.rat:
            raise PadicError("0 has no inverse")
        return Mono(1 / self.rat, -self.qexp, -self.turn)

    def conjugate(self) -> "Mono":
        return Mono(self.rat, self.qexp, -self.turn)

    def as_complex(self, q: int) -> complex:
        """The complex embedding: sqrt(q) > 0 and a turn t goes to exp(2 pi i t)."""
        mag = float(self.rat) * float(q) ** float(self.qexp)
        return mag * cmath.exp(2j * cmath.pi * float(self.turn))


def _turn_split(turn: Q, p: int):
    # turn = j/8 + a/p^k mod 1 by CRT; the rest of the denominator must divide 8
    k, den = _strip(turn.denominator, p)
    if 8 % den:
        raise PadicError(f"turn {turn} has no place in Q(zeta_(8 p^k)) for p = {p}")
    pk = p**k
    u = turn.numerator * (8 // den)  # turn = u / (8 p^k)
    return u * pow(pk, -1, 8) % 8, u * pow(8, -1, pk) % pk, k


@dataclass(frozen=True)
class Cyclo:
    """A finite sum of Monos over one prime, in one exact canonical form.

    The sum is written in Q(zeta_(8 p^k)), k the deepest p-power its turns
    need, on the basis zeta_8^j zeta_(p^k)^a (j < 4, a < phi(p^k)):
    sqrt(p) = eps^-1 sum_r (r|p) zeta_p^r with eps = 1 for p = 1 mod 4
    and i otherwise, zeta_8^4 = -1, and Phi_(p^k)(x) = Phi_p(x^(p^(k-1))).
    These bases nest under zeta_(p^k) = zeta_(p^(k+1))^p, so the form does
    not depend on k.  terms holds one Mono(c, 0, j/8 + a/p^k) per nonzero
    coefficient, sorted by turn; the sum is zero exactly when it is empty.
    """

    p: int
    terms: tuple

    @classmethod
    def of(cls, p: int, monos) -> "Cyclo":
        monos = [m for m in monos if m.rat]
        if any((2 * m.qexp).denominator != 1 for m in monos):
            raise PadicError("a q exponent is not a half-integer")
        splits = [_turn_split(m.turn, p) for m in monos]
        big = max([1] + [k for _, _, k in splits])  # work in Q(zeta_(8 p^big))
        pk, step = p**big, p ** (big - 1)
        phi = pk - step
        acc = {}

        def add(c, j, a):
            # c zeta_8^j zeta_(p^big)^a onto the basis: zeta_8^4 = -1, and
            # x^a = -sum_i x^(a - phi + i p^(big-1)) when a >= phi
            if j >= 4:
                c, j = -c, j - 4
            if a < phi:
                acc[j, a] = acc.get((j, a), 0) + c
                return
            for i in range(p - 1):
                b = a - phi + i * step
                acc[j, b] = acc.get((j, b), 0) - c

        for m, (j, a, k) in zip(monos, splits):
            a *= p ** (big - k)
            twice = int(2 * m.qexp)
            c = m.rat * Q(p) ** (twice // 2)
            if not twice % 2:
                add(c, j, a)
                continue
            if p % 4 == 3:  # eps = i
                j = (j + 6) % 8
            for r in range(1, p):
                add(_legendre(r, p) * c, j, (a + r * step) % pk)
        terms = [Mono(c, 0, Q(j, 8) + Q(a, pk)) for (j, a), c in acc.items() if c]
        return cls(p, tuple(sorted(terms, key=lambda m: m.turn)))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def rational(self):
        """The value as a Fraction when it is rational, else None."""
        if not self.terms:
            return Q(0)
        if len(self.terms) == 1 and self.terms[0].turn in (0, _HALF):
            m = self.terms[0]
            return m.rat if not m.turn else -m.rat
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            return self.rational() == other
        if isinstance(other, Cyclo):
            return self.p == other.p and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        r = self.rational()
        return hash(r) if r is not None else hash((self.p, self.terms))

    def as_complex(self) -> complex:
        """The complex embedding, summand by summand."""
        return sum((m.as_complex(self.p) for m in self.terms), 0j)


def psi(x: PAdic) -> Mono:
    """The unramified additive character, trivial exactly on the integer ring."""
    return Mono(turn=_pfrac(x.value, x.ctx.p))


def _legendre(r: int, p: int) -> int:
    """(r|p) for an integer r prime to p."""
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _unit_class(num: int, den: int, p: int):
    """(v, r) with num/den = p^v * w, w a p-adic unit and r = w mod p.

    Read off the integers alone: num != 0 and den != 0.
    """
    vn, num = _strip(num, p)
    vd, den = _strip(den, p)
    return vn - vd, num * pow(den, -1, p) % p


def _hilbert(va: int, ra: int, vb: int, rb: int, p: int) -> int:
    """(a, b) over Q_p, odd p, for a = p^va u and b = p^vb w with units
    u = ra and w = rb mod p: the classical formula
    (-1)^(va vb (p-1)/2) (u|p)^vb (w|p)^va, taken as one Legendre symbol.
    """
    m = 1
    if vb % 2:
        m = ra
    if va % 2:
        m *= -rb if vb % 2 else rb
    return 1 if m == 1 else _legendre(m, p)


def hilbert_symbol(a: PAdic, b: PAdic) -> int:
    """(a, b) over Q_p, odd p, by the classical unit/valuation formula."""
    if a.ctx != b.ctx:
        raise PadicError("mixed prime contexts")
    if a.value == 0 or b.value == 0:
        raise PadicError("Hilbert symbol needs nonzero arguments")
    p = a.ctx.p
    va, ra = _unit_class(a.value.numerator, a.value.denominator, p)
    vb, rb = _unit_class(b.value.numerator, b.value.denominator, p)
    return _hilbert(va, ra, vb, rb, p)


def is_square(a: PAdic) -> bool:
    """a is a square in Q_p: v(a) is even and its unit residue is a square mod p."""
    if a.value == 0:
        return True
    v, r = _unit_class(a.value.numerator, a.value.denominator, a.ctx.p)
    return v % 2 == 0 and _legendre(r, a.ctx.p) == 1


_EIGHTH_ROOTS = tuple(Mono(turn=Q(k, 8)) for k in range(8))


def weil_index(a: PAdic, twist=1) -> Mono:
    """gamma(psi_b) for b = twist*a, by the classical Gauss sum evaluation.

    With b = u p^k, u a unit: gamma = 1 when k is even, and
    (u|p) * (1 if p = 1 mod 4 else i) when k is odd (Ranga Rao, Pacific
    J. Math. 157, 1993; Kudla, Notes on the local theta correspondence).
    """
    b = a.value * _as_fraction(twist)
    if b == 0:
        raise PadicError("Weil index needs a nonzero scaling")
    p = a.ctx.p
    k, r = _unit_class(b.numerator, b.denominator, p)
    if k % 2 == 0:
        return _EIGHTH_ROOTS[0]
    root = 0 if p % 4 == 1 else 2
    return _EIGHTH_ROOTS[root if _legendre(r, p) == 1 else root + 4]


def mu_psi(a: PAdic, twist=1) -> Mono:
    """mu(a) = gamma(psi_twist) / gamma(psi_{twist*a})."""
    return weil_index(a.ctx.of(1), twist) * weil_index(a, twist).inverse()


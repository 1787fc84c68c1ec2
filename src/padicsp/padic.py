"""Exact arithmetic over the p-adic rationals, odd residue characteristic.

A p-adic number is a plain rational, a fractions.Fraction, so every
valuation, character value and symbol below is exact.  The functions
that read a valuation -- psi, hilbert_symbol, weil_index, mu_psi and
is_square -- take it as ctx.of(x), the Fraction x tagged with its
PrimeCtx; everything else passes Fractions.  A library input becomes a
rational in one place, _as_fraction, which takes an int or a Fraction and
refuses a float or a string; a count or a level passes _as_int, a sign
_as_sign (exactly 1 or -1), and a bool is none of these.  p is split off
an integer in one place, _strip, which every valuation and unit residue
below reads.
The additive character psi is the standard unramified one: psi(x)
depends only on the p-part of x, extracted as a fraction with p-power
denominator.  Every scalar the library produces -- psi-values, Weil
indices, Schwartz coefficients, section values -- is one Mono
r * q^e * exp(2 pi i t) with r, e, t rational.  A sum of Monos has one
exact canonical form, Cyclo, in Q(zeta_(8 p^k)), so equality is decided
without a tolerance, and no value is ever a float.
"""
from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

from .value import _Value, _immutable, _restore, _set, _slots_repr

Q = Fraction

INF = math.inf
_ZERO, _ONE = Q(0), Q(1)


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
    """x as an exact rational: a Fraction as it is, an int (not a bool) as a Fraction."""
    if isinstance(x, Q):
        return x
    if type(x) is int:
        return Q(x)
    raise PadicError(f"cannot coerce {x!r} to an exact rational")


_INT_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _as_int(x, error, what: str, least=None) -> int:
    """x itself when it is an int, not a bool, and no less than least
    (None for no bound, 0 or 1); else error naming what."""
    if type(x) is not int or least is not None and x < least:
        raise error(f"{what} {x!r} is not {_INT_KINDS[least]}")
    return x


def _as_sign(x, error, what: str) -> int:
    """x itself when it is the int 1 or -1; else error naming what."""
    if type(x) is not int or x not in (1, -1):
        raise error(f"{what} {x!r} is not +1 or -1")
    return x


def _as_instance(x, cls, error, what: str):
    """x itself when it is a cls; else error naming what."""
    if not isinstance(x, cls):
        raise error(f"{what} {x!r} is not a {cls.__name__}")
    return x


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


def _head(x: Q, k: int, p: int) -> Q:
    """The digits of x below p^k: the unique h with x - h in P^k, 0 <= h p^-k < 1
    and h p^-k of p-power denominator, the canonical representative of x mod P^k.

    With x = n / (p^v d), d prime to p, x p^-k has p-part a / p^(v+k) for
    a = n d^-1 mod p^(v+k), so h = a p^k / p^(v+k) = a / p^v.  When d = 1
    and 0 < n < p^(v+k), x is its own head and comes back as the same
    object; a zero head is always _ZERO.
    """
    n = x.numerator
    if not n:
        return _ZERO
    v, d = _strip(x.denominator, p)
    e = v + k
    if e <= 0:
        return _ZERO
    pe = p**e
    if d == 1 and 0 < n < pe:
        return x
    a = n * pow(d, -1, pe) % pe
    return Q(a, p**v) if a else _ZERO


def _pfrac(x: Q, p: int) -> Q:
    # p-part of x in Q/Z: the unique a/p^k in [0,1) with x - a/p^k in Z_(p)
    return _head(x, 0, p)


_new = object.__new__


class PrimeCtx(_Value):
    """An odd prime p with residue field size q = p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(_as_int(p, PadicError, "p")):
            raise PadicError(f"p = {p} is not prime")
        if p == 2:
            raise PadicError("p = 2 rejected: the workbench requires odd residue characteristic")
        _set(self, "p", p)

    def of(self, x) -> "PAdic":
        return PAdic(_as_fraction(x), self)


class PAdic(_Value):
    """A rational tagged with its prime: the argument of a valuation reader."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: Q, ctx: PrimeCtx):
        _set(self, "value", value)
        _set(self, "ctx", ctx)


_HALF = Q(1, 2)


class Mono(_Value):
    """The exact scalar rat * q**qexp * exp(2 pi i turn), for q the residue field size.

    rat is kept >= 0 (a sign is half a turn) and turn in [0, 1); zero is
    Mono(0, 0, 0).  psi-values are Mono(turn=t), Weil indices
    Mono(turn=k/8), Schwartz coefficients carry half-integer qexp and
    section values qexp = -v(s + 1/2).  q itself is the context's and is
    not stored.  Mono(...) coerces its fields and normalises the sign and
    the turn; the library's own products build their already normalised
    results with the trusted _mono instead.
    """

    __slots__ = ("rat", "qexp", "turn")

    def __init__(self, rat: Q = _ONE, qexp: Q = _ZERO, turn: Q = _ZERO):
        rat = _as_fraction(rat)
        if not rat:
            _set(self, "rat", _ZERO)
            _set(self, "qexp", _ZERO)
            _set(self, "turn", _ZERO)
            return
        turn = _as_fraction(turn)
        if rat < 0:
            rat, turn = -rat, turn + _HALF
        if not 0 <= turn < 1:
            turn -= turn.numerator // turn.denominator
        _set(self, "rat", rat)
        _set(self, "qexp", _as_fraction(qexp))
        _set(self, "turn", turn)

    @classmethod
    def one(cls) -> "Mono":
        return cls()

    @classmethod
    def zero(cls) -> "Mono":
        return cls(Q(0))

    def is_one(self) -> bool:
        return self.rat == 1 and not self.qexp and not self.turn

    def __mul__(self, other: "Mono") -> "Mono":
        # Mono(rat * rat', qexp + qexp', turn + turn'), each field one
        # Fraction built from integer parts, or a factor's own field when
        # the other's is 1 (rat) or 0 (qexp, turn)
        r, s = self.rat, other.rat
        rn, rd, sn, sd = r.numerator, r.denominator, s.numerator, s.denominator
        if not (rn and sn):
            return _mono(_ZERO, _ZERO, _ZERO)
        rat = s if rn == rd else r if sn == sd else Q(rn * sn, rd * sd)
        return _mono(rat, _qsum(self.qexp, other.qexp), _turn_sum(self.turn, other.turn))

    def inverse(self) -> "Mono":
        # Mono(1 / rat, -qexp, -turn), a field kept when it is its own inverse
        rat, e = self.rat, self.qexp
        n, d = rat.numerator, rat.denominator
        if not n:
            raise PadicError("0 has no inverse")
        return _mono(rat if n == d else Q(d, n), -e if e else e, _turn_neg(self.turn))

    def conjugate(self) -> "Mono":
        return _mono(self.rat, self.qexp, _turn_neg(self.turn))


def _mono(rat: Q, qexp: Q, turn: Q) -> Mono:
    """Mono(rat, qexp, turn) without the coercions: the trusted constructor.

    The caller guarantees what Mono.__init__ would establish: three
    Fraction fields, rat > 0 and 0 <= turn < 1, or three zeros.  Only
    padic, schwartz and chirp call it (a tier-1 lint keeps it so), on values
    their own arithmetic has already normalised.  The fields are set one
    by one, as __init__ does, into Mono's three slots: a Mono has no
    __dict__ at all (56 bytes, against 152 with a dict of its own).
    """
    m = _new(Mono)
    _set(m, "rat", rat)
    _set(m, "qexp", qexp)
    _set(m, "turn", turn)
    return m


def _qsum(x: Q, y: Q, wrap: bool = False) -> Q:
    """x + y, less 1 when wrap and the sum is at least 1: one Fraction
    Q(xn yd + yn xd, xd yd) from the integer parts, or x or y itself when
    the other is 0."""
    yn = y.numerator
    if not yn:
        return x
    xn = x.numerator
    if not xn:
        return y
    xd, yd = x.denominator, y.denominator
    n, d = xn * yd + yn * xd, xd * yd
    return Q(n - d if wrap and n >= d else n, d)


def _turn_sum(s: Q, t: Q) -> Q:
    """(s + t) % 1 for s and t in [0, 1)."""
    return _qsum(s, t, True)


def _turn_neg(t: Q) -> Q:
    """-t reduced into [0, 1), for t in [0, 1)."""
    n = t.numerator
    return Q(t.denominator - n, t.denominator) if n else t


@lru_cache(maxsize=64)
def _level(p: int, k: int):
    """(p^k, p^-k mod 8, 8^-1 mod p^k): the CRT constants of Q(zeta_(8 p^k))."""
    pk = p**k
    return pk, pow(pk, -1, 8), pow(8, -1, pk)


def _turn_split(num: int, den: int, p: int):
    """(j, a, k) with num/den = j/8 + a/p^k mod 1, by CRT; the rest of den must divide 8."""
    k, rest = _strip(den, p)
    if 8 % rest:
        raise PadicError(f"turn {Q(num, den)} has no place in Q(zeta_(8 p^k)) for p = {p}")
    pk, inv_pk, inv_8 = _level(p, k)
    u = num * (8 // rest)  # turn = u / (8 p^k)
    return u * inv_pk % 8, u * inv_8 % pk, k


@lru_cache(maxsize=16)
def _sqrt_row(p: int):
    """The Legendre symbols (r|p), r = 1 .. p - 1: the Gauss sum that is eps sqrt(p)."""
    return tuple(_legendre(r, p) for r in range(1, p))


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

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: tuple):
        _set(self, "p", p)
        _set(self, "terms", terms)

    __setattr__ = __delattr__ = _immutable
    __setstate__ = _restore
    __repr__ = _slots_repr

    @classmethod
    def of(cls, p: int, monos) -> "Cyclo":
        # each monomial as an integer coefficient num/den times
        # zeta_8^j zeta_(p^k)^a, times sqrt(p) when its q exponent is odd
        parts = []
        big, common = 1, 1
        for m in monos:
            rat = m.rat
            if not rat:
                continue
            qn, qd = m.qexp.numerator, m.qexp.denominator
            if qd > 2:
                raise PadicError("a q exponent is not a half-integer")
            e = qn if qd == 1 else qn // 2  # rat q^qexp = rat p^e, times sqrt(p) if qd == 2
            num, den = rat.numerator, rat.denominator
            if e >= 0:
                num *= p**e
            else:
                den *= p**-e
            j, a, k = _turn_split(m.turn.numerator, m.turn.denominator, p)
            parts.append((num, den, j, a, k, qd == 2))
            big = max(big, k)
            common = math.lcm(common, den)
        pk, step = p**big, p ** (big - 1)  # work in Q(zeta_(8 p^big)), over 1/common
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

        for num, den, j, a, k, half in parts:
            c = num * (common // den)
            a *= p ** (big - k)
            if not half:
                add(c, j, a)
                continue
            if p % 4 == 3:  # eps = i
                j = (j + 6) % 8
            for r, sign in enumerate(_sqrt_row(p), 1):
                add(sign * c, j, (a + r * step) % pk)
        # c zeta_8^j zeta_(p^big)^a is |c| e^(2 pi i t), t = (j' p^big + 8 a) / (8 p^big)
        # with j' = j, or j + 4 when c < 0
        whole = 8 * pk
        turns = sorted(
            (((j if c > 0 else j + 4) * pk + 8 * a) % whole, abs(c)) for (j, a), c in acc.items() if c
        )
        return cls(p, tuple(_mono(Q(c, common), _ZERO, Q(t, whole)) for t, c in turns))

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
    # b = a * twist, read off the integer parts (an tn) / (ad td)
    x, t = a.value, _as_fraction(twist)
    n = x.numerator * t.numerator
    if not n:
        raise PadicError("Weil index needs a nonzero scaling")
    p = a.ctx.p
    k, r = _unit_class(n, x.denominator * t.denominator, p)
    if k % 2 == 0:
        return _EIGHTH_ROOTS[0]
    root = 0 if p % 4 == 1 else 2
    return _EIGHTH_ROOTS[root if _legendre(r, p) == 1 else root + 4]


def mu_psi(a: PAdic, twist=1) -> Mono:
    """mu(a) = gamma(psi_twist) / gamma(psi_{twist*a})."""
    return weil_index(a.ctx.of(_ONE), twist) * weil_index(a, twist).inverse()


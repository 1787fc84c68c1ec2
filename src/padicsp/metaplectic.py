"""Double cover of SL2 over Q_p and its induced-section machinery.

An element of the cover is an SL2 matrix g, stored as a 2x2
chevalley.Mat, with a sheet sign, and the product multiplies the
matrices as Mats and the signs against Rao's cocycle

    c(g1, g2) = (x1, x2)(-x1 x2, x12),

where ( , ) is the Hilbert symbol and x1, x2, x12 are the lower-row
invariants of g1, g2 and g1 g2: x(g) is the (2,1) entry when it is
nonzero, else the (2,2) entry (Kubota, On automorphic functions and the
reciprocity law in a number field, 1969; Ranga Rao, Pacific J. Math.
157, 1993).  The symbols read only the valuation and the unit residue
mod p of each invariant, so every element keeps that pair for its own
x(g) and a product computes one new pair.  On top of the cover this
module builds multiplicative characters of Q_p^* with finite conductor
data, the cell decomposition of products lower(y)*upper(x), a compactly
supported family of induced-section functions indexed by a level i, and
the exact evaluation of the standard intertwining integral against that
family.

Values are exact Monos: a root of unity recorded as a turn fraction
times a power of q, and s is rational.  Nothing here collapses a value
to a complex number.
"""
from fractions import Fraction as Q
from functools import lru_cache

from .chevalley import Mat, _stored, symplectic_inverse
from .padic import (
    Mono,
    PadicError,
    PrimeCtx,
    _Value,
    _as_fraction,
    _as_instance,
    _as_int,
    _as_sign,
    _hilbert,
    _set,
    _unit_class,
    fraction_valuation,
    mu_psi,
)


class MetaError(PadicError):
    pass


def _rao_sign(x1, x2, x12, p: int) -> int:
    # Rao's (x1, x2)(-x1 x2, x12) on the (valuation, unit residue) pairs
    (v1, r1), (v2, r2), (v12, r12) = x1, x2, x12
    return _hilbert(v1, r1, v2, r2, p) * _hilbert(v1 + v2, -r1 * r2 % p, v12, r12, p)


def rao_cocycle(ctx: PrimeCtx, rows1, rows2) -> int:
    """Rao's cocycle c(g1, g2) = (x1, x2)(-x1 x2, x12) of two SL2 matrices.

    x1, x2 and x12 are the lower-row invariants x(g) of g1, g2 and
    g1 g2 (Kubota 1969; Ranga Rao, Pacific J. Math. 157, 1993): the
    sheet sign of the product of the two unit-sheet lifts.
    """
    return (MetaSL2(ctx, rows1) * MetaSL2(ctx, rows2)).zeta


class MetaSL2(_Value):
    """An element of the double cover: a 2x2 chevalley.Mat in SL2 plus a
    sheet sign.

    `mat` is the matrix, `zeta` the sheet sign and `ctx` the prime whose
    Hilbert symbols the product reads; `_x` holds the valuation and the
    unit residue mod p of the invariant x(g).
    """

    __slots__ = ("ctx", "mat", "zeta", "_x")

    def __init__(self, ctx: PrimeCtx, rows, zeta=1):
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise MetaError("need a 2x2 matrix")
        _as_instance(ctx, PrimeCtx, MetaError, "ctx")
        _store(self, ctx, Mat(rows), _as_sign(zeta, MetaError, "sheet sign"))

    # The generators build their integer rows num / den directly, already
    # in lowest terms with den > 0, as Mat(rows) would store them.

    @classmethod
    def identity(cls, ctx: PrimeCtx, zeta=1) -> "MetaSL2":
        return _generator(ctx, 1, ((1, 0), (0, 1)), zeta)

    @classmethod
    def upper(cls, ctx: PrimeCtx, b, zeta=1) -> "MetaSL2":
        b = _as_fraction(b)
        n, d = b.numerator, b.denominator
        return _generator(ctx, d, ((d, n), (0, d)), zeta)

    @classmethod
    def lower(cls, ctx: PrimeCtx, y, zeta=1) -> "MetaSL2":
        y = _as_fraction(y)
        n, d = y.numerator, y.denominator
        return _generator(ctx, d, ((d, 0), (n, d)), zeta)

    @classmethod
    def diag(cls, ctx: PrimeCtx, a, zeta=1) -> "MetaSL2":
        # diag(n/d, d/n) = ((n^2, 0), (0, d^2)) / (n d), in lowest terms
        # since gcd(n, d) = 1
        a = _as_fraction(a)
        if a == 0:
            raise MetaError("torus entry must be nonzero")
        n, d = a.numerator, a.denominator
        s = 1 if n > 0 else -1
        return _generator(ctx, s * n * d, ((s * n * n, 0), (0, s * d * d)), zeta)

    @classmethod
    def flip(cls, ctx: PrimeCtx, zeta=1) -> "MetaSL2":
        return _generator(ctx, 1, ((0, 1), (-1, 0)), zeta)

    def __repr__(self):
        return f"MetaSL2(ctx={self.ctx!r}, rows={self.rows!r}, zeta={self.zeta!r})"

    @property
    def rows(self) -> tuple:
        """The matrix entries as Fractions."""
        return self.mat.rows

    def __mul__(self, other: "MetaSL2") -> "MetaSL2":
        """One matrix product; the sheet sign is Rao's cocycle of the stored
        invariants of the factors and the product's own."""
        ctx = self.ctx
        if other.ctx != ctx:
            raise MetaError("mixed prime contexts")
        g = _store(object.__new__(MetaSL2), ctx, self.mat * other.mat, self.zeta * other.zeta)
        object.__setattr__(g, "zeta", g.zeta * _rao_sign(self._x, other._x, g._x, ctx.p))
        return g

    def inverse(self) -> "MetaSL2":
        """(g, zeta)^-1 = (g^-1, zeta c(g, g^-1)); x(1) = 1, so
        c(g, g^-1) = (x(g), x(g^-1)).  SL2 = Sp_2, so g^-1 is the
        symplectic inverse."""
        ctx = self.ctx
        g = _store(object.__new__(MetaSL2), ctx, symplectic_inverse(self.mat), self.zeta)
        (v1, r1), (v2, r2) = self._x, g._x
        object.__setattr__(g, "zeta", g.zeta * _hilbert(v1, r1, v2, r2, ctx.p))
        return g

    def is_identity(self) -> bool:
        return self.mat.is_identity() and self.zeta == 1


def _generator(ctx: PrimeCtx, den: int, num: tuple, zeta) -> MetaSL2:
    # a generator from integer rows num / den in lowest terms; its context
    # and sheet are checked here, once for every generator
    _as_instance(ctx, PrimeCtx, MetaError, "ctx")
    return _store(object.__new__(MetaSL2), ctx, _stored(den, num), _as_sign(zeta, MetaError, "sheet sign"))


def _store(g: MetaSL2, ctx: PrimeCtx, mat: Mat, zeta: int) -> MetaSL2:
    # the one det = 1 check, and x = (v, r) of x(g) read off the integer rows
    (a, b), (c, d) = mat.num
    den = mat.den
    if a * d - b * c != den * den:
        raise MetaError("matrix is not in SL2")
    object.__setattr__(g, "ctx", ctx)
    object.__setattr__(g, "mat", mat)
    object.__setattr__(g, "zeta", zeta)
    object.__setattr__(g, "_x", _unit_class(c or d, den, ctx.p))
    return g


def decompose_big_cell(y, x):
    """Split lower(y)*upper(x) as a Borel part times lower(ybar).

    Returns the rationals (a, b, ybar) with lower(y)*upper(x) equal to
    the matrix ((a, b), (0, 1/a)) times lower(ybar).  The relations
    a = 1 - x*ybar and a*y = ybar pin the answer; the product leaves the
    decomposable cell exactly when 1 + x*y = 0.
    """
    y, x = _as_fraction(y), _as_fraction(x)
    d = 1 + x * y
    if d == 0:
        raise MetaError("product lies outside the decomposable cell")
    a = 1 / d
    ybar = y / d
    if a != 1 - x * ybar or a * y != ybar:
        raise MetaError("big-cell relations fail")
    return a, x, ybar


# ----------------------------------------------------------- characters

@lru_cache(maxsize=None)
def _unit_group_table(p: int, c: int):
    """(generator, dlog table) for the units of the residue ring mod p^c."""
    mod = p**c
    order = (p - 1) * p ** (c - 1)
    for g in range(2, mod):
        if g % p == 0:
            continue
        seen = {}
        acc = 1
        for e in range(order):
            seen[acc] = e
            acc = acc * g % mod
        if len(seen) == order and acc == 1:
            return g, seen
    raise MetaError(f"no cyclic generator mod {p}^{c}")


class CharacterFx(_Value):
    """A multiplicative character of Q_p^* with finite conductor data.

    unit_phase is the turn fraction assigned to the canonical generator
    of the residue units at the stated conductor depth, varpi_phase the
    turn fraction at the uniformizer.  Conductor 0 means trivial on all
    units.  The stated conductor must be exact, not just an upper bound.
    """

    __slots__ = ("ctx", "conductor", "unit_phase", "varpi_phase")

    def __init__(self, ctx: PrimeCtx, conductor: int, unit_phase: Q = Q(0), varpi_phase: Q = Q(0)):
        _set(self, "ctx", _as_instance(ctx, PrimeCtx, MetaError, "ctx"))
        _set(self, "conductor", _as_int(conductor, MetaError, "conductor", 0))
        _set(self, "unit_phase", _as_fraction(unit_phase) % 1)
        _set(self, "varpi_phase", _as_fraction(varpi_phase) % 1)
        if conductor == 0:
            if self.unit_phase != 0:
                raise MetaError("conductor 0 forces trivial unit values")
            return
        p = ctx.p
        order = (p - 1) * p ** (conductor - 1)
        if (self.unit_phase * order) % 1 != 0:
            raise MetaError("unit phase must be a multiple of 1/#units")
        if conductor == 1:
            if self.unit_phase == 0:
                raise MetaError("conductor 1 needs a nontrivial unit phase")
        else:
            probe = 1 + p ** (conductor - 1)
            if self._unit_turn(Q(probe)) == 0:
                raise MetaError("character is trivial one level down; conductor overstated")

    def _unit_turn(self, u: Q) -> Q:
        if self.conductor == 0:
            return Q(0)
        p = self.ctx.p
        mod = p**self.conductor
        _, table = _unit_group_table(p, self.conductor)
        res = (u.numerator * pow(u.denominator, -1, mod)) % mod
        return (self.unit_phase * table[res]) % 1

    def phase(self, a) -> Q:
        """Turn fraction of the character value at a nonzero argument."""
        a = _as_fraction(a)
        if a == 0:
            raise MetaError("character evaluated at 0")
        v = fraction_valuation(a, self.ctx.p)
        u = a / Q(self.ctx.p) ** v
        return (self._unit_turn(u) + v * self.varpi_phase) % 1

    def value(self, a) -> Mono:
        return Mono(turn=self.phase(a))


def ramified_character(ctx: PrimeCtx, conductor: int, turns: int = 1, varpi_phase=Q(0)) -> CharacterFx:
    """Character of exact conductor c >= 1 sending the canonical residue
    unit generator to turns/#units of a full turn."""
    _as_instance(ctx, PrimeCtx, MetaError, "ctx")
    _as_int(conductor, MetaError, "conductor", 1)
    order = (ctx.p - 1) * ctx.p ** (conductor - 1)
    return CharacterFx(ctx, conductor, Q(_as_int(turns, MetaError, "turns"), order), varpi_phase)


# ------------------------------------------------------------- sections

class SectionFsi(_Value):
    """Level-i member of the compactly-induced family of sections.

    Supported on products (Borel part)*lower(x) with x in P^{3i}; the
    value there is the sheet sign times the inverse normalizing eighth
    root at the torus entry times eta(a)|a|^{s+1/2}.
    """

    __slots__ = ("i", "eta", "s")

    def __init__(self, i: int, eta: CharacterFx, s: Q = Q(1, 2)):
        try:
            s = _as_fraction(s)
        except PadicError as exc:
            raise MetaError(f"s = {s!r} is not rational") from exc
        _set(self, "i", _as_int(i, MetaError, "level", 1))
        _set(self, "eta", _as_instance(eta, CharacterFx, MetaError, "eta"))
        _set(self, "s", s)

    @property
    def ctx(self) -> PrimeCtx:
        return self.eta.ctx


def _eval_fsi_raw(sec: SectionFsi, g: MetaSL2) -> Mono:
    # the lower row is (c, dn) / den: d = dn / den, a = 1 / d and x = c / dn
    ctx, p = g.ctx, g.ctx.p
    c, dn = g.mat.num[1]
    if dn == 0:
        return Mono.zero()
    x_lower = _unit_class(c, dn, p) if c else (0, 1)
    if c and x_lower[0] < 3 * sec.i:
        return Mono.zero()
    # the defining factorization lives in the cover: peeling the lower
    # factor off (g, zeta) flips the sheet by the cocycle of the pair
    # (borel, lower(x)), whose invariants are d, x (1 when x = 0) and x(g)
    x_d = _unit_class(dn, g.mat.den, p)
    peel = _rao_sign(x_d, x_lower, g._x, p)
    a = Q(g.mat.den, dn)
    root = mu_psi(ctx.of(a), twist=-1).inverse() * sec.eta.value(a)
    return root * Mono(g.zeta * peel, x_d[0] * (sec.s + Q(1, 2)))


def eval_fsi_exact(sec: SectionFsi, g: MetaSL2) -> Mono:
    """Evaluate the level-i section at a cover element, symbolically.

    The level must clear section_level(eta), below which the
    right-invariance that makes the family useful is not yet there.
    """
    if sec.eta.ctx != g.ctx:
        raise MetaError("mixed prime contexts")
    if sec.i < section_level(sec.eta):
        raise MetaError("level below the section threshold for this character")
    return _eval_fsi_raw(sec, g)


def section_level(eta: CharacterFx) -> int:
    """Smallest level i whose section is right-invariant under the
    depth-4i congruence subgroup: max(1, ceil(c/4)) for conductor c.

    Right translation by diag(1 + p^{4i}) multiplies the section by
    eta(1 + p^{4i}), and for odd p that element generates
    (1 + P^{4i})/(1 + P^c), so invariance holds exactly when 4i >= c.
    """
    return max(1, -(-eta.conductor // 4))


def _bound_exponent(p: int, x_bound) -> int:
    """Smallest M >= 0 with p^M >= x_bound, so the compact set
    {|x| <= x_bound} sits inside P^{-M}."""
    b = _as_fraction(x_bound)
    if b <= 0:
        raise MetaError("the bound on |x| must be positive")
    m = 0
    while Q(p) ** m < b:
        m += 1
    return m


def intertwine_level(eta: CharacterFx, x_bound) -> int:
    """Level needed for the intertwining integral to stabilize on the
    whole compact set {upper(x): |x| <= x_bound}."""
    m = _bound_exponent(eta.ctx.p, x_bound)
    need = max(eta.conductor, 1) + m
    return max(section_level(eta), -(need // -3))


def intertwine_eval_exact(sec: SectionFsi, x, x_bound) -> Mono:
    """The standard intertwining integral of the level-i section at
    flip*upper(x), computed exactly.

    The integrand at b is the section at lower(-b)*upper(x).  The cell
    decomposition pushes the support onto the ball P^{3i} through the
    substitution b = -z/(1 - z*x), which preserves valuations once
    3i + v(x) >= 1; on the support the torus entry lands in a ball where
    the character and the normalizing root are both trivial, so the
    integral collapses to the volume q^{-3i} exactly.  The two gates give
    that depth: |x| <= x_bound <= p^M puts v(x) >= -M, and
    i >= intertwine_level puts 3i >= max(c, 1) + M, so
    3i + v(x) >= max(c, 1) >= 1.  The intertwining-volume check samples
    the integrand on the support.
    """
    ctx = sec.ctx
    x = _as_fraction(x)
    if x != 0 and Q(ctx.p) ** (-fraction_valuation(x, ctx.p)) > _as_fraction(x_bound):
        raise MetaError("point lies outside the stated compact set")
    if sec.i < intertwine_level(sec.eta, x_bound):
        raise MetaError(
            "support detection failed to stabilize somewhere on the compact set"
        )
    return Mono(1, -3 * sec.i)

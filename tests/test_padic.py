"""Tests for exact p-adic arithmetic, characters, and Weil indices.

Oracles first: an enumerative solvability search for the Hilbert symbol
and a floating-point quadratic Gauss sum for the Weil index.  Frozen
tables below were produced by those oracles.
"""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicsp.padic import (
    INF,
    Cyclo,
    Mono,
    PadicError,
    PrimeCtx,
    _as_fraction,
    _pfrac,
    _strip,
    _unit_class,
    fraction_valuation,
    hilbert_symbol,
    is_square,
    mu_psi,
    psi,
    weil_index,
)
from padicsp import quadext
from padicsp.metaplectic import decompose_big_cell
from padicsp.quadext import QuadExt, norm_one_decompose
from padicsp.schwartz import SchwartzFn

Q = Fraction


def mu8(k):
    """The eighth root of unity exp(2 pi i k/8)."""
    return Mono(turn=Q(k, 8))


# ---------------------------------------------------------------- oracles

def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ValueError("unit expected")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for u in range(2, p):
        if legendre(u, p) == -1:
            return u
    raise AssertionError


def oracle_hilbert_solvable(a: int, b: int, p: int) -> int:
    """Brute search for a primitive zero of z^2 - a x^2 - b y^2 mod p^3.

    For odd p and square-class representatives (valuations 0 or 1) a
    primitive solution mod p^3 has a coordinate where the gradient has
    valuation <= 1, so it lifts to Q_p; conversely a p-adic solution
    reduces.  Primitivity forces z to be a unit when x and y are not.
    """
    mod = p**3
    squares = {(z * z) % mod for z in range(mod)}
    unit_squares = {(z * z) % mod for z in range(mod) if z % p}
    ax2 = [(a * x * x) % mod for x in range(mod)]
    by2 = [(b * y * y) % mod for y in range(mod)]
    for x in range(mod):
        x_unit = x % p != 0
        row = ax2[x]
        for y in range(mod):
            t = (row + by2[y]) % mod
            if x_unit or y % p:
                if t in squares:
                    return 1
            elif t in unit_squares:
                return 1
    return -1


def oracle_weil_gauss_sum(b: Q, p: int) -> Mono:
    """gamma(psi_b) as the normalized quadratic Gauss sum, in floats.

    b is first shifted by an even power of p (gamma only sees the square
    class) so that b = r / p^e with r a unit and e in {2, 3}; the sum of
    exp(2 pi i r x^2 / p^e) over x mod p^e is then a positive multiple
    of gamma, which is matched to an eighth root of unity.
    """
    v = 0
    num, den = b.numerator, b.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    e = 2 if v % 2 == 0 else 3
    mod = p**e
    r = num * pow(den, -1, mod) % mod
    total = sum(cmath.exp(2j * cmath.pi * (r * x * x % mod) / mod) for x in range(mod))
    w = total / abs(total)
    for k in range(8):
        if abs(w - cmath.exp(2j * cmath.pi * k / 8)) < 1e-9:
            return mu8(k)
    raise AssertionError(f"Gauss sum {total} for b={b}, p={p} is not an eighth root")


def oracle_is_square(x: Q, p: int) -> bool:
    """x = p^v u, u a unit, is a square in Q_p exactly when v is even and
    u = y^2 mod p^3 for some y, found by search.  For odd p a unit that
    is a square mod p lifts by Hensel, so p^3 is more than enough."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    mod = p**3
    u = num * pow(den, -1, mod) % mod
    return v % 2 == 0 and any(y * y % mod == u for y in range(mod))


# Square-class Hilbert table for p = 3, reps [1, 2, 3, 6], frozen from
# oracle_hilbert_solvable.
HILBERT_TABLE_P3 = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 6): 1,
    (2, 1): 1, (2, 2): 1, (2, 3): -1, (2, 6): -1,
    (3, 1): 1, (3, 2): -1, (3, 3): -1, (3, 6): 1,
    (6, 1): 1, (6, 2): -1, (6, 3): 1, (6, 6): -1,
}


# ------------------------------------------------------------- strategies

def rationals(p: int, max_mag: int = 400, max_exp: int = 5):
    units = st.integers(1, max_mag).filter(lambda n: n % p)
    return st.builds(
        lambda s, n, d, k: Q(s * n, d) * Q(p) ** k,
        st.sampled_from([1, -1]),
        units,
        units,
        st.integers(-max_exp, max_exp),
    )


def any_rationals(max_mag: int = 400):
    return st.builds(
        lambda n, d: Q(n, d),
        st.integers(-max_mag, max_mag),
        st.integers(1, max_mag),
    )


C3 = PrimeCtx(3)
C5 = PrimeCtx(5)
C7 = PrimeCtx(7)


# ------------------------------------------------------- context and psi

def test_prime_ctx_rejects_bad_primes():
    with pytest.raises(PadicError):
        PrimeCtx(2)
    with pytest.raises(PadicError):
        PrimeCtx(9)


def test_valuation_basics():
    assert fraction_valuation(Q(18, 5), 3) == 2
    assert fraction_valuation(Q(5, 27), 3) == -3
    assert fraction_valuation(Q(0), 3) is INF
    assert _unit_class(7, 1, 3)[0] == 0
    # 18/5 = 3^2 * (2/5), and 2/5 = 1 mod 3
    assert _unit_class(18, 5, 3) == (2, 1)
    assert _unit_class(5, 27, 3) == (-3, 2)
    assert _strip(7, 3) == (0, 7)
    assert _strip(-54, 3) == (3, -2)
    assert _strip(5**4 * 11, 5) == (4, 11)
    x = Q(2, 9)
    assert _as_fraction(x) is x and type(_as_fraction(-4)) is Q


@given(any_rationals())
def test_pfrac_is_the_p_part(x):
    p = 3
    lam = _pfrac(x, p)
    assert 0 <= lam < 1
    den = lam.denominator
    while den % p == 0:
        den //= p
    assert den == 1
    # x - lam lies in the local integer ring
    assert fraction_valuation(x - lam, p) >= 0 or x == lam


@given(any_rationals(), any_rationals())
def test_psi_is_additive(x, y):
    ctx = C5
    assert psi(ctx.of(x + y)) == psi(ctx.of(x)) * psi(ctx.of(y))


@given(rationals(3))
def test_psi_trivial_exactly_on_integers(x):
    val = psi(C3.of(x))
    assert val.is_one() == (fraction_valuation(x, 3) >= 0)


def test_psi_conductor_sharp():
    # trivial on O, nontrivial on P^{-1}
    for p, ctx in ((3, C3), (5, C5), (7, C7)):
        assert psi(ctx.of(1)).is_one()
        assert psi(ctx.of(Q(1, p) * p)).is_one()
        assert not psi(ctx.of(Q(1, p))).is_one()
        assert psi(ctx.of(Q(1, p))).as_complex(p) == pytest.approx(
            complex(math.cos(2 * math.pi / p), math.sin(2 * math.pi / p))
        )


def test_phase_rejects_non_p_power_denominator():
    # a turn must live in Q(zeta_(8 p^k)) to be summed exactly
    with pytest.raises(PadicError):
        Cyclo.of(3, [Mono(turn=Q(1, 5))])
    assert Mono(turn=Q(4, 3)).turn == Q(1, 3)


def test_mu8_arithmetic():
    i = mu8(2)
    assert i * i == mu8(4)
    assert (i * i * i * i) == Mono.one()


# ------------------------------------------------------ the exact scalar

def test_mono_normal_form_and_algebra():
    c = Mono(Q(-3, 2), Q(1, 2), Q(1, 8))
    assert (c.rat, c.qexp, c.turn) == (Q(3, 2), Q(1, 2), Q(5, 8))
    assert abs(c.as_complex(3) - (-1.5) * 3 ** 0.5 * cmath.exp(2j * cmath.pi / 8)) < 1e-12
    assert Mono(Q(0), 5, Q(1, 3)) == Mono.zero() and Mono.zero().is_zero()
    assert c * c.inverse() == Mono.one() and (c * c.inverse()).is_one()
    assert c * c.conjugate() == Mono(Q(9, 4), 1)
    assert Mono(-1) * Mono(-1) == Mono.one()
    with pytest.raises(PadicError):
        Mono(0.5)
    with pytest.raises(PadicError):
        Mono.zero().inverse()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cyclo_gauss_sum_and_cyclotomic_relations_are_zero(p):
    # sum_a (a|p) zeta_p^a = eps sqrt(p), eps = 1 or i as p = 1 or 3 mod 4
    eps = Mono() if p % 4 == 1 else mu8(2)
    gauss = [Mono(legendre(a, p), 0, Q(a, p)) for a in range(1, p)]
    assert Cyclo.of(p, gauss + [Mono(-1, Q(1, 2)) * eps]).is_zero()
    # a whole p-th roots orbit through zeta_(p^2) sums to zero
    orbit = [Mono(1, 0, Q(a, p) + Q(1, p * p)) for a in range(p)]
    assert Cyclo.of(p, orbit).is_zero()
    # sqrt(p)^2 = p, and a lone root of unity is not zero
    assert Cyclo.of(p, [Mono(1, 1), Mono(-p)]).is_zero()
    assert not Cyclo.of(p, [Mono(1, Q(1, 2), Q(3, p * p))]).is_zero()
    # the form does not depend on the level the turns were written at
    assert Cyclo.of(p, [Mono(turn=Q(p - 1, p))]) == Cyclo.of(p, [Mono(turn=Q(p * (p - 1), p * p))])


def _random_cyclo_sum(rng, p):
    """Monomials plus, half the time, an exact relation that sums to zero."""
    def mono():
        return Mono(
            Q(rng.randint(-3, 3), rng.randint(1, 2)),
            Q(rng.randint(-2, 2), 2),
            Q(rng.randrange(8), 8) + Q(rng.randrange(p * p), p * p),
        )

    monos = [mono() for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        c = mono()
        eps = Mono() if p % 4 == 1 else mu8(2)
        relation = rng.choice([
            [Mono(legendre(a, p), 0, Q(a, p)) for a in range(1, p)] + [Mono(-1, Q(1, 2)) * eps],
            [Mono(1, 0, Q(a, p) + Q(rng.randrange(p), p * p)) for a in range(p)],
            [mu8(k) for k in (0, 4)],
            [Mono(1, 1), Mono(-p)],
        ])
        monos += [c * m for m in relation]
    if rng.random() < 0.3:
        monos += [m * Mono(-1) for m in monos]  # cancel everything so far
    rng.shuffle(monos)
    return monos


def test_cyclo_zero_verdicts_match_the_complex_embedding():
    rng = random.Random(20260418)
    zeros = 0
    for trial in range(2400):
        p = (3, 5, 7, 11, 13)[trial % 5]
        monos = _random_cyclo_sum(rng, p)
        exact = Cyclo.of(p, monos)
        approx = sum((m.as_complex(p) for m in monos), 0j)
        assert exact.is_zero() == (abs(approx) < 1e-9), (p, monos)
        assert abs(exact.as_complex() - approx) < 1e-9
        zeros += exact.is_zero()
    assert 400 < zeros < 2000  # both verdicts are well represented


def test_cyclo_rational_view_and_equality():
    s = Cyclo.of(3, [Mono(2), Mono(turn=Q(1, 8)), Mono(turn=Q(-1, 8))])
    assert s.rational() is None and s != 2
    assert abs(s.as_complex() - (2 + 2 ** 0.5)) < 1e-12
    assert Cyclo.of(5, [Mono(3, 1), Mono(turn=Q(1, 2))]) == 14
    assert Cyclo.of(5, []) == 0 and not Cyclo.of(5, [])
    assert hash(Cyclo.of(5, [Mono(Q(1, 2))])) == hash(Q(1, 2))
    with pytest.raises(PadicError):
        Cyclo.of(3, [Mono(1, Q(1, 3))])


# --------------------------------------------------------- Hilbert symbol

def test_hilbert_formula_matches_frozen_table():
    for (a, b), expected in HILBERT_TABLE_P3.items():
        assert hilbert_symbol(C3.of(a), C3.of(b)) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hilbert_formula_matches_solvability_oracle(p):
    """The 16 square-class pairs, and the same classes scaled by squares
    c^2 whose numerators and denominators carry p and other primes."""
    ctx = PrimeCtx(p)
    u = smallest_nonresidue(p)
    reps = [1, u, p, u * p]
    scales = [Q(1), Q(2, p), Q(3 * p, 7), Q(-5, 2 * p**2), Q(p**3, 11)]
    for a in reps:
        for b in reps:
            expected = oracle_hilbert_solvable(a, b, p)
            for c in scales:
                for d in scales:
                    got = hilbert_symbol(ctx.of(a * c * c), ctx.of(b * d * d))
                    assert got == expected, (a, b, c, d, p)


@given(rationals(5), rationals(5), rationals(5))
def test_hilbert_bimultiplicative(a, b, c):
    ha = hilbert_symbol(C5.of(a), C5.of(b * c))
    assert ha == hilbert_symbol(C5.of(a), C5.of(b)) * hilbert_symbol(C5.of(a), C5.of(c))


@given(rationals(3), rationals(3))
def test_hilbert_symmetric(a, b):
    assert hilbert_symbol(C3.of(a), C3.of(b)) == hilbert_symbol(C3.of(b), C3.of(a))


@given(rationals(7))
def test_hilbert_steinberg(a):
    assert hilbert_symbol(C7.of(a), C7.of(-a)) == 1
    if a != 1:
        assert hilbert_symbol(C7.of(a), C7.of(1 - a)) == 1


@given(rationals(5))
def test_hilbert_detects_norms_from_squares(a):
    assert hilbert_symbol(C5.of(a * a), C5.of(Q(7, 2))) == 1


# ------------------------------------------------------------ Weil index

def test_weil_index_frozen_values():
    assert weil_index(C3.of(1)) == Mono.one()
    # classical g(27) = i sqrt(27)
    assert weil_index(C3.of(3)) == mu8(2)
    assert weil_index(C5.of(5)) == mu8(0)  # p = 1 mod 4, unit part square
    assert weil_index(C5.of(10)) == mu8(4)  # 2 is a nonresidue mod 5
    assert weil_index(C7.of(7)) == mu8(2)
    assert weil_index(C7.of(21)) == mu8(6)  # 3 nonresidue, times i


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_weil_index_matches_closed_form(p):
    ctx = PrimeCtx(p)
    u = smallest_nonresidue(p)
    for cls in (1, u, p, u * p):
        for k in range(-4, 4):
            a = Q(cls) * Q(p) ** k
            for twist in (1, -1):
                got = weil_index(ctx.of(a), twist=twist)
                assert got == oracle_weil_gauss_sum(twist * a, p), (a, twist, p)


@given(rationals(3, max_mag=60, max_exp=3))
@settings(max_examples=40, deadline=None)
def test_weil_index_matches_closed_form_random(a):
    assert weil_index(C3.of(a)) == oracle_weil_gauss_sum(a, 3)


def test_weil_index_square_scaling_invariance():
    # gamma(psi_{t^2 a}) = gamma(psi_a)
    for ctx in (C3, C5):
        for a in (2, 3, Q(5, 7)):
            for t in (2, Q(1, 3), 6):
                assert weil_index(ctx.of(Q(t) * Q(t) * Q(a))) == weil_index(ctx.of(a))


def test_weil_index_twist_argument():
    assert weil_index(C3.of(1), twist=3) == weil_index(C3.of(3))
    assert weil_index(C3.of(3), twist=-1) == weil_index(C3.of(-3))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mu_trivial_on_units(p):
    ctx = PrimeCtx(p)
    for a in range(1, p * p):
        if a % p:
            assert mu_psi(ctx.of(a)) == Mono.one()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mu_cocycle_is_hilbert_symbol(p):
    # mu(a) mu(b) = mu(ab) (a,b)
    ctx = PrimeCtx(p)
    u = smallest_nonresidue(p)
    reps = [Q(1), Q(u), Q(p), Q(u * p), Q(1, p), Q(u, p)]
    for a in reps:
        for b in reps:
            lhs = mu_psi(ctx.of(a)) * mu_psi(ctx.of(b))
            h = hilbert_symbol(ctx.of(a), ctx.of(b))
            rhs = mu_psi(ctx.of(a * b)) * (mu8(0) if h == 1 else mu8(4))
            assert lhs == rhs, (a, b, p)


def test_mu_with_negative_twist():
    # the metaplectic normalization uses the psi-inverse index
    for ctx in (C3, C5):
        for a in (2, 3, Q(1, 3), 15):
            expected = weil_index(ctx.of(-1)) * weil_index(ctx.of(-a)).inverse()
            assert mu_psi(ctx.of(a), twist=-1) == expected


def test_mu_frozen():
    assert mu_psi(C3.of(4)) == Mono.one()
    assert mu_psi(C3.of(3)) == mu8(-2)
    assert mu_psi(C5.of(10)) == mu8(4)


# -------------------------------------------------- quadratic extensions

EXTS = [
    QuadExt(C3, Q(2)),   # unramified
    QuadExt(C5, Q(2)),   # unramified
    QuadExt(C3, Q(3)),   # ramified
]


def test_quadext_rejects_squares():
    with pytest.raises(PadicError):
        QuadExt(C3, Q(4))
    with pytest.raises(PadicError):
        QuadExt(C7, Q(2))  # 2 = 3^2 mod 7
    assert QuadExt(C3, Q(3)).ramified
    assert not QuadExt(C3, Q(2)).ramified


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_is_square_matches_search_oracle(p):
    """The four square classes and their negatives, scaled by squares c^2
    whose numerators and denominators carry p and other primes; QuadExt
    rejects exactly the square values of d."""
    ctx = PrimeCtx(p)
    u = smallest_nonresidue(p)
    scales = [Q(1), Q(2, p), Q(3 * p, 7), Q(-5, 2 * p**2), Q(p**3, 11)]
    verdicts = set()
    for r in (1, u, p, u * p):
        for sign in (1, -1):
            for c in scales:
                x = sign * r * c * c
                square = oracle_is_square(x, p)
                assert is_square(ctx.of(x)) == square, (x, p)
                if square:
                    with pytest.raises(PadicError, match="is a square"):
                        QuadExt(ctx, x)
                else:
                    assert QuadExt(ctx, x).d == x
                verdicts.add(square)
    assert verdicts == {True, False}
    assert is_square(ctx.of(0))


def test_quadext_takes_exact_rationals_only():
    """d, the coordinates and a lifted operand all pass through _as_fraction."""
    E = EXTS[0]
    builds = (
        lambda: QuadExt(C3, 2.0),
        lambda: E.elem(0.1),
        lambda: E.elem("1/2"),
        lambda: E.elem(1, 0.5),
        lambda: E.one() + 0.5,
        lambda: E.chart(0.5),
    )
    for build in builds:
        with pytest.raises(PadicError, match="exact rational"):
            build()


def test_chart_is_the_cayley_point_of_the_norm_conic():
    """chart(s) = (1 + s sqrt(d)) / (1 - s sqrt(d)), of norm 1, for s across valuations."""
    for E in EXTS:
        root = E.gen()
        for s in (Q(0), Q(1), Q(-2, 5), Q(E.ctx.p), Q(7, E.ctx.p**2)):
            point = E.chart(s)
            assert point == (1 + s * root) / (1 - s * root)
            assert point.norm() == 1


def test_quadext_arithmetic():
    E = EXTS[0]
    x = E.elem(Q(1, 3), 2)
    y = E.elem(4, Q(-1, 2))
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x * y) / y == x
    assert x * x.conjugate() == E.elem(x.norm())
    assert (x + y).trace() == x.trace() + y.trace()


def sample_elem(E, rng, spread=3):
    p = E.ctx.p
    def rat():
        return Q(rng.randrange(-40, 41), rng.randrange(1, 12)) * Q(p) ** rng.randrange(-spread, spread + 1)
    return E.elem(rat(), rat())


@pytest.mark.parametrize("E", EXTS, ids=["unram3", "unram5", "ram3"])
def test_base_valuation_is_half_norm_valuation(E):
    rng = random.Random(11 * E.ctx.p + int(E.d))
    p = E.ctx.p
    for _ in range(200):
        x = sample_elem(E, rng)
        if x == 0:
            continue
        v = x.base_valuation()
        assert v == Q(fraction_valuation(x.norm(), p), 2)


@pytest.mark.parametrize("E", EXTS, ids=["unram3", "unram5", "ram3"])
def test_norm_is_multiplicative(E):
    rng = random.Random(5 + E.ctx.p)
    for _ in range(60):
        x, y = sample_elem(E, rng), sample_elem(E, rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def norm_one_samples(E, m, count, seed):
    """Units whose norm lies in 1 + P^m, built from conic points."""
    rng = random.Random(seed)
    p = E.ctx.p
    one = E.one()
    out = [one, E.elem(-1), E.elem(1 + Q(p) ** m), E.elem(1, Q(p) ** (2 * m))]
    while len(out) < count:
        e0 = E.chart(Q(rng.randrange(-30, 31), rng.randrange(1, 9)) * Q(p) ** rng.randrange(-2, 3))
        w = sample_elem(E, rng, spread=1)
        if w.base_valuation() is not INF and w.base_valuation() < 0:
            continue
        x = e0 * (one + E.elem(Q(p) ** m) * w)
        out.append(x)
    return out[:count]


# the three classes of nonsquare d (a unit, p, a unit times p) up to
# p = 13, and d = 18 = 2 * 3^2, where a unit may have b of valuation -1
SPLIT_EXTS = EXTS + [
    QuadExt(C7, Q(3)),
    QuadExt(PrimeCtx(11), Q(22)),
    QuadExt(PrimeCtx(13), Q(2)),
    QuadExt(PrimeCtx(13), Q(13)),
    QuadExt(C3, Q(18)),
]


@pytest.mark.parametrize(
    "E", SPLIT_EXTS, ids=["unram3", "unram5", "ram3", "unram7", "ram11", "unram13", "ram13", "unram3sq"]
)
@pytest.mark.parametrize("m", [1, 2])
def test_norm_one_decompose(E, m):
    """x and -x for each sample: both chart signs, and x already in 1 + P^m."""
    p = E.ctx.p
    signs, principal = set(), 0
    for x in norm_one_samples(E, m, 40, seed=1000 * p + m):
        for y in (x, -x):
            e, u = norm_one_decompose(y, m)
            assert e.norm() == 1
            assert e * u == y
            assert (u - E.one()).base_valuation() >= m
            signs.add(1 if fraction_valuation(1 + y.a, p) == 0 else -1)
            principal += (y - E.one()).base_valuation() >= m
    assert signs == {1, -1} and principal >= 3


def test_norm_one_decompose_rejects_bad_norm():
    E = EXTS[0]
    with pytest.raises(PadicError):
        norm_one_decompose(E.elem(2, 1), 1)  # norm 4 - 2 = 2, not 1 mod 3


def test_norm_one_decompose_unit_guard_raises(monkeypatch):
    """A wrong chart sign gives an exact norm-one e off x; the level check must say so."""
    real = quadext._chart_sign
    monkeypatch.setattr(quadext, "_chart_sign", lambda a, p: -real(a, p))
    with pytest.raises(PadicError, match="principal-unit factor"):
        norm_one_decompose(EXTS[0].elem(-4), 1)  # 1 + a = -3 is not a unit


# --------------------------------------------------------- tagged values

def test_a_tagged_value_is_not_a_rational():
    """ctx.of(x) is the argument of a valuation reader and nothing else."""
    x = C3.of(Q(2, 3))
    assert (x.value, x.ctx) == (Q(2, 3), C3)
    assert x == C3.of(Q(2, 3)) and x != C5.of(Q(2, 3)) and x != Q(2, 3)
    for use in (
        _as_fraction,
        lambda t: SchwartzFn.indicator(C3).value_at(t),
        lambda t: decompose_big_cell(t, 0),
    ):
        with pytest.raises(PadicError, match="exact rational"):
            use(x)

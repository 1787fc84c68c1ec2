"""Double cover, characters, sections, and the intertwining integral.

Oracles come first: plain tuple matrix products, a brute-force residue
character table, a right-invariance battery for the section level, and
an exhaustive Riemann sum for the integral over a box that contains the
support.  Frozen values follow, then seeded
property batteries.
"""
import cmath
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Q

import pytest

from test_padic import embed, legendre, oracle_hilbert_solvable, smallest_nonresidue

import padicsp
from padicsp import metaplectic
from padicsp.chevalley import Mat, symplectic_inverse
from padicsp.padic import Mono, PadicError, PrimeCtx, _unit_class, fraction_valuation, hilbert_symbol, mu_psi
from padicsp.metaplectic import (
    CharacterFx,
    MetaError,
    MetaSL2,
    SectionFsi,
    _eval_fsi_raw,
    decompose_big_cell,
    eval_fsi_exact,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
    rao_cocycle,
    section_level,
)
from padicsp.harness import CheckFailure, build_config
from padicsp.harness.cover_checks import check_intertwining_volume

C3 = PrimeCtx(3)
C5 = PrimeCtx(5)
C7 = PrimeCtx(7)
C11 = PrimeCtx(11)
C13 = PrimeCtx(13)


# ------------------------------------------------------------- oracles

def oracle_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


_ORACLE_HILBERT = {}


def oracle_hilbert(a, b, p):
    """(a, b) over Q_p by the solvability search, on the square-class
    representatives 1, u, p, u p (u the least non-residue) of a and b."""
    if p not in _ORACLE_HILBERT:
        u = smallest_nonresidue(p)
        reps = [1, u, p, u * p]
        _ORACLE_HILBERT[p] = {(r, s): oracle_hilbert_solvable(r, s, p) for r in reps for s in reps}

    def rep(x):
        v = fraction_valuation(x, p)
        w = x / Q(p) ** v
        unit = smallest_nonresidue(p) if legendre(w.numerator * pow(w.denominator, -1, p), p) == -1 else 1
        return unit * p ** (v % 2)

    return _ORACLE_HILBERT[p][rep(Q(a)), rep(Q(b))]


def oracle_rao_cocycle(g1, g2, p):
    """The three-matrix formula: x read off g1, g2 and their product,
    then (x1, x2)(-x1 x2, x12)."""

    def x(g):
        return g[1][0] if g[1][0] != 0 else g[1][1]

    x1, x2, x12 = x(g1), x(g2), x(oracle_mul(g1, g2))
    return oracle_hilbert(x1, x2, p) * oracle_hilbert(-x1 * x2, x12, p)


def oracle_unit_characters(p, c):
    """All characters of (Z/p^c)^* as dlog dictionaries, brute force."""
    mod = p**c
    units = [u for u in range(1, mod) if u % p != 0]
    order = len(units)
    for g in units:
        acc, seen = 1, {}
        for e in range(order):
            seen[acc] = e
            acc = acc * g % mod
        if len(seen) == order:
            return g, order, seen
    raise AssertionError("no generator")


def oracle_intertwine_riemann(sec, x, box_exp, cell_exp):
    """Exhaustive Riemann sum of b -> section(lower(-b)*upper(x)) over
    the box P^{box_exp}, chopped into cells of radius cell_exp.  Exact
    as soon as the integrand is constant on each cell and supported
    inside the box."""
    ctx = sec.ctx
    p = ctx.p
    acc = Q(0)
    count = p ** (cell_exp - box_exp)
    vol = Q(1, p**cell_exp)
    seen_phase = None
    for k in range(count):
        b = Q(k) * Q(p) ** box_exp
        g = MetaSL2.lower(ctx, -b) * MetaSL2.upper(ctx, x)
        val = _eval_fsi_raw(sec, g)
        if val.rat == 0:
            continue
        assert val.qexp == 0
        if seen_phase is None:
            seen_phase = val.turn
        assert val.turn == seen_phase
        acc += vol
    assert seen_phase is not None
    return acc, seen_phase


def invariance_batteries(ctx, max_level=3):
    """For each level i = 1..max_level, the pairs (g, [g*h for the six
    generators h of the depth-4i congruence subgroup]) over 138 sample
    cover words g: six generators, their pairs, and triples."""
    p = ctx.p
    gs = [
        MetaSL2.identity(ctx),
        MetaSL2.flip(ctx),
        MetaSL2.upper(ctx, Q(2, p)),
        MetaSL2.lower(ctx, Q(p**2)),
        MetaSL2.diag(ctx, Q(p)),
        MetaSL2.diag(ctx, Q(2)),
    ]
    words = list(gs)
    words += [g1 * g2 for g1 in gs for g2 in gs]
    words += [g1 * g2 * g3 for g1 in gs[:4] for g2 in gs for g3 in gs[2:]]
    batteries = []
    for i in range(1, max_level + 1):
        step = Q(p) ** (4 * i)
        hs = [
            MetaSL2.upper(ctx, step),
            MetaSL2.upper(ctx, 2 * step),
            MetaSL2.lower(ctx, step),
            MetaSL2.lower(ctx, 2 * step),
            MetaSL2.diag(ctx, 1 + step),
            MetaSL2.diag(ctx, 1 + 2 * step),
        ]
        batteries.append([(g, [g * h for h in hs]) for g in words])
    return batteries


def oracle_section_level(eta, batteries):
    """Smallest level i whose section passes batteries[i - 1]: right
    translation by each congruence generator fixes the section's value
    at every sample word."""
    for i, battery in enumerate(batteries, start=1):
        sec = SectionFsi(i=i, eta=eta, s=Q(1, 2))
        if all(
            _eval_fsi_raw(sec, gh) == base
            for g, translates in battery
            for base in [_eval_fsi_raw(sec, g)]
            for gh in translates
        ):
            return i
    raise AssertionError(f"no section level up to {len(batteries)}")


def rand_cover_word(ctx, rng, length=4):
    g = MetaSL2.identity(ctx)
    p = ctx.p
    for _ in range(length):
        k = rng.randrange(4)
        if k == 0:
            g = g * MetaSL2.flip(ctx, zeta=rng.choice((1, -1)))
        elif k == 1:
            g = g * MetaSL2.upper(ctx, Q(rng.randrange(-8, 9), p ** rng.randrange(0, 3)))
        elif k == 2:
            g = g * MetaSL2.lower(ctx, Q(rng.randrange(-8, 9)) * p ** rng.randrange(0, 4))
        else:
            g = g * MetaSL2.diag(ctx, Q(rng.choice((1, 2, -1, -2))) * Q(p) ** rng.randrange(-2, 3))
    return g


def law_factor(eta, s, a, zeta):
    """Independent right-hand side of the section transformation law."""
    ctx = eta.ctx
    v = fraction_valuation(a, ctx.p)
    val = Mono(
        1,
        -v * (s + Q(1, 2)),
        mu_psi(ctx.of(a), twist=-1).inverse().turn + eta.phase(a),
    )
    return val * Mono(zeta)


# ------------------------------------------------------- rao invariants

def x_class(x):
    """The (valuation, unit residue mod 3) pair a MetaSL2 over Q_3 stores
    for its Rao invariant x."""
    x = Q(x)
    return _unit_class(x.numerator, x.denominator, 3)


def test_rao_x_flip_is_minus_one():
    assert MetaSL2(C3, ((0, 1), (-1, 0)))._x == x_class(-1)


def test_rao_x_upper_is_one():
    for b in (0, 5, Q(-2, 9)):
        assert MetaSL2(C3, ((1, b), (0, 1)))._x == x_class(1)


def test_rao_x_diag_is_inverse_entry():
    for a in (2, Q(1, 3), -5):
        assert MetaSL2(C3, ((Q(a), 0), (0, 1 / Q(a))))._x == x_class(1 / Q(a))


def test_rao_x_rejects_non_sl2():
    with pytest.raises(MetaError):
        MetaSL2(C3, ((2, 0), (0, 1)))


def test_cocycle_lower_then_upper_is_trivial():
    for y, x in [(7, Q(2, 3)), (Q(1, 9), 4), (-3, -3), (Q(5, 27), Q(27, 5))]:
        assert rao_cocycle(C3, ((1, 0), (Q(y), 1)), ((1, Q(x)), (0, 1))) == 1


def test_cocycle_flip_squared_over_q3():
    w = ((0, 1), (-1, 0))
    # the formula reduces to a square of one Hilbert symbol
    oracle = hilbert_symbol(C3.of(-1), C3.of(-1)) ** 2
    assert oracle == 1
    assert rao_cocycle(C3, w, w) == 1


def test_cocycle_identity_right_is_trivial():
    rng = random.Random(11)
    e = ((1, 0), (0, 1))
    for _ in range(20):
        g = rand_cover_word(C3, rng).rows
        assert rao_cocycle(C3, g, e) == 1
        assert rao_cocycle(C3, e, g) == 1


@pytest.mark.parametrize("ctx", [C3, C5, C7, C11, C13])
def test_cocycle_condition_on_seeded_triples(ctx):
    rng = random.Random(101 + ctx.p)
    for _ in range(1000 // 2):
        g1 = rand_cover_word(ctx, rng, 3).rows
        g2 = rand_cover_word(ctx, rng, 3).rows
        g3 = rand_cover_word(ctx, rng, 3).rows
        lhs = rao_cocycle(ctx, g1, g2) * rao_cocycle(ctx, oracle_mul(g1, g2), g3)
        rhs = rao_cocycle(ctx, g2, g3) * rao_cocycle(ctx, g1, oracle_mul(g2, g3))
        assert lhs == rhs


@pytest.mark.parametrize("ctx", [C3, C5, C7])
def test_sheet_sign_matches_three_matrix_oracle(ctx):
    """(g h).zeta = g.zeta h.zeta c(g, h), with c the three-matrix formula
    on oracle Hilbert symbols, over seeded cover words and the single
    factors: upper and diag take the x = (2,2) branch, flip has x = -1."""
    p = ctx.p
    rng = random.Random(707 + p)
    singles = [
        MetaSL2.flip(ctx),
        MetaSL2.flip(ctx, zeta=-1),
        MetaSL2.upper(ctx, Q(2, p)),
        MetaSL2.upper(ctx, Q(-3 * p, 7)),
        MetaSL2.diag(ctx, Q(p)),
        MetaSL2.diag(ctx, Q(-2, p**3)),
        MetaSL2.diag(ctx, Q(smallest_nonresidue(p) * 5, 11)),
        MetaSL2.lower(ctx, Q(2 * p**2, 5)),
    ]
    words = [rand_cover_word(ctx, rng, rng.randrange(1, 5)) for _ in range(40)]
    pairs = [(g, h) for g in singles for h in singles]
    pairs += [(g, h) for g in words for h in singles] + [(h, g) for g in words for h in singles]
    pairs += list(zip(words, reversed(words)))
    for g, h in pairs:
        sign = oracle_rao_cocycle(g.rows, h.rows, p)
        assert (g * h).zeta == g.zeta * h.zeta * sign, (g, h)
        assert rao_cocycle(ctx, g.rows, h.rows) == sign


def test_genuineness_of_torus_products():
    rng = random.Random(23)
    for _ in range(60):
        a = Q(rng.choice((1, 2, -1, -2, 5, 7))) * Q(3) ** rng.randrange(-2, 3)
        b = Q(rng.choice((1, 2, -1, -2, 5, 7))) * Q(3) ** rng.randrange(-2, 3)
        prod = MetaSL2.diag(C3, a) * MetaSL2.diag(C3, b)
        assert prod.rows == ((a * b, 0), (0, 1 / (a * b)))
        assert prod.zeta == hilbert_symbol(C3.of(a), C3.of(b))


def test_lower_times_upper_stays_on_plus_sheet():
    rng = random.Random(37)
    for ctx in (C3, C5):
        for _ in range(40):
            y = Q(rng.randrange(-20, 21)) * ctx.p ** rng.randrange(0, 4)
            x = Q(rng.randrange(-20, 21), ctx.p ** rng.randrange(0, 4))
            assert (MetaSL2.lower(ctx, y) * MetaSL2.upper(ctx, x)).zeta == 1


def test_cover_inverse_law():
    rng = random.Random(5)
    for _ in range(40):
        g = rand_cover_word(C3, rng)
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_cover_product_matches_matrix_oracle():
    rng = random.Random(6)
    for _ in range(30):
        g = rand_cover_word(C3, rng, 3)
        h = rand_cover_word(C3, rng, 3)
        assert (g * h).rows == oracle_mul(g.rows, h.rows)


def test_cover_stores_a_mat_and_a_sheet_sign():
    # the matrix lives in a chevalley.Mat: no second copy of its storage
    assert MetaSL2.__slots__ == ("ctx", "mat", "zeta", "_x")
    rng = random.Random(7)
    for _ in range(20):
        g = rand_cover_word(C5, rng, 3)
        assert isinstance(g.mat, Mat) and g.rows is g.mat.rows
        assert g.inverse().mat == symplectic_inverse(g.mat) == g.mat.inverse()
        assert g == MetaSL2(C5, g.rows, g.zeta) and hash(g) == hash(MetaSL2(C5, g.rows, g.zeta))
        assert g != MetaSL2(C5, g.rows, -g.zeta)


def _same_element(g, h):
    return (g.ctx, g.mat.den, g.mat.num, g.zeta, g._x) == (h.ctx, h.mat.den, h.mat.num, h.zeta, h._x)


def test_cover_takes_any_iterable_of_rows():
    """MetaSL2 reads its rows as Mat(rows) does: an iterator of rows, or
    of row iterators, builds the same element as the tuple."""
    rows = ((Q(1, 3), 2), (0, 3))
    want = MetaSL2(C5, rows, -1)
    assert _same_element(MetaSL2(C5, iter(rows), -1), want)
    assert _same_element(MetaSL2(C5, (iter(row) for row in rows), -1), want)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cover_generators_match_the_generic_constructor(p):
    """Each generator, built on integer rows, is the element that
    MetaSL2(ctx, rows, zeta) builds through the Fraction coercion: the
    same stored Mat, sheet and invariant, on entries of both signs with
    p-power numerators and denominators, on both sheets."""
    ctx = PrimeCtx(p)
    rng = random.Random(f"cover generators {p}")
    entries = [0, 1, -1, p, Q(-1, p)] + [
        Q(rng.choice([1, -1]) * rng.randint(1, 40) * p ** rng.randint(0, 3), rng.randint(1, 40) * p ** rng.randint(0, 3))
        for _ in range(40)
    ]
    for zeta in (1, -1):
        assert _same_element(MetaSL2.identity(ctx, zeta), MetaSL2(ctx, ((1, 0), (0, 1)), zeta))
        assert _same_element(MetaSL2.flip(ctx, zeta), MetaSL2(ctx, ((0, 1), (-1, 0)), zeta))
        for x in entries:
            assert _same_element(MetaSL2.upper(ctx, x, zeta), MetaSL2(ctx, ((1, x), (0, 1)), zeta)), x
            assert _same_element(MetaSL2.lower(ctx, x, zeta), MetaSL2(ctx, ((1, 0), (x, 1)), zeta)), x
            if x:
                a = Q(x)
                assert _same_element(MetaSL2.diag(ctx, x, zeta), MetaSL2(ctx, ((a, 0), (0, 1 / a)), zeta)), x


def test_cover_rejects_bad_data():
    e = ((1, 0), (0, 1))
    builds = (
        lambda r: MetaSL2(C3, r),
        lambda r: rao_cocycle(C3, r, e),
        lambda r: rao_cocycle(C3, e, r),
    )
    for rows in (((1, 0, 0), (0, 1, 0)), ((1,),), (e[0],), e + ((0, 0),)):
        for build in builds:
            with pytest.raises(MetaError, match="2x2"):
                build(rows)
    for rows in (((1, 1), (1, 1)), ((2, 0), (0, 1)), ((Q(1, 2), 0), (0, 1)), ((0, 1), (1, 0))):
        for build in builds:
            with pytest.raises(MetaError, match="not in SL2"):
                build(rows)
    assert MetaSL2(C3, ((Q(1, 2), 0), (0, 2))).rows == ((Q(1, 2), 0), (0, 2))
    for zeta in (2, 0, -2):
        with pytest.raises(MetaError, match="sheet sign"):
            MetaSL2(C3, e, zeta=zeta)
        with pytest.raises(MetaError, match="sheet sign"):
            MetaSL2.upper(C3, 1, zeta=zeta)
        with pytest.raises(MetaError, match="sheet sign"):
            MetaSL2.flip(C3, zeta=zeta)
        with pytest.raises(MetaError, match="sheet sign"):
            MetaSL2.lower(C3, 1, zeta=zeta)
        with pytest.raises(MetaError, match="sheet sign"):
            MetaSL2.diag(C3, 2, zeta=zeta)
        with pytest.raises(MetaError, match="sheet sign"):
            MetaSL2.identity(C3, zeta=zeta)
    with pytest.raises(MetaError):
        MetaSL2.diag(C3, 0)
    for build in (MetaSL2.upper, MetaSL2.lower, MetaSL2.diag):
        with pytest.raises(PadicError) as err:
            build(C3, 0.5)
        assert type(err.value) is PadicError
    with pytest.raises(MetaError, match="mixed prime"):
        MetaSL2.identity(C3) * MetaSL2.identity(C5)
    with pytest.raises(MetaError, match="mixed prime"):
        MetaSL2.flip(C5) * MetaSL2.upper(C7, Q(1, 5))
    with pytest.raises(AttributeError):
        MetaSL2.flip(C3).zeta = -1


# ------------------------------------------------------------ big cell

def test_big_cell_x_zero():
    assert decompose_big_cell(Q(7, 3), 0) == (1, 0, Q(7, 3))


def test_big_cell_y_zero():
    assert decompose_big_cell(0, Q(4, 9)) == (1, Q(4, 9), 0)


def test_big_cell_matrix_identity_and_relations():
    rng = random.Random(91)
    for _ in range(120):
        y = Q(rng.randrange(-30, 31), 3 ** rng.randrange(0, 3))
        x = Q(rng.randrange(-30, 31), 3 ** rng.randrange(0, 3))
        if 1 + x * y == 0:
            continue
        a, b, ybar = decompose_big_cell(y, x)
        lower = ((1, 0), (y, 1))
        upper = ((1, x), (0, 1))
        borel = ((a, b), (0, 1 / a))
        back = ((1, 0), (ybar, 1))
        assert oracle_mul(lower, upper) == oracle_mul(borel, back)
        assert a == 1 - x * ybar
        assert a * y == ybar


def test_big_cell_rejects_degenerate_product():
    with pytest.raises(MetaError):
        decompose_big_cell(Q(-1, 2), 2)


def test_big_cell_torus_entry_depth():
    # bounded x against deep y forces the torus entry into 1 + P^c
    for c in (1, 2, 3):
        for vx in (-2, -1, 0):
            i = -((c - vx) // -3) + 1
            for uy in (1, 2, -4):
                y = Q(uy) * Q(3) ** (3 * i)
                x = Q(2) * Q(3) ** vx
                a, _, ybar = decompose_big_cell(y, x)
                assert fraction_valuation(a - 1, 3) >= c
                assert fraction_valuation(ybar, 3) >= 3 * i


# ----------------------------------------------------------- characters

@pytest.mark.parametrize("p,c", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_character_matches_brute_force_table(p, c):
    ctx = PrimeCtx(p)
    gen, order, table = oracle_unit_characters(p, c)
    eta = ramified_character(ctx, c)
    # the module's canonical generator may differ; compare as characters
    base = eta.phase(gen)
    assert (base * order) % 1 == 0
    for u, e in table.items():
        assert eta.phase(u) == (e * base) % 1


@pytest.mark.parametrize("p,c", [(3, 1), (3, 2), (5, 2)])
def test_character_multiplicative_on_all_units(p, c):
    ctx = PrimeCtx(p)
    eta = ramified_character(ctx, c, turns=1, varpi_phase=Q(1, 3))
    mod = p**c
    units = [u for u in range(1, mod) if u % p != 0]
    for u in units:
        for v in units[:7]:
            assert eta.phase(u * v) == (eta.phase(u) + eta.phase(v)) % 1
    # valuation part stacks the uniformizer phase
    assert eta.phase(Q(p) ** 4) == (4 * Q(1, 3)) % 1
    assert eta.phase(Q(1, p)) == (-Q(1, 3)) % 1


def test_character_trivial_on_conductor_ball():
    eta = ramified_character(C3, 2)
    for t in (1, 2, -1, 4):
        assert eta.phase(1 + 9 * t) == 0
    assert eta.phase(1 + 3) != 0


def test_character_validation_errors():
    with pytest.raises(MetaError):
        CharacterFx(C3, -1)
    with pytest.raises(MetaError):
        CharacterFx(C3, 0, unit_phase=Q(1, 2))
    with pytest.raises(MetaError):
        CharacterFx(C3, 1, unit_phase=Q(1, 5))  # not a multiple of 1/2
    with pytest.raises(MetaError):
        CharacterFx(C3, 1, unit_phase=0)
    with pytest.raises(MetaError):
        # trivial on 1+P: conductor 2 is overstated
        CharacterFx(C3, 2, unit_phase=Q(1, 2))
    with pytest.raises(MetaError):
        ramified_character(C3, 1).phase(0)
    # the conductor is an int, and a bool is not one
    for conductor in (True, False, 2.0, Q(2), "2"):
        with pytest.raises(MetaError):
            CharacterFx(C5, conductor, Q(1, 4))
    for conductor in (True, 2.0, Q(2)):
        with pytest.raises(MetaError):
            ramified_character(C5, conductor)
    # the context is a PrimeCtx, and turns an int that is not a bool
    for ctx in (5, None, "5"):
        with pytest.raises(MetaError, match="ctx"):
            CharacterFx(ctx, 1, Q(1, 4))
        with pytest.raises(MetaError, match="ctx"):
            ramified_character(ctx, 1)
    for turns in (1.5, True, False, Q(1), "1"):
        with pytest.raises(MetaError, match="turns"):
            ramified_character(C5, 1, turns)


def test_character_complex_values_unimodular():
    eta = ramified_character(C5, 2, turns=3, varpi_phase=Q(2, 7))
    rng = random.Random(3)
    for _ in range(25):
        a = Q(rng.choice((1, 2, 3, -4, 6))) * Q(5) ** rng.randrange(-3, 4)
        z = eta.value(a)
        assert abs(abs(embed(z, 5)) - 1) < 1e-12
        w = eta.value(7) * eta.value(a / 7)
        assert z == w


# -------------------------------------------------------- section value

def test_section_value_algebra():
    u = Mono(1, -2, Q(1, 8))
    v = Mono(1, 2, Q(7, 8))
    assert u * v == Mono.one()
    assert (u * Mono.zero()).rat == 0
    assert u * Mono(-1) == Mono(1, -2, Q(5, 8))
    assert u * Mono(1) == u


# ------------------------------------------------------------- sections

def test_section_requires_positive_level():
    with pytest.raises(MetaError):
        SectionFsi(i=0, eta=ramified_character(C3, 1), s=0)
    # the character is a CharacterFx
    for eta in ("eta", None, C3, Q(1, 4)):
        with pytest.raises(MetaError, match="eta"):
            SectionFsi(1, eta)


def test_section_value_on_deep_lower_is_one():
    eta = ramified_character(C3, 1)
    sec = SectionFsi(i=2, eta=eta, s=Q(1, 2))
    assert eval_fsi_exact(sec, MetaSL2.lower(C3, Q(3**6))).is_one()
    assert eval_fsi_exact(sec, MetaSL2.lower(C3, Q(2 * 3**7))).is_one()


def test_section_vanishes_outside_support():
    eta = ramified_character(C3, 1)
    sec = SectionFsi(i=2, eta=eta, s=Q(1, 2))
    assert eval_fsi_exact(sec, MetaSL2.lower(C3, Q(3**5))).rat == 0
    assert eval_fsi_exact(sec, MetaSL2.flip(C3)).rat == 0
    assert eval_fsi_exact(sec, MetaSL2.flip(C3) * MetaSL2.lower(C3, Q(27))).rat == 0


def test_section_on_torus_matches_display():
    eta = ramified_character(C3, 1, varpi_phase=Q(1, 6))
    for s in (Q(1, 2), Q(-3, 2), Q(0)):
        sec = SectionFsi(i=1, eta=eta, s=s)
        for a in (Q(2), Q(3), Q(1, 3), Q(-5), Q(18)):
            for zeta in (1, -1):
                got = eval_fsi_exact(sec, MetaSL2.diag(C3, a, zeta=zeta))
                assert got == law_factor(eta, s, a, zeta)


def test_section_rejects_level_below_threshold():
    deep = ramified_character(C3, 5)
    assert section_level(deep) == 2
    sec = SectionFsi(i=1, eta=deep, s=0)
    with pytest.raises(MetaError):
        eval_fsi_exact(sec, MetaSL2.identity(C3))
    ok = SectionFsi(i=2, eta=deep, s=0)
    assert eval_fsi_exact(ok, MetaSL2.identity(C3)).is_one()


def test_section_levels_at_desk_scale():
    assert section_level(ramified_character(C3, 1)) == 1
    assert section_level(ramified_character(C3, 2)) == 1
    assert section_level(CharacterFx(C3, 0)) == 1
    assert section_level(ramified_character(C5, 2, turns=3)) == 1


@pytest.mark.parametrize("p,max_conductor", [(3, 9), (5, 5), (7, 5)])
def test_section_level_matches_invariance_oracle(p, max_conductor):
    ctx = PrimeCtx(p)
    batteries = invariance_batteries(ctx)
    for c in range(max_conductor + 1):
        for varpi in (Q(0), Q(1, 4)):
            if c == 0:
                eta = CharacterFx(ctx, 0, varpi_phase=varpi)
            else:
                eta = ramified_character(ctx, c, varpi_phase=varpi)
            assert section_level(eta) == oracle_section_level(eta, batteries), (p, c, varpi)


@pytest.mark.parametrize(
    "ctx,conductor,turns,s",
    [(C3, 1, 1, Q(1, 2)), (C3, 2, 1, Q(-3, 2)), (C5, 1, 2, Q(0))],
)
def test_section_transformation_law_on_seeded_points(ctx, conductor, turns, s):
    eta = ramified_character(ctx, conductor, turns=turns, varpi_phase=Q(1, 4))
    sec = SectionFsi(i=section_level(eta), eta=eta, s=s)
    rng = random.Random(400 + ctx.p + conductor)
    for _ in range(500):
        g = rand_cover_word(ctx, rng, 3)
        a = Q(rng.choice((1, 2, -1, -2, ctx.p + 2))) * Q(ctx.p) ** rng.randrange(-2, 3)
        b = Q(rng.randrange(-6, 7), ctx.p ** rng.randrange(0, 3))
        zeta = rng.choice((1, -1))
        bmat = MetaSL2(ctx, ((a, b), (0, 1 / a)), zeta)
        assert eval_fsi_exact(sec, bmat * g) == law_factor(eta, s, a, zeta) * eval_fsi_exact(sec, g)


def test_section_right_invariance_at_threshold():
    eta = ramified_character(C3, 2)
    i = section_level(eta)
    sec = SectionFsi(i=i, eta=eta, s=Q(1, 2))
    rng = random.Random(77)
    step = Q(3) ** (4 * i)
    probes = [
        MetaSL2.upper(C3, step),
        MetaSL2.lower(C3, 2 * step),
        MetaSL2.diag(C3, 1 + step),
    ]
    for _ in range(60):
        g = rand_cover_word(C3, rng, 3)
        base = _eval_fsi_raw(sec, g)
        for h in probes:
            assert _eval_fsi_raw(sec, g * h) == base


def complex_section_value(sec, g, s):
    """The section at a complex s in the complex embedding.  The exact
    value at s = -1/2 carries every root of unity and |a|^0; the factor
    |a|^(s + 1/2) = q^(-v(a)(s + 1/2)) is then applied in floats."""
    p = g.ctx.p
    root = eval_fsi_exact(SectionFsi(sec.i, sec.eta, Q(-1, 2)), g)
    if root.rat == 0:
        return 0j
    v = -fraction_valuation(g.rows[1][1], p)
    return embed(root, p) * cmath.exp(-v * (s + 0.5) * cmath.log(p))


def test_section_complex_s_path():
    eta = ramified_character(C3, 1)
    s = complex(0.5, 1.25)
    # a section has an exact value only at a rational s
    for bad in (s, 0.5):
        with pytest.raises(MetaError, match="not rational"):
            SectionFsi(i=1, eta=eta, s=bad)
    sec = SectionFsi(i=1, eta=eta)
    got = complex_section_value(sec, MetaSL2.diag(C3, Q(1, 3)), s)
    v = -1
    phase = cmath.exp(2j * cmath.pi * float(mu_psi(C3.of(Q(1, 3)), twist=-1).inverse().turn + eta.phase(Q(1, 3))))
    want = phase * cmath.exp(-v * (s + 0.5) * cmath.log(3))
    assert abs(got - want) < 1e-9
    assert complex_section_value(sec, MetaSL2.lower(C3, Q(1)), s) == 0
    # at a rational s the embedding agrees with the exact value
    for r in (Q(1, 2), Q(-3, 2)):
        g = MetaSL2.diag(C3, Q(2, 9), zeta=-1)
        exact = embed(eval_fsi_exact(SectionFsi(i=1, eta=eta, s=r), g), 3)
        assert abs(complex_section_value(sec, g, complex(r)) - exact) < 1e-9


# --------------------------------------------------------- intertwining

def test_intertwine_at_zero_is_volume():
    eta = ramified_character(C3, 1)
    for i in (1, 2):
        sec = SectionFsi(i=i, eta=eta, s=Q(1, 2))
        got = intertwine_eval_exact(sec, Q(0), 1)
        assert got == Mono(1, -3 * i)


def test_intertwine_on_bounded_set_is_volume():
    # bound of the flavor p^{(4n-3)m} at n = 2, m = 1
    eta = ramified_character(C3, 1)
    bound = Q(3) ** 5
    i = intertwine_level(eta, bound)
    sec = SectionFsi(i=i, eta=eta, s=Q(1, 2))
    for x in (Q(0), Q(1, 3), Q(2, 243), Q(-4, 27)):
        assert intertwine_eval_exact(sec, x, bound) == Mono(1, -3 * i)


def test_intertwine_independent_of_s_and_eta():
    bound = 9
    vals = set()
    for eta in (ramified_character(C3, 1), ramified_character(C3, 2), CharacterFx(C3, 0, varpi_phase=Q(1, 3))):
        i = intertwine_level(eta, bound)
        for s in (Q(1, 2), Q(-2), Q(7, 3)):
            sec = SectionFsi(i=max(i, 2), eta=eta, s=s)
            vals.add(intertwine_eval_exact(sec, Q(2, 9), bound))
    assert vals == {Mono(1, -6)}


@pytest.mark.parametrize(
    "p,conductor,vx",
    [(3, 1, 0), (3, 1, -2), (3, 2, 1), (5, 1, 0)],
)
def test_intertwine_matches_riemann_oracle(p, conductor, vx):
    ctx = PrimeCtx(p)
    eta = ramified_character(ctx, conductor)
    x = Q(2) * Q(p) ** vx
    bound = Q(p) ** (-vx) if vx < 0 else 1
    i = intertwine_level(eta, bound)
    sec = SectionFsi(i=i, eta=eta, s=Q(1, 2))
    got = intertwine_eval_exact(sec, x, bound)
    # exhaustive sum over the box P^{min(v(x),0)-1} in cells of P^{3i+1}
    box = min(vx, 0) - 1
    acc, phase = oracle_intertwine_riemann(sec, x, box, 3 * i + 1)
    assert phase == 0
    assert acc == Q(p) ** (-3 * i)
    assert got == Mono(1, -3 * i)


def test_intertwine_support_is_exactly_the_ball():
    eta = ramified_character(C3, 1)
    sec = SectionFsi(i=1, eta=eta, s=Q(1, 2))
    x = Q(1, 3)
    inside = 0
    for k in range(3**6):
        b = Q(k, 3)
        val = _eval_fsi_raw(sec, MetaSL2.lower(C3, -b) * MetaSL2.upper(C3, x))
        if fraction_valuation(b, 3) >= 3:
            assert val.rat != 0
            inside += 1
        else:
            assert val.rat == 0
    assert inside == 9


def test_intertwine_error_paths():
    eta2 = ramified_character(C3, 2)
    with pytest.raises(MetaError, match="stabilize"):
        intertwine_eval_exact(SectionFsi(i=1, eta=eta2, s=0), Q(1, 9), 9)
    eta1 = ramified_character(C3, 1)
    sec = SectionFsi(i=intertwine_level(eta1, 9), eta=eta1, s=0)
    with pytest.raises(MetaError, match="compact"):
        intertwine_eval_exact(sec, Q(1, 27), 9)
    with pytest.raises(PadicError, match="exact rational"):
        intertwine_eval_exact(sec, C5.of(0), 9)  # x is a Fraction; a tagged value is refused


def test_intertwine_gates_imply_the_substitution_depth():
    """Wherever the compact-set gate and the level gate both pass,
    3i + v(x) >= max(c, 1): the depth at which b = -z/(1 - z x) keeps
    valuations, so the closed form needs no gate of its own per point."""
    passed = tight = 0
    for p in (3, 5, 7, 11):
        ctx = PrimeCtx(p)
        xs = [Q(0)] + [Q(u) * Q(p) ** v for u in (1, p - 1) for v in range(-5, 4)]
        for c in range(6):
            eta = ramified_character(ctx, c) if c else CharacterFx(ctx, 0)
            for bound in (Q(1, p), Q(1, 2), 1, 2, p, p + 1, p * p - 1, p**3, p**4 + 1):
                for i in range(1, 8):
                    sec = SectionFsi(i=i, eta=eta, s=Q(1, 2))
                    for x in xs:
                        try:
                            intertwine_eval_exact(sec, x, bound)
                        except MetaError:
                            continue
                        depth = 3 * i + (fraction_valuation(x, p) if x else 0)
                        assert depth >= max(c, 1), (p, c, bound, i, x)
                        passed += 1
                        tight += depth == max(c, 1)
    assert passed > 0 and tight > 0


def test_intertwine_integrand_is_one_on_the_support_at_high_conductor():
    """intertwining-volume samples conductor 1 only.  At conductors 2-5
    (p^c <= 7^5), for both varpi phases, bounds 1 and p, the levels
    intertwine_level and one more, and two s, the closed form is
    q^(-3i) and the integrand at lower(z/(1 - z x))*upper(x),
    z = t p^(3i), t in {1, 2, p - 1}, is exactly one."""
    samples = 0
    for p in (3, 5, 7):
        ctx = PrimeCtx(p)
        for c in (2, 3, 4, 5):
            for eta in (ramified_character(ctx, c), ramified_character(ctx, c, varpi_phase=Q(1, 4))):
                for bound in (1, p):
                    lvl = intertwine_level(eta, bound)
                    for i in (lvl, lvl + 1):
                        for s in (Q(1, 2), Q(2, 3)):
                            sec = SectionFsi(i=i, eta=eta, s=s)
                            for x in (Q(0), Q(1), Q(p), Q(p * p), Q(p - 1, bound)):
                                assert intertwine_eval_exact(sec, x, bound) == Mono(1, -3 * i)
                                upper = MetaSL2.upper(ctx, x)
                                for t in (1, 2, p - 1):
                                    z = Q(t * p ** (3 * i))
                                    value = eval_fsi_exact(sec, MetaSL2.lower(ctx, z / (1 - z * x)) * upper)
                                    assert value.is_one(), (p, c, eta.varpi_phase, bound, i, s, x, t)
                                    samples += 1
    assert samples == 2880


def _nontrivial_root_payload():
    return {"p": 3, "i": 1, "s": Q(1, 2), "x": Q(0), "t": 1, "value": Mono(turn=Q(1, 4)).inverse()}


def test_intertwine_support_guard_raises(monkeypatch):
    """A nontrivial normalizing root on the support fails the
    intertwining-volume check at its first sample, which names the case."""
    monkeypatch.setattr(metaplectic, "mu_psi", lambda a, twist=1: Mono(turn=Q(1, 4)))
    cfg = build_config(None, p=[3])
    with pytest.raises(CheckFailure) as err:
        check_intertwining_volume(cfg, random.Random(0))
    assert err.value.payload == _nontrivial_root_payload()


def test_intertwine_support_guard_survives_optimize_flag():
    script = textwrap.dedent(
        """
        import random
        from fractions import Fraction as Q
        from padicsp import metaplectic as meta
        from padicsp.harness import CheckFailure, build_config
        from padicsp.harness.checks import check_intertwining_volume
        from padicsp.padic import Mono

        assert False, "python -O should strip this assert"
        meta.mu_psi = lambda a, twist=1: Mono(turn=Q(1, 4))
        try:
            check_intertwining_volume(build_config(None, p=[3]), random.Random(0))
        except CheckFailure as exc:
            print(repr(exc.payload))
        """
    )
    src = os.path.dirname(os.path.dirname(padicsp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == repr(_nontrivial_root_payload())


def test_intertwine_level_monotone_in_bound():
    eta = ramified_character(C3, 2)
    levels = [intertwine_level(eta, Q(3) ** m) for m in range(0, 7)]
    assert levels == sorted(levels)
    assert levels[0] >= section_level(eta)


def test_intertwine_rejects_float_bounds():
    eta = ramified_character(C3, 1)
    sec = SectionFsi(i=intertwine_level(eta, 9), eta=eta, s=Q(1, 2))
    with pytest.raises(PadicError, match="exact rational"):
        intertwine_level(eta, 9.0)
    for x in (Q(0), Q(1, 3)):
        assert intertwine_eval_exact(sec, x, 9) == Mono(1, -3 * sec.i)
        with pytest.raises(PadicError, match="exact rational"):
            intertwine_eval_exact(sec, x, 9.0)


def test_cover_constructors_reject_floats():
    ctx = PrimeCtx(3)
    for build in (MetaSL2.upper, MetaSL2.lower, MetaSL2.diag):
        with pytest.raises(PadicError, match="exact rational"):
            build(ctx, 0.1)
    with pytest.raises(PadicError, match="exact rational"):
        MetaSL2(ctx, ((1, 0.5), (0, 1)))
    with pytest.raises(PadicError, match="exact rational"):
        ramified_character(ctx, 1).phase(0.5)
    with pytest.raises(PadicError, match="exact rational"):
        CharacterFx(ctx, 1, 0.5)
    with pytest.raises(PadicError, match="exact rational"):
        ramified_character(ctx, 1, varpi_phase=0.25)
    eta = ramified_character(ctx, 1)
    for s in (0.5, "1/2", complex(0.5, 1)):
        with pytest.raises(MetaError, match="not rational"):
            SectionFsi(1, eta, s)
    for level in (1.5, True, Q(1)):
        with pytest.raises(MetaError, match="not a positive integer"):
            SectionFsi(level, eta)

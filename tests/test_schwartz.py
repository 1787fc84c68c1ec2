"""Exact Schwartz space and the generator action on it.

Oracles come first and are value-level: a Riemann sum for the transform
with kernel psi(2xy), a residue enumeration for the Gaussian integral,
and pointwise formulas for every generator so that the closed-form term
rewriting can be cross-checked at sample points.  The canonical form is
checked by its properties: a fixed point on disjoint balls with no
mergeable siblings, blind to input order and to cutting a ball into equal
pieces, and equal in value to its input.  Frozen shapes follow, then
seeded batteries.  The deep-ball invariance thresholds are acceptance
criterion 10; the four threshold tests below restate it at p = 3.
"""
import cmath
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as Q

import pytest

from test_padic import embed

from padicsp import padic
from padicsp.padic import (
    Cyclo,
    Mono,
    PadicError,
    PrimeCtx,
    _pfrac,
    fraction_valuation,
    hilbert_symbol,
    mu_psi,
    psi,
    weil_index,
)
from padicsp import chirp, schwartz
from padicsp.harness import CampaignConfig
from padicsp.harness.schwartz_checks import _rep_word, check_weil_rep_identity
from padicsp.metaplectic import MetaSL2, rao_cocycle
from padicsp.schwartz import (
    SchwartzError,
    SchwartzFn,
    check_rep_identity,
    fourier,
    phi_m,
    rep_identity_witness,
    weil_act,
    weil_act_cover,
)
from padicsp.words import HeisenbergElem, canonical_word, cover_lift
from padicsp.chirp import Term

C3 = PrimeCtx(3)
C5 = PrimeCtx(5)


# ------------------------------------------------------------- oracles

def from_terms(ctx: PrimeCtx, terms) -> SchwartzFn:
    """The canonical function of a term list."""
    return SchwartzFn(ctx, tuple(terms)).canonical()


def e_frac(turn):
    return cmath.exp(2j * cmath.pi * float(turn))


def psi_num(t, p, eps=1):
    """Numeric additive character, p-part of the fraction only."""
    return e_frac(_pfrac(eps * t, p))


def riemann_grid(phi, x=Q(0), eps=1):
    """(box, depth): phi(y) psi_eps(2xy) is constant on y + P^depth for y in P^-box.

    Moving y by d in P^depth moves quad y^2 + (freq + 2 eps x) y by
    (2 quad y + freq + 2 eps x) d + quad d^2, which is p-integral once
    depth >= box - v(quad) and depth >= -v(freq + 2 eps x).
    """
    p = phi.ctx.p
    box = max(-min(0, t.rad, fraction_valuation(t.center, p)) for t in phi.terms)
    depth = 1
    for t in phi.terms:
        g = t.freq + 2 * eps * x
        lvl = t.rad
        if g != 0:
            lvl = max(lvl, -fraction_valuation(g, p))
        if t.quad != 0:
            lvl = max(lvl, box - fraction_valuation(t.quad, p))
        depth = max(depth, lvl)
    return box, depth


def oracle_fourier(phi, x, eps=1):
    """Riemann sum of phi(y) psi_eps(2xy) dy over a box holding the support.

    The coset depth is chosen so the integrand, square phase included, is
    constant on each coset, which makes the sum exact up to float roundoff.
    """
    p = phi.ctx.p
    if not phi.terms:
        return 0j
    box, depth = riemann_grid(phi, x, eps)
    total = 0j
    for k in range(p ** (box + depth)):
        y = Q(k, p**box)
        v = embed(phi.value_at(y))
        if v:
            total += v * psi_num(2 * x * y, p, eps)
    return total * float(p) ** (-depth)


def oracle_step(tag, args, phi, x, eps):
    """Value of (generator . phi) at x, straight from the pointwise formulas."""
    p = phi.ctx.p
    if tag == "upper":
        (b,) = args
        return psi_num(b * x * x, p, eps) * embed(phi.value_at(x))
    if tag == "diag":
        (a,) = args
        va = fraction_valuation(a, p)
        mu = e_frac(mu_psi(phi.ctx.of(a), twist=eps).turn)
        return float(p) ** (-va / 2) * mu * embed(phi.value_at(a * x))
    if tag == "flip":
        g = e_frac(weil_index(phi.ctx.of(1), twist=eps).turn)
        return g * oracle_fourier(phi, x, eps)
    if tag == "sign":
        (z,) = args
        return z * embed(phi.value_at(x))
    if tag == "heis":
        xx, xp, z = args
        return psi_num(z + xx * xp + 2 * x * xp, p, eps) * embed(phi.value_at(x + xx))
    raise AssertionError(tag)


def oracle_word(word, phi, x, eps):
    """Apply a word by evaluating right factor by right factor.

    Only the leftmost item may be a flip; the intermediate functions are
    needed in closed form for the integral, so the inner items reuse the
    term rewriting and the outermost one is checked against the sum.
    """
    if len(word) == 1:
        return oracle_step(word[0][0], word[0][1:], phi, x, eps)
    inner = weil_act(word[1:], phi, twist=eps)
    return oracle_step(word[0][0], word[0][1:], inner, x, eps)


def oracle_square_character_trivial(p, b, rho):
    """Whether psi(b t^2) = 1 for every t in P^rho, by enumeration.

    t runs over p^rho k for k below p^depth, where p^depth is the p-part
    of the denominator of b p^(2 rho) (at least p).  Moving k by p^depth j
    moves b t^2 by b p^(2 rho) p^depth (2kj + p^depth j^2), which is
    p-integral, so these residues exhaust the values psi takes on P^rho.
    """
    ctx = PrimeCtx(p)
    step = Q(p) ** rho
    den = (b * step * step).denominator
    depth = 0
    while den % p == 0:
        den //= p
        depth += 1
    return all(
        psi(ctx.of(b * (step * k) ** 2)).is_one() for k in range(p ** max(1, depth))
    )


def oracle_gauss_integral(p, a, b, r):
    """The integral of psi(a t^2 + b t) over P^r by residue enumeration.

    t runs over p^r k for k below p^D, with D large enough that moving k
    by p^D changes a t^2 + b t by a p-adic integer.  Each phase
    (A k^2 + B k) / L is read in integers as its p-part n / p^e.  The
    sum of counted roots of unity c_n zeta_(p^e)^n is 0 exactly when c is
    constant on the cosets of the order-p subgroup, whose sums of
    zeta_(p^e)^n vanish and span the kernel; else it is summed in Cyclo.
    """
    depth = max(1, -(fraction_valuation(a, p) + 2 * r))
    if b != 0:
        depth = max(depth, -(fraction_valuation(b, p) + r))
    step = Q(p) ** r
    sa, sb = a * step * step, b * step
    den = math.lcm(sa.denominator, sb.denominator)
    qa, qb = sa.numerator * (den // sa.denominator), sb.numerator * (den // sb.denominator)
    pe = 1
    while den % p == 0:
        den //= p
        pe *= p
    unit = pow(den, -1, pe) if pe > 1 else 0
    counts = {}
    for k in range(p**depth):
        n = (qa * k * k + qb * k) * unit % pe
        counts[n] = counts.get(n, 0) + 1
    if pe > 1 and all(counts.get(n, 0) == counts.get((n + pe // p) % pe, 0) for n in range(pe)):
        return Cyclo.of(p, [])
    return Cyclo.of(p, (Mono(c, -r - depth, Q(n, pe)) for n, c in counts.items()))


def oracle_integral(phi):
    """The integral of phi as an exact Riemann sum over its constancy grid."""
    p = phi.ctx.p
    if not phi.terms:
        return Cyclo.of(p, [])
    box, depth = riemann_grid(phi)
    return Cyclo.of(p, (
        m * Mono(qexp=-depth)
        for k in range(p ** (box + depth))
        for m in phi.value_at(Q(k, p**box)).terms
    ))


def ball_points(center, rad, p, spread=2):
    """A few rationals in center + P^rad and a few just outside."""
    inside = [center, center + Q(p) ** rad, center + 2 * Q(p) ** (rad + 1)]
    outside = [center + Q(1, p ** spread), center + Q(p) ** (rad - 1)]
    return inside, outside


# ---------------------------------------------------- coeff and terms

def test_coeff_sign_and_mu8():
    c = Mono.one() * Mono(-1) * Mono(-1)
    assert c == Mono.one()
    g = weil_index(C3.of(3))
    assert (Mono.one() * g).turn == g.turn
    with pytest.raises(SchwartzError):
        weil_act([("sign", 2)], SchwartzFn.indicator(C3))


def test_zero_coeff_normalizes():
    assert Mono(Q(0), 5, Q(1, 3)) == Mono.zero()
    assert Mono.zero().rat == 0


def test_trusted_monos_keep_the_normal_form(monkeypatch):
    """Every Mono the trusted constructor builds, on weil-words-shaped
    identity cases and on seeded products, inverses and conjugates, has
    the fields the coercing constructor would give it."""
    made = []
    trusted = padic._mono

    def recording(rat, qexp, turn):
        m = trusted(rat, qexp, turn)
        made.append(m)
        return m

    monkeypatch.setattr(padic, "_mono", recording)
    monkeypatch.setattr(schwartz, "_mono", recording)
    monkeypatch.setattr(chirp, "_mono", recording)
    rng = random.Random("trusted monos")
    for p in (3, 5, 7, 11, 13):
        ctx = PrimeCtx(p)
        phis = [SchwartzFn.indicator(ctx), phi_m(ctx, 1, 2), SchwartzFn.indicator(ctx, Q(1), 1)]
        for phi in phis:
            for _ in range(8):
                g1, g2 = _rep_word(rng, p, 2), _rep_word(rng, p, 2)
                assert check_rep_identity(g1, g2, phi, twist=rng.choice([1, -1]))
    from_cases = len(made)
    assert from_cases > 1000

    def operand(p):
        return Mono(
            Q(rng.randint(-9, 9), rng.randint(1, 9)),
            Q(rng.randint(-4, 4), rng.choice([1, 2])),
            Q(rng.randint(-20, 20), rng.choice([1, 2, 8, p, p * p, 8 * p])),
        )

    for _ in range(500):
        p = rng.choice([3, 5, 7, 11, 13])
        a, b = operand(p), operand(p)
        assert a * b == Mono(a.rat * b.rat, a.qexp + b.qexp, a.turn + b.turn)
        assert a.conjugate() == Mono(a.rat, a.qexp, -a.turn)
        if a.rat:
            assert a.inverse() == Mono(1 / a.rat, -a.qexp, -a.turn)
    assert len(made) > from_cases + 1000
    for m in made:
        assert all(type(f) is Q for f in (m.rat, m.qexp, m.turn)), m
        assert (m.rat > 0 and 0 <= m.turn < 1) or (m.rat, m.qexp, m.turn) == (0, 0, 0), m
        assert m == Mono(m.rat, m.qexp, m.turn), m


def test_indicator_membership_and_value():
    f = SchwartzFn.indicator(C3, Q(2), 2)
    ins, outs = ball_points(Q(2), 2, 3)
    for x in ins:
        assert f.value_at(x) == 1
    for x in outs:
        assert f.value_at(x) == 0


# ------------------------------------------------------ canonical form

def test_canonical_balls_pairwise_disjoint_seeded():
    rng = random.Random(11)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 6)):
            c = Q(rng.randint(-8, 8), rng.choice([1, 3, 9]))
            terms.append(
                Term(Mono(Q(rng.randint(1, 4))), Q(rng.randint(-2, 2)), c, rng.randint(-2, 2))
            )
        f = from_terms(C3, terms)
        balls = sorted({(t.center, t.rad) for t in f.terms}, key=lambda b: b[1])
        for i, (c1, r1) in enumerate(balls):
            for c2, r2 in balls[i + 1:]:
                if (c1, r1) != (c2, r2):
                    assert fraction_valuation(c2 - c1, 3) < min(r1, r2)


def test_canonical_is_idempotent_and_value_preserving():
    rng = random.Random(12)
    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 5)):
            c = Q(rng.randint(-6, 6), rng.choice([1, 3]))
            co = Mono(Q(rng.randint(1, 3), rng.randint(1, 2)), Q(rng.randint(-1, 1), 2), Q(rng.randint(0, 7), 8))
            terms.append(Term(co, Q(rng.randint(-3, 3), 3), c, rng.randint(-1, 2)))
        raw = SchwartzFn(C3, tuple(terms))
        can = raw.canonical()
        assert can.canonical() == can
        for k in range(-5, 15):
            x = Q(k, 9)
            assert raw.value_at(x) == can.value_at(x)


def test_sibling_cosets_merge_to_parent():
    # three children of P^1 glue into it; nine grandchildren of O glue twice
    children = [Term(Mono.one(), Q(0), k * Q(3), 2) for k in range(3)]
    grandchildren = [Term(Mono.one(), Q(0), Q(k), 2) for k in range(9)]
    assert from_terms(C3, children) == SchwartzFn.indicator(C3, 0, 1)
    assert from_terms(C3, grandchildren) == SchwartzFn.indicator(C3, 0, 0)


def test_full_residue_split_merges_even_with_frequency():
    # psi(y/9) restricted to the three children of O glues back to one term
    kids = []
    for k in range(3):
        kids.append(Term(Mono.one(), Q(1, 9), Q(k), 1))
    f = from_terms(C3, kids)
    assert len(f.terms) == 1
    t = f.terms[0]
    assert (t.center, t.rad, t.freq) == (Q(0), 0, Q(1, 9))


def test_refinement_budget_guard():
    # a very deep quadratic character on a wide ball, which would take 3^13
    # pieces if it were cut into balls where it is affine, stays one term
    wide = SchwartzFn.indicator(C3, 0, -3)
    b = Q(3) ** -20
    for eps in (1, -1):
        out = weil_act([("upper", b)], wide, twist=eps)
        (t,) = out.terms
        assert (t.coeff, t.freq, t.center, t.rad) == (Mono.one(), 0, 0, -3)
        assert fraction_valuation(t.quad - eps * b, 3) >= 6  # reduced mod P^(-2 rad)
        for x in (Q(0), Q(1), Q(1, 27), Q(5, 9), Q(2, 81), Q(1, 3) + Q(3) ** 8, Q(1, 81)):
            inside = fraction_valuation(x, 3) >= -3
            want = [Mono(turn=_pfrac(eps * b * x * x, 3))] if inside else []
            assert out.value_at(x) == Cyclo.of(3, want)
            assert abs(embed(out.value_at(x)) - oracle_step("upper", (b,), wide, x, eps)) < 1e-9


def test_refinement_budget_guard_on_the_canonical_path(monkeypatch):
    # separating P^5 from O cuts O down five radii; the widest list the
    # sweep holds has 11 terms (2 pieces per radius, plus the merged P^5)
    nested = [Term(Mono.one(), Q(0), Q(0), 0), Term(Mono.one(), Q(0), Q(0), 5)]
    monkeypatch.setattr(schwartz, "_REFINE_CAP", 11)
    assert len(from_terms(C3, nested).terms) == 11
    monkeypatch.setattr(schwartz, "_REFINE_CAP", 10)
    with pytest.raises(SchwartzError, match="term budget"):
        from_terms(C3, nested)


def test_gauss_integral_matches_residue_enumeration():
    # the stationary-phase closed form against the brute-force sum, for
    # every unit class of a and b on both sides of v(b) >= v(a) + r
    ctx_of = {p: PrimeCtx(p) for p in (3, 5, 7)}
    cases = 0
    for p, ctx in ctx_of.items():
        for j in (-1, -2, -3, -4):
            for u in range(1, p):
                r = (u + j) % 3 - 1
                va = j - 2 * r
                a = Q(u) * Q(p) ** va
                edge = va + r
                for b in (Q(0), -2 * Q(p) ** (edge - 1), Q(u + 1) * Q(p) ** edge, Q(p) ** (edge + 1) / 2):
                    got = chirp._gauss_integral(a, b, r, ctx)
                    assert Cyclo.of(p, [got]) == oracle_gauss_integral(p, a, b, r), (p, a, b, r)
                    vanishes = b != 0 and fraction_valuation(b, p) < edge
                    assert (got.rat == 0) == vanishes
                    if not vanishes:
                        # magnitude q^-r q^(j/2), phase psi(-b^2/4a) times an eighth root
                        assert got.rat == 1 and got.qexp == -r + Q(j, 2)
                        root = got.turn - _pfrac(-b * b / (4 * a), p)
                        assert (8 * root).denominator == 1
                        assert Mono(turn=root) == weil_index(ctx.of(a))
                    cases += 1
    # where psi(a t^2) is 1 on P^r the integral is the volume or 0
    for a, b, r, want in ((Q(1, 9), Q(0), 1, Mono(1, -1)), (Q(1, 3), Q(1, 9), 1, Mono.zero()),
                          (Q(0), Q(1, 3), 1, Mono(1, -1)), (Q(2, 3), Q(1, 3), 0, None)):
        got = chirp._gauss_integral(a, b, r, C3)
        assert Cyclo.of(3, [got]) == oracle_gauss_integral(3, a, b, r)
        if want is not None:
            assert got == want
    assert cases == 4 * 4 * (2 + 4 + 6)


def _rep_cases(rng, p, count):
    # seeded identity cases as the weil-rep-identity check draws them at level 1
    ctx = PrimeCtx(p)
    phis = [SchwartzFn.indicator(ctx), phi_m(ctx, 1, 2), SchwartzFn.indicator(ctx, Q(1), 1)]
    for _ in range(count):
        yield _rep_word(rng, p, 2), _rep_word(rng, p, 2), rng.choice(phis), rng.choice([1, -1])


def test_rep_identity_sides_are_one_equal_term():
    # the square phase keeps every side one term, and a single term has one
    # reduced form, so the identity holds as equal tuples
    rng = random.Random(24)
    for p in (3, 5, 7):
        for g1, g2, phi, eps in _rep_cases(rng, p, 60):
            lhs, rhs = schwartz._rep_identity_sides(g1, g2, phi, eps)
            assert len(lhs.terms) == len(rhs.terms) == 1
            assert lhs == rhs, (p, g1, g2, eps)


def test_deep_words_match_pointwise_oracle():
    # words the ball path could not afford, against pointwise formulas
    rng = random.Random(25)
    b = Q(3) ** -20
    wide = SchwartzFn.indicator(C3, 0, -3)
    word = [("flip",), ("upper", b)]
    out = weil_act(word, wide)
    assert len(out.terms) == 1 and out.terms[0].rad == -23
    xs = [Q(0), Q(3) ** 25, Q(2) * Q(3) ** 23, Q(3) ** 22, Q(1, 2) * Q(3) ** 24]
    for x in xs:
        # flip . upper(b) . 1_(P^-3) at x, as the Gaussian integral over P^-3
        want = chirp._gauss_integral(b, 2 * x, -3, C3)
        assert out.value_at(x) == Cyclo.of(3, [want]), x
    for p in (3, 5):
        ctx = PrimeCtx(p)
        phi = phi_m(ctx, 1, 1)
        for eps in (1, -1):
            word = [("flip",), ("upper", Q(p) ** -2), ("flip",)]
            got = weil_act(word, phi, twist=eps)
            assert len(got.terms) == 1
            pts = [Q(0), Q(1), Q(1, p), Q(2, p * p), Q(p), Q(rng.randint(1, p**3), p**2)]
            for x in pts:
                assert abs(embed(got.value_at(x)) - oracle_word(word, phi, x, eps)) < 1e-9, (p, eps, x)


def _chirp_terms(rng, p):
    # one ball carrying two square phases and a linear one, a chirp on a
    # ball inside it and one on a ball elsewhere; supports stay in P^-1
    # and square phases above P^-4, so the Riemann grid has p^5 points
    center = Q(rng.randint(0, p - 1))
    rad = rng.randint(-1, 0)
    terms = []
    for _ in range(2):
        quad = Q(rng.choice([1, 2, -1])) * Q(p) ** (-2 * rad - rng.randint(1, 2))
        co = Mono(Q(rng.randint(1, 3)), Q(rng.randint(-1, 1), 2), Q(rng.randint(0, 7), 8))
        terms.append(Term(co, Q(rng.randint(-p, p), p), center, rad, quad))
    terms.append(Term(Mono(Q(-1)), Q(rng.randint(0, p)), center, rad))
    terms.append(Term(Mono(2, 0, Q(1, 4)), Q(0), center + Q(p) ** (rad + 1), rad + 1, Q(p) ** (-2 * rad - 3)))
    terms.append(Term(Mono.one(), Q(1, p), Q(1, p), 0, Q(2, p * p)))
    return terms


def test_chirp_sums_plancherel_integral_values_and_reflection():
    rng = random.Random(26)
    for p, count in ((3, 5), (5, 2)):
        ctx = PrimeCtx(p)
        for _ in range(count):
            raw = SchwartzFn(ctx, tuple(_chirp_terms(rng, p)))
            f = raw.canonical()
            assert sum(t.quad != 0 for t in f.terms) >= 2
            assert fourier(f).norm_sq() == f.norm_sq()
            assert fourier(f, twist=-1).norm_sq() == f.norm_sq()
            for eps in (1, -1):
                assert weil_act([("flip",)], f, twist=eps) == fourier(f, twist=eps)
            assert f.integral() == oracle_integral(f) == raw.integral()
            assert f.canonical() == f
            box, depth = riemann_grid(f)
            for _ in range(8):
                x = Q(rng.randint(-p ** (box + depth), p ** (box + depth)), p**box)
                want = Cyclo.of(p, (
                    t.coeff * Mono(turn=_pfrac(t.quad * x * x + t.freq * x, p))
                    for t in raw.terms if fraction_valuation(x - t.center, p) >= t.rad
                ))
                assert f.value_at(x) == raw.value_at(x) == want
                assert f.reflect().value_at(-x) == want
            y = Q(rng.randint(0, p * p), p)
            assert abs(embed(fourier(f).value_at(y)) - oracle_fourier(f, y)) < 1e-9


def test_chirp_relation_is_zero_by_mass_and_witnessed_when_broken():
    # psi(u x^2/p) on O expands in the linear characters of O/P with Gauss
    # sum coefficients; the terms never cancel, yet the difference is 0
    for p in (3, 5, 7):
        ctx = PrimeCtx(p)
        for u in (1, p - 1):
            chirp = from_terms(ctx, [Term(Mono.one(), Q(0), Q(0), 0, Q(u, p))])
            expansion = from_terms(ctx, [
                Term(Mono(Q(1, p), 0, Q(u * k * k - b * k, p)), Q(b, p), Q(0), 0)
                for b in range(p) for k in range(p)
            ])
            diff = chirp.minus(expansion)
            assert len(diff.terms) > 1 and diff._residual_balls() == []
            assert chirp.equals(expansion) and diff.norm_sq() == 0
            assert chirp.difference_witness(expansion) is None
            broken = expansion.plus(from_terms(ctx, [Term(Mono(Q(1, p)), Q(1, p), Q(0), 0)]))
            assert not chirp.equals(broken)
            x = chirp.difference_witness(broken)
            assert chirp.value_at(x) != broken.value_at(x)
    # a chirp against its own square-phase-free neighbour, deep in a ball
    f = from_terms(C3, [Term(Mono.one(), Q(0), Q(0), -2, Q(1, 3) ** 9)])
    g = SchwartzFn.indicator(C3, 0, -2)
    x = f.difference_witness(g)
    assert f.value_at(x) != g.value_at(x)


def _nested_ball_terms(rng, p):
    # balls around one center at radii -2..3, some with a full family of
    # children, so that splits cascade and sums meet on shared balls
    base = Q(rng.randint(-p * p, p * p), rng.choice([1, p]))
    terms = []
    for _ in range(rng.randint(1, 6)):
        rad = rng.randint(-2, 3)
        center = base + rng.randint(0, p) * Q(p) ** rng.randint(-1, 3)
        co = Mono(Q(rng.choice([1, -1, 2, 3, Q(1, 2)])), Q(rng.randint(-1, 1), 2), Q(rng.randint(0, 7), 8))
        freq = Q(rng.randint(-p, p), rng.choice([1, p, p * p]))
        terms.append(Term(co, freq, center, rad))
        if rng.random() < 0.3:
            terms += [Term(co, freq, center + k * Q(p) ** rad, rad + 1) for k in range(p)]
    return terms


def _cut_equal_balls(fn):
    # Cut each ball of a canonical function one radius finer when it gives
    # p equal pieces: when no frequency or square-phase digit sits at the
    # cut, a digit that would turn into a different constant on each piece.
    p = fn.ctx.p
    out = []
    for ts in fn._balls().values():
        if all(schwartz._head(t.freq, -t.rad - 1, p) == t.freq
               and schwartz._head(t.quad, -2 * t.rad - 2, p) == t.quad for t in ts):
            out += [piece for t in ts for piece in chirp._split_term(t, t.rad + 1, p)]
        else:
            out += ts
    return SchwartzFn(fn.ctx, tuple(out))


def _assert_canonical_form(cases, seed):
    # canonical() must be a fixed point on pairwise disjoint balls with no
    # complete family of p equal siblings, ignore the input order and a cut
    # into equal pieces, and equal its input at the ball_points of every
    # input ball.  Returns how many canonical forms the cut refined.
    rng = random.Random(seed)
    cut = 0
    for ctx, terms in cases:
        p = ctx.p
        can = SchwartzFn(ctx, terms).canonical()
        assert can.canonical() == can
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert SchwartzFn(ctx, tuple(shuffled)).canonical() == can
        finer = _cut_equal_balls(can)
        cut += len(finer.terms) > len(can.terms)
        assert finer.canonical() == can
        balls = can._balls()
        for (c1, r1), (c2, r2) in itertools.combinations(balls, 2):
            assert fraction_valuation(c2 - c1, p) < min(r1, r2)
        families = {}
        for (center, rad), ts in balls.items():
            kids = families.setdefault((schwartz._head(center, rad - 1, p), rad), [])
            kids.append(frozenset((t.coeff, t.freq, t.quad) for t in ts))
        assert not any(len(kids) == p and len(set(kids)) == 1 for kids in families.values())
        # the input minus its canonical form vanishes around every input ball
        diff = SchwartzFn(ctx, terms + can.scaled(Mono(-1)).terms)
        points = {x for t in terms for xs in ball_points(t.center, t.rad, p) for x in xs}
        for x in points:
            assert not diff.value_at(x), (p, terms, x)
    return cut


def test_canonical_matches_fixed_point_oracle_on_nested_balls():
    # The oracle is the set of exact properties in _assert_canonical_form.
    # The inputs: three copies of 1_O at p = 3, whose sum 3 = q moves into
    # the q exponent; seeded nested balls, some with a full family of
    # children, so that splits cascade and sums meet on shared balls;
    # psi(x/3) 1_O and its three pieces psi(k/3) 1_(k+P), one function
    # whose two canonical forms are unequal tuples, so that == compares
    # term lists and only equals() compares functions.
    chirp = (Term(Mono.one(), Q(1, 3), Q(0), 0),)
    pieces = tuple(Term(Mono(turn=Q(k, 3)), Q(0), Q(k), 1) for k in range(3))
    cases = [(C3, (Term(Mono.one(), Q(0), Q(0), 0),) * 3), (C3, chirp), (C3, pieces)]
    for p, count in ((3, 16), (5, 8), (7, 3)):
        rng = random.Random(20 + p)
        cases += [(PrimeCtx(p), tuple(_nested_ball_terms(rng, p))) for _ in range(count)]
    cut = _assert_canonical_form(cases, 22)
    assert cut > len(cases) // 2, (cut, len(cases))
    assert from_terms(C3, cases[0][1]).terms[0].coeff == Mono(1, 1)
    whole, cut_up = from_terms(C3, chirp), from_terms(C3, pieces)
    assert whole != cut_up and whole.equals(cut_up)


def _term_with_tails(rng, p, center, rad):
    # a term whose center, frequency and square phase carry digits past
    # its ball and whose rational part may carry a power of p, so that
    # every fold of the normal form has work to do
    co = Mono(Q(rng.choice([1, -1, 2, p, Q(1, p), Q(3, 2)])), Q(rng.randint(-1, 1), 2), Q(rng.randint(0, 7), 8))
    freq = Q(rng.randint(-p * p, p * p), rng.choice([1, p, p**2, p**3]))
    quad = rng.choice([Q(0), Q(rng.randint(-p * p, p * p), rng.choice([1, p, p**3, p**5]))])
    return Term(co, freq, center, rad, quad)


@pytest.mark.parametrize("p", [3, 5, 13])
def test_turn_plus_adds_the_p_part_of_integer_parts(p):
    """chirp._turn_plus(turn, n, d, p, g) is (turn + g + _pfrac(n / d)) % 1
    for n / d not in lowest terms, of either sign, with p in n, in d or in
    both, and d negative."""
    rng = random.Random(f"turn plus {p}")
    for _ in range(300):
        den = rng.choice([1, 8, p, 8 * p])
        turn = Q(rng.randrange(den), den)
        g = Q(rng.randrange(8), 8)
        common = rng.choice([1, 2, p, 3 * p])
        n = rng.randint(-50, 50) * p ** rng.randint(0, 2) * common
        d = rng.choice([1, -1]) * rng.randint(1, 30) * p ** rng.randint(0, 3) * common
        want = (turn + g + _pfrac(Q(n, d), p)) % 1
        assert chirp._turn_plus(turn, n, d, p, g) == want
        assert chirp._turn_plus(turn, n, d, p) == (turn + _pfrac(Q(n, d), p)) % 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_form_on_short_term_lists(p):
    # The oracle is the set of exact properties in _assert_canonical_form.
    # The inputs are the short lists the early exits take: one term with
    # tails, one already reduced term, two terms, p - 1 equal siblings,
    # which cannot glue, and p equal siblings, which must.
    ctx = PrimeCtx(p)
    rng = random.Random(f"short term lists {p}")
    cases = []
    for _ in range(12):
        rad = rng.randint(-2, 3)
        center = Q(rng.randint(-p**3, p**3), rng.choice([1, p, p * p]))
        t = _term_with_tails(rng, p, center, rad)
        (reduced,) = from_terms(ctx, [t]).terms
        assert chirp._normalize_term(reduced, p) is reduced
        assert SchwartzFn(ctx, (reduced,)).canonical().terms == (reduced,)
        # the one-term shortcut agrees with the slot path, which a zero term forces
        zero = Term(Mono.zero(), Q(0), center, rad)
        assert schwartz._regroup([t], p) == schwartz._regroup([t, zero], p) == [reduced]
        near = rng.randint(rad - 1, rad + 2)
        u = _term_with_tails(rng, p, center + rng.randint(0, p) * Q(p) ** near, near)
        # siblings whose phases have no digit at the cut glue into c + P^rad
        c = schwartz._head(center, rad, p)
        f = schwartz._head(Q(rng.randint(-p**3, p**3), p**3), -rad - 1, p)
        a = schwartz._head(Q(rng.randint(-p**3, p**3), p**5), -2 * rad - 2, p)
        kids = tuple(Term(t.coeff, f, c + k * Q(p) ** rad, rad + 1, a) for k in range(p))
        cases += [(ctx, (t,)), (ctx, (reduced,)), (ctx, (t, u)), (ctx, kids[:-1]), (ctx, kids)]
        assert len(SchwartzFn(ctx, kids[:-1]).canonical().terms) == p - 1
        assert [(s.center, s.rad) for s in SchwartzFn(ctx, kids).canonical().terms] == [(c, rad)]
    _assert_canonical_form(cases, 24)


def test_canonical_matches_fixed_point_oracle_on_weil_words(monkeypatch):
    # The oracle is the set of exact properties in _assert_canonical_form.
    # The inputs: every term list canonical() is handed while identity
    # words run.
    seen = []
    canonical = SchwartzFn.canonical
    monkeypatch.setattr(SchwartzFn, "canonical", lambda fn: seen.append(fn) or canonical(fn))
    rng = random.Random(21)
    for p in (3, 5, 7):
        for g1, g2, phi, eps in _rep_cases(rng, p, 15):
            check_rep_identity(g1, g2, phi, twist=eps)
    monkeypatch.undo()
    assert len(seen) > 300
    cases = [(f.ctx, f.terms) for f in seen]
    cut = _assert_canonical_form(cases, 23)
    assert cut > len(cases) // 2, (cut, len(cases))


def test_plus_rejects_mixed_contexts():
    with pytest.raises(SchwartzError):
        SchwartzFn.indicator(C3).plus(SchwartzFn.indicator(C5))


def test_zero_function():
    z = SchwartzFn.zero(C3)
    assert not z.terms
    assert z.integral() == 0
    f = SchwartzFn.indicator(C3)
    assert not f.minus(f).terms


# ----------------------------------------------------------- transform

def test_fourier_fixes_unit_ball():
    f = SchwartzFn.indicator(C3)
    assert fourier(f) == f
    f5 = SchwartzFn.indicator(C5)
    assert fourier(f5) == f5


def test_fourier_matches_riemann_sum_on_unit_ball():
    f = SchwartzFn.indicator(C3)
    for x in [Q(0), Q(1), Q(1, 3), Q(2, 9), Q(3)]:
        assert abs(embed(fourier(f).value_at(x)) - oracle_fourier(f, x)) < 1e-9


def test_fourier_shifted_ball_shape():
    # 1_{2+P^2} goes to q^{-2} psi(4 x) 1_{P^{-2}}, checked against the sum
    f = SchwartzFn.indicator(C3, Q(2), 2)
    ff = fourier(f)
    assert len(ff.terms) == 1
    t = ff.terms[0]
    assert (t.freq, t.center, t.rad) == (Q(4), Q(0), -2)
    assert t.coeff == Mono(Q(1), -2, Q(0))
    for x in [Q(0), Q(1, 9), Q(5, 9), Q(1, 3), Q(1, 27)]:
        assert abs(embed(ff.value_at(x)) - oracle_fourier(f, x)) < 1e-9


def test_fourier_twice_is_reflection():
    rng = random.Random(13)
    for p, ctx in ((3, C3), (5, C5)):
        for _ in range(10):
            c = Q(rng.randint(-4, 4), rng.choice([1, p]))
            f = SchwartzFn.indicator(ctx, c, rng.randint(-1, 2))
            assert fourier(fourier(f)) == f.reflect()


def test_fourier_twisted_kernel_against_sum():
    f = SchwartzFn.indicator(C3, Q(1), 1)
    ff = fourier(f, twist=-1)
    for x in [Q(0), Q(1, 3), Q(2, 3), Q(1)]:
        assert abs(embed(ff.value_at(x)) - oracle_fourier(f, x, eps=-1)) < 1e-9


def test_plancherel_exact_on_monomial_slots():
    f = from_terms(
        C3,
        [
            Term(Mono(Q(2)), Q(0), Q(0), 1),
            Term(Mono(Q(1, 2)), Q(1, 3), Q(0), 1),
            Term(Mono(Q(3)), Q(0), Q(5), 2),
        ],
    )
    assert fourier(f).norm_sq() == f.norm_sq()
    assert isinstance(f.norm_sq(), Q)


def test_plancherel_seeded():
    rng = random.Random(14)
    for _ in range(15):
        terms = []
        for _ in range(rng.randint(1, 4)):
            co = Mono(Q(rng.randint(1, 5), rng.randint(1, 3)), Q(rng.randint(-1, 1), 2), Q(rng.randint(0, 7), 8))
            terms.append(Term(co, Q(rng.randint(-2, 2)), Q(rng.randint(-5, 5), 3), rng.randint(-1, 2)))
        f = from_terms(C3, terms)
        assert fourier(f).norm_sq() == f.norm_sq()


def test_integral_is_value_of_transform_at_zero():
    f = from_terms(
        C3, [Term(Mono(Q(2)), Q(1, 3), Q(1), 1), Term(Mono.one(), Q(0), Q(9), 3)]
    )
    assert abs(embed(f.integral()) - oracle_fourier(f, Q(0))) < 1e-9


# ---------------------------------------------------------- test vector

def test_phi_m_values_and_mass():
    f = phi_m(C3, 1, 2)
    assert f.value_at(Q(27)) == 1
    assert f.value_at(Q(1)) == 0
    assert f.integral() == Q(1, 27)
    g = phi_m(C5, 2, 1)
    assert g.integral() == Q(1, 25)


def test_phi_m_rejects_bad_levels():
    with pytest.raises(SchwartzError):
        phi_m(C3, 0, 2)
    with pytest.raises(SchwartzError):
        phi_m(C3, 1, 0)


# ------------------------------------------------------- generator acts

def test_weil_act_identity_items():
    f = SchwartzFn.indicator(C3, Q(1), 1)
    assert weil_act([("diag", Q(1))], f) == f
    assert weil_act([("upper", Q(0))], f) == f
    assert weil_act([("sign", 1)], f) == f


def test_sheet_sign_negates():
    f = phi_m(C3, 1, 2)
    g = weil_act([("sign", -1)], f)
    assert g == f.scaled(Mono(Q(-1)))
    assert not g.plus(f).terms


def test_weil_act_rejects_bad_items():
    f = SchwartzFn.indicator(C3)
    with pytest.raises(SchwartzError):
        weil_act([("diag", Q(0))], f)
    with pytest.raises(SchwartzError):
        weil_act([("spin",)], f)
    with pytest.raises(SchwartzError):
        weil_act([("sign", 3)], f)
    with pytest.raises(SchwartzError):
        weil_act([("flip",)], f, twist=2)


def test_word_items_are_tagged_tuples_of_scalars():
    # a bare letter is not a word item, and a "heis" item takes three
    # rationals, not an element
    f = SchwartzFn.indicator(C3)
    h = HeisenbergElem(Q(1), Q(0), Q(0))
    for act in (lambda w: weil_act(w, f), lambda w: cover_lift(C3, w)):
        with pytest.raises(SchwartzError, match="bad word item"):
            act(["flip"])
        with pytest.raises(PadicError, match="exact rational"):
            act([("heis", h)])
    assert weil_act([h], f) == weil_act([("heis", h.x, h.xp, h.z)], f)


def test_generators_match_pointwise_formulas_seeded():
    rng = random.Random(15)
    for p, ctx in ((3, C3), (5, C5)):
        phis = [
            SchwartzFn.indicator(ctx),
            SchwartzFn.indicator(ctx, Q(1), 1),
            phi_m(ctx, 1, 1),
        ]
        for _ in range(30):
            tag = rng.choice(["upper", "diag", "flip", "heis", "sign"])
            if tag == "upper":
                item = ("upper", Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-2, 2))
            elif tag == "diag":
                item = ("diag", Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-2, 2))
            elif tag == "heis":
                item = (
                    "heis",
                    Q(rng.randint(-3, 3), rng.choice([1, p])),
                    Q(rng.randint(-3, 3), rng.choice([1, p])),
                    Q(rng.randint(-3, 3)),
                )
            elif tag == "sign":
                item = ("sign", rng.choice([1, -1]))
            else:
                item = ("flip",)
            eps = rng.choice([1, -1])
            phi = rng.choice(phis)
            got = weil_act([item], phi, twist=eps)
            for k in [Q(0), Q(1), Q(1, p), Q(2, p * p), Q(p)]:
                want = oracle_step(item[0], item[1:], phi, k, eps)
                assert abs(embed(got.value_at(k)) - want) < 1e-9, (p, item, eps, k)


def test_short_words_match_pointwise_formulas_seeded():
    rng = random.Random(16)
    for p, ctx in ((3, C3), (5, C5)):
        phi0 = SchwartzFn.indicator(ctx)
        for _ in range(12):
            word = [("flip",)]
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5:
                    word.append(("upper", Q(rng.choice([1, 2])) * Q(p) ** rng.randint(-1, 1)))
                else:
                    word.append(("diag", Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-1, 1)))
            eps = rng.choice([1, -1])
            got = weil_act(word, phi0, twist=eps)
            for k in [Q(0), Q(1), Q(1, p)]:
                want = oracle_word(word, phi0, k, eps)
                assert abs(embed(got.value_at(k)) - want) < 1e-9, (p, word, eps, k)


def test_generators_on_chirps_match_pointwise_formulas_seeded():
    # every generator, and the Heisenberg law, on inputs that already
    # carry square phases, one on a ball and two sharing one
    rng = random.Random(27)
    for p, ctx in ((3, C3), (5, C5)):
        phis = [
            from_terms(ctx, [Term(Mono.one(), Q(1, p), Q(0), 0, Q(1, p))]),
            from_terms(ctx, [
                Term(Mono(2, 0, Q(1, 8)), Q(0), Q(1), 1, Q(2, p**3)),
                Term(Mono.one(), Q(1), Q(1), 1, Q(-1, p**4)),
            ]),
        ]
        for _ in range(16):
            tag = rng.choice(["upper", "diag", "flip", "heis", "sign"])
            if tag in ("upper", "diag"):
                item = (tag, Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-2, 2))
            elif tag == "heis":
                item = ("heis", Q(rng.randint(-3, 3), rng.choice([1, p])),
                        Q(rng.randint(-3, 3), rng.choice([1, p])), Q(rng.randint(-3, 3)))
            elif tag == "sign":
                item = ("sign", rng.choice([1, -1]))
            else:
                item = ("flip",)
            eps = rng.choice([1, -1])
            phi = rng.choice(phis)
            got = weil_act([item], phi, twist=eps)
            for k in [Q(0), Q(1), Q(1, p), Q(2, p * p), Q(p), Q(rng.randint(1, p**3), p)]:
                want = oracle_step(item[0], item[1:], phi, k, eps)
                assert abs(embed(got.value_at(k)) - want) < 1e-9, (p, item, eps, k)
            pick = lambda: Q(rng.randint(-4, 4), rng.choice([1, p, p * p]))
            h1 = HeisenbergElem(pick(), pick(), pick())
            h2 = HeisenbergElem(pick(), pick(), pick())
            lhs = weil_act([h1], weil_act([h2], phi, twist=eps), twist=eps)
            assert lhs.equals(weil_act([h1 * h2], phi, twist=eps)), (p, h1, h2, eps)


def test_diag_formula_scaling():
    f = SchwartzFn.indicator(C3, Q(1), 1)
    out = weil_act([("diag", Q(3))], f)
    assert len(out.terms) == 1
    t = out.terms[0]
    assert (t.center, t.rad) == (Q(1, 3), 0)
    assert t.coeff.qexp == Q(-1, 2)


# ------------------------------------------- square-character oracle

def test_square_character_oracle_small_cases():
    # psi(t^2 / 3) sees t = 1; on P^1 the square gains p^2
    assert oracle_square_character_trivial(3, Q(1), 0)
    assert not oracle_square_character_trivial(3, Q(1, 3), 0)
    assert oracle_square_character_trivial(3, Q(1, 9), 1)
    assert not oracle_square_character_trivial(3, Q(2, 27), 1)
    assert oracle_square_character_trivial(5, Q(25), -1)
    assert not oracle_square_character_trivial(5, Q(5), -1)


# ------------------------------------------------------ heisenberg side

def test_heisenberg_law_matches_operator_composition_seeded():
    rng = random.Random(17)
    for p, ctx in ((3, C3), (5, C5)):
        phis = [SchwartzFn.indicator(ctx), SchwartzFn.indicator(ctx, Q(1), 1)]
        for _ in range(100):
            pick = lambda: Q(rng.randint(-4, 4), rng.choice([1, p, p * p]))
            h1 = HeisenbergElem(pick(), pick(), pick())
            h2 = HeisenbergElem(pick(), pick(), pick())
            phi = rng.choice(phis)
            eps = rng.choice([1, -1])
            lhs = weil_act([h1], weil_act([h2], phi, twist=eps), twist=eps)
            rhs = weil_act([h1 * h2], phi, twist=eps)
            assert lhs.equals(rhs), (p, h1, h2, eps)


def test_heisenberg_inverse_and_identity():
    h = HeisenbergElem(Q(1, 3), Q(2), Q(5))
    assert (h * h.inverse()).is_identity()
    assert not h.is_identity()
    k = HeisenbergElem(Q(1), Q(0), Q(0))
    shift = (h * k).z - h.z - k.z
    assert shift == h.x * k.xp - k.x * h.xp


def test_heisenberg_coordinates_are_fractions():
    h = HeisenbergElem(1, 0, -2)
    assert (h.x, h.xp, h.z) == (1, 0, -2)
    assert all(type(c) is Q for c in (h.x, h.xp, h.z))
    for bad in (C3.of(1), 0.5):
        with pytest.raises(PadicError, match="exact rational"):
            HeisenbergElem(Q(1), bad, Q(0))


def test_center_acts_by_character():
    f = SchwartzFn.indicator(C3, Q(1), 1)
    out = weil_act([("heis", Q(0), Q(0), Q(1, 9))], f, twist=1)
    assert out == f.scaled(Mono(Q(1), 0, Q(1, 9)))


# ------------------------------------------------------ the cover action

def test_canonical_word_rebuilds_matrix():
    # the unit-sheet lifts of the word multiply to the matrix on the sheet
    # (-c, -1), or 1 when c = 0: the sheet weil_act_cover corrects by
    rng = random.Random(18)
    for p in (3, 5, 7, 11, 13):
        ctx = PrimeCtx(p)
        for _ in range(40):
            a = Q(rng.randint(-5, 5), rng.choice([1, p])) or Q(1)
            b = Q(rng.randint(-5, 5), rng.choice([1, p]))
            c = Q(0)
            if rng.random() < 0.7:
                c = Q(rng.choice([1, 2, -1, p]), rng.choice([1, p]))
            rows = ((a, b), (c, (b * c + 1) / a))
            lift = cover_lift(ctx, canonical_word(MetaSL2(ctx, rows)))
            assert lift.rows == rows
            assert lift.zeta == (hilbert_symbol(ctx.of(-c), ctx.of(-1)) if c else 1), (p, rows)


def test_cover_lift_folds_from_the_first_letter():
    assert cover_lift(C3, []).is_identity()
    assert cover_lift(C3, [("sign", -1)]) == MetaSL2(C3, ((1, 0), (0, 1)), -1)
    word = [("flip",), ("upper", Q(1, 3)), ("diag", Q(2, 9))]
    expected = MetaSL2.flip(C3) * MetaSL2.upper(C3, Q(1, 3)) * MetaSL2.diag(C3, Q(2, 9))
    assert cover_lift(C3, word) == expected


def test_cover_lift_rejects_heisenberg_items():
    with pytest.raises(SchwartzError):
        cover_lift(C3, [("heis", Q(1), Q(0), Q(0))])


def test_rep_identity_flip_squared():
    # the composite is the sheet-one lift of -1, acting as an index square
    phi = SchwartzFn.indicator(C3)
    assert check_rep_identity([("flip",)], [("flip",)], phi, twist=1)
    f = MetaSL2.flip(C3)
    assert rao_cocycle(C3, f.rows, f.rows) == 1
    g = weil_index(C3.of(1))
    lhs = weil_act([("flip",), ("flip",)], phi)
    assert lhs == phi.reflect().scaled(g * g)


def test_rep_identity_upper_pair_trivial_cocycle():
    phi = SchwartzFn.indicator(C3, Q(0), 1)
    b1, b2 = Q(1, 3), Q(5, 9)
    assert check_rep_identity([("upper", b1)], [("upper", b2)], phi)
    u1 = MetaSL2.upper(C3, b1)
    u2 = MetaSL2.upper(C3, b2)
    assert rao_cocycle(C3, u1.rows, u2.rows) == 1


def test_rep_identity_diag_pair_hilbert_cocycle():
    phi = SchwartzFn.indicator(C3)
    for a, b in [(Q(3), Q(3)), (Q(3), Q(2)), (Q(-1), Q(3)), (Q(6), Q(3))]:
        assert check_rep_identity([("diag", a)], [("diag", b)], phi)
        d1 = MetaSL2.diag(C3, a)
        d2 = MetaSL2.diag(C3, b)
        assert rao_cocycle(C3, d1.rows, d2.rows) == hilbert_symbol(C3.of(a), C3.of(b))


def test_rep_identity_seeded_battery():
    cases, _ = check_weil_rep_identity(CampaignConfig(p=(3, 5), m=(1,), samples=40), random.Random(19))
    assert cases == 80


def test_rep_identity_witness_none_on_success():
    phi = SchwartzFn.indicator(C3)
    assert rep_identity_witness([("flip",)], [("flip",)], phi) is None


def test_norm_sq_is_exact_and_not_always_rational():
    # |1 + zeta_8|^2 = 2 + zeta_8 + zeta_8^-1 = 2 + sqrt 2 on the unit ball
    zeta8 = Mono(turn=Q(1, 8))
    f = from_terms(C3, [Term(Mono.one(), Q(0), Q(0), 0), Term(zeta8, Q(0), Q(0), 0)])
    mass = f.norm_sq()
    assert mass == Cyclo.of(3, [Mono(2), zeta8, zeta8.conjugate()])
    assert mass.rational() is None
    assert abs(embed(mass) - (2 + 2 ** 0.5)) < 1e-12
    assert fourier(f).norm_sq() == mass
    # a Gauss-sum slot is rational again: |sum_a (a|5) zeta_5^a|^2 = 5
    gauss = from_terms(C5, [
        Term(Mono(1 if a in (1, 4) else -1, 0, Q(a, 5)), Q(0), Q(0), 0) for a in range(1, 5)
    ])
    assert gauss.norm_sq() == 5 and isinstance(gauss.norm_sq(), Q)


def test_difference_witness_finds_a_point():
    f = SchwartzFn.indicator(C3, Q(0), 1)
    g = f.scaled(Mono(Q(-1)))
    x = f.difference_witness(g)
    assert x is not None
    assert abs(embed(f.value_at(x)) - embed(g.value_at(x))) > 1
    assert f.difference_witness(f) is None


def test_difference_witness_distinguishes_frequencies():
    f = from_terms(C3, [Term(Mono.one(), Q(1, 3), Q(0), 0)])
    g = SchwartzFn.indicator(C3)
    x = f.difference_witness(g)
    assert x is not None
    assert abs(embed(f.value_at(x)) - embed(g.value_at(x))) > 1e-9


def test_weil_act_cover_tracks_sheet():
    phi = phi_m(C3, 1, 2)
    g = MetaSL2.diag(C3, Q(1))
    minus = MetaSL2(C3, g.rows, -1)
    assert weil_act_cover(g, phi) == phi
    assert weil_act_cover(minus, phi) == phi.scaled(Mono(Q(-1)))
    with pytest.raises(SchwartzError):
        weil_act_cover(MetaSL2.flip(C5), phi)


def test_torus_law_through_operators():
    # (m(a),1)(m(b),1) lands on the sheet (a,b); both routes must agree
    phi = SchwartzFn.indicator(C3)
    for a, b in [(Q(3), Q(3)), (Q(3), Q(6)), (Q(-3), Q(3))]:
        lhs = weil_act([("diag", a)], weil_act([("diag", b)], phi))
        prod = MetaSL2.diag(C3, a) * MetaSL2.diag(C3, b)
        assert prod.zeta == hilbert_symbol(C3.of(a), C3.of(b))
        rhs = weil_act_cover(prod, phi)
        assert lhs.equals(rhs)


# ----------------------------------------------------- pinned traffic

def _panel_word(rng, p):
    # 1-3 letters; entries u p^k with u in {1, 2, -1} and |k| <= 2
    out = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(4)
        if k == 0:
            out.append(("flip",))
        elif k == 3:
            out.append(("sign", rng.choice([1, -1])))
        else:
            out.append(("upper" if k == 1 else "diag", rng.choice([1, 2, -1]) * Q(p) ** rng.randint(-2, 2)))
    return out


def _term_fields(fn):
    # every field of every term, as text: rat, qexp, turn, freq, center, rad, quad
    return [[str(x) for x in (t.coeff.rat, t.coeff.qexp, t.coeff.turn, t.freq, t.center, t.rad, t.quad)]
            for t in fn.terms]


def weil_panel_traffic(monkeypatch):
    """(canonical calls, terms handed to canonical, sha256 of the outputs)
    over a fixed panel: 40 rep-identity cases at each of p = 3, 5, 13, and
    a Heisenberg letter applied to each composed side."""
    seen = [0, 0]
    canonical = SchwartzFn.canonical

    def counted(fn):
        seen[0] += 1
        seen[1] += len(fn.terms)
        return canonical(fn)

    monkeypatch.setattr(SchwartzFn, "canonical", counted)
    rng = random.Random("weil action traffic panel")
    out = []
    for p in (3, 5, 13):
        ctx = PrimeCtx(p)
        phis = [SchwartzFn.indicator(ctx), phi_m(ctx, 1, 2), SchwartzFn.indicator(ctx, 1, 1)]
        for _ in range(40):
            g1, g2 = _panel_word(rng, p), _panel_word(rng, p)
            phi, twist = rng.choice(phis), rng.choice([1, -1])
            lhs, rhs = schwartz._rep_identity_sides(g1, g2, phi, twist)
            h = HeisenbergElem(*(Q(rng.randint(-9, 9), p**k) for k in (1, 2, 3)))
            moved = weil_act([h], lhs, twist)
            assert lhs.equals(rhs)
            out.append([_term_fields(lhs), _term_fields(rhs), _term_fields(moved)])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    return seen[0], seen[1], digest


# The panel's traffic and outputs.  A change that moves the number of
# canonical calls or terms (the weil-words term meter of bench/run.py
# counts the same), or any output term, updates these and says so in
# CHANGES.md.
WEIL_PANEL_TRAFFIC = (1054, 1174, "5f8fd6714fa8d85d5a7448eb65b3a7ca50bd19230c29dfd1f29153d5d6162203")


def test_weil_action_traffic_and_outputs_are_pinned(monkeypatch):
    assert weil_panel_traffic(monkeypatch) == WEIL_PANEL_TRAFFIC

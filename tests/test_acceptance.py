"""The release gate: thirteen numbered verdicts over the whole stack.

Each test prints one scoreboard line, ``criterion NN: PASS`` or
``FAIL``, and conftest repeats the collected lines after the run (a
criterion that raises shows as ``ERROR``).  The verdicts cover the root
census, the matrix layer, the congruence filtrations, the covering
group, and the representation on test functions, each at the scale and
tolerance the gate promises, reusing the independent oracles of the
per-module suites.

Where a criterion's verdict is a catalog check of `padicsp verify`
(criteria 02, 04, 05, 06, 09, 11 and 12), the criterion runs that check
with its own seed and case counts through `run_check` and adds only
what the check does not assert.

Each property has one home: a criterion or a catalog check, and a
per-module test holds only what neither asserts.

Criterion 10 checks the deep-ball vectors at two places: invariance
at the paper's radii -(4n-3)m upstairs and (4n-1)m downstairs, and
sharpness at the true walls +/-(4n-2)m, where a brute-force character
sum confirms each verdict.
"""
import random
import time
from fractions import Fraction as Q

import conftest
from test_chevalley import oracle_volume_exponent
from test_padic import oracle_hilbert_solvable, smallest_nonresidue
from test_rootsys import radical_root
from test_schwartz import oracle_square_character_trivial

from padicsp.padic import (
    Mono,
    PrimeCtx,
    fraction_valuation,
    hilbert_symbol,
    mu_psi,
    psi,
    weil_index,
)
from padicsp.rootsys import (
    WeylElem,
    bad_pair_weyl_factorizations,
    bad_pair_witness,
    bad_pairs,
    bad_triples,
    bruhat_leq,
    chain_word_sigma,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    positive_roots,
    root_decompositions,
    root_from_vector,
)
from padicsp.chevalley import (
    corner_column_unipotent,
    first_axis_torus,
    generic_character,
    in_skew_level,
    levi_embed,
    negative_coordinate_bound,
    radical_coordinate_bound,
    root_elem,
    rotate_conjugate,
    skew_level_character,
    volume_exponent,
)
from padicsp.metaplectic import (
    MetaSL2,
    SectionFsi,
    _eval_fsi_raw,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
)
from padicsp import schwartz as sw
from padicsp.harness import CampaignConfig, CheckFailure
from padicsp.harness.checks import (
    _deep_unipotent,
    check_bad_pair_factorizations,
    check_big_cell,
    check_bruhat_oracle,
    check_cell_collapse,
    check_cell_identity,
    check_cell_word_rewrite,
    check_fourier_closure,
    check_norm_one_split,
    check_obstructed_decompositions,
    check_weil_rep_identity,
)

C3 = PrimeCtx(3)
C5 = PrimeCtx(5)


def run_check(check, seed, problems, **settings) -> int:
    """Run one catalog check at the default ranks, primes and levels
    with `settings` on top; its counterexample becomes a problem."""
    try:
        cases, _ = check(CampaignConfig(**settings), random.Random(seed))
    except CheckFailure as exc:
        problems.append(f"{check.__name__}: {exc.payload}")
        return 0
    return cases


def record(num: int, label: str, ok: bool, note: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d}: {tag}  {label}"
    if note:
        line += f"  ({note})"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    return ok


# ---------------------------------------------------------- criterion 1

def test_criterion_01_bad_pair_census():
    """Census counts 1, 3, 6; predicate and witness vs closed form, all pairs."""
    t0 = time.perf_counter()
    problems = []
    for n, count in ((2, 1), (3, 3), (4, 6)):
        pairs = bad_pairs(n)
        if len(pairs) != count:
            problems.append(f"n={n}: {len(pairs)} pairs")
        family = set()
        seen_witnesses = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                family.add((radical_root(n, i, j), radical_root(n, i, i)))
        for g1, g2 in pairs:
            ij = bad_pair_witness(g1, g2)
            if ij is None or g1 != radical_root(n, *ij) or g2 != radical_root(n, ij[0], ij[0]):
                problems.append(f"n={n}: witness shape broken at {(g1, g2)}")
            else:
                seen_witnesses.add(ij)
        if seen_witnesses != {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}:
            problems.append(f"n={n}: witness index set incomplete")
        pos = positive_roots(n)
        for a in pos:
            for b in pos:
                bad = (a, b) in family
                if is_bad_pair(a, b) != bad:
                    problems.append(f"n={n}: predicate mismatch at {(a, b)}")
                if not bad and bad_pair_witness(a, b) is not None:
                    problems.append(f"n={n}: witness off the family at {(a, b)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    assert record(1, "bad pair census and closed form", not problems,
                  f"{elapsed:.2f}s"), problems[:3]


# ---------------------------------------------------------- criterion 2

def test_criterion_02_factorization_sets():
    """Frozen rank-3 factorization sets; at ranks 2 and 3 every bad pair
    has a factorization and every witness is re-multiplied."""
    t0 = time.perf_counter()
    problems = []
    run_check(check_bad_pair_factorizations, 20201, problems)
    for n in (2, 3):
        for g1, g2 in bad_pairs(n):
            i, j = bad_pair_witness(g1, g2)
            sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
            facs = bad_pair_weyl_factorizations(g1, g2)
            if not facs:
                problems.append(f"n={n}: no factorization at {(i, j)}")
            for w, witness in facs:
                if witness is None:
                    problems.append(f"n={n}: missing witness at {(i, j)}")
                    continue
                w1p, w2p = witness
                if w1p * sigma * w2p != w:
                    problems.append(f"n={n}: witness product broken at {(i, j)}")
                if not bruhat_leq(w1p, WeylElem.from_word(n, range(1, j - 1))):
                    problems.append(f"n={n}: left factor too large at {(i, j)}")
                if not bruhat_leq(w2p, WeylElem.from_word(n, range(i - 2, 0, -1))):
                    problems.append(f"n={n}: right factor too large at {(i, j)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    assert record(2, "factorization sets and witnesses", not problems,
                  f"{elapsed:.2f}s"), problems[:3]


# ---------------------------------------------------------- criterion 3

def test_criterion_03_reflection_and_shape_laws():
    """Four exhaustive laws on roots, reflections and obstructions, n <= 4.

    (a) sign-flip-free elements keep the long-generator coefficient;
    (b) reflecting the taller of a non-bad pair in the shorter stays
    positive; (c) between-height roots sent negative by the tall member
    are pinned to one radical row and only the short member survives the
    chain factor; (d) every split of tall-minus-middle into positive
    roots contains a part the cell element sends negative.
    """
    t0 = time.perf_counter()
    problems = []
    cases = 0
    for n in (2, 3, 4):
        pos = positive_roots(n)
        for w in full_weyl_group(n):
            if not w.in_levi():
                continue
            for g in pos:
                if g.coeffs[-1] < 1:
                    continue
                img = w.apply(g)
                if not img.is_positive() or img.coeffs[-1] != g.coeffs[-1]:
                    problems.append(f"levi law n={n} w={w} g={g}")
                cases += 1
        for g1 in pos:
            for g2 in pos:
                if g1 == g2 or g1.height > g2.height or is_bad_pair(g1, g2):
                    continue
                if not g1.reflect(g2).is_positive():
                    problems.append(f"reflection law n={n} {(g1, g2)}")
                cases += 1
        for g1, g2, w in bad_triples(n):
            i, j = bad_pair_witness(g1, g2)
            sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
            candidates = [radical_root(n, i, k) for k in range(i + 1, j + 1)]
            for g in pos:
                refl = g2.reflect(g)
                if g1.height <= g.height < g2.height and refl.is_negative():
                    if g not in candidates:
                        problems.append(f"shape law n={n} g={g} not in radical row {i}")
                    if sigma.apply(g).is_negative() and g != g1:
                        problems.append(f"chain factor kills extra root n={n} g={g}")
                    cases += 1
                if g.height >= g1.height and refl.is_positive():
                    if not sigma.apply(g).is_positive():
                        problems.append(f"chain factor sign law n={n} g={g}")
                    cases += 1
            for xi in pos:
                if not g1.height <= xi.height <= g2.height:
                    continue
                diff = tuple(a - b for a, b in zip(g2.euclid(), xi.euclid()))
                for decomp in root_decompositions(n, diff):
                    if not any(w.apply(d).is_negative() for d in decomp):
                        problems.append(f"unobstructed split n={n} xi={xi} {decomp}")
                    cases += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.2f}s")
    assert record(3, "exhaustive reflection and shape laws", not problems,
                  f"{cases} checks, {elapsed:.1f}s"), problems[:3]


# ---------------------------------------------------------- criterion 4

def test_criterion_04_cell_collapse_descent():
    """Appended opposite factors land strictly below, both insertion modes.

    200 seeded cases per obstructed triple and prime for the reinsertion
    mode (obstructed-decompositions, which also rejects an in-depth word
    per rank and prime), 200 per rank and prime for the plain mode
    (cell-collapse, which reinserts whenever the tail holds a bad pair);
    the witness constructor multiplies the factors out and reads the
    cell off the decomposition, and each check re-checks the strict drop.
    """
    t0 = time.perf_counter()
    problems = []
    cases = run_check(check_obstructed_decompositions, 40401, problems, samples=1600)
    cases += run_check(check_cell_collapse, 40402, problems, samples=200)
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s")
    assert record(4, "cell collapse lands strictly lower", not problems,
                  f"{cases} cases, {elapsed:.1f}s"), problems[:3]


# ---------------------------------------------------------- criterion 5

def test_criterion_05_pivot_rewriter():
    """Depth rewriting: exact two-sided identity, pivot size preserved,
    30 cases per rank, prime and level."""
    problems = []
    cases = run_check(check_cell_word_rewrite, 50501, problems, samples=120)
    if cases != 240:
        problems.append(f"{cases} cases, expected 240")
    assert record(5, "pivot rewriter exactness", not problems,
                  f"{cases} cases"), problems[:3]


# ---------------------------------------------------------- criterion 6

def test_criterion_06_cell_identity_and_bruhat_oracle():
    """Opposite-pair cell identity plus 500 word decompositions per rank."""
    problems = []
    cases = run_check(check_cell_identity, 60601, problems, samples=40)
    cases += run_check(check_bruhat_oracle, 60602, problems, samples=250)
    assert record(6, "cell identity and decomposition oracle", not problems,
                  f"{cases} cases"), problems[:3]


# ---------------------------------------------------------- criterion 7

def test_criterion_07_congruence_filtration():
    """Filtration bounds are sharp, the depth character restricts, and the
    two corner-slice matrix identities hold on 100 seeded instances."""
    rng = random.Random(70701)
    problems = []
    cases = 0
    # coordinate bounds, all roots, n <= 4, m <= 2, in and out exactly
    for n in (2, 3, 4):
        for m in (1, 2):
            for g in positive_roots(n):
                b = radical_coordinate_bound(g, m)
                nb = negative_coordinate_bound(g, m)
                if b != -(2 * g.height - 1) * m or nb != (2 * g.height + 1) * m:
                    problems.append(f"bound formula n={n} m={m} g={g}")
                if not in_skew_level(C3, root_elem(n, g, Q(3) ** b), m):
                    problems.append(f"inside bound rejected n={n} m={m} g={g}")
                if in_skew_level(C3, root_elem(n, g, Q(3) ** (b - 1)), m):
                    problems.append(f"outside bound accepted n={n} m={m} g={g}")
                if not in_skew_level(C3, root_elem(n, -g, Q(3) ** nb), m):
                    problems.append(f"inside lower bound rejected n={n} m={m} g={g}")
                if in_skew_level(C3, root_elem(n, -g, Q(3) ** (nb - 1)), m):
                    problems.append(f"outside lower bound accepted n={n} m={m} g={g}")
                cases += 1
            for _ in range(15):
                u = _deep_unipotent(3, n, rng, m)
                if not in_skew_level(C3, u, m):
                    problems.append(f"box element outside level n={n} m={m}")
                if skew_level_character(C3, u, m) != generic_character(C3, u):
                    problems.append(f"character disagreement n={n} m={m}")
                cases += 1
    # corner-slice identities, 50 + 50 seeded instances
    for k in range(50):
        ctx = C3 if k % 2 else C5
        n = 3 + (k % 3 == 0)
        ys = [Q(rng.randint(-6, 6), rng.choice([1, ctx.p])) for _ in range(n - 2)]
        a = Q(rng.choice([1, 2, 5]), rng.choice([1, ctx.p]))
        lhs = first_axis_torus(n, a) * rotate_conjugate(corner_column_unipotent(n, ys, 0))
        block = [[Q(1 if i == j else 0) for j in range(n)] for i in range(n)]
        block[0][0] = a
        for i, y in enumerate(ys):
            block[i + 1][0] = y
        if lhs != levi_embed(n, block):
            problems.append(f"torus-product identity k={k}")
        cases += 1
    for k in range(50):
        ctx = C3 if k % 2 else C5
        n = 3 + (k % 3 == 0)
        i = 1 + rng.randrange(n - 2)
        ys = [Q(rng.randint(-6, 6), rng.choice([1, ctx.p])) for _ in range(i)]
        a = Q(rng.choice([1, 2, 5]), rng.choice([1, ctx.p]))
        block = [[Q(1 if u == v else 0) for v in range(n)] for u in range(n)]
        block[0][0] = a
        for kk, y in enumerate(ys):
            block[kk + 1][0] = y
        mid = levi_embed(n, block)
        r = Q(rng.randint(-5, 5), rng.choice([1, ctx.p, ctx.p ** 2]))
        chain = root_from_vector(
            n, tuple(1 if t == 0 else (-1 if t == i + 1 else 0) for t in range(n))
        )
        lhs = root_elem(n, chain, -r) * mid * root_elem(n, chain, r)
        bump = [[Q(1 if u == v else 0) for v in range(n)] for u in range(n)]
        bump[0][i + 1] = (a - 1) * r
        for kk, y in enumerate(ys):
            bump[kk + 1][i + 1] = y * r
        if lhs != levi_embed(n, bump) * mid:
            problems.append(f"conjugation identity k={k}")
        if generic_character(ctx, levi_embed(n, bump)) != psi(ctx.of(ys[-1] * r)):
            problems.append(f"character extraction k={k}")
        cases += 1
    assert record(7, "congruence filtration and characters", not problems,
                  f"{cases} cases"), problems[:3]


# ---------------------------------------------------------- criterion 8

def test_criterion_08_hilbert_and_weil_cocycle():
    """Formula vs solvability search on all class pairs; index cocycle
    exact in the eighth roots on a class-by-valuation stratified sample."""
    t0 = time.perf_counter()
    rng = random.Random(80801)
    problems = []
    cases = 0
    for p in (3, 5, 7):
        ctx = PrimeCtx(p)
        u = smallest_nonresidue(p)
        for a in (1, u, p, u * p):
            for b in (1, u, p, u * p):
                if hilbert_symbol(ctx.of(a), ctx.of(b)) != oracle_hilbert_solvable(a, b, p):
                    problems.append(f"hilbert vs search p={p} {(a, b)}")
                cases += 1
        strata = [Q(1), Q(u), Q(p), Q(u * p), Q(1, p), Q(u, p)]
        for a0 in strata:
            for b0 in strata:
                for _ in range(3):
                    sa = Q(rng.choice([1, 2, 4, 7])) * Q(p) ** rng.randint(-1, 1)
                    sb = Q(rng.choice([1, 2, 4, 7])) * Q(p) ** rng.randint(-1, 1)
                    a, b = a0 * sa * sa, b0 * sb * sb
                    lhs = mu_psi(ctx.of(a)) * mu_psi(ctx.of(b))
                    h = hilbert_symbol(ctx.of(a), ctx.of(b))
                    rhs = mu_psi(ctx.of(a * b)) * Mono(h)
                    if lhs != rhs:
                        problems.append(f"index cocycle p={p} a={a} b={b}")
                    cases += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    assert record(8, "hilbert symbol and index cocycle", not problems,
                  f"{cases} cases, {elapsed:.1f}s"), problems[:3]


# ---------------------------------------------------------- criterion 9

def test_criterion_09_weil_representation():
    """300 composition triples per prime, decided exactly, and
    double-transform inversion with exact supports."""
    problems = []
    cases = run_check(check_weil_rep_identity, 90901, problems, samples=300)
    cases += run_check(check_fourier_closure, 90902, problems, samples=25)
    for p in (3, 5):
        g = sw.phi_m(PrimeCtx(p), 1, 2)
        if not sw.fourier(sw.fourier(g)).equals(g.reflect()):
            problems.append(f"inversion on the deep ball p={p}")
        cases += 1
    assert record(9, "representation identities on test functions", not problems,
                  f"{cases} cases"), problems[:3]


# --------------------------------------------------------- criterion 10

def test_criterion_10_deep_ball_invariance():
    """Deep-ball invariance, flip closed form, and sharpness at the walls.

    phi_m is the indicator of P^r with r = (2n-1)m, and the upper
    unipotent multiplies by psi(-+b x^2), so phi_m is fixed exactly when
    v(b) + 2r >= 0.  The flip carries P^r to P^-r (part two), so the
    lower unipotent fixes phi_m exactly when v(y) - 2r >= 0.  Both walls
    sit at +/-2r = +/-(4n-2)m.  The paper's radii -(4n-3)m and (4n-1)m
    lie m steps inside them: they are sufficient, not sharp, and no
    centred ball could make both sharp, since the radii are asymmetric
    and the walls symmetric.  Part three therefore checks invariance for
    every unit at every valuation from each radius through its wall, a
    witness for every unit one step past the wall, and agreement of each
    verdict with the brute-force square-character oracle (on P^r
    upstairs, on P^-r downstairs).  Where the upper unipotent fixes
    phi_m, its image is phi_m's own one-term tuple.  All three parts run
    at p = 3, 5, n = 1, 2, 3 and m = 1, 2.
    """
    problems = []
    cases = 0
    for p in (3, 5):
        ctx = PrimeCtx(p)
        for n in (1, 2, 3):
            for m in (1, 2):
                f = sw.phi_m(ctx, m, n)
                up = -(4 * n - 3) * m
                lo = (4 * n - 1) * m
                # part one: invariance at the probe radii and deeper
                for u in (1, 2):
                    if sw.weil_act([("upper", Q(u) * Q(p) ** up)], f, twist=-1) != f:
                        problems.append(f"upper invariance p={p} n={n} m={m} u={u}")
                    if sw.weil_act([("upper", Q(u) * Q(p) ** (up + 1))], f, twist=-1) != f:
                        problems.append(f"upper invariance deeper p={p} n={n} m={m} u={u}")
                    cases += 2
                for u in (1, 2):
                    for v in (lo, lo + 1):
                        g = MetaSL2.lower(ctx, Q(u) * Q(p) ** v)
                        if not sw.weil_act_cover(g, f, twist=-1).equals(f):
                            problems.append(f"lower invariance p={p} n={n} m={m} u={u} v={v}")
                        cases += 1
                # part two: closed form of the flipped ball
                r = (2 * n - 1) * m
                out = sw.weil_act([("flip",)], f, twist=-1)
                gamma = weil_index(ctx.of(1), twist=-1)
                want = sw.SchwartzFn.indicator(ctx, 0, -r).scaled(
                    gamma * Mono(qexp=-r)
                )
                if out != want:
                    problems.append(f"flip closed form p={p} n={n} m={m}")
                cases += 1
                # part three: fixed from each radius through its wall,
                # moved one step past it, for every unit
                wall = 2 * r
                for u in range(1, p):
                    for v in range(-wall - 1, up + 1):
                        b = Q(u) * Q(p) ** v
                        out = sw.weil_act([("upper", b)], f, twist=-1)
                        fixed = out.equals(f)
                        where = f"upper p={p} n={n} m={m} u={u} v={v}"
                        if fixed != (v >= -wall):
                            problems.append(f"{where}: fixed={fixed}, wall at {-wall}")
                        if fixed and out != f:
                            problems.append(f"{where}: fixed, but not phi_m's tuple")
                        if fixed != oracle_square_character_trivial(p, b, r):
                            problems.append(f"{where}: oracle disagrees")
                        cases += 1
                    for v in range(wall - 1, lo + 1):
                        y = Q(u) * Q(p) ** v
                        fixed = sw.weil_act_cover(
                            MetaSL2.lower(ctx, y), f, twist=-1
                        ).equals(f)
                        where = f"lower p={p} n={n} m={m} u={u} v={v}"
                        if fixed != (v >= wall):
                            problems.append(f"{where}: fixed={fixed}, wall at {wall}")
                        if fixed != oracle_square_character_trivial(p, y, -r):
                            problems.append(f"{where}: oracle disagrees")
                        cases += 1
    assert record(10, "deep ball invariance and sharpness", not problems,
                  f"{cases} cases"), problems[:3]


# --------------------------------------------------------- criterion 11

def _support_is_exactly_the_ball(sec, xval, i):
    ctx = sec.ctx
    p = ctx.p
    low = min(fraction_valuation(xval, p) if xval else 0, 0) - 1
    for k in range(p ** (3 * i + 1 - low)):
        b = Q(k) * Q(p) ** low
        val = _eval_fsi_raw(sec, MetaSL2.lower(ctx, -b) * MetaSL2.upper(ctx, xval))
        inside = b == 0 or fraction_valuation(b, p) >= 3 * i
        if val.is_zero() == inside:
            return False
    return True


def test_criterion_11_big_cell_and_intertwining():
    """Opposite-cell coordinates, the stabilized support ball, and the
    plain q^(-3i) volume for two ramified characters and two s values."""
    problems = []
    cases = run_check(check_big_cell, 111101, problems, samples=100)
    for p in (3, 5):
        ctx = PrimeCtx(p)
        etas = [
            ramified_character(ctx, 1, 1),
            ramified_character(ctx, 1, 1, varpi_phase=Q(1, 4)),
        ]
        bound = p
        xs = (Q(0), Q(1), Q(2), Q(1, p), Q(2, p), Q(p))
        for eta in etas:
            lvl = intertwine_level(eta, bound)
            support_xs = (Q(0), Q(2), Q(1, p)) if p == 3 else (Q(0), Q(2))
            for xval in support_xs:
                sec = SectionFsi(lvl, eta, Q(1, 2))
                if not _support_is_exactly_the_ball(sec, xval, lvl):
                    problems.append(f"support ball p={p} x={xval}")
                cases += 1
            for s in (Q(1, 2), Q(2, 3)):
                for i in (lvl, lvl + 1):
                    sec = SectionFsi(i, eta, s)
                    for xval in xs:
                        got = intertwine_eval_exact(sec, xval, bound)
                        if got != Mono(1, -3 * i):
                            problems.append(f"exact volume p={p} i={i} x={xval}")
                        if abs(got.as_complex(p) - float(p) ** (-3 * i)) > 1e-9:
                            problems.append(f"float volume p={p} i={i} x={xval}")
                        cases += 1
    assert record(11, "big cell and intertwining volume", not problems,
                  f"{cases} cases"), problems[:3]


# --------------------------------------------------------- criterion 12

def test_criterion_12_norm_one_splitting():
    """Unit-norm times one-plus-deep, 100 seeded elements per extension
    and level, three quadratic extensions per prime."""
    problems = []
    cases = run_check(check_norm_one_split, 121201, problems, samples=100)
    assert record(12, "norm-one splitting", not problems,
                  f"{cases} cases"), problems[:3]


# --------------------------------------------------------- criterion 13

def test_criterion_13_volume_bookkeeping():
    """Closed-form exponents against the filtration-walk coset count."""
    rng = random.Random(131301)
    problems = []
    cases = 0
    m = 1
    for n in (2, 3):
        w0 = highest_root_reflection(n)
        pos = positive_roots(n)
        negated = w0.negated_positive_roots()
        d_roots = [radical_root(n, 1, j) for j in range(1, n + 1)]
        for kind, roots in (
            ("U", pos),
            ("U_w_minus", negated),
            ("U_w_plus", [g for g in pos if g not in set(negated)]),
            ("D", d_roots),
        ):
            got = volume_exponent(kind, n, m, w=w0)
            want = oracle_volume_exponent(C3, n, m, roots, rng)
            if got != want:
                problems.append(f"{kind} n={n}: closed form {got} vs walk {want}")
            cases += 1
        for g in pos:
            got = volume_exponent("U_gamma", n, m, root=g)
            want = oracle_volume_exponent(C3, n, m, [g], rng)
            if got != want:
                problems.append(f"U_gamma n={n} g={g}")
            cases += 1
    assert record(13, "volume exponents vs coset counting", not problems,
                  f"{cases} cases"), problems[:3]

"""The release gate: thirteen numbered verdicts over the whole stack.

Each test prints one scoreboard line, ``criterion NN: PASS`` or
``FAIL``, and conftest repeats the collected lines after the run (a
criterion that raises shows as ``ERROR``).  The verdicts cover the root
census, the matrix layer, the congruence filtrations, the covering
group, and the representation on test functions, each at the scale the
gate promises.

Every criterion runs its catalog checks of `padicsp verify` through
`run_check`, with its own seed and settings, so the gate and a campaign
decide each property in one place: 01 bad-pairs; 02
bad-pair-factorizations; 03 reflection-positivity, bad-triple-shapes,
sigma-minus-order and bruhat-order; 04 obstructed-decompositions and
cell-collapse; 05 cell-word-rewrite; 06 cell-identity and bruhat-oracle;
07 congruence-structure; 08 hilbert-symbol and weil-index; 09
weil-rep-identity and fourier-closure; 10 deep-ball-invariance; 11
big-cell and intertwining-volume; 12 norm-one-split; 13 volumes.  A
criterion adds only what a check cannot hold: an oracle that lives in
the per-module suites (the Hilbert solvability search, the
square-character enumeration, the support-ball enumeration, the coset
walk) or a count it promises.  `tests/test_lints.py` keeps every
criterion calling `run_check`.
"""
import random
import time
from fractions import Fraction as Q

import conftest
from test_chevalley import oracle_volume_exponent
from test_padic import oracle_hilbert_solvable, smallest_nonresidue
from test_rootsys import radical_root
from test_schwartz import oracle_square_character_trivial

from padicsp.padic import PrimeCtx, fraction_valuation, hilbert_symbol
from padicsp.rootsys import highest_root_reflection, positive_roots
from padicsp.congruence import volume_exponent
from padicsp.metaplectic import (
    MetaSL2,
    SectionFsi,
    _eval_fsi_raw,
    intertwine_level,
    ramified_character,
)
from padicsp import schwartz as sw
from padicsp.harness import CampaignConfig, CheckFailure, matrix_checks
from padicsp.harness.checks import (
    check_bad_pair_factorizations,
    check_bad_pairs,
    check_bad_triple_shapes,
    check_bruhat_oracle,
    check_bruhat_order,
    check_cell_collapse,
    check_cell_identity,
    check_cell_word_rewrite,
    check_congruence_structure,
    check_deep_ball_invariance,
    check_fourier_closure,
    check_obstructed_decompositions,
    check_reflection_positivity,
    check_sigma_minus_order,
    check_volumes,
    check_weil_index,
    check_weil_rep_identity,
)
from padicsp.harness.cover_checks import check_big_cell, check_intertwining_volume
from padicsp.harness.scalar_checks import check_hilbert_symbol, check_norm_one_split
from padicsp.harness.schwartz_checks import _deep_ball_cases

C3 = PrimeCtx(3)


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
    cases = run_check(check_bad_pairs, 10101, problems, n=(2, 3, 4))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    assert record(1, "bad pair census and closed form", not problems,
                  f"{cases} cases, {elapsed:.2f}s"), problems[:3]


# ---------------------------------------------------------- criterion 2

def test_criterion_02_factorization_sets():
    """Frozen rank-3 factorization sets; at ranks 2 and 3 every bad pair
    has a factorization and every witness is re-multiplied."""
    t0 = time.perf_counter()
    problems = []
    cases = run_check(check_bad_pair_factorizations, 20201, problems, n=(2, 3))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    assert record(2, "factorization sets and witnesses", not problems,
                  f"{cases} cases, {elapsed:.2f}s"), problems[:3]


# ---------------------------------------------------------- criterion 3

def test_criterion_03_reflection_and_shape_laws():
    """Exhaustive laws on roots, reflections and obstructions, n <= 4.

    (a) sign-flip-free elements keep the long-generator coefficient;
    (b) reflecting the taller of a non-bad pair in the shorter stays
    positive; (c) between-height roots sent negative by the tall member
    are pinned to one radical row and only the short member survives the
    chain factor; (d) every split of tall-minus-middle into positive
    roots contains a part the cell element sends negative; and the
    ordered negated roots and the Bruhat cone below the top reflection.
    """
    t0 = time.perf_counter()
    problems = []
    cases = 0
    for check in (check_reflection_positivity, check_bad_triple_shapes,
                  check_sigma_minus_order, check_bruhat_order):
        cases += run_check(check, 30301, problems, n=(2, 3, 4))
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
    the witness constructor multiplies the factors out, reads the cell
    off the corner ranks and raises unless it drops strictly, and each
    check fails the case it raised on.
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

def test_criterion_07_congruence_filtration(monkeypatch):
    """Filtration bounds are sharp for both signs, the depth character
    restricts, and the two corner-slice matrix identities hold on seeded
    instances at ranks 3 and 4.  The campaign's matrix ranks stop at 3,
    so the criterion lifts that cap to reach n = 4."""
    monkeypatch.setattr(matrix_checks, "matrix_ranks", lambda cfg: list(cfg.n))
    problems = []
    cases = run_check(check_congruence_structure, 70701, problems, n=(2, 3, 4), p=(3, 5, 7, 11, 13))
    assert record(7, "congruence filtration and characters", not problems,
                  f"{cases} cases"), problems[:3]


# ---------------------------------------------------------- criterion 8

def test_criterion_08_hilbert_and_weil_cocycle():
    """Formula vs solvability search on all class pairs; index cocycle
    exact in the eighth roots on a class-by-valuation stratified sample."""
    t0 = time.perf_counter()
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
    cases += run_check(check_hilbert_symbol, 80801, problems, p=(3, 5, 7))
    cases += run_check(check_weil_index, 80802, problems, p=(3, 5, 7), samples=120)
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
    v(b) + 2r >= 0.  The flip carries P^r to P^-r, so the lower unipotent
    fixes phi_m exactly when v(y) - 2r >= 0.  Both walls sit at
    +/-(4n-2)m.  The paper's radii -(4n-3)m and (4n-1)m lie m steps
    inside them: they are sufficient, not sharp, and no centred ball
    could make both sharp, since the radii are asymmetric and the walls
    symmetric.  deep-ball-invariance checks every unit at every valuation
    from one step past each wall to beyond its radius, at p = 3, 5,
    n = 1, 2, 3 and m = 1, 2; here the brute-force square-character
    oracle (on P^r upstairs, on P^-r downstairs) confirms each wall
    verdict it uses.
    """
    problems = []
    settings = dict(p=(3, 5), n=(1, 2, 3), m=(1, 2))
    cases = run_check(check_deep_ball_invariance, 101001, problems, **settings)
    for p in settings["p"]:
        for n in settings["n"]:
            for m in settings["m"]:
                r = (2 * n - 1) * m
                for kind, b, fixed in _deep_ball_cases(p, n, m):
                    if oracle_square_character_trivial(p, b, r if kind == "upper" else -r) != fixed:
                        problems.append(f"{kind} p={p} n={n} m={m} b={b}: oracle disagrees")
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
    cases += run_check(check_intertwining_volume, 111102, problems)
    for p in (3, 5):
        ctx = PrimeCtx(p)
        for eta in (ramified_character(ctx, 1, 1), ramified_character(ctx, 1, 1, varpi_phase=Q(1, 4))):
            lvl = intertwine_level(eta, p)
            for xval in (Q(0), Q(2), Q(1, p)) if p == 3 else (Q(0), Q(2)):
                if not _support_is_exactly_the_ball(SectionFsi(lvl, eta, Q(1, 2)), xval, lvl):
                    problems.append(f"support ball p={p} x={xval}")
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
    """Closed-form exponents at every rank and level, and at level 1
    against the filtration-walk coset count."""
    rng = random.Random(131301)
    problems = []
    cases = run_check(check_volumes, 131302, problems, n=(2, 3, 4), m=(1, 2, 3))
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

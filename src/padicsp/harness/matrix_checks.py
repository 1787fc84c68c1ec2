"""The Chevalley group checks of the catalog: generators, commutators,
the Levi and congruence structure and the box volumes, with the seeded
draws of words, tori and deep unipotents that feed them and the Bruhat
cell checks of `cell_checks`.

`checks` lists them in `CATALOG` and says why the catalog is split.
"""

from fractions import Fraction as Q

from ..padic import PrimeCtx, psi
from ..rootsys import (
    WeylElem,
    coordinate_rotation,
    highest_root_reflection,
    is_bad_pair,
    positive_roots,
    root_from_vector,
)
from .. import chevalley as ch, congruence as cg, intmat, subgroups as sg
from .common import _power_times, matrix_ranks, sample_rational
from .report import CheckFailure


def _deep_unipotent(p, n, rng, m):
    factors = []
    for g in positive_roots(n):
        v = cg.radical_coordinate_bound(g, m) + rng.randrange(0, 3)
        factors.append((g, _power_times(rng.randint(-5, 5), p, v)))
    return ch.root_product(n, factors)


def _random_torus(p, n, rng):
    return sg.torus([_power_times(rng.choice([1, 2, -1]), p, rng.randrange(-2, 3)) for _ in range(n)])


def _random_word_matrix(p, n, rng):
    roots = positive_roots(n)
    factors = []
    for _ in range(6):
        root = roots[rng.randrange(len(roots))]
        if rng.random() < 0.5:
            root = -root
        factors.append((root, Q(rng.randint(-6, 6), rng.choice([1, 1, 3]))))
    # the torus and the Weyl generators are monomial: column moves
    g = ch.root_product(n, factors)
    t = _random_torus(p, n, rng)
    pair = intmat.times_monomial(g.den, g.num, t.den, t.num)
    for k in [rng.randrange(1, n + 1) for _ in range(rng.randrange(3))]:
        s = ch.weyl_rep(WeylElem.simple(n, k))
        pair = intmat.times_monomial(*pair, s.den, s.num)
    return ch._stored(*pair)


def check_symplectic_generators(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for g in positive_roots(n):
                r = sample_rational(rng, p, signed=True)
                if not ch.is_symplectic(ch.root_elem(n, g, r)):
                    raise CheckFailure({"p": p, "n": n, "root": g, "r": r})
                cases += 1
            for w in (WeylElem.simple(n, 1), highest_root_reflection(n)):
                if not ch.is_symplectic(ch.weyl_rep(w)):
                    raise CheckFailure({"p": p, "n": n, "w": w})
                cases += 1
            # the generator word of the top reflection is its corner matrix
            if ch.weyl_rep(highest_root_reflection(n)) != sg.top_cell_matrix(n):
                raise CheckFailure({"p": p, "n": n, "reason": "top cell representative"})
            for _ in range(max(1, cfg.samples // 4)):
                g = _random_word_matrix(p, n, rng)
                if not ch.is_symplectic(g):
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows})
                if ch.symplectic_inverse(g) != g.inverse():
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows, "reason": "form inverse"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_chevalley_commutators(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            roots = positive_roots(n)
            eye = ch.Mat.identity(2 * n)
            for g1 in roots:
                for g2 in roots:
                    if g1 == g2 or g1 == -g2:
                        continue
                    r = sample_rational(rng, p, signed=True)
                    s = sample_rational(rng, p, signed=True)
                    x = ch.root_elem(n, g1, r)
                    y = ch.root_elem(n, g2, s)
                    # x_g(r)^-1 = x_g(-r), checked rather than assumed
                    x_inv, y_inv = ch.root_elem(n, g1, -r), ch.root_elem(n, g2, -s)
                    if x * x_inv != eye or y * y_inv != eye:
                        raise CheckFailure({"p": p, "n": n, "g1": g1, "g2": g2, "r": r, "s": s, "reason": "root inverse"})
                    comm = x * y * x_inv * y_inv
                    coeffs = sg.commutator_coefficients(n, g1, r, g2, s)
                    factors = []
                    for (i, j), c in sorted(coeffs.items(), key=lambda t: sum(t[0])):
                        vec = tuple(i * a + j * b for a, b in zip(g1.euclid(), g2.euclid()))
                        factors.append((root_from_vector(n, vec), c))
                    rebuilt = ch.root_product(n, factors)
                    if comm != rebuilt:
                        raise CheckFailure(
                            {"p": p, "n": n, "g1": g1, "g2": g2, "r": r, "s": s}
                        )
                    if is_bad_pair(g1, g2) and coeffs:
                        raise CheckFailure(
                            {"p": p, "n": n, "g1": g1, "g2": g2, "reason": "bad pair must commute"}
                        )
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_levi_stability(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for _ in range(cfg.samples):
                a = [[Q(0)] * n for _ in range(n)]
                for i in range(n):
                    a[i][i] = Q(rng.choice([1, 2, -1]))
                    for j in range(i + 1, n):
                        a[i][j] = Q(rng.randint(-3, 3))
                ga = sg.levi_embed(n, a)
                if not ch.is_symplectic(ga):
                    raise CheckFailure({"p": p, "n": n, "rows": ga.rows, "reason": "levi not symplectic"})
                # the radical block is symmetric about the antidiagonal
                x = [[Q(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        mi, mj = n - 1 - j, n - 1 - i
                        x[i][j] = x[mi][mj] if (mi, mj) < (i, j) else Q(rng.randint(-4, 4))
                gx = sg.radical_embed(n, x)
                prod = ga * gx * ga.inverse()
                if not prod.is_upper_unitriangular():
                    raise CheckFailure({"p": p, "n": n, "reason": "radical not normalized"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def _with_column(n, at, values):
    """The n x n identity block with the top of column `at` set to values."""
    block = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for i, value in enumerate(values):
        block[i][at] = value
    return block


def check_congruence_structure(cfg, rng):
    """At the matrix ranks: x_g(r) and x_-g(r) lie in the depth-m skew
    level exactly when v(r) reaches the bound (2 ht g -/+ 1) m, in and
    one step out; 8 deep unipotents per (p, n, m) lie in the level,
    conjugate into the standard level, and carry the generic character
    additively; and at each rank from 3, 8 seeded pairs per p of the
    corner-slice identities, the torus product through the coordinate
    rotation and the conjugation by a chain root, whose bump carries the
    generic character psi(y r)."""
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for m in cfg.m:
                exps = cg.level_exponents(n, m)
                if len(exps) != 2 * n or exps[-1] != (2 * n - 1) * m:
                    raise CheckFailure({"p": p, "n": n, "m": m, "exps": exps})
                for g in positive_roots(n):
                    b, nb = cg.radical_coordinate_bound(g, m), cg.negative_coordinate_bound(g, m)
                    if b != -(2 * g.height - 1) * m or nb != (2 * g.height + 1) * m:
                        raise CheckFailure({"p": p, "n": n, "m": m, "root": g, "reason": "bound formula"})
                    for root, v in ((g, b), (-g, nb)):
                        if not cg.in_skew_level(ctx, ch.root_elem(n, root, Q(p) ** v), m):
                            raise CheckFailure({"p": p, "n": n, "m": m, "root": root, "reason": "bound in"})
                        if cg.in_skew_level(ctx, ch.root_elem(n, root, Q(p) ** (v - 1)), m):
                            raise CheckFailure({"p": p, "n": n, "m": m, "root": root, "reason": "bound sharp"})
                    cases += 1
                t = sg.conjugating_torus(ctx, n, m)
                t_inv = ch.Mat.diagonal([Q(p) ** -e for e in exps])
                for _ in range(8):
                    u = _deep_unipotent(p, n, rng, m)
                    if not cg.in_skew_level(ctx, u, m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "box not in level"})
                    if not cg.in_standard_level(ctx, t_inv * u * t, m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "conjugation level"})
                    u2 = _deep_unipotent(p, n, rng, m)
                    lhs = cg.skew_level_character(ctx, u * u2, m)
                    rhs = cg.skew_level_character(ctx, u, m) * cg.skew_level_character(ctx, u2, m)
                    if lhs != rhs:
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "character additivity"})
                    if cg.skew_level_character(ctx, u, m) != cg.generic_character(ctx, u):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "character content"})
                    cases += 1
        for n in matrix_ranks(cfg):
            if n < 3:
                continue
            if ch.weyl_from_rank_pattern(sg.rotation_matrix(n)) != coordinate_rotation(n):
                raise CheckFailure({"p": p, "n": n, "reason": "rotation cell"})
            for _ in range(8):
                ys = [Q(rng.randint(-6, 6), rng.choice([1, p])) for _ in range(n - 2)]
                a = Q(rng.choice([1, 2, 5]), rng.choice([1, p]))
                lhs = sg.first_axis_torus(n, a) * sg.rotate_conjugate(sg.corner_column_unipotent(n, ys, 0))
                if lhs != sg.levi_embed(n, _with_column(n, 0, [a] + ys)):
                    raise CheckFailure({"p": p, "n": n, "a": a, "ys": ys, "reason": "torus-product identity"})
                k = 1 + rng.randrange(n - 2)
                ys = [Q(rng.randint(-6, 6), rng.choice([1, p])) for _ in range(k)]
                a = Q(rng.choice([1, 2, 5]), rng.choice([1, p]))
                mid = sg.levi_embed(n, _with_column(n, 0, [a] + ys))
                r = Q(rng.randint(-5, 5), rng.choice([1, p, p * p]))
                chain = root_from_vector(n, tuple(1 if t == 0 else (-1 if t == k + 1 else 0) for t in range(n)))
                bump = sg.levi_embed(n, _with_column(n, k + 1, [(a - 1) * r] + [y * r for y in ys]))
                if ch.root_elem(n, chain, -r) * mid * ch.root_elem(n, chain, r) != bump * mid:
                    raise CheckFailure({"p": p, "n": n, "a": a, "ys": ys, "r": r, "reason": "conjugation identity"})
                if cg.generic_character(ctx, bump) != psi(ctx.of(ys[-1] * r)):
                    raise CheckFailure({"p": p, "n": n, "ys": ys, "r": r, "reason": "character extraction"})
                cases += 2
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


def check_volumes(cfg, rng):
    """The closed-form box volumes at every rank and level: U sums
    (2 ht - 1) m over the positive roots, U_w0^- and U_w0^+ split it, and
    the first-row slice D is m n (3n - 2).  The exponents do not depend
    on p; criterion 13 counts the cosets."""
    cases = 0
    for n in cfg.n:
        roots = positive_roots(n)
        w0 = highest_root_reflection(n)
        for m in cfg.m:
            total = sum((2 * g.height - 1) * m for g in roots)
            if cg.volume_exponent("U", n, m) != total:
                raise CheckFailure({"n": n, "m": m, "kind": "U"})
            for g in roots:
                if cg.volume_exponent("U_gamma", n, m, root=g) != (2 * g.height - 1) * m:
                    raise CheckFailure({"n": n, "m": m, "kind": "U_gamma", "root": g})
                cases += 1
            minus = cg.volume_exponent("U_w_minus", n, m, w=w0)
            plus = cg.volume_exponent("U_w_plus", n, m, w=w0)
            if minus != (2 * n - 1) ** 2 * m or minus + plus != total:
                raise CheckFailure({"n": n, "m": m, "reason": "minus/plus partition"})
            # 2e_1 has height 2n-1 and e_1+e_j height 2n-j: m n(3n-2) in all
            d_exp = cg.volume_exponent("D", n, m)
            if d_exp != m * n * (3 * n - 2):
                raise CheckFailure({"n": n, "m": m, "kind": "D", "got": d_exp})
            cases += 3
    return cases, {"n": list(cfg.n), "m": list(cfg.m)}

"""The Chevalley checks of the catalog: generators, commutators, the
Bruhat cells and their oracle, the Levi and congruence structure, the
cell-word rewrite and collapse, the obstructed decompositions and the
box volumes, with the seeded draws of words, tori and deep unipotents
that feed them.

`checks` lists them in `CATALOG` and says why the catalog is split.
"""

from fractions import Fraction as Q
from functools import lru_cache

from ..padic import PrimeCtx, fraction_valuation, psi
from ..rootsys import (
    WeylElem,
    bad_triples,
    bruhat_leq,
    coordinate_rotation,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
    root_from_vector,
)
from .. import chevalley as ch, intmat
from ..chevalley import FactorizationError, MatrixError
from .common import _power_times, _raised, matrix_ranks, sample_rational
from .report import CheckFailure


def _deep_unipotent(p, n, rng, m):
    factors = []
    for g in positive_roots(n):
        v = ch.radical_coordinate_bound(g, m) + rng.randrange(0, 3)
        factors.append((g, _power_times(rng.randint(-5, 5), p, v)))
    return ch.root_product(n, factors)


def _random_torus(p, n, rng):
    return ch.torus([_power_times(rng.choice([1, 2, -1]), p, rng.randrange(-2, 3)) for _ in range(n)])


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
            if ch.weyl_rep(highest_root_reflection(n)) != ch.top_cell_matrix(n):
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
                    coeffs = ch.commutator_coefficients(n, g1, r, g2, s)
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


def check_cell_identity(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for g in positive_roots(n):
                for _ in range(max(1, cfg.samples // 8)):
                    r = sample_rational(rng, p, signed=True)
                    # b = W(s_g)^-1 x_g(r) x_-g(-1/r), checked to lie in the Borel
                    try:
                        ch.cell_identity_borel_part(n, g, r)
                    except MatrixError as exc:
                        raise _raised({"p": p, "n": n, "root": g, "r": r}, exc) from exc
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


def check_bruhat_oracle(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for _ in range(cfg.samples):
                g = _random_word_matrix(p, n, rng)
                # the decomposition verifies its recomposition; the rank
                # pattern is the independent route to its cell
                try:
                    w = ch.bruhat_decompose(g)[2]
                except MatrixError as exc:
                    raise _raised({"p": p, "n": n, "rows": g.rows}, exc) from exc
                if ch.weyl_from_rank_pattern(g) != w:
                    raise CheckFailure({"p": p, "n": n, "rows": g.rows, "reason": "rank pattern"})
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "samples": cfg.samples}


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
                ga = ch.levi_embed(n, a)
                if not ch.is_symplectic(ga):
                    raise CheckFailure({"p": p, "n": n, "rows": ga.rows, "reason": "levi not symplectic"})
                # the radical block is symmetric about the antidiagonal
                x = [[Q(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        mi, mj = n - 1 - j, n - 1 - i
                        x[i][j] = x[mi][mj] if (mi, mj) < (i, j) else Q(rng.randint(-4, 4))
                gx = ch.radical_embed(n, x)
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
                exps = ch.level_exponents(n, m)
                if len(exps) != 2 * n or exps[-1] != (2 * n - 1) * m:
                    raise CheckFailure({"p": p, "n": n, "m": m, "exps": exps})
                for g in positive_roots(n):
                    b, nb = ch.radical_coordinate_bound(g, m), ch.negative_coordinate_bound(g, m)
                    if b != -(2 * g.height - 1) * m or nb != (2 * g.height + 1) * m:
                        raise CheckFailure({"p": p, "n": n, "m": m, "root": g, "reason": "bound formula"})
                    for root, v in ((g, b), (-g, nb)):
                        if not ch.in_skew_level(ctx, ch.root_elem(n, root, Q(p) ** v), m):
                            raise CheckFailure({"p": p, "n": n, "m": m, "root": root, "reason": "bound in"})
                        if ch.in_skew_level(ctx, ch.root_elem(n, root, Q(p) ** (v - 1)), m):
                            raise CheckFailure({"p": p, "n": n, "m": m, "root": root, "reason": "bound sharp"})
                    cases += 1
                t = ch.conjugating_torus(ctx, n, m)
                t_inv = ch.Mat.diagonal([Q(p) ** -e for e in exps])
                for _ in range(8):
                    u = _deep_unipotent(p, n, rng, m)
                    if not ch.in_skew_level(ctx, u, m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "box not in level"})
                    if not ch.in_standard_level(ctx, t_inv * u * t, m):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "conjugation level"})
                    u2 = _deep_unipotent(p, n, rng, m)
                    lhs = ch.skew_level_character(ctx, u * u2, m)
                    rhs = ch.skew_level_character(ctx, u, m) * ch.skew_level_character(ctx, u2, m)
                    if lhs != rhs:
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "character additivity"})
                    if ch.skew_level_character(ctx, u, m) != ch.generic_character(ctx, u):
                        raise CheckFailure({"p": p, "n": n, "m": m, "reason": "character content"})
                    cases += 1
        for n in matrix_ranks(cfg):
            if n < 3:
                continue
            if ch.weyl_from_rank_pattern(ch.rotation_matrix(n)) != coordinate_rotation(n):
                raise CheckFailure({"p": p, "n": n, "reason": "rotation cell"})
            for _ in range(8):
                ys = [Q(rng.randint(-6, 6), rng.choice([1, p])) for _ in range(n - 2)]
                a = Q(rng.choice([1, 2, 5]), rng.choice([1, p]))
                lhs = ch.first_axis_torus(n, a) * ch.rotate_conjugate(ch.corner_column_unipotent(n, ys, 0))
                if lhs != ch.levi_embed(n, _with_column(n, 0, [a] + ys)):
                    raise CheckFailure({"p": p, "n": n, "a": a, "ys": ys, "reason": "torus-product identity"})
                k = 1 + rng.randrange(n - 2)
                ys = [Q(rng.randint(-6, 6), rng.choice([1, p])) for _ in range(k)]
                a = Q(rng.choice([1, 2, 5]), rng.choice([1, p]))
                mid = ch.levi_embed(n, _with_column(n, 0, [a] + ys))
                r = Q(rng.randint(-5, 5), rng.choice([1, p, p * p]))
                chain = root_from_vector(n, tuple(1 if t == 0 else (-1 if t == k + 1 else 0) for t in range(n)))
                bump = ch.levi_embed(n, _with_column(n, k + 1, [(a - 1) * r] + [y * r for y in ys]))
                if ch.root_elem(n, chain, -r) * mid * ch.root_elem(n, chain, r) != bump * mid:
                    raise CheckFailure({"p": p, "n": n, "a": a, "ys": ys, "r": r, "reason": "conjugation identity"})
                if ch.generic_character(ctx, bump) != psi(ctx.of(ys[-1] * r)):
                    raise CheckFailure({"p": p, "n": n, "ys": ys, "r": r, "reason": "character extraction"})
                cases += 2
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


@lru_cache(maxsize=None)
def _cells_below_top(n: int) -> tuple:
    """The cells w <= the top reflection other than 1, in full_weyl_group order."""
    w0 = highest_root_reflection(n)
    return tuple([w for w in full_weyl_group(n) if bruhat_leq(w, w0) and not w.is_identity()])


def _admissible_rewrite_case(p, n, m, rng):
    ws = _cells_below_top(n)
    w = ws[rng.randrange(len(ws))]
    order = ordered_negated_roots(w)
    q_at = rng.randrange(len(order))
    rs = []
    for k, g in enumerate(order):
        bound = ch.radical_coordinate_bound(g, m)
        if k == q_at:
            v = bound - 1 - rng.randrange(3)
        elif k < q_at:
            v = bound + rng.randrange(3)
        else:
            v = bound - rng.randrange(3)
        unit = rng.choice([1, 2, 4, 7])
        while unit % p == 0:
            unit = rng.choice([1, 2, 4, 7])
        rs.append(_power_times(unit, p, v))
    u = _deep_unipotent(p, n, rng, m)
    t = _random_torus(p, n, rng)
    return w, rs, u, t, q_at


def check_cell_word_rewrite(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for m in cfg.m:
                for _ in range(max(1, cfg.samples // 4)):
                    w, rs, u, t, q_at = _admissible_rewrite_case(p, n, m, rng)
                    case = {"p": p, "n": n, "m": m, "w": w, "rs": rs, "u": u, "t": t}
                    # the rewrite verifies its identity, and its peel residue
                    # that rs_t is the coefficient word of the lower factor
                    try:
                        u_t, rs_t, qpos = ch.cell_word_rewrite(ctx, t, w, rs, u, m)
                    except MatrixError as exc:
                        raise _raised(case, exc) from exc
                    if qpos > q_at or not u_t.is_upper_unitriangular():
                        raise CheckFailure({**case, "reason": "pivot position"})
                    if fraction_valuation(rs_t[qpos], p) != fraction_valuation(rs[qpos], p):
                        raise CheckFailure({**case, "reason": "pivot size"})
                    cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "m": list(cfg.m)}


def check_cell_collapse(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            ws = _cells_below_top(n)
            for _ in range(cfg.samples):
                w = ws[rng.randrange(len(ws))]
                order = ordered_negated_roots(w)
                q = rng.randrange(len(order))
                tail = sorted(order[q:], key=lambda g: g.height)
                bad_ls = [l for l in range(1, len(tail)) if is_bad_pair(tail[0], tail[l])]
                t = _random_torus(p, n, rng)
                rs = [Q(rng.choice([1, 2, 5]), rng.choice([1, p])) for _ in tail]
                # the witness checks that its cell drops below w
                try:
                    ch.cell_collapse_witness(t, w, tail, rs, bad_index=bad_ls[0] if bad_ls else None)
                except MatrixError as exc:
                    raise _raised({"p": p, "n": n, "w": w, "q": q, "t": t, "rs": rs}, exc) from exc
                cases += 1
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg), "samples": cfg.samples}


def check_obstructed_decompositions(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for n in matrix_ranks(cfg):
            for g1, g2, w in bad_triples(n):
                for _ in range(max(1, cfg.samples // 8)):
                    t = _random_torus(p, n, rng)
                    rs = [
                        Q(rng.choice([1, 2, 5]), rng.choice([1, p])),
                        Q(rng.choice([1, 2]), rng.choice([1, p])),
                    ]
                    try:
                        ch.cell_collapse_witness(t, w, [g1, g2], rs, bad_index=1)
                    except MatrixError as exc:
                        raise _raised({"p": p, "n": n, "g1": g1, "g2": g2, "w": w, "t": t, "rs": rs}, exc) from exc
                    cases += 1
            # a word with every coefficient at depth must be rejected
            m = min(cfg.m)
            w0 = highest_root_reflection(n)
            order = ordered_negated_roots(w0)
            rs = [Q(p) ** ch.radical_coordinate_bound(g, m) for g in order]
            u = _deep_unipotent(p, n, rng, m)
            t = ch.torus([Q(1)] * n)
            try:
                ch.cell_word_rewrite(ctx, t, w0, rs, u, m)
            except FactorizationError as exc:
                if "already lies at depth" not in str(exc):
                    # a failed self-check, not the rejection
                    raise _raised({"p": p, "n": n, "m": m, "rs": rs, "u": u}, exc) from exc
                cases += 1
            else:
                raise CheckFailure({"p": p, "n": n, "m": m, "reason": "in-depth word accepted"})
    return cases, {"p": list(cfg.p), "n": matrix_ranks(cfg)}


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
            if ch.volume_exponent("U", n, m) != total:
                raise CheckFailure({"n": n, "m": m, "kind": "U"})
            for g in roots:
                if ch.volume_exponent("U_gamma", n, m, root=g) != (2 * g.height - 1) * m:
                    raise CheckFailure({"n": n, "m": m, "kind": "U_gamma", "root": g})
                cases += 1
            minus = ch.volume_exponent("U_w_minus", n, m, w=w0)
            plus = ch.volume_exponent("U_w_plus", n, m, w=w0)
            if minus != (2 * n - 1) ** 2 * m or minus + plus != total:
                raise CheckFailure({"n": n, "m": m, "reason": "minus/plus partition"})
            # 2e_1 has height 2n-1 and e_1+e_j height 2n-j: m n(3n-2) in all
            d_exp = ch.volume_exponent("D", n, m)
            if d_exp != m * n * (3 * n - 2):
                raise CheckFailure({"n": n, "m": m, "kind": "D", "got": d_exp})
            cases += 3
    return cases, {"n": list(cfg.n), "m": list(cfg.m)}

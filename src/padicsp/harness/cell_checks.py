"""The Bruhat-cell checks of the catalog: the cell identity, the Bruhat
decomposition against its corner-rank oracle, the cell-word rewrite, the
cell collapse and the obstructed decompositions, with the admissible
rewrite words that feed them.

They draw their tori, words and deep unipotents with the samplers of
`matrix_checks`; `checks` lists them in `CATALOG` and says why the
catalog is split.
"""

from fractions import Fraction as Q
from functools import lru_cache

from .. import chevalley as ch, congruence as cg, subgroups as sg
from ..badtriples import bad_triples
from ..chevalley import FactorizationError
from ..congruence import MatrixError
from ..padic import PrimeCtx, fraction_valuation
from ..rootsys import (
    bruhat_leq,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
)
from .common import _power_times, _raised, matrix_ranks, sample_rational
from .matrix_checks import _deep_unipotent, _random_torus, _random_word_matrix
from .report import CheckFailure


def check_cell_identity(cfg, rng):
    cases = 0
    for p in cfg.p:
        for n in matrix_ranks(cfg):
            for g in positive_roots(n):
                for _ in range(max(1, cfg.samples // 8)):
                    r = sample_rational(rng, p, signed=True)
                    # b = W(s_g)^-1 x_g(r) x_-g(-1/r), checked to lie in the Borel
                    try:
                        sg.cell_identity_borel_part(n, g, r)
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


@lru_cache(maxsize=None)
def _cells_below_top(n: int) -> tuple:
    """The cells w <= the top reflection other than 1, in full_weyl_group order.

    Unbounded, since there is one entry per rank; at n = 4 it holds 67
    cells in 9 KiB (tracemalloc, after gc).
    """
    w0 = highest_root_reflection(n)
    return tuple([w for w in full_weyl_group(n) if bruhat_leq(w, w0) and not w.is_identity()])


def _admissible_rewrite_case(p, n, m, rng):
    ws = _cells_below_top(n)
    w = ws[rng.randrange(len(ws))]
    order = ordered_negated_roots(w)
    q_at = rng.randrange(len(order))
    rs = []
    for k, g in enumerate(order):
        bound = cg.radical_coordinate_bound(g, m)
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
            rs = [Q(p) ** cg.radical_coordinate_bound(g, m) for g in order]
            u = _deep_unipotent(p, n, rng, m)
            t = sg.torus([Q(1)] * n)
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

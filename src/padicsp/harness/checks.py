"""The verification catalog: every named check behind `padicsp verify`.

Each check re-validates one cluster of library invariants on seeded
samples or small exhaustive grids and reports a replayable
counterexample on the first violation.  Checks are pure functions of
(config, rng); the campaign driver owns timing and status bookkeeping.

The checks of `CATALOG` live in one module per layer: `root_checks`
holds the root-system checks, which read no prime, `matrix_checks` the
Chevalley checks, `schwartz_checks` the Weil-representation checks, and
this module the p-adic, quadratic-extension and metaplectic ones;
`common` holds what more than one of them reads.  Compiling a module
takes memory that grows with its syntax tree and is never given back,
so one large harness module would set the peak memory of every run.
The Weil-index and Rao-cocycle checks stay here because the benchmark's
wrapper probe (`bench/test_bench.py`) reads `weil_index` and
`rao_cocycle` as names of this module.

A library routine that verifies its own result and raises has the one
home of that verification: its check does not recompute it, but turns
the raise on a case into that case's failure, with the case's
parameters and the library's message (`_raised`), and spends its own
time on what the routine does not verify.  Conversely, a library routine
that returns a closed form does not sample it: its check does.

Because each check draws from its own seeded rng, the driver runs them
in lanes, one per usable CPU (`os.sched_getaffinity`).  This process is
one lane; the others are forked processes.  Every lane takes the next
check off one shared task pipe, and a forked lane sends each record
back as a JSON line of encoded values.  Records are kept in the
configured order, and the report encodes every value once more, which
changes nothing, so the report bytes do not depend on the lane count.
With one usable CPU nothing is forked and every call is made here, where
profilers, debuggers and in-process tracers see it: `taskset -c 0
padicsp verify` gives the one-process run.
"""

import hashlib
import json
import os
from fractions import Fraction as Q

from .. import __version__
from ..padic import (
    Mono,
    PadicError,
    PrimeCtx,
    _Value,
    _set,
    hilbert_symbol,
    mu_psi,
    psi,
    weil_index,
)
from ..quadext import QuadExt, norm_one_decompose
from ..metaplectic import (
    MetaError,
    MetaSL2,
    SectionFsi,
    decompose_big_cell,
    eval_fsi_exact,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
    rao_cocycle,
)
from .common import _power_times, _raised, nonresidue, sample_rational, square_classes
from .matrix_checks import (
    check_bruhat_oracle,
    check_cell_collapse,
    check_cell_identity,
    check_cell_word_rewrite,
    check_chevalley_commutators,
    check_congruence_structure,
    check_levi_stability,
    check_obstructed_decompositions,
    check_symplectic_generators,
    check_volumes,
)
from .report import FAIL, PASS, SKIPPED, CheckFailure, CheckRecord, Report, encode_value
from .root_checks import (
    check_bad_pair_factorizations,
    check_bad_pairs,
    check_bad_triple_shapes,
    check_bruhat_order,
    check_reflection_positivity,
    check_sigma_minus_order,
)
from .schwartz_checks import (
    check_deep_ball_invariance,
    check_fourier_closure,
    check_heisenberg_law,
    check_weil_rep_identity,
)


def case_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()
    return int(digest[:16], 16)


# =============================================================== padic

def check_psi_character(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        if psi(ctx.of(Q(1, p))).is_one() or not psi(ctx.of(1)).is_one():
            raise CheckFailure({"p": p, "reason": "conductor is not the integer ring"})
        for _ in range(cfg.samples):
            x = sample_rational(rng, p, signed=True)
            y = sample_rational(rng, p, signed=True)
            if psi(ctx.of(x + y)) != psi(ctx.of(x)) * psi(ctx.of(y)):
                raise CheckFailure({"p": p, "x": x, "y": y, "reason": "additivity"})
            if not (psi(ctx.of(x)) * psi(ctx.of(-x))).is_one():
                raise CheckFailure({"p": p, "x": x, "reason": "inverse"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_hilbert_symbol(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        reps = square_classes(p)
        for a in reps:
            for b in reps:
                s = hilbert_symbol(ctx.of(a), ctx.of(b))
                if s != hilbert_symbol(ctx.of(b), ctx.of(a)):
                    raise CheckFailure({"p": p, "a": a, "b": b, "reason": "symmetry"})
                if hilbert_symbol(ctx.of(a * b * b), ctx.of(b)) != s:
                    raise CheckFailure({"p": p, "a": a, "b": b, "reason": "square invariance"})
                cases += 1
            if hilbert_symbol(ctx.of(a), ctx.of(-a)) != 1:
                raise CheckFailure({"p": p, "a": a, "reason": "(a,-a) = 1"})
            if a != 1 and hilbert_symbol(ctx.of(a), ctx.of(1 - a)) != 1:
                raise CheckFailure({"p": p, "a": a, "reason": "(a,1-a) = 1"})
        for _ in range(max(cfg.samples, 4)):
            a = sample_rational(rng, p, signed=True)
            b = sample_rational(rng, p, signed=True)
            c = sample_rational(rng, p, signed=True)
            lhs = hilbert_symbol(ctx.of(a), ctx.of(b * c))
            rhs = hilbert_symbol(ctx.of(a), ctx.of(b)) * hilbert_symbol(ctx.of(a), ctx.of(c))
            if lhs != rhs:
                raise CheckFailure({"p": p, "a": a, "b": b, "c": c, "reason": "bimultiplicativity"})
            cases += 1
    return cases, {"p": list(cfg.p)}


def check_weil_index(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for twist in (1, -1):
            if not weil_index(ctx.of(1), twist=twist).is_one():
                raise CheckFailure({"p": p, "twist": twist, "reason": "normalization at 1"})
        for _ in range(cfg.samples):
            a = sample_rational(rng, p, signed=True)
            b = sample_rational(rng, p, signed=True)
            lhs = mu_psi(ctx.of(a)) * mu_psi(ctx.of(b))
            rhs = mu_psi(ctx.of(a * b))
            h = hilbert_symbol(ctx.of(a), ctx.of(b))
            if lhs != rhs * Mono(h):
                raise CheckFailure({"p": p, "a": a, "b": b, "reason": "mu cocycle"})
            u = sample_rational(rng, p, square_class=Q(1))
            if mu_psi(ctx.of(a * u)) != mu_psi(ctx.of(a)):
                raise CheckFailure({"p": p, "a": a, "u": u, "reason": "square-class invariance"})
            if mu_psi(ctx.of(a), twist=-1) != mu_psi(ctx.of(a)).conjugate():
                raise CheckFailure({"p": p, "a": a, "reason": "twist conjugation"})
            cases += 1
        # the cocycle on every pair of strata (square class and valuation),
        # one draw per 40 samples, moved within the stratum by a square
        u0 = nonresidue(p)
        strata = [Q(1), Q(u0), Q(p), Q(u0 * p), Q(1, p), Q(u0, p)]
        for a0 in strata:
            for b0 in strata:
                for _ in range(max(1, cfg.samples // 40)):
                    sa = _power_times(rng.choice([1, 2, 4, 7]), p, rng.randint(-1, 1))
                    sb = _power_times(rng.choice([1, 2, 4, 7]), p, rng.randint(-1, 1))
                    a, b = a0 * sa * sa, b0 * sb * sb
                    h = hilbert_symbol(ctx.of(a), ctx.of(b))
                    if mu_psi(ctx.of(a)) * mu_psi(ctx.of(b)) != mu_psi(ctx.of(a * b)) * Mono(h):
                        raise CheckFailure({"p": p, "a": a, "b": b, "reason": "stratified mu cocycle"})
                    cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


# ============================================================= quadext

def _extensions(p: int):
    ctx = PrimeCtx(p)
    u0 = nonresidue(p)
    return [QuadExt(ctx, Q(u0)), QuadExt(ctx, Q(p)), QuadExt(ctx, Q(u0 * p))]


def _random_ext_elem(rng, ext, m: int = 1):
    a = sample_rational(rng, ext.ctx.p, m, signed=True)
    b = sample_rational(rng, ext.ctx.p, m, signed=True)
    if rng.random() < 0.2:
        b = Q(0)
    return ext.elem(a, b)


def check_quad_ext(cfg, rng):
    cases = 0
    for p in cfg.p:
        for ext in _extensions(p):
            for _ in range(cfg.samples):
                x = _random_ext_elem(rng, ext)
                y = _random_ext_elem(rng, ext)
                if (x * y).norm() != x.norm() * y.norm():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "y": str(y), "reason": "norm"})
                if (x * y).conjugate() != x.conjugate() * y.conjugate():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "y": str(y), "reason": "conjugation"})
                if x.norm() != 0 and (x / x) != ext.one():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "reason": "division"})
                tr = x + x.conjugate()
                if tr.b != 0 or tr.a != x.trace():
                    raise CheckFailure({"p": p, "d": ext.d, "x": str(x), "reason": "trace"})
                cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_norm_one_split(cfg, rng):
    cases = 0
    for p in cfg.p:
        for ext in _extensions(p):
            for m in cfg.m:
                for _ in range(cfg.samples):
                    e0 = ext.chart(sample_rational(rng, p, signed=True))
                    u0 = ext.one() + ext.elem(rng.randint(-8, 8) * p**m, rng.randint(-8, 8) * p**m)
                    x = e0 * u0
                    # the split verifies N(e) = 1, e u = x and the depth of u
                    try:
                        norm_one_decompose(x, m)
                    except PadicError as exc:
                        raise _raised({"p": p, "d": ext.d, "x": str(x), "m": m}, exc) from exc
                    cases += 1
    return cases, {"p": list(cfg.p), "m": list(cfg.m), "samples": cfg.samples}


# =========================================================== metaplectic

def _random_sl2(rng, ctx):
    p = ctx.p
    kind = rng.randrange(4)
    if kind == 0:
        return MetaSL2.flip(ctx)
    if kind == 1:
        return MetaSL2.upper(ctx, sample_rational(rng, p, signed=True))
    if kind == 2:
        return MetaSL2.diag(ctx, sample_rational(rng, p, signed=True))
    return MetaSL2.lower(ctx, sample_rational(rng, p, signed=True))


def check_rao_cocycle(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        ident = MetaSL2.identity(ctx)
        for _ in range(cfg.samples):
            g1 = _random_sl2(rng, ctx)
            g2 = _random_sl2(rng, ctx)
            g3 = _random_sl2(rng, ctx)
            lhs = rao_cocycle(ctx, g1.rows, g2.rows) * rao_cocycle(ctx, (g1 * g2).rows, g3.rows)
            rhs = rao_cocycle(ctx, g2.rows, g3.rows) * rao_cocycle(ctx, g1.rows, (g2 * g3).rows)
            if lhs != rhs:
                raise CheckFailure({"p": p, "g1": g1.rows, "g2": g2.rows, "g3": g3.rows})
            if rao_cocycle(ctx, ident.rows, g1.rows) != 1 or rao_cocycle(ctx, g1.rows, ident.rows) != 1:
                raise CheckFailure({"p": p, "g": g1.rows, "reason": "normalization"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_section_law(cfg, rng):
    """g g^-1 is the identity on the identity's sheet.  Associativity is
    not tested here: on unit-sheet lifts it is rao-cocycle's cocycle
    identity."""
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        ident = MetaSL2.identity(ctx)
        for _ in range(cfg.samples):
            g = _random_sl2(rng, ctx)
            if g * g.inverse() != ident:
                raise CheckFailure({"p": p, "g": g.rows, "reason": "inverse sheet"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_big_cell(cfg, rng):
    cases = 0
    for p in cfg.p:
        ctx = PrimeCtx(p)
        for _ in range(cfg.samples):
            y = sample_rational(rng, p, signed=True)
            x = sample_rational(rng, p, signed=True)
            if 1 + x * y == 0:
                continue
            try:
                a, xv, ybar = decompose_big_cell(y, x)
            except MetaError as exc:
                raise _raised({"p": p, "x": x, "y": y}, exc) from exc
            lhs = (MetaSL2.lower(ctx, y) * MetaSL2.upper(ctx, x)).mat
            borel = MetaSL2(ctx, ((a, xv), (0, 1 / a)))
            rhs = (borel * MetaSL2.lower(ctx, ybar)).mat
            if lhs != rhs:
                raise CheckFailure({"p": p, "x": x, "y": y, "reason": "recomposition"})
            cases += 1
    return cases, {"p": list(cfg.p), "samples": cfg.samples}


def check_intertwining_volume(cfg, rng):
    """For two conductor-1 characters and one of conductor 3, two s and
    the levels lvl, lvl + 1, the section's intertwining integral on
    |x| <= p is exactly q^(-3i) at six points, the integrand is exactly 1
    at lower(-b)*upper(x) for b = -z/(1 - z x), z = t p^(3i) with t in
    {1, 2, p - 1}, and a point outside its stabilised set is refused.
    Conductor 3 is the least whose level on |x| <= p differs from
    conductor 1's: it needs 3i >= 4 where conductor 1 needs 3i >= 2."""
    cases, ran = 0, set()
    for p in cfg.p:
        ctx = PrimeCtx(p)
        etas = [
            ramified_character(ctx, 1, 1),
            ramified_character(ctx, 1, 1, varpi_phase=Q(1, 4)),
            ramified_character(ctx, 3, 1),
        ]
        bound = p
        for eta in etas:
            lvl = intertwine_level(eta, bound)
            ran.update((lvl, lvl + 1))
            for s in (Q(1, 2), Q(2, 3)):
                for i in (lvl, lvl + 1):
                    sec = SectionFsi(i, eta, s)
                    for xval in (Q(0), Q(1), Q(2), Q(1, p), Q(2, p), Q(p)):
                        got = intertwine_eval_exact(sec, xval, bound)
                        if got != Mono(1, -3 * i):
                            raise CheckFailure(
                                {"p": p, "i": i, "s": s, "x": xval, "got": got}
                            )
                        upper = MetaSL2.upper(ctx, xval)
                        for t in (1, 2, p - 1):
                            z = _power_times(t, p, 3 * i)
                            value = eval_fsi_exact(sec, MetaSL2.lower(ctx, z / (1 - z * xval)) * upper)
                            if not value.is_one():
                                raise CheckFailure(
                                    {"p": p, "i": i, "s": s, "x": xval, "t": t, "value": value}
                                )
                        cases += 1
                    try:
                        intertwine_eval_exact(sec, Q(p) ** (-3 * i - 1), Q(p) ** (3 * i + 1))
                    except MetaError:
                        cases += 1
                    else:
                        raise CheckFailure(
                            {"p": p, "i": i, "s": s, "reason": "level gate missing"}
                        )
    return cases, {"p": list(cfg.p), "i": sorted(ran)}


# ============================================================== catalog

class CheckSpec(_Value):
    """A catalog entry: the check function and whether it draws samples."""

    __slots__ = ("fn", "sampled")

    def __init__(self, fn, sampled: bool):
        _set(self, "fn", fn)
        _set(self, "sampled", sampled)


CATALOG = {
    "psi-character": CheckSpec(check_psi_character, True),
    "hilbert-symbol": CheckSpec(check_hilbert_symbol, False),
    "weil-index": CheckSpec(check_weil_index, True),
    "quad-ext": CheckSpec(check_quad_ext, True),
    "norm-one-split": CheckSpec(check_norm_one_split, True),
    "bad-pairs": CheckSpec(check_bad_pairs, False),
    "bad-pair-factorizations": CheckSpec(check_bad_pair_factorizations, False),
    "bad-triple-shapes": CheckSpec(check_bad_triple_shapes, False),
    "bruhat-order": CheckSpec(check_bruhat_order, False),
    "sigma-minus-order": CheckSpec(check_sigma_minus_order, False),
    "reflection-positivity": CheckSpec(check_reflection_positivity, False),
    "symplectic-generators": CheckSpec(check_symplectic_generators, True),
    "chevalley-commutators": CheckSpec(check_chevalley_commutators, True),
    "cell-identity": CheckSpec(check_cell_identity, True),
    "bruhat-oracle": CheckSpec(check_bruhat_oracle, True),
    "levi-stability": CheckSpec(check_levi_stability, True),
    "congruence-structure": CheckSpec(check_congruence_structure, False),
    "cell-word-rewrite": CheckSpec(check_cell_word_rewrite, True),
    "cell-collapse": CheckSpec(check_cell_collapse, True),
    "obstructed-decompositions": CheckSpec(check_obstructed_decompositions, True),
    "volumes": CheckSpec(check_volumes, False),
    "rao-cocycle": CheckSpec(check_rao_cocycle, True),
    "section-law": CheckSpec(check_section_law, True),
    "big-cell": CheckSpec(check_big_cell, True),
    "intertwining-volume": CheckSpec(check_intertwining_volume, True),
    "weil-rep-identity": CheckSpec(check_weil_rep_identity, True),
    "fourier-closure": CheckSpec(check_fourier_closure, True),
    "deep-ball-invariance": CheckSpec(check_deep_ball_invariance, False),
    "heisenberg-law": CheckSpec(check_heisenberg_law, True),
}


# =============================================================== driver

def _run_check(cfg, name) -> CheckRecord:
    """One check's record, made in whichever process runs it.

    Sampled checks are skipped outright when the sample budget is zero;
    enumerative ones always run.  A raised CheckFailure becomes a fail
    record carrying the counterexample plus the campaign seed, and any
    other exception is reported as a fail with its message, so one
    broken check never takes down the campaign.
    """
    import random
    import time

    spec = CATALOG[name]
    if spec.sampled and cfg.samples == 0:
        return CheckRecord(name, SKIPPED, 0, {"reason": "samples = 0"})
    rng = random.Random(case_seed(cfg.seed, name))
    start = time.perf_counter()
    try:
        cases, parameters = spec.fn(cfg, rng)
        return CheckRecord(name, PASS, cases, dict(parameters), None, time.perf_counter() - start)
    except CheckFailure as exc:
        payload = {"seed": cfg.seed, **exc.payload}
    except Exception as exc:
        payload = {"seed": cfg.seed, "error": f"{type(exc).__name__}: {exc}"}
    return CheckRecord(name, FAIL, 0, {}, payload, time.perf_counter() - start)


def _lane(cfg, names, tasks, out, inherited):
    """A forked lane: close the parent's other pipe ends, then take check
    indices off the task pipe until it is empty; before running each,
    write its index as one JSON line, then its encoded record as another.
    Never returns."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(out, "w") as fh:
            while taken := os.read(tasks, 1):
                fh.write(f"{taken[0]}\n")
                fh.flush()
                record = _run_check(cfg, names[taken[0]])
                fields = {k: getattr(record, k) for k in CheckRecord.__slots__}
                fh.write(json.dumps(encode_value(fields)) + "\n")
                fh.flush()
        status = 0
    finally:
        os._exit(status)


def _run_lanes(cfg, names, forks) -> list:
    """The records of `names`, in order, from this process and `forks`
    forked lanes.

    One shared task pipe holds one byte per check index, and each process
    takes the next check in order until the pipe is empty.  This process
    reads the lanes' record pipes only after that, which cannot deadlock:
    a lane whose pipe is full stops taking checks, and the rest fall to
    this process.  A check that a lane took but never reported fails with
    the lane's exit status.
    """
    tasks, fill = os.pipe()
    os.write(fill, bytes(range(len(names))))
    os.close(fill)
    lanes_out, records, unannounced = {}, {}, []
    try:
        for _ in range(forks):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _lane(cfg, names, tasks, write, [read] + [fh.fileno() for fh in lanes_out.values()])
            os.close(write)
            lanes_out[pid] = os.fdopen(read)
        while taken := os.read(tasks, 1):
            records[taken[0]] = _run_check(cfg, names[taken[0]])
        for pid, fh in list(lanes_out.items()):
            taken = None
            for line in fh:
                if not line.endswith("\n"):
                    break
                item = json.loads(line)
                if isinstance(item, int):
                    taken = item
                else:
                    records[taken], taken = CheckRecord(**item), None
            del lanes_out[pid]
            fh.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if taken is not None:
                records[taken] = _lane_failure(cfg, names[taken], status)
            elif status:
                unannounced.append(status)
    except BaseException:
        import signal

        for pid, fh in lanes_out.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(tasks)
    # A lane killed between reading an index and writing it back leaves
    # that check unreported and announces nothing; each such check goes to
    # one of the lanes that died that way (with one forked lane, to it).
    missing = [i for i in range(len(names)) if i not in records]
    for i, status in zip(missing, unannounced):
        records[i] = _lane_failure(cfg, names[i], status)
    return [records[i] for i in range(len(names))]


def _lane_failure(cfg, name, status) -> CheckRecord:
    return CheckRecord(name, FAIL, 0, {}, {"seed": cfg.seed, "error": f"lane exited with status {status}"})


def run_campaign(cfg) -> Report:
    """Run the configured checks, in one lane per usable CPU, and collect
    a deterministic report."""
    cfg.validate(CATALOG)
    names = list(cfg.checks) if cfg.checks else sorted(CATALOG)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    records = _run_lanes(cfg, names, min(cpus, len(names)) - 1)
    return Report(version=__version__, config=cfg.as_dict(), checks=records)

"""Campaign configuration, report shape, lanes, and the CLI surface."""

import copy
import hashlib
import json
import os
import pickle
import random
import re
import select
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest

import padicsp
from padicsp import chevalley, subgroups
from padicsp.chevalley import FactorizationError, MatrixError
from padicsp.metaplectic import CharacterFx, MetaError, MetaSL2, SectionFsi
from padicsp.padic import Cyclo, Mono, PadicError, PrimeCtx, fraction_valuation, is_square, psi
from padicsp.quadext import QuadExt
from padicsp.rootsys import Root, WeylElem, ordered_negated_roots
from padicsp.schwartz import SchwartzFn
from padicsp.words import HeisenbergElem
from padicsp.chirp import Term
from padicsp.harness import (
    CATALOG,
    CampaignConfig,
    CheckFailure,
    CheckRecord,
    HarnessError,
    Report,
    build_config,
    encode_value,
    read_config_file,
    run_campaign,
    sample_rational,
)
from padicsp.harness import cell_checks, checks, cover_checks, matrix_checks, scalar_checks
from padicsp.harness.checks import CheckSpec, case_seed
from padicsp.harness.common import nonresidue, square_classes
from padicsp.harness.cli import main
from padicsp.harness.report import FAIL, PASS, SKIPPED


SMALL = dict(n=[2], p=[3], m=[1], samples=3, seed=11)


# ------------------------------------------------------------- config

def test_build_config_defaults():
    cfg = build_config(None)
    assert cfg.n == (2, 3) and cfg.p == (3, 5)
    assert cfg.m == (1, 2) and cfg.samples == 40
    cfg.validate(CATALOG)


def test_build_config_overrides_file_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nn = 2, 3\np = 5\nsamples = 7\nseed = 123\n")
    vals = read_config_file(str(path))
    cfg = build_config(vals, p=[3], out="r.json")
    assert cfg.n == (2, 3)
    assert cfg.p == (3,)  # flag wins over file
    assert cfg.samples == 7 and cfg.seed == 123
    assert cfg.out == "r.json"


def test_read_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 2\nthis line has no equals\n")
    with pytest.raises(HarnessError, match="expected key = value"):
        read_config_file(str(path))


def test_build_config_rejects_unknown_key():
    with pytest.raises(HarnessError):
        build_config({"banana": "3"})


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(p=[2]), "p = 2"),
        (dict(p=[9]), "prime"),
        (dict(n=[1]), "rank"),
        (dict(n=[7]), None),
        (dict(m=[0]), None),
        (dict(samples=-1), None),
        (dict(seed=2**64), None),
        (dict(checks=["nope"]), "unknown check"),
        (dict(checks=["bad-pairs", "bad-pairs", "volumes"]), "'bad-pairs' is named twice"),
    ],
)
def test_validate_rejections(kw, msg):
    cfg = build_config(None, **kw)
    with pytest.raises(HarnessError, match=msg) if msg else pytest.raises(HarnessError):
        cfg.validate(CATALOG)


def test_p2_message_names_the_hypothesis():
    cfg = build_config(None, p=[2])
    with pytest.raises(HarnessError, match="odd"):
        cfg.validate(CATALOG)


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(n=(2.7,), p=(5.9,)), "n"),
        (dict(seed="7"), "seed"),
        (dict(samples=2.5), "samples"),
        (dict(m=(1, True)), "m"),
    ],
    ids=["float-ranks-and-primes", "string-seed", "float-samples", "bool-level"],
)
def test_config_takes_integers_only(kw, field):
    """A float is not truncated and a string is not parsed: the config
    refuses them, naming the field, before anything validates."""
    with pytest.raises(HarnessError, match=f"^{field} .+ is not an integer$"):
        CampaignConfig(**kw)


def test_build_config_refuses_a_fractional_count():
    with pytest.raises(HarnessError, match="bad integer for samples"):
        build_config(None, samples=2.5)


# ------------------------------------------------------------- report

def test_encode_value_shapes():
    assert encode_value(Q(3, 4)) == "3/4"
    assert encode_value(Q(5)) == "5/1"
    assert encode_value(Root(2, (1, 1))) == {"root": [1, 1]}
    enc = encode_value(WeylElem.simple(2, 1))
    assert enc == {"weyl": [2, 1]}
    assert encode_value({"x": [Q(1, 2), 3]}) == {"x": ["1/2", 3]}
    # the exact scalar as its three rationals: 2 sqrt(q) zeta_8
    assert encode_value(Mono(2, Q(1, 2), Q(1, 8))) == {"rat": "2/1", "qexp": "1/2", "turn": "1/8"}
    assert encode_value(psi(PrimeCtx(3).of(Q(1, 3)))) == {"rat": "1/1", "qexp": "0/1", "turn": "1/3"}
    assert encode_value([Mono(-1)]) == [{"rat": "1/1", "qexp": "0/1", "turn": "1/2"}]


def test_encode_value_is_idempotent():
    """A lane sends encoded records, so encoding twice must change nothing."""
    values = [
        Q(3, 4),
        Root(2, (1, 1)),
        WeylElem.simple(2, 1),
        Mono(2, Q(1, 2), Q(1, 8)),
        {1: (Q(1, 2), [Mono(-1)]), "s": "x", "f": 0.5, "b": True, "none": None},
    ]
    for v in values:
        once = encode_value(v)
        assert encode_value(once) == once
        assert json.loads(json.dumps(once)) == once


def test_fail_record_requires_counterexample():
    with pytest.raises(ValueError):
        CheckRecord("x", FAIL)
    with pytest.raises(ValueError):
        CheckRecord("x", "maybe")
    rec = CheckRecord("x", FAIL, counterexample={"a": 1})
    assert rec.as_dict()["counterexample"] == {"a": 1}


def test_report_json_is_sorted_and_stable():
    rep = Report(version="0", config={"seed": 1},
                 checks=[CheckRecord("zeta", PASS, 1), CheckRecord("alpha", PASS, 2)])
    d = rep.as_dict()
    assert [c["name"] for c in d["checks"]] == ["alpha", "zeta"]
    assert rep.to_json() == rep.to_json()
    assert d["summary"]["pass"] == 2


# -------------------------------------------------------- value types

_C5 = PrimeCtx(5)

# One instance of each value type, by a builder that makes fresh
# Fractions on every call, with the repr the type has always printed.
VALUE_TYPES = {
    "PrimeCtx": (lambda: PrimeCtx(5), "PrimeCtx(p=5)"),
    "PAdic": (lambda: _C5.of(Q(3, 2)), "PAdic(value=Fraction(3, 2), ctx=PrimeCtx(p=5))"),
    "Mono": (
        lambda: Mono(Q(3, 2), Q(1, 2), Q(1, 8)),
        "Mono(rat=Fraction(3, 2), qexp=Fraction(1, 2), turn=Fraction(1, 8))",
    ),
    "Cyclo": (
        lambda: Cyclo.of(5, [Mono(), Mono(turn=Q(1, 5))]),
        "Cyclo(p=5, terms=(Mono(rat=Fraction(1, 1), qexp=Fraction(0, 1), turn=Fraction(0, 1)), "
        "Mono(rat=Fraction(1, 1), qexp=Fraction(0, 1), turn=Fraction(1, 5))))",
    ),
    "QuadExt": (lambda: QuadExt(_C5, Q(2)), "QuadExt(ctx=PrimeCtx(p=5), d=Fraction(2, 1))"),
    "Root": (lambda: Root(2, (2, 1)), "Root(n=2, coeffs=(2, 1))"),
    "WeylElem": (lambda: WeylElem(2, (2, -1)), "WeylElem(n=2, imgs=(2, -1))"),
    "CharacterFx": (
        lambda: CharacterFx(_C5, 1, Q(1, 4)),
        "CharacterFx(ctx=PrimeCtx(p=5), conductor=1, unit_phase=Fraction(1, 4), varpi_phase=Fraction(0, 1))",
    ),
    "SectionFsi": (
        lambda: SectionFsi(1, CharacterFx(_C5, 1, Q(1, 4))),
        "SectionFsi(i=1, eta=CharacterFx(ctx=PrimeCtx(p=5), conductor=1, unit_phase=Fraction(1, 4), "
        "varpi_phase=Fraction(0, 1)), s=Fraction(1, 2))",
    ),
    "Term": (
        lambda: Term(Mono(), Q(1, 5), Q(0), 0),
        "Term(coeff=Mono(rat=Fraction(1, 1), qexp=Fraction(0, 1), turn=Fraction(0, 1)), "
        "freq=Fraction(1, 5), center=Fraction(0, 1), rad=0, quad=Fraction(0, 1))",
    ),
    "SchwartzFn": (
        lambda: SchwartzFn.indicator(_C5),
        "SchwartzFn(ctx=PrimeCtx(p=5), terms=(Term(coeff=Mono(rat=Fraction(1, 1), qexp=Fraction(0, 1), "
        "turn=Fraction(0, 1)), freq=Fraction(0, 1), center=Fraction(0, 1), rad=0, quad=Fraction(0, 1)),))",
    ),
    "HeisenbergElem": (
        lambda: HeisenbergElem(1, Q(1, 2), 0),
        "HeisenbergElem(x=Fraction(1, 1), xp=Fraction(1, 2), z=Fraction(0, 1))",
    ),
    "CampaignConfig": (
        lambda: CampaignConfig(),
        "CampaignConfig(n=(2, 3), p=(3, 5), m=(1, 2), samples=40, seed=287454020, checks=(), out=None)",
    ),
    "CheckSpec": (lambda: CheckSpec(len, False), "CheckSpec(fn=<built-in function len>, sampled=False)"),
    "Mat": (
        lambda: chevalley.Mat([[1, Q(1, 2)], [0, 3]]),
        "Mat(rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(3, 1))))",
    ),
    "MetaSL2": (
        lambda: MetaSL2.upper(_C5, Q(1, 5)),
        "MetaSL2(ctx=PrimeCtx(p=5), rows=((Fraction(1, 1), Fraction(1, 5)), (Fraction(0, 1), Fraction(1, 1))), "
        "zeta=1)",
    ),
    "CheckRecord": (
        lambda: CheckRecord("x", PASS, 3, {"q": Q(1, 3)}),
        "CheckRecord(name='x', status='pass', cases=3, parameters={'q': Fraction(1, 3)}, "
        "counterexample=None, seconds=0.0)",
    ),
    "Report": (
        lambda: Report("0.1", {"seed": 1}, [CheckRecord("x", PASS, 3, {"q": Q(1, 3)})]),
        "Report(version='0.1', config={'seed': 1}, checks=[CheckRecord(name='x', status='pass', cases=3, "
        "parameters={'q': Fraction(1, 3)}, counterexample=None, seconds=0.0)])",
    ),
}
RECORDS = ("CheckRecord", "Report")  # mutable, so unhashable


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_type_contract(name):
    """Equal fields make equal values with equal hashes, a value hashing
    as the tuple of its public slots; the repr names every field; copy and
    pickle keep the value; a value cannot be changed, and a record cannot
    be hashed."""
    build, shown = VALUE_TYPES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert repr(a) == shown
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    field = shown[len(name) + 1:shown.index("=")]  # the first field
    if name in RECORDS:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, field, getattr(b, field))
        assert a == b
        return
    assert hash(a) == hash(b) == hash(tuple(getattr(a, k) for k in a.__slots__ if k[0] != "_"))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == getattr(b, field)


def test_value_types_have_no_instance_dict():
    """Each value keeps its fields in slots, so it has no dict to fill."""
    for build, _ in VALUE_TYPES.values():
        value = build()
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1


@pytest.mark.parametrize(
    "left,right",
    [
        (Root(2, (2, 1)), WeylElem(2, (2, 1))),
        (HeisenbergElem(1, 2, Q(1, 3)), Mono(1, 2, Q(1, 3))),
        (Cyclo(5, ()), SchwartzFn(5, ())),
        (Mono(1, 2, Q(1, 3)), (Q(1), Q(2), Q(1, 3))),
    ],
    ids=["root-weyl", "heisenberg-mono", "cyclo-schwartz", "mono-tuple"],
)
def test_equal_fields_of_different_types_are_unequal(left, right):
    assert left != right and right != left


# ----------------------------------------------------------- sampling

def test_sample_rational_respects_class_and_span():
    rng = random.Random(3)
    p, m = 5, 2
    ctx = PrimeCtx(p)
    for cls in square_classes(p):
        for _ in range(40):
            x = sample_rational(rng, p, m, square_class=cls)
            assert x > 0
            assert abs(fraction_valuation(x, p)) <= 3 * m
            # x over its class representative is a square unit times p^{2k}
            ratio = x / cls
            assert fraction_valuation(ratio, p) % 2 == 0
            assert is_square(ctx.of(ratio))


def test_sample_rational_sign_flag():
    rng = random.Random(4)
    signs = {sample_rational(rng, 3, signed=True) > 0 for _ in range(30)}
    assert signs == {True, False}


def test_nonresidue_is_smallest():
    assert nonresidue(3) == 2
    assert nonresidue(5) == 2
    assert nonresidue(7) == 3


def test_case_seed_spreads_names():
    seeds = {case_seed(11, name) for name in CATALOG}
    assert len(seeds) == len(CATALOG)
    assert case_seed(11, "bad-pairs") != case_seed(12, "bad-pairs")


# ----------------------------------------------------------- campaign

def test_campaign_small_subset_passes():
    cfg = build_config(None, checks=["bad-pairs", "psi-character", "big-cell"], **SMALL)
    rep = run_campaign(cfg)
    assert rep.ok
    assert sorted(r.name for r in rep.checks) == ["bad-pairs", "big-cell", "psi-character"]
    assert all(r.status == PASS and r.cases > 0 for r in rep.checks)


def test_campaign_bad_pair_counts_in_report():
    cfg = build_config(None, n=[2, 3], p=[3], checks=["bad-pairs"], samples=1, seed=5)
    rep = run_campaign(cfg)
    assert rep.checks[0].parameters["counts"] == {"n=2": 1, "n=3": 3}


def test_campaign_zero_samples_skips_sampled_only():
    cfg = build_config(None, n=[2], p=[3], m=[1], samples=0, seed=11)
    rep = run_campaign(cfg)
    by_status = {}
    for rec in rep.checks:
        by_status.setdefault(rec.status, []).append(rec.name)
    assert sorted(by_status[SKIPPED]) == sorted(n for n, s in CATALOG.items() if s.sampled)
    assert sorted(by_status[PASS]) == sorted(n for n, s in CATALOG.items() if not s.sampled)
    assert rep.ok


# The checks that draw their matrices at rank <= 3 (matrix_ranks), so
# that n = 4 alone gives them no case.
N4_SKIPPED = (
    "bruhat-oracle", "cell-collapse", "cell-identity", "cell-word-rewrite", "chevalley-commutators",
    "congruence-structure", "deep-ball-invariance", "levi-stability", "obstructed-decompositions",
    "symplectic-generators",
)


def test_checks_that_run_no_case_are_skipped():
    rep = run_campaign(build_config(None, n=[4]))
    skipped = {r.name: (r.cases, r.parameters) for r in rep.checks if r.status == SKIPPED}
    assert skipped == {name: (0, {"reason": "no case at these parameters"}) for name in N4_SKIPPED}
    assert all(r.cases > 0 for r in rep.checks if r.status == PASS)
    assert rep.ok


def test_campaign_deterministic_given_seed():
    cfg = build_config(None, checks=["big-cell", "rao-cocycle", "volumes"], **SMALL)
    d1 = run_campaign(cfg).as_dict()
    d2 = run_campaign(cfg).as_dict()
    for d in (d1, d2):
        for c in d["checks"]:
            c.pop("seconds")
    assert d1 == d2


# The checks whose cases come from the seeded samplers, and the samplers,
# each with every module that reads it.
SAMPLER_FED = (
    "psi-character", "hilbert-symbol", "weil-index", "quad-ext", "norm-one-split",
    "bruhat-oracle", "cell-word-rewrite", "cell-collapse", "congruence-structure",
)
SAMPLERS = {
    "sample_rational": (checks, scalar_checks, matrix_checks, cell_checks, cover_checks),
    "_random_ext_elem": (scalar_checks,),
    "_deep_unipotent": (matrix_checks, cell_checks),
    "_random_torus": (matrix_checks, cell_checks),
    "_random_word_matrix": (matrix_checks, cell_checks),
    "_admissible_rewrite_case": (cell_checks,),
}
SAMPLED_REPORT_SHA256 = "7699a9926d5d8e81a7e419b6df6e6e6981dc0ed1a478904e8bfbc4448008e06b"
SAMPLED_DRAWS_SHA256 = "0b3eb35e1c2dbe312e249299999fa6b33f1781d82d1927fc9479c89ee6e3d53b"


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_sampler_fed_cases_are_pinned(monkeypatch):
    """The sampler-fed checks at samples = 8 and seed 2611 give a fixed
    report (version and timings removed) from a fixed stream of sampled
    values.  A passing report does not show which cases ran, so every
    value a sampler returns is recorded (one lane, so every call is made
    here) and hashed as well: a sampler that reorders a draw, or builds
    another value from it, fails here.  A change that alters these cases
    on purpose updates both digests and says so in CHANGES.md."""
    _use_cpus(monkeypatch, 1)
    drawn = []
    for name, readers in SAMPLERS.items():
        for module in readers:
            def traced(*args, _real=getattr(module, name), _name=name, **kwargs):
                out = _real(*args, **kwargs)
                drawn.append([_name, encode_value(out)])
                return out

            monkeypatch.setattr(module, name, traced)
    doc = run_campaign(build_config(None, checks=list(SAMPLER_FED), samples=8, seed=2611)).as_dict()
    doc.pop("version")
    for c in doc["checks"]:
        c.pop("seconds")
    assert doc["summary"] == {PASS: len(SAMPLER_FED), FAIL: 0, SKIPPED: 0}
    assert {name for name, _ in drawn} == set(SAMPLERS)
    assert (_sha256(doc), _sha256(drawn)) == (SAMPLED_REPORT_SHA256, SAMPLED_DRAWS_SHA256)


DEFAULT_CHECKS_SHA256 = "4d7ee6d77fda498fb6c2da349441a8b5dfc054151e32ef77088a7adfbf67b874"


def test_default_campaign_checks_are_pinned():
    """The default campaign's check records, each without `seconds`, hash
    to a fixed value: a change that keeps every verdict and case count
    keeps the passing report byte-equal.  A change that alters a passing
    report on purpose updates the digest and says so in CHANGES.md."""
    records = run_campaign(build_config(None)).as_dict()["checks"]
    for c in records:
        c.pop("seconds")
    assert _sha256(records) == DEFAULT_CHECKS_SHA256


def test_campaign_failure_carries_counterexample():
    def boom(cfg, rng):
        raise CheckFailure({"x": Q(1, 3), "reason": "synthetic"})

    CATALOG["synthetic-failure"] = CheckSpec(boom, False)
    try:
        cfg = build_config(None, checks=["synthetic-failure", "bad-pairs"], **SMALL)
        rep = run_campaign(cfg)
    finally:
        del CATALOG["synthetic-failure"]
    assert not rep.ok
    rec = {r.name: r for r in rep.checks}["synthetic-failure"]
    assert rec.status == FAIL
    assert rec.counterexample["reason"] == "synthetic"
    assert rec.counterexample["seed"] == SMALL["seed"]


# Each library routine whose self-check a check relies on: the check, where
# the check finds the routine, the error its self-check raises, and the
# case parameters a failure must carry, read off the routine's arguments.
PLANTED_RAISES = [
    ("norm-one-split", scalar_checks, "norm_one_decompose", PadicError,
     lambda x, m: {"d": x.ext.d, "x": str(x), "m": m}),
    ("bruhat-oracle", chevalley, "bruhat_decompose", FactorizationError,
     lambda g: {"n": g.size // 2, "rows": g.rows}),
    ("cell-identity", subgroups, "cell_identity_borel_part", MatrixError,
     lambda n, root, r: {"n": n, "root": root, "r": r}),
    ("cell-word-rewrite", chevalley, "cell_word_rewrite", FactorizationError,
     lambda ctx, t, w, rs, u, m: {"n": w.n, "m": m, "w": w, "rs": rs, "u": u, "t": t}),
    ("cell-collapse", chevalley, "cell_collapse_witness", FactorizationError,
     lambda t, w, roots, rs, bad_index: {
         "n": w.n, "w": w, "q": len(ordered_negated_roots(w)) - len(roots), "t": t, "rs": rs}),
    ("obstructed-decompositions", chevalley, "cell_collapse_witness", FactorizationError,
     lambda t, w, roots, rs, bad_index: {"n": w.n, "g1": roots[0], "g2": roots[1], "w": w, "t": t, "rs": rs}),
    ("obstructed-decompositions", chevalley, "cell_word_rewrite", FactorizationError,
     lambda ctx, t, w, rs, u, m: {"n": w.n, "m": m, "rs": rs, "u": u}),
    ("big-cell", cover_checks, "decompose_big_cell", MetaError, lambda y, x: {"x": x, "y": y}),
]


@pytest.mark.parametrize(
    "check,module,routine,error,params", PLANTED_RAISES, ids=[f"{c}-{r}" for c, _, r, _, _ in PLANTED_RAISES]
)
def test_a_library_raise_fails_the_case_with_its_parameters(monkeypatch, check, module, routine, error, params):
    """A check does not re-derive what the routine it calls verifies; a
    raise of that routine's self-check fails the check's record, and the
    counterexample holds the case's parameters and the library's message."""
    seen = []

    def planted(*args, **kwargs):
        seen.append(params(*args, **kwargs))
        raise error("planted self-check failure")

    monkeypatch.setattr(module, routine, planted)
    rec = checks._run_check(build_config(None, checks=[check], **SMALL), check)
    assert rec.status == FAIL and len(seen) == 1
    assert rec.counterexample == {
        "seed": SMALL["seed"], "p": SMALL["p"][0], **seen[0], "error": f"{error.__name__}: planted self-check failure"
    }


def test_campaign_crash_becomes_fail_record():
    def crash(cfg, rng):
        raise ValueError("exploded")

    CATALOG["synthetic-crash"] = CheckSpec(crash, False)
    try:
        cfg = build_config(None, checks=["synthetic-crash"], **SMALL)
        rep = run_campaign(cfg)
    finally:
        del CATALOG["synthetic-crash"]
    rec = rep.checks[0]
    assert rec.status == FAIL
    assert "exploded" in rec.counterexample["error"]


def test_campaign_rejects_invalid_config():
    cfg = CampaignConfig(n=(2,), p=(2,), m=(1,), samples=1, seed=1, checks=(), out=None)
    with pytest.raises(HarnessError):
        run_campaign(cfg)


# -------------------------------------------------------------- lanes

def _use_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def _held_by_each_process(monkeypatch, names, in_lane, in_campaign=lambda: (1, {})):
    """Register `names` as one synthetic check that calls in_lane() in a
    forked lane and in_campaign() in the campaign process, behind a
    two-way gate: the lane announces that it holds one of them and waits
    until the campaign process, holding another, acknowledges.  With one
    forked lane and the two names first in the campaign, each process so
    takes exactly one of them, whichever way the race for the task pipe
    goes: the lane cannot take the second while it waits.  Returns the
    gates' pipe ends, for the caller to close."""
    campaign, (gate, opened), (ack, acked) = os.getpid(), os.pipe(), os.pipe()

    def held(cfg, rng):
        if os.getpid() == campaign:
            os.read(gate, 1)
            os.write(acked, b"x")
            return in_campaign()
        os.write(opened, b"x")
        os.read(ack, 1)
        return in_lane()

    for name in names:
        monkeypatch.setitem(CATALOG, name, CheckSpec(held, False))
    _use_cpus(monkeypatch, 2)
    return gate, opened, ack, acked


def test_lanes_give_the_serial_report_bytes(monkeypatch):
    def boom(cfg, rng):
        raise CheckFailure({"x": Q(rng.randint(1, 9), 7), "reason": "synthetic"})

    def crash(cfg, rng):
        raise ValueError("exploded")

    campaign, (done, finished) = os.getpid(), os.pipe()

    def last(cfg, rng):
        if os.getpid() != campaign:
            os.write(finished, b"x")
        return 1, {}

    monkeypatch.setitem(CATALOG, "synthetic-failure", CheckSpec(boom, False))
    monkeypatch.setitem(CATALOG, "synthetic-crash", CheckSpec(crash, False))
    monkeypatch.setitem(CATALOG, "synthetic-pass", CheckSpec(lambda cfg, rng: (1, {"q": Q(1, 3)}), False))
    monkeypatch.setitem(CATALOG, "synthetic-last", CheckSpec(last, False))
    names = ["bad-pairs", "synthetic-failure", "synthetic-crash", "synthetic-pass", "volumes", "synthetic-last"]
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _use_cpus(monkeypatch, 1)
    serial = run_campaign(build_config(None, checks=names, **SMALL))
    assert not forks
    # With two lanes the campaign process holds until its forked lane has
    # run every check of `names`, so each record crosses the lane's pipe.
    def until_last():
        select.select([done], [], [], 30)  # bounded: a lane that dies writes nothing
        return 1, {}

    held = ["synthetic-a", "synthetic-b"]
    fds = _held_by_each_process(monkeypatch, held, lambda: (1, {}), until_last)
    try:
        laned = run_campaign(build_config(None, checks=held + names, **SMALL))
    finally:
        for fd in fds + (done, finished):
            os.close(fd)
    assert len(forks) == 1
    assert isinstance(laned.checks[3].counterexample["x"], str)  # sent by the lane, encoded
    texts = []
    for records in (serial.checks, laned.checks[2:]):
        for r in records:
            r.seconds = 0.0
        texts.append(json.dumps([r.as_dict() for r in records], indent=2, sort_keys=True))
    assert texts[0] == texts[1]
    by_name = {r["name"]: r for r in serial.as_dict()["checks"]}
    assert by_name["synthetic-failure"]["counterexample"]["x"].endswith("/7")
    assert by_name["synthetic-crash"]["counterexample"]["error"] == "ValueError: exploded"
    assert by_name["synthetic-pass"]["parameters"] == {"q": "1/3"}
    assert by_name["bad-pairs"]["status"] == PASS


def test_more_lanes_than_cores_run_each_check_once(monkeypatch):
    names = [f"synthetic-{k:02d}" for k in range(24)]
    for name in names:
        monkeypatch.setitem(CATALOG, name, CheckSpec(lambda cfg, rng, name=name: (1, {"ran": name}), False))
    _use_cpus(monkeypatch, 8)
    start = time.monotonic()
    rep = run_campaign(build_config(None, checks=names, **SMALL))
    assert time.monotonic() - start < 30
    assert [(r.name, r.status, r.parameters) for r in rep.checks] == [(n, PASS, {"ran": n}) for n in names]


def test_a_lane_that_dies_fails_the_check_it_took(monkeypatch):
    fds = _held_by_each_process(monkeypatch, ["synthetic-a", "synthetic-b"], lambda: os._exit(3))
    names = ["synthetic-a", "synthetic-b", "bad-pairs", "volumes", "psi-character"]
    try:
        rep = run_campaign(build_config(None, checks=names, **SMALL))
    finally:
        for fd in fds:
            os.close(fd)
    assert [r.name for r in rep.checks] == names
    dead = [r for r in rep.checks if r.status == FAIL]
    assert len(dead) == 1 and dead[0].name in names[:2]
    assert dead[0].counterexample == {"seed": SMALL["seed"], "error": "lane exited with status 3"}
    assert all(r.status == PASS for r in rep.checks if r is not dead[0])


def test_an_error_in_the_campaign_process_kills_and_reaps_the_lanes(monkeypatch):
    def stall():
        time.sleep(60)
        return 0, {}

    def interrupt():
        raise KeyboardInterrupt

    # the campaign process is interrupted while its forked lane is stalled
    fds = _held_by_each_process(monkeypatch, ["synthetic-stall", "synthetic-stall-too"], stall, interrupt)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_campaign(build_config(None, checks=["synthetic-stall", "synthetic-stall-too"], **SMALL))
    finally:
        for fd in fds:
            os.close(fd)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_one_check_campaign_does_not_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a one-check campaign forked")

    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_campaign(build_config(None, checks=["bad-pairs"], **SMALL)).ok


# ---------------------------------------------------------------- cli

def test_cold_import_loads_no_code_generator():
    """Importing the CLI, without site, loads neither dataclasses nor
    typing, nor the source tools they pull in."""
    generators = ("dataclasses", "typing", "inspect", "ast", "dis", "tokenize")
    src = os.path.dirname(os.path.dirname(padicsp.__file__))
    script = "import padicsp.harness.cli, sys; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, *generators],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_cli_enumerate_bad_pairs(capsys):
    assert main(["enumerate", "bad-pairs", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "count=1" in out and "(1, 1) (2, 1)" in out


def test_cli_enumerate_sigma_minus_frozen(capsys):
    assert main(["enumerate", "sigma-minus", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["  (1, 0)", "  (2, 1)", "  (1, 1)"]


def test_cli_enumerate_weyl_json(capsys):
    assert main(["enumerate", "weyl-leq-w0", "--n", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 6
    words = [tuple(item["word"]) for item in data["items"]]
    assert tuple() in words and (1, 2, 1) in words


def test_cli_enumerate_bad_triples_count(capsys):
    assert main(["enumerate", "bad-triples", "--n", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 5


def test_cli_enumerate_rejects_rank_one(capsys):
    assert main(["enumerate", "bad-pairs", "--n", "1"]) == 2
    assert "rank" in capsys.readouterr().err


def test_cli_verify_subset_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--n", "2",
            "--p", "3",
            "--m", "1",
            "--samples", "2",
            "--seed", "42",
            "--checks", "bad-pairs,volumes",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "bad-pairs" in text and "summary: 2 checks, 2 pass" in text
    data = json.loads(out.read_text())
    assert data["tool"] == "padicsp"
    assert data["config"]["seed"] == 42
    assert {c["name"] for c in data["checks"]} == {"bad-pairs", "volumes"}


def test_cli_verify_rejects_even_prime(capsys):
    assert main(["verify", "--p", "2", "--n", "2"]) == 2
    assert "odd" in capsys.readouterr().err


def test_cli_verify_bad_integer_is_a_config_error(capsys):
    assert main(["verify", "--n", "2,x"]) == 2
    assert "bad integer list '2,x'" in capsys.readouterr().err
    assert main(["verify", "--samples", "x"]) == 2
    assert "bad integer for samples: 'x'" in capsys.readouterr().err


def test_cli_verify_rejects_a_check_named_twice(capsys):
    argv = ["verify", "--n", "2", "--p", "3", "--checks", "bad-pairs,bad-pairs,volumes"]
    assert main(argv) == 2
    assert "check 'bad-pairs' is named twice" in capsys.readouterr().err


def test_cli_verify_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("n = 2\np = 3\nm = 1\nsamples = 2\nseed = 9\nchecks = psi-character\n")
    assert main(["verify", "--config", str(cfgfile)]) == 0
    assert "psi-character" in capsys.readouterr().out


def test_cli_verify_reports_failure_exit(capsys):
    def boom(cfg, rng):
        raise CheckFailure({"bad": 1})

    CATALOG["synthetic-failure"] = CheckSpec(boom, False)
    try:
        rc = main(["verify", "--n", "2", "--p", "3", "--checks", "synthetic-failure"])
    finally:
        del CATALOG["synthetic-failure"]
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counterexample" in out


def _matrix_file(tmp_path, rows):
    path = tmp_path / "mat.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")
    return str(path)


def test_cli_decompose_round_trip(tmp_path, capsys):
    from padicsp.chevalley import mul_root_elem, root_elem, weyl_rep
    from padicsp.subgroups import torus

    g = root_elem(2, Root(2, (1, 0)), Q(5, 3))
    g = g * torus([Q(3), Q(1, 3)])
    g = g * weyl_rep(WeylElem.simple(2, 2))
    g = mul_root_elem(g, -Root(2, (0, 1)), Q(2))
    path = _matrix_file(tmp_path, g.rows)
    assert main(["decompose", "--n", "2", "--matrix", path]) == 0
    out = capsys.readouterr().out
    assert "w: imgs=(1, -2)" in out
    assert out.count("1 5/3") == 1  # the upper factor keeps exact entries


def test_cli_decompose_rejects_wrong_shape(tmp_path, capsys):
    path = _matrix_file(tmp_path, [[1, 2], [3, 4]])
    assert main(["decompose", "--n", "2", "--matrix", path]) == 2
    assert "expected 16 entries" in capsys.readouterr().err


def test_cli_decompose_rejects_non_rational(tmp_path, capsys):
    rows = [["x"] * 4 for _ in range(4)]
    path = _matrix_file(tmp_path, rows)
    assert main(["decompose", "--n", "2", "--matrix", path]) == 2
    assert "bad rational" in capsys.readouterr().err


def test_cli_decompose_missing_file(capsys):
    assert main(["decompose", "--n", "2", "--matrix", "/nonexistent/mat.txt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_report_bytes_do_not_depend_on_out_path(tmp_path, capsys):
    texts = []
    for name in ("a", "b/deeper"):
        out = tmp_path / name / "report.json"
        out.parent.mkdir(parents=True)
        argv = ["verify", "--n", "2", "--p", "3", "--m", "1", "--samples", "2", "--seed", "42"]
        assert main(argv + ["--checks", "bad-pairs,volumes,psi-character", "--out", str(out)]) == 0
        text = out.read_text()
        assert str(out) not in text
        texts.append(re.sub(r'\n *"seconds": [^\n]*', "", text).encode())
    capsys.readouterr()
    assert texts[0] == texts[1]
    assert "out" not in json.loads(texts[0])["config"]

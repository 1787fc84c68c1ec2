"""Tests for the benchmark's own logic.  Run with: python3 -m pytest bench"""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tr
from stats import beyond, charged_seconds, percentile, self_times, tail_percentile

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------ percentiles

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_tail_rule_needs_ten_samples_beyond():
    assert tail_percentile(200) == 95.0 and beyond(200, 95) == 10
    assert tail_percentile(199) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(29) is None  # not even p75 has ten beyond


def _ops(seconds):
    return {"ops": [{"id": str(i), "status": "ok", "seconds": s} for i, s in enumerate(seconds)]}


def test_case_figures_report_median_p95_and_the_allowed_tail():
    figures = {name: (value, note) for name, value, _, note in run.case_figures([_ops([v / 1000 for v in range(1000)])])}
    assert figures["case_p50_ms"][0] == pytest.approx(499.5)
    assert figures["case_p95_ms"][0] == pytest.approx(949.0)
    assert figures["case_p99_ms"][0] == pytest.approx(989.0)
    assert set(figures) == {"case_p50_ms", "case_p95_ms", "case_p99_ms"}
    few = {name: note for name, _, _, note in run.case_figures([_ops([0.1] * 28)])}
    assert set(few) == {"case_p50_ms", "case_p95_ms"} and "fewer than 10" in few["case_p95_ms"]


# --------------------------------------------------------------- charging

def test_failures_are_charged_the_charge():
    assert charged_seconds(0.03, True, 0.1) == 0.03
    assert charged_seconds(0.001, False, 0.1) == 0.1  # a fast failure still costs the charge
    assert charged_seconds(0.25, False, 0.1) == 0.1  # a slow failure overshoots, but is charged the charge
    assert charged_seconds(0.1, True, 0.1) == 0.1


def test_fixing_a_fast_failure_never_raises_the_sum():
    charge = 0.1
    before = [charged_seconds(0.001, False, charge), charged_seconds(0.02, True, charge)]
    for fixed in (0.0005, 0.05, 0.0999, 0.2):
        after = [charged_seconds(fixed, fixed < charge, charge), charged_seconds(0.02, True, charge)]
        assert sum(after) <= sum(before)


# -------------------------------------------------------------- self time

def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 7]; the second has a child [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 7.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert list(self_times(starts, ends, parents)) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # children [1, 4], [3, 6] and [8, 12] cover [1, 6] and [8, 10] of the parent
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(3.0)
    assert list(own[1:]) == [3.0, 3.0, 4.0]


def test_self_time_of_a_child_inside_an_earlier_sibling():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 6.0, 5.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(5.0)


# --------------------------------------------------------------- verdicts

def _case(case_id, status):
    return {"id": case_id, "status": status}


def test_false_verdict_and_unstable_outcomes_are_wrong():
    good = {"ops": [_case("p3-000", "ok"), _case("p3-001", "term-budget")]}
    assert run.wrong_verdicts([good, good]) == []
    timed_out = {"ops": [_case("p3-000", "timeout"), _case("p3-001", "term-budget")]}
    assert run.wrong_verdicts([good, timed_out]) == []
    flipped = {"ops": [_case("p3-000", "ok"), _case("p3-001", "ok")]}
    assert run.wrong_verdicts([good, flipped])
    stopped = {"ops": [_case("p3-000", "over-budget"), _case("p3-001", "term-budget")]}
    assert run.wrong_verdicts([good, stopped])
    false = {"ops": [_case("p3-000", "false"), _case("p3-001", "term-budget")]}
    assert run.wrong_verdicts([false]) == ["case p3-000 returned False"]


def test_campaign_must_pass_and_repeat_byte_for_byte():
    ok = {"digest": "a", "ops": [_case("bad-pairs", "pass")]}
    assert run.wrong_verdicts([ok, dict(ok)]) == []
    assert run.wrong_verdicts([ok, dict(ok, digest="b")])
    failing = {"digest": "a", "ops": [_case("bad-pairs", "fail")]}
    assert run.wrong_verdicts([failing]) == ["check bad-pairs ended fail, expected pass"]


def test_overhead_ratio_on_cases_uses_cases_ok_in_both_rounds():
    def ops(*rows):
        return {"ops": [{"id": i, "status": st, "seconds": sec} for i, st, sec in rows]}

    plain = ops(("a", "ok", 1.0), ("b", "ok", 2.0), ("c", "timeout", 0.1), ("d", "ok", 0.05))
    traced = ops(("a", "ok", 1.5), ("b", "ok", 2.5), ("c", "ok", 0.09), ("d", "timeout", 0.1))
    # only a and b ended ok in both rounds
    assert run.overhead_ratio(plain, traced) == pytest.approx(4.0 / 3.0)
    assert run.overhead_ratio({"digest": "x", "wall_s": 2.0}, {"digest": "x", "wall_s": 3.0}) == 1.5


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_lists_the_metrics_the_runner_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def _probe(code):
    """Run code in a fresh interpreter with padicsp and bench importable; its last line, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_check_metrics_match_the_checks_verify_default_runs():
    flags = _probe("import json, child; print(json.dumps(child.VERIFY_FLAGS['verify-default']))")
    assert flags[0] == "--checks"
    assert tuple(flags[1].split(",")) == run.CHECKS


_CASES_PROBE = r"""
import json
from collections import Counter
import child
cases = child.weil_cases(7)
print(json.dumps({
    "same": repr(cases) == repr(child.weil_cases(7)),
    "reordered": repr(cases) != repr(child.weil_cases(8)),
    "one_panel": sorted(map(repr, cases)) == sorted(map(repr, child.weil_cases(8))),
    "per_prime": sorted(Counter(c[0] for c in cases).values()),
}))
"""


def test_weil_cases_are_one_panel_ordered_by_seed():
    out = _probe(_CASES_PROBE)
    assert out["same"] and out["reordered"] and out["one_panel"]
    assert out["per_prime"] == [120] * 5


_METER_PROBE = r"""
import json
import child
from padicsp import schwartz as sw
from padicsp.padic import PrimeCtx

ctx = PrimeCtx(5)
meter = child.TermMeter(2)
sw.SchwartzFn.indicator(ctx)
sw.SchwartzFn.indicator(ctx, 1, 1)
spent = meter.spent
try:
    sw.SchwartzFn.indicator(ctx)
    stopped = False
except child.OverBudget:
    stopped = True
print(json.dumps({"spent": spent, "stopped": stopped, "after": meter.spent}))
"""


def test_term_meter_counts_canonical_input_and_stops_past_the_budget():
    out = _probe(_METER_PROBE)
    assert out == {"spent": 2, "stopped": True, "after": 3}


# ---------------------------------------------------------------- wrappers

def test_spans_are_written_into_a_directory_that_does_not_exist_yet(tmp_path):
    t = tr.Tracer()
    t.set_request("case")
    path = tmp_path / "not-yet" / "spans.bin.gz"
    t.write_spans(path)
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["count"] == 0 and header["requests"] == [None, "case"]


_WRAPPER_PROBE = r"""
import json
from fractions import Fraction as Q
import tracer as tr
from padicsp import schwartz, metaplectic
from padicsp.harness import checks
from padicsp.padic import PrimeCtx

originals = (checks.weil_index, checks.rao_cocycle, schwartz.mu_psi)
t = tr.Tracer()
names = tr.install(t, distinct=("padic.weil_index",))
tr.install(t)  # installing twice must not wrap twice
ctx = PrimeCtx(5)
checks.weil_index(ctx.of(Q(3)))
checks.weil_index(ctx.of(Q(3)))
schwartz.mu_psi(ctx.of(Q(2)))
g = metaplectic.MetaSL2.upper(ctx, Q(1, 5))
checks.rao_cocycle(ctx, g.rows, g.rows)
table, layer_self = t.layer_table()
print(json.dumps({
    "rebound": [a is not b for a, b in zip(originals, (checks.weil_index, checks.rao_cocycle, schwartz.mu_psi))],
    "rows": {k: table[k] for k in ("padic.weil_index", "padic.mu_psi", "metaplectic.rao_cocycle", "metaplectic.MetaSL2.upper")},
    "installed": len(names),
}))
"""


def test_wrappers_catch_from_import_bindings():
    out = _probe(_WRAPPER_PROBE)
    assert out["rebound"] == [True, True, True]
    rows = out["rows"]
    # two direct calls plus the two mu_psi makes through padic's own binding
    assert rows["padic.weil_index"]["calls"] == 4
    assert rows["padic.weil_index"]["distinct"] == 3
    assert rows["padic.mu_psi"]["calls"] == 1
    assert rows["metaplectic.rao_cocycle"]["calls"] == 1
    assert rows["metaplectic.MetaSL2.upper"]["calls"] == 1  # classmethods are wrapped too
    assert out["installed"] > 50

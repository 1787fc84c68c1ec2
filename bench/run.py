"""padicsp benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --case-terms N --case-charge-s C --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --case-terms N --case-charge-s C     # every workload, seed 1

BENCHMARK.json's command holds the weil-words term budget and charge.

Workloads:
  verify-default  the default `padicsp verify` campaign at the seed
  verify-matrix   the 15 root-system/Chevalley checks at n=2,3,4, p=3,5,7, m=1,2,3
  weil-words      a fixed panel of Weil-representation identity cases at
                  p=3,5,7,11,13 in seeded order, each against a term budget

Every measurement runs in a fresh interpreter (bench/child.py), one at a
time, so padicsp's caches start cold as they do for a user.  With
--trace 0 the run repeats the workload a number of rounds fixed by
--seconds (so every run at those settings attempts the same operations)
and reports medians over those rounds; set-up time is the median over
those rounds and a few set-up-only processes.  With --trace 1 it runs
the workload once plain, once with every layer traced and once counting
Fraction constructions, and reports per-layer metrics.

An operation is a check on the verify workloads and a case on
weil-words.  A weil-words case that errors, hands SchwartzFn.canonical
more terms in total than the budget, or returns False has failed and is
charged the charge; the budget counts work, not time, so the same cases
fail in every run.  A False verdict, a check that does not pass, a case
that ends differently in two rounds (a stop by the time guard aside), or
a campaign report whose bytes (timings removed) differ between rounds
makes the run incorrect and the exit status 1.

Human-readable lines go first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The full record,
with provenance, host-speed probes and every failed case, is written to
.bench_out/ at the root of the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from stats import MIN_BEYOND, beyond, percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-default", "verify-matrix", "weil-words")
# Seconds one plain round of each workload takes on a 2-core x86-64 host
# (Python 3.11); --seconds divided by it, rounded, is the number of rounds.
ROUND_S = {"verify-default": 6.7, "verify-matrix": 7.7, "weil-words": 14.0}
SETUP_PROBES = 9  # set-up-only processes per plain run, on top of the measured rounds
DEADLINE_S = 170.0  # a run must be finished well inside 180 s

CHECKS = (
    "bad-pair-factorizations", "bad-pairs", "bad-triple-shapes", "big-cell",
    "bruhat-oracle", "bruhat-order", "cell-collapse", "cell-identity",
    "cell-word-rewrite", "chevalley-commutators", "congruence-structure",
    "deep-ball-invariance", "fourier-closure", "heisenberg-law", "hilbert-symbol",
    "intertwining-volume", "levi-stability", "norm-one-split",
    "obstructed-decompositions", "psi-character", "quad-ext", "rao-cocycle",
    "reflection-positivity", "section-law", "sigma-minus-order",
    "symplectic-generators", "volumes", "weil-index",
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (traced span, statistics reported for it); self_s is busy time minus
# the covered time of wrapped child spans.
TRACED = (
    ("padic.weil_index", ("calls", "self_s", "distinct_ratio")),
    ("padic.mu_psi", ("calls", "busy_s")),
    ("padic.hilbert_symbol", ("calls", "self_s")),
    ("quadext.norm_one_decompose", ("calls", "busy_s")),
    ("rootsys.full_weyl_group", ("calls", "busy_s")),
    ("rootsys.bruhat_leq", ("calls", "self_s")),
    ("rootsys.weyl_below", ("calls", "busy_s")),
    ("rootsys.ordered_negated_roots", ("calls", "busy_s")),
    ("chevalley.Mat.mul", ("calls", "self_s")),
    ("chevalley.Mat.inverse", ("calls", "self_s")),
    ("chevalley.bruhat_decompose", ("calls", "busy_s", "self_s")),
    ("chevalley.weyl_from_rank_pattern", ("calls", "busy_s")),
    ("chevalley.mul_root_elem", ("calls", "self_s")),
    ("chevalley.weyl_rep", ("calls", "busy_s")),
    ("chevalley.cell_word_rewrite", ("calls", "busy_s")),
    ("chevalley.cell_collapse_witness", ("calls", "busy_s")),
    ("metaplectic.MetaSL2.mul", ("calls", "self_s")),
    ("metaplectic.rao_cocycle", ("calls", "self_s")),
    ("metaplectic.section_level", ("calls", "busy_s", "distinct_ratio")),
    ("metaplectic.intertwine_eval_exact", ("calls", "busy_s")),
    ("metaplectic.eval_fsi_exact", ("calls", "busy_s")),
    ("schwartz.SchwartzFn.canonical", ("calls", "self_s", "terms_in", "terms_out", "out_per_in", "peak_terms")),
    ("schwartz.weil_act", ("calls", "busy_s", "errors")),
    ("schwartz.weil_act_cover", ("calls", "busy_s")),
    ("schwartz.check_rep_identity", ("calls", "busy_s")),
    ("schwartz.SchwartzFn.equals", ("calls", "busy_s")),
    ("schwartz.fourier", ("calls", "busy_s")),
)

_STAT_UNIT = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "terms_in": ("count", "lower"),
    "terms_out": ("count", "lower"),
    "peak_terms": ("count", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "out_per_in": ("ratio", "higher"),
}

LAYER_SELF = ("padic", "quadext", "rootsys", "chevalley", "metaplectic", "schwartz")


def per_layer_spec():
    """[(name, unit, better)] for every per-layer metric, in BENCHMARK.json order."""
    spec = []
    for span, stats in TRACED:
        spec += [(f"{span}.{stat}",) + _STAT_UNIT[stat] for stat in stats]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYER_SELF]
    spec += [(f"harness.check.{name}.s", "s", "lower") for name in CHECKS]
    spec += [
        ("harness.slowest_check_s", "s", "lower"),
        ("scalar.fraction_new.calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


class BenchError(Exception):
    """The benchmark could not run or a child misbehaved."""


# -------------------------------------------------------------- provenance

def host_probe(reps=5, n=15000):
    """Median seconds of a fixed stdlib Fraction loop: a yardstick for host speed."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for k in range(1, n):
            q = Fraction(k, k % 89 + 1) * Fraction(k % 13 + 1, 7) + Fraction(1, k % 5 + 2)
            acc += q.numerator & 1
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git(*args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    # only the checkout's own repository counts, never one that encloses it
    revision = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if revision else None
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
        "git_dirty": bool(status) if status is not None else None,
    }


# -------------------------------------------------------------- children

def spawn(args, mode, timeout):
    """Run one child to completion; returns its result plus the measured set-up time."""
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--case-terms", str(args.case_terms), "--case-charge-s", repr(args.case_charge_s),
    ]
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {args.workload} ran past {timeout:.0f} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{mode} child for {args.workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def remaining(started):
    return max(1.0, DEADLINE_S - (time.monotonic() - started))


# --------------------------------------------------------------- verdicts

def failed_ops(result):
    return [op for op in result["ops"] if op["status"] not in ("ok", "pass")]


def wrong_verdicts(rounds):
    """Reasons the outputs are wrong, empty when every round is right and they agree."""
    wrong = []
    digests = {r.get("digest") for r in rounds}
    if len(digests) > 1:
        wrong.append("campaign reports differ between rounds at one seed (timings removed)")
    for r in rounds:
        if "digest" in r:
            wrong += [f"check {op['id']} ended {op['status']}, expected pass" for op in failed_ops(r)]
        else:
            wrong += [f"case {op['id']} returned False" for op in r["ops"] if op["status"] == "false"]
    if rounds and "digest" not in rounds[0]:
        # a case that finished in two rounds must finish the same way
        first = {op["id"]: op["status"] for op in rounds[0]["ops"]}
        for r in rounds[1:]:
            for op in r["ops"]:
                was = first[op["id"]]
                if "timeout" not in (was, op["status"]) and was != op["status"]:
                    wrong.append(f"case {op['id']} ended {was} in one round and {op['status']} in another")
    return sorted(set(wrong))


def known_red(result):
    """Failed weil-words cases by prime, index, word and cause."""
    return [
        {k: op[k] for k in ("p", "index", "g1", "g2", "phi", "twist", "status", "terms")}
        for op in failed_ops(result)
    ]


# ----------------------------------------------------------------- modes

def case_ms(result):
    return [1000.0 * op.get("charged", op["seconds"]) for op in result["ops"]]


def plain_rounds(workload, seconds):
    return max(1, round(seconds / ROUND_S[workload]))


def run_plain(args, started):
    """The workload's rounds for --seconds, then set-up-only probes; end-to-end medians."""
    rounds = []
    for _ in range(plain_rounds(args.workload, args.seconds)):
        if rounds and remaining(started) < 2.5 * rounds[-1]["elapsed_s"] + 10:
            raise BenchError(f"{args.workload} rounds would run past {DEADLINE_S:.0f} s on this host")
        rounds.append(spawn(args, "plain", remaining(started)))
    setups = [r["setup_s"] for r in rounds]
    for _ in range(SETUP_PROBES):
        setups.append(spawn(args, "setup", remaining(started))["setup_s"])
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), f"{len(rounds)} rounds"),
        "setup_s": (statistics.median(setups), f"{len(setups)} processes"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), f"{len(rounds)} rounds"),
    }
    return rounds, setups, metrics


def case_figures(rounds):
    """Per-operation time to verdict: p50, p95 and the tail the ten-beyond rule allows."""
    n = len(rounds[0]["ops"])
    per_round = [case_ms(r) for r in rounds]
    out = [("case_p50_ms", statistics.median(statistics.median(ms) for ms in per_round), "ms", f"{n} per round")]
    note = f"{n} per round, {beyond(n, 95)} beyond"
    if beyond(n, 95) < MIN_BEYOND:
        note += f" (fewer than {MIN_BEYOND}: not a tail to rely on)"
    out.append(("case_p95_ms", statistics.median(percentile(ms, 95) for ms in per_round), "ms", note))
    q = tail_percentile(n)
    if q is not None and q != 95.0:
        out.append((f"case_p{q:g}_ms", statistics.median(percentile(ms, q) for ms in per_round), "ms", f"{n} per round"))
    return out


def run_traced(args, started):
    plain = spawn(args, "plain", remaining(started))
    traced = spawn(args, "trace", remaining(started))
    counted = spawn(args, "count", remaining(started))
    layers = traced["layers"]
    counters = traced["counters"]
    metrics = {}
    for span, stats in TRACED:
        row = layers.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        for stat in stats:
            if stat == "distinct_ratio":
                value = row.get("distinct", 0) / row["calls"] if row["calls"] else 0.0
            elif stat in ("terms_in", "terms_out", "peak_terms"):
                value = counters.get(stat, 0)
            elif stat == "out_per_in":
                value = counters["terms_out"] / counters["terms_in"] if counters.get("terms_in") else 0.0
            else:
                value = row[stat]
            metrics[f"{span}.{stat}"] = value
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = traced["layer_self_s"][layer]
    seconds = {op["id"]: op["seconds"] for op in plain["ops"]} if "digest" in plain else {}
    for name in CHECKS:
        metrics[f"harness.check.{name}.s"] = seconds.get(name, 0.0)
    metrics["harness.slowest_check_s"] = max(seconds.values(), default=0.0)
    metrics["scalar.fraction_new.calls"] = counted["fraction_new"]
    metrics["trace.overhead_ratio"] = overhead_ratio(plain, traced)
    return [plain, traced, counted], metrics


def overhead_ratio(plain, traced):
    """Traced over untraced time.  On weil-words the charged wall time is
    mostly the charge for failed cases, so the ratio is taken over the
    cases that ended ok in both rounds, at their measured seconds."""
    if "digest" in plain:
        return traced["wall_s"] / plain["wall_s"]
    ok = {op["id"]: op["seconds"] for op in plain["ops"] if op["status"] == "ok"}
    both = [(ok[op["id"]], op["seconds"]) for op in traced["ops"] if op["status"] == "ok" and op["id"] in ok]
    return sum(t for _, t in both) / sum(p for p, _ in both)


# ---------------------------------------------------------------- output

def run_workload(args):
    started = time.monotonic()
    probe_before = host_probe()
    if args.trace:
        rounds, metrics = run_traced(args, started)
        spec = per_layer_spec()
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec}
        table = [(name, metrics[name], unit, "traced round") for name, unit, _ in spec]
        counted = rounds[:1]  # the plain round; the others repeat it under instruments
        setups = None
    else:
        rounds, setups, metrics = run_plain(args, started)
        out_metrics = {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}
        table = [(name, metrics[name][0], unit, metrics[name][1]) for name, unit in END_TO_END]
        counted = rounds
    probe_after = host_probe()
    summary_round = rounds[0]
    n_ops = len(summary_round["ops"])
    attempted = sum(len(r["ops"]) for r in counted)
    failed = sum(len(failed_ops(r)) for r in counted)
    wrong = wrong_verdicts(rounds)
    extra = [("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted} operations")]
    extra += case_figures(counted)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": dict(provenance(), padicsp=summary_round["version"]),
        "config": summary_round["config"],
        "case_count": summary_round["cases"],
        "operations": n_ops,
        "case_terms": args.case_terms if args.workload == "weil-words" else None,
        "case_charge_s": args.case_charge_s if args.workload == "weil-words" else None,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "correct": not wrong,
        "wrong": wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u, "samples": s} for name, v, u, s in table + extra},
        "setup_samples_s": setups,
        "rounds": [
            {k: r.get(k) for k in ("mode", "wall_s", "elapsed_s", "setup_s", "peak_rss_mb", "digest", "spans", "fraction_new")}
            for r in rounds
        ],
    }
    if args.workload == "weil-words":
        record["failed_cases"] = [dict(c, round=i) for i, r in enumerate(rounds) for c in known_red(r)]
    else:
        record["checks"] = summary_round["ops"]
    if args.trace:
        record["layers"] = rounds[1]["layers"]
        record["counters"] = rounds[1]["counters"]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({summary_round['cases']} cases in {n_ops} operations per round)")
    for name, value, unit, samples in table + extra:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {samples}")
    if args.workload == "weil-words":
        red = known_red(summary_round)
        by_cause = {}
        for c in red:
            key = (c["p"], c["status"])
            by_cause[key] = by_cause.get(key, 0) + 1
        print(f"  failed cases (first round, budget {args.case_terms} terms, charged {args.case_charge_s:g} s): "
              + ", ".join(f"p={p} {cause} x{k}" for (p, cause), k in sorted(by_cause.items())))
        for c in red:
            if c["status"] != "over-budget":
                print(f"    p={c['p']} case {c['index']} {c['status']}: g1=[{c['g1']}] g2=[{c['g2']}] phi={c['phi']} twist={c['twist']}")
    print(f"  host probe: {probe_before:.4f} s before, {probe_after:.4f} s after")
    for reason in wrong:
        print(f"  WRONG: {reason}")
    print(f"  record: {path.relative_to(ROOT)}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": out_metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="padicsp benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measurement per plain run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case-terms", type=int, required=True,
                    help="weil-words budget: most terms a case may hand SchwartzFn.canonical")
    ap.add_argument("--case-charge-s", type=float, required=True,
                    help="seconds a failed weil-words case is charged, and the most a passing one is")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "padicsp" / "__init__.py").is_file():
        print(f"error: no padicsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            args.workload = name
            results.append((name, run_workload(args)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{k}": v for w, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

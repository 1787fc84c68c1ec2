"""One cold padicsp process: set a workload up, run it once, print one JSON line.

    python3 bench/child.py --workload NAME --seed N --mode MODE [options]

MODE is `setup` (stop once the inputs are ready), `plain` (run untraced),
`trace` (run with every layer wrapped in spans) or `count` (run counting
Fraction constructions).  The parent reads the last stdout line; it
holds `ready`, the CLOCK_MONOTONIC time at which padicsp was imported
and the inputs were ready, so the parent can time set-up from the spawn.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time

import padicsp
from padicsp.harness import checks, cli
from padicsp.harness.config import build_config
from padicsp.padic import PrimeCtx
from padicsp import schwartz as sw

from stats import charged_seconds

VERIFY_MATRIX_CHECKS = (
    "bruhat-oracle",
    "cell-word-rewrite",
    "cell-collapse",
    "obstructed-decompositions",
    "chevalley-commutators",
    "congruence-structure",
    "levi-stability",
    "symplectic-generators",
    "cell-identity",
    "bruhat-order",
    "sigma-minus-order",
    "bad-triple-shapes",
    "bad-pairs",
    "reflection-positivity",
    "volumes",
)

# padicsp verify flags per campaign workload, on top of --seed.  The
# default campaign runs without weil-rep-identity: that check has no time
# limit per case, and over seeds 1-40 it took from 0.3 s to 42 s (Python
# 3.11, 2-core x86-64 host), so a campaign's time would say more about the
# seed than about the code.  weil-words runs the same kind of case, each
# against a term budget.
VERIFY_FLAGS = {
    "verify-default": ["--checks", ",".join(sorted(set(checks.CATALOG) - {"weil-rep-identity"}))],
    "verify-matrix": ["--n", "2,3,4", "--p", "3,5,7", "--m", "1,2,3", "--checks", ",".join(VERIFY_MATRIX_CHECKS)],
}

WEIL_PRIMES = (3, 5, 7, 11, 13)
# The cases are one fixed panel; the workload seed only orders them.  A
# case's outcome then never depends on the seed, so every run attempts the
# same cases and fails the same ones.
PANEL_SEED = "weil-words panel"
CASES_PER_PRIME = 120
PHI_NAMES = ("1_O", "phi_m(1,2)", "1_{1+P}")
GUARD_S = 20.0  # a case still running after this long is stopped as a timeout


class CaseTimeout(Exception):
    """Raised by the interval timer when a case runs past GUARD_S."""


class OverBudget(Exception):
    """Raised when a case hands SchwartzFn.canonical more terms than its budget."""


# ------------------------------------------------------------------ inputs

def weil_panel():
    """The fixed rep-identity cases, drawn as check_weil_rep_identity draws them.

    Each case is (p, index, g1, g2, phi index, twist); words have 1-3
    letters from flip, upper, diag and sign with entries u*p^k,
    u in {1, 2, -1}, |k| <= 2.
    """
    from fractions import Fraction as Q

    rng = random.Random(PANEL_SEED)
    cases = []
    for p in WEIL_PRIMES:
        def word():
            out = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(4)
                if k == 0:
                    out.append(("flip",))
                elif k == 3:
                    out.append(("sign", rng.choice([1, -1])))
                else:
                    entry = Q(rng.choice([1, 2, -1])) * Q(p) ** rng.randint(-2, 2)
                    out.append(("upper" if k == 1 else "diag", entry))
            return out

        for index in range(CASES_PER_PRIME):
            g1, g2 = word(), word()
            cases.append((p, index, g1, g2, rng.randrange(len(PHI_NAMES)), rng.choice([1, -1])))
    return cases


def weil_cases(seed):
    """The panel in the order the workload seed gives it."""
    cases = weil_panel()
    random.Random(f"weil-words:{seed}").shuffle(cases)
    return cases


class TermMeter:
    """Counts the terms each case hands to SchwartzFn.canonical; past the budget it stops the case.

    The count depends on the case alone, never on the host's speed, so
    the same cases finish in every run.
    """

    def __init__(self, budget):
        self.budget = budget
        self.spent = 0
        canonical = sw.SchwartzFn.canonical

        @functools.wraps(canonical)
        def metered(fn):
            self.spent += len(fn.terms)
            if self.spent > self.budget:
                raise OverBudget()
            return canonical(fn)

        sw.SchwartzFn.canonical = metered


def schwartz_inputs(p):
    ctx = PrimeCtx(p)
    return [sw.SchwartzFn.indicator(ctx), sw.phi_m(ctx, 1, 2), sw.SchwartzFn.indicator(ctx, 1, 1)]


def word_text(word):
    return " ".join(item[0] if len(item) == 1 else f"{item[0]}({item[1]})" for item in word)


# ------------------------------------------------------------------- runs

def run_verify(workload, seed):
    """Set up the campaign, then return a function that runs it through the CLI."""
    argv = ["verify", "--seed", str(seed)] + VERIFY_FLAGS[workload]
    flags = dict(zip(argv[1::2], argv[2::2]))
    cfg = build_config(
        None,
        seed=seed,
        n=flags.get("--n"),
        p=flags.get("--p"),
        m=flags.get("--m"),
        checks=flags["--checks"].split(",") if "--checks" in flags else None,
    ).validate(checks.CATALOG)

    def measure(tracer=None):
        captured = {}
        campaign = cli.run_campaign

        def keep_report(config):
            captured["report"] = campaign(config)
            return captured["report"]

        cli.run_campaign = keep_report
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        cli.run_campaign = campaign
        report = captured["report"]
        doc = report.as_dict()
        for rec in doc["checks"]:
            del rec["seconds"]
        digest = hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()
        ops = [
            {"id": rec.name, "status": rec.status, "cases": rec.cases, "seconds": rec.seconds}
            for rec in sorted(report.checks, key=lambda r: r.name)
        ]
        return {
            "wall_s": wall,
            "elapsed_s": wall,
            "exit_code": code,
            "digest": digest,
            "cases": sum(op["cases"] for op in ops),
            "config": cfg.as_dict(),
            "ops": ops,
        }

    return measure


def run_weil_words(seed, budget, charge):
    """Set up the cases, then return a function that runs each against the term budget.

    A case that does not return True has failed and is charged `charge`
    seconds; a case that passes is charged its own time, at most `charge`.
    """
    cases = weil_cases(seed)
    phis = {p: schwartz_inputs(p) for p in WEIL_PRIMES}
    meter = TermMeter(budget)

    def measure(tracer=None):
        def on_alarm(signum, frame):
            if tracer is not None and tracer.guard:
                tracer.pending = CaseTimeout()  # raised as soon as the tracer's columns are consistent
            else:
                raise CaseTimeout()

        signal.signal(signal.SIGALRM, on_alarm)
        ops = []
        start = time.perf_counter()
        for p, index, g1, g2, phi, twist in cases:
            case_id = f"p{p}-{index:03d}"
            if tracer is not None:
                tracer.set_request(case_id)
                tracer.pending = None
            meter.spent = 0
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, GUARD_S)
                try:
                    verdict = sw.check_rep_identity(g1, g2, phis[p][phi], twist=twist)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = "ok" if verdict else "false"
            except OverBudget:
                status = "over-budget"
            except CaseTimeout:
                status = "timeout"
            except sw.SchwartzError as exc:
                status = "term-budget" if "term budget" in str(exc) else f"error:SchwartzError: {exc}"
            except Exception as exc:  # any other library error is a failed case, kept by cause
                status = f"error:{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            ops.append(
                {
                    "id": case_id,
                    "p": p,
                    "index": index,
                    "g1": word_text(g1),
                    "g2": word_text(g2),
                    "phi": PHI_NAMES[phi],
                    "twist": twist,
                    "status": status,
                    "terms": meter.spent,
                    "seconds": elapsed,
                    "charged": charged_seconds(elapsed, status == "ok", charge),
                }
            )
        elapsed_all = time.perf_counter() - start
        if tracer is not None:
            tracer.set_request(None)
        return {
            "wall_s": sum(op["charged"] for op in ops),
            "elapsed_s": elapsed_all,
            "cases": len(ops),
            "config": {
                "primes": list(WEIL_PRIMES),
                "cases_per_prime": CASES_PER_PRIME,
                "panel_seed": PANEL_SEED,
                "case_terms": budget,
                "case_charge_s": charge,
                "guard_s": GUARD_S,
                "phis": list(PHI_NAMES),
            },
            "ops": ops,
        }

    return measure


# ---------------------------------------------------------------- tracing

def install_tracer(out):
    """Wrap every layer; returns the tracer plus a finisher that fills `out`."""
    import tracer as tr

    tracer = tr.Tracer(passthrough=(CaseTimeout, OverBudget))

    def canonical_terms(args, kwargs, result):
        n_in, n_out = len(args[0].terms), len(result.terms)
        tracer.bump("terms_in", n_in)
        tracer.bump("terms_out", n_out)
        tracer.peak("peak_terms", max(n_in, n_out))

    tr.install(
        tracer,
        observers={"schwartz.SchwartzFn.canonical": canonical_terms},
        distinct=("padic.weil_index", "metaplectic.section_level"),
    )
    tr.trace_checks(tracer, checks.CATALOG, checks.CheckSpec)

    # The refinement loop regroups its working term list on every split;
    # its largest size is what the term budget is checked against.
    regroup = sw._regroup

    def counted_regroup(terms, p):
        result = regroup(terms, p)
        tracer.peak("peak_terms", len(result))
        return result

    sw._regroup = counted_regroup

    def finish(spans_path):
        table, layer_self = tracer.layer_table()
        out["layers"] = table
        out["layer_self_s"] = layer_self
        out["counters"] = dict(tracer.counters)
        out["spans"] = len(tracer.start)
        tracer.write_spans(spans_path)

    return tracer, finish


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(VERIFY_FLAGS) + ["weil-words"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "trace", "count"))
    ap.add_argument("--case-terms", type=int, required=True)
    ap.add_argument("--case-charge-s", type=float, required=True)
    ap.add_argument("--spans", help="where trace mode writes its spans")
    args = ap.parse_args(argv)

    out = {"mode": args.mode, "version": padicsp.__version__}
    if args.workload == "weil-words":
        measure = run_weil_words(args.seed, args.case_terms, args.case_charge_s)
    else:
        measure = run_verify(args.workload, args.seed)
    out["ready"] = time.monotonic()
    if args.mode != "setup":
        tracer = finish = count = None
        if args.mode == "trace":
            tracer, finish = install_tracer(out)
        elif args.mode == "count":
            import tracer as tr

            count = tr.count_fraction_news()
        out.update(measure(tracer))
        if count is not None:
            out["fraction_new"] = count()
        if finish is not None:
            finish(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: verify campaigns, enumerations, decompositions."""

import argparse
import json
import sys
from fractions import Fraction as Q

from ..rootsys import (
    bad_pairs,
    bad_triples,
    highest_root_reflection,
    ordered_negated_roots,
    weyl_below,
)
from ..chevalley import Mat, MatrixError, bruhat_decompose
from .checks import run_campaign
from .config import HarnessError, build_config, read_config_file
from .report import FAIL, PASS, SKIPPED, encode_value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="padicsp",
        description="exact-arithmetic verification workbench for the rank-n symplectic family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a seeded verification campaign")
    pv.add_argument("--config", help="line-oriented key = value file")
    pv.add_argument("--n", help="ranks, e.g. '2,3'")
    pv.add_argument("--p", help="odd primes, e.g. '3,5'")
    pv.add_argument("--m", help="congruence levels")
    pv.add_argument("--samples", help="sample budget per check")
    pv.add_argument("--seed", help="campaign seed (64-bit)")
    pv.add_argument("--checks", help="comma-separated check names (default: all)")
    pv.add_argument("--out", help="write the JSON report here")

    pe = sub.add_parser("enumerate", help="print a frozen combinatorial listing")
    pe.add_argument(
        "kind", choices=["bad-pairs", "bad-triples", "weyl-leq-w0", "sigma-minus"]
    )
    pe.add_argument("--n", type=int, required=True, help="rank, at least 2")
    pe.add_argument("--json", action="store_true", dest="as_json")

    pd = sub.add_parser("decompose", help="Bruhat-decompose a symplectic matrix")
    pd.add_argument("--n", type=int, required=True, help="rank: the matrix is 2n x 2n")
    pd.add_argument(
        "--matrix", required=True, help="file of whitespace-separated rationals, row-major"
    )
    return parser


# ---------------------------------------------------------------- verify

_STATUS_TAG = {PASS: "PASS", FAIL: "FAIL", SKIPPED: "SKIPPED"}


def _cmd_verify(args):
    file_values = read_config_file(args.config) if args.config else None
    cfg = build_config(
        file_values,
        n=args.n,
        p=args.p,
        m=args.m,
        samples=args.samples,
        seed=args.seed,
        checks=args.checks,
        out=args.out,
    )
    report = run_campaign(cfg)
    for rec in sorted(report.checks, key=lambda r: r.name):
        line = f"{rec.name:<28} {_STATUS_TAG[rec.status]:<8} {rec.cases:>6} cases  {rec.seconds:7.3f}s"
        print(line)
        if rec.status == FAIL:
            print(f"  counterexample: {json.dumps(encode_value(rec.counterexample), sort_keys=True)}")
    tally = report.tally()
    print(
        f"summary: {len(report.checks)} checks, {tally[PASS]} pass, {tally[FAIL]} fail, "
        f"{tally[SKIPPED]} skipped"
    )
    if cfg.out:
        report.write(cfg.out)
        print(f"report written to {cfg.out}")
    return 0 if report.ok else 1


# ------------------------------------------------------------- enumerate

def _root_vec(g):
    return list(g.coeffs)


def _weyl_entry(w):
    return {"imgs": list(w.imgs), "word": list(w.reduced_word())}


def _cmd_enumerate(args):
    n, kind = args.n, args.kind
    if n < 2:
        raise HarnessError("rank must be at least 2")
    if kind == "bad-pairs":
        rows = [{"g1": _root_vec(g1), "g2": _root_vec(g2)} for g1, g2 in bad_pairs(n)]
    elif kind == "bad-triples":
        rows = [
            {"g1": _root_vec(g1), "g2": _root_vec(g2), "w": _weyl_entry(w)}
            for g1, g2, w in bad_triples(n)
        ]
    elif kind == "weyl-leq-w0":
        below = sorted(weyl_below(highest_root_reflection(n)), key=lambda w: (w.length(), w.imgs))
        rows = [_weyl_entry(w) for w in below]
    else:
        rows = [{"root": _root_vec(g)} for g in ordered_negated_roots(highest_root_reflection(n))]
    if args.as_json:
        print(json.dumps({"kind": kind, "n": n, "count": len(rows), "items": rows}, sort_keys=True))
        return 0
    print(f"{kind} n={n} count={len(rows)}")
    for row in rows:
        if kind == "bad-pairs":
            print(f"  {tuple(row['g1'])} {tuple(row['g2'])}")
        elif kind == "bad-triples":
            w = row["w"]
            print(f"  {tuple(row['g1'])} {tuple(row['g2'])}  w: imgs={tuple(w['imgs'])} word={w['word']}")
        elif kind == "weyl-leq-w0":
            print(f"  imgs={tuple(row['imgs'])} word={row['word']}")
        else:
            print(f"  {tuple(row['root'])}")
    return 0


# ------------------------------------------------------------- decompose

def _read_matrix(path, n):
    try:
        with open(path) as fh:
            toks = fh.read().split()
    except OSError as exc:
        raise HarnessError(f"cannot read matrix file: {exc}")
    size = 2 * n
    if len(toks) != size * size:
        raise HarnessError(
            f"expected {size * size} entries for a {size} x {size} matrix, got {len(toks)}"
        )
    try:
        vals = [Q(tok) for tok in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise HarnessError(f"bad rational entry: {exc}")
    rows = tuple(tuple(vals[r * size + c] for c in range(size)) for r in range(size))
    return Mat(rows)


def _print_mat(label, mat):
    print(f"{label}:")
    for row in mat.rows:
        print("  " + " ".join(str(v) for v in row))


def _cmd_decompose(args):
    if args.n < 1:
        raise HarnessError("rank must be at least 1")
    g = _read_matrix(args.matrix, args.n)
    try:
        u, d, w, um = bruhat_decompose(g)
    except MatrixError as exc:
        raise HarnessError(str(exc))
    _print_mat("u", u)
    _print_mat("d", d)
    print(f"w: imgs={tuple(w.imgs)} word={list(w.reduced_word())}")
    _print_mat("u_minus_side", um)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _cmd_decompose(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The equivalence battery: what a source tree's campaigns and enumerations
report, reduced to digests that a change which claims the same results
must keep.

    python3 tools/equiv.py --write [--tree DIR]   # restate tools/equiv.json
    python3 tools/equiv.py --check [--tree DIR]   # compare against it
    python3 tools/equiv.py [--tree DIR]           # print the digests

DIR is a checkout (default: the one holding this file); its src/ is the
package that runs.  Each item is one `python3 -m padicsp.harness.cli`
process: the default campaign, --seed 1, --seed 7, the north-star grid,
--n 4, the verify-matrix campaign of the benchmark, and `enumerate --json`
for every kind at n = 2, 3, 4.  A campaign's JSON report is cut into
records, one per check and one for the rest, each digested after
strip_volatile; an enumeration is one record.  The determinism probes
rerun the default campaign under two hash seeds and pinned to one CPU,
and must digest as it does.  --check prints the first record that
differs from tools/equiv.json and exits 1.  Standard library only.
"""
import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "equiv.json"

# The benchmark's verify-matrix workload: the root-system and Chevalley checks.
MATRIX_CHECKS = (
    "bruhat-oracle,cell-word-rewrite,cell-collapse,obstructed-decompositions,chevalley-commutators,"
    "congruence-structure,levi-stability,symplectic-generators,cell-identity,bruhat-order,"
    "sigma-minus-order,bad-triple-shapes,bad-pairs,reflection-positivity,volumes"
)

CAMPAIGNS = {
    "verify": [],
    "verify --seed 1": ["--seed", "1"],
    "verify --seed 7": ["--seed", "7"],
    "verify grid": ["--n", "2,3,4", "--p", "3,5,7,11,13", "--m", "1,2,3"],
    "verify --n 4": ["--n", "4"],
    "verify-matrix": ["--n", "2,3,4", "--p", "3,5,7", "--m", "1,2,3", "--checks", MATRIX_CHECKS],
}
ENUMERATIONS = {
    f"enumerate {kind} --n {n}": ["enumerate", kind, "--n", str(n), "--json"]
    for kind in ("bad-pairs", "bad-triples", "weyl-leq-w0", "sigma-minus")
    for n in (2, 3, 4)
}
# The default campaign again, under each setting that must not change it:
# {name: (extra environment, whether the child is pinned to one CPU)}.
PROBES = {
    "probe PYTHONHASHSEED=0": ({"PYTHONHASHSEED": "0"}, False),
    "probe PYTHONHASHSEED=12345": ({"PYTHONHASHSEED": "12345"}, False),
    "probe one CPU": ({}, True),
}

VOLATILE = ("seconds", "version")


def strip_volatile(value):
    """value without the keys "seconds" and "version" at any depth, in
    dicts nested in dicts and lists: a report's wall times and the
    package version may change where its results do not."""
    if isinstance(value, dict):
        return {k: strip_volatile(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def digest(value) -> str:
    """sha256 of value as sorted, compact JSON, after strip_volatile."""
    text = json.dumps(strip_volatile(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def records(report: dict) -> dict:
    """{key: value} for each check of a campaign report, by name, and for
    the rest of it under the key "report"."""
    rest = {k: v for k, v in report.items() if k != "checks"}
    return {"report": rest, **{f"check {rec['name']}": rec for rec in report["checks"]}}


def run_item(tree: Path, argv: list, env_extra=None, pin=False):
    """(exit status, records) of one CLI process on tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **(env_extra or {}))
    # pin the child only: this process keeps its own CPU set
    preexec = functools.partial(os.sched_setaffinity, 0, {min(os.sched_getaffinity(0))}) if pin else None
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        is_verify = argv[:1] != ["enumerate"]
        cmd = [sys.executable, "-m", "padicsp.harness.cli"] + (["verify", *argv, "--out", str(out)] if is_verify else argv)
        done = subprocess.run(cmd, env=env, cwd=tmp, capture_output=True, text=True, preexec_fn=preexec)
        if done.returncode not in (0, 1):
            raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
        found = records(json.loads(out.read_text())) if is_verify else {"items": json.loads(done.stdout)}
    return done.returncode, found


def battery(tree: Path):
    """({item: {"argv", "exit", "records": {key: digest}}}, {item: {key:
    record}}) for every item, in order; raises SystemExit if a probe
    differs from the default campaign."""
    out, values = {}, {}
    items = [(name, argv, None, False) for name, argv in CAMPAIGNS.items()]
    items += [(name, argv, None, False) for name, argv in ENUMERATIONS.items()]
    items += [(name, CAMPAIGNS["verify"], env, pin) for name, (env, pin) in PROBES.items()]
    for name, argv, env_extra, pin in items:
        status, found = run_item(tree, argv, env_extra, pin)
        out[name] = {"argv": argv, "exit": status, "records": {key: digest(value) for key, value in found.items()}}
        values[name] = found
        print(f"{name:<40} exit {status}  {len(found)} records", file=sys.stderr)
    for name in PROBES:
        diff = first_difference(out["verify"], out[name], values[name])
        if diff:
            raise SystemExit(f"{name} differs from the default campaign: {diff}")
    return out, values


def first_difference(want: dict, got: dict, values: dict):
    """Where the item got differs from want: its exit status, and the
    first differing record (key, both digests and the record now); None
    if nowhere."""
    lines = [f"exit {want['exit']} -> {got['exit']}"] if want["exit"] != got["exit"] else []
    old, new = want["records"], got["records"]
    for key in list(old) + [k for k in new if k not in old]:
        if old.get(key) != new.get(key):
            now = json.dumps(strip_volatile(values.get(key)), sort_keys=True)
            lines += [f"record {key!r}: {old.get(key)} -> {new.get(key)}", f"now: {now[:2000]}"]
            break
    return "\n  ".join(lines) or None


def check(current: dict, values: dict, committed: dict) -> int:
    """0 if every item of current equals committed; else print the first
    difference and return 1."""
    for name in list(committed) + [n for n in current if n not in committed]:
        if name not in current or name not in committed:
            print(f"FAIL {name}: {'missing' if name not in current else 'not in ' + DIGESTS.name}")
            return 1
        diff = first_difference(committed[name], current[name], values[name])
        if diff:
            print(f"FAIL {name}: {diff}")
            return 1
    print(f"equal: {len(committed)} items, {sum(len(v['records']) for v in committed.values())} records")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=HERE.parent, help="checkout whose src/ runs")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help=f"compare against {DIGESTS.name}")
    mode.add_argument("--write", action="store_true", help=f"restate {DIGESTS.name}")
    args = parser.parse_args(argv)
    current, values = battery(args.tree.resolve())
    if args.check:
        return check(current, values, json.loads(DIGESTS.read_text()))
    text = json.dumps(current, indent=1) + "\n"
    if args.write:
        DIGESTS.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

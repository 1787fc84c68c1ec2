"""The matrix layer's kernels against their definitions, and its traffic.

Each kernel is held to the identity its docstring states, on seeded
random inputs, through Fractions and valuations and not through the
kernel's own shortcut: times_roots against the Fraction product of its
letters, in_level against the valuation inequality, lowest against the
gcd, and the Mat predicates against their entrywise definitions.  A
fixed small campaign then pins how often the hot kernels run and the
bytes of its report, and a digest pins the root position table the
root words read.
"""
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import padicsp
from padicsp import intmat
from padicsp.chevalley import Mat
from padicsp.congruence import _root_positions, level_exponents
from padicsp.padic import fraction_valuation


def fraction_rows(den, num):
    return [[Q(x, den) for x in row] for row in num]


def fraction_matmul(a, b):
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)] for i in range(size)]


def in_lowest_terms(den, num):
    return den > 0 and math.gcd(den, *[x for row in num for x in row]) == 1


def test_times_roots_is_the_fraction_product_of_its_letters():
    """num / den (1 + r_1 E_1) ... (1 + r_k E_k), each factor built from its
    positions and multiplied out in Fractions, with letter denominators 3
    and p^k, at sizes 4, 6 and 8."""
    for n in (2, 3, 4):
        size = 2 * n
        positions = _root_positions(n)
        roots = list(positions)
        for p in (3, 5, 7):
            rng = random.Random(f"times_roots {n} {p}")
            dens = (1, 3, p, p**2, 3 * p**3)
            for _ in range(8):
                den = rng.choice(dens)
                num = tuple(tuple(rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(size)) for _ in range(size))
                letters = []
                for _ in range(rng.randrange(1, 7)):
                    r = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(dens))
                    letters.append((positions[rng.choice(roots)], r.numerator, r.denominator))
                want = fraction_rows(den, num)
                for pos, rn, rd in letters:
                    factor = [[Q(int(i == j)) for j in range(size)] for i in range(size)]
                    for a, b, s in pos:
                        factor[a][b] += s * Q(rn, rd)
                    want = fraction_matmul(want, factor)
                got_den, got_num = intmat.times_roots(den, num, letters)
                assert fraction_rows(got_den, got_num) == want
                assert in_lowest_terms(got_den, got_num)
                assert (den * math.prod(rd for _, _, rd in letters)) % got_den == 0


def test_in_level_is_the_valuation_inequality():
    """v(g - 1)[i, j] >= m + es[i] - es[j] entry by entry through
    fraction_valuation, with p dividing den, both verdicts reached."""
    verdicts = set()
    for p in (3, 5):
        rng = random.Random(f"in_level {p}")
        for _ in range(300):
            n = rng.choice((1, 2, 3))
            size = 2 * n
            m = rng.randrange(0, 3)
            es = level_exponents(n, m) if rng.random() < 0.5 else [rng.randint(-3, 3) for _ in range(size)]
            den = p ** rng.randrange(1, 4) * rng.choice((1, 2, 4, 7))
            num = tuple(
                tuple((den if i == j else 0) + rng.randint(-3, 3) * p ** rng.randrange(0, 9) for j in range(size))
                for i in range(size)
            )
            want = all(
                fraction_valuation(Q(x - (den if i == j else 0), den), p) >= m + es[i] - es[j]
                for i, row in enumerate(num) for j, x in enumerate(row)
            )
            assert intmat.in_level(p, den, num, m, es) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_lowest_divides_out_the_gcd_of_den_and_entries():
    rng = random.Random("lowest")
    for _ in range(200):
        size = rng.randrange(1, 7)
        g = rng.choice((1, 2, 3, 9, 25, 6))
        den = g * rng.randrange(1, 30)
        num = tuple(tuple(g * rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(size)) for _ in range(size))
        got_den, got_num = intmat.lowest(den, num)
        assert fraction_rows(got_den, got_num) == fraction_rows(den, num)
        assert in_lowest_terms(got_den, got_num)
        if math.gcd(den, *[x for row in num for x in row]) == 1:
            assert (got_den, got_num) == (den, num)


def test_mat_predicates_match_their_entrywise_definitions():
    rng = random.Random("predicates")
    seen = set()
    for _ in range(400):
        size = rng.randrange(0, 7)
        rows = [[Q(int(i == j)) if rng.random() < 0.5 else Q(0) for j in range(size)] for i in range(size)]
        for _ in range(rng.randrange(0, 3) if size else 0):
            rows[rng.randrange(size)][rng.randrange(size)] = Q(rng.randint(-2, 2), rng.choice((1, 3)))
        m = Mat(rows)
        diagonal = all(rows[i][j] == 0 for i in range(size) for j in range(size) if i != j)
        upper = all(rows[i][j] == 0 for i in range(size) for j in range(i))
        unitriangular = upper and all(rows[i][i] == 1 for i in range(size))
        assert (m.is_diagonal(), m.is_upper_triangular(), m.is_upper_unitriangular()) == (
            diagonal, upper, unitriangular,
        )
        seen.add((diagonal, upper, unitriangular))
    assert len(seen) >= 4


# ------------------------------------------------------------- traffic

# The 15 matrix checks of the verify-matrix workload of bench/run.py.
MATRIX_CHECKS = (
    "bruhat-oracle", "cell-word-rewrite", "cell-collapse", "obstructed-decompositions",
    "chevalley-commutators", "congruence-structure", "levi-stability", "symplectic-generators",
    "cell-identity", "bruhat-order", "sigma-minus-order", "bad-triple-shapes", "bad-pairs",
    "reflection-positivity", "volumes",
)
TRAFFIC_KERNELS = ("mul", "times_roots", "is_symplectic", "in_level", "lowest")

# Run in a fresh interpreter, so that every cache starts cold, and in one
# lane, so that every call is counted here.
TRAFFIC_SCRIPT = """
import json, os, sys
os.sched_getaffinity = lambda pid: {0}
from padicsp import intmat
from padicsp.harness.checks import run_campaign
from padicsp.harness.config import build_config

checks, kernels = json.loads(sys.argv[1])
calls = dict.fromkeys(kernels, 0)
for name in kernels:
    def counted(*args, _real=getattr(intmat, name), _name=name):
        calls[_name] += 1
        return _real(*args)
    setattr(intmat, name, counted)
doc = run_campaign(build_config(None, n=[2, 3], p=[3], samples=8, checks=checks)).as_dict()
print(json.dumps([calls, doc]))
"""

# The campaign's kernel calls and its report's sha256 (version and
# timings removed).  A change that moves a count or a report byte
# updates these and says so in CHANGES.md.
MATRIX_TRAFFIC = (
    {"mul": 665, "times_roots": 774, "is_symplectic": 131, "in_level": 304, "lowest": 1803},
    "32991e477131cea719841125b9d923260282cc2c4619ba61789e98e9fad1ad0b",
)


# sha256 of the root positions at ranks 1..4, in table order: each root's
# coefficients and its (row, col, sign) triples, primary first.  A change
# of a sign, an order or a primary position updates it and says so in
# CHANGES.md.
ROOT_POSITIONS_DIGEST = "640158951a7cca8eb036ea39e68a1ffea9e087a639ce2dfd0e3a0be5b222c752"


def test_root_positions_are_pinned():
    table = [[[list(g.coeffs), [list(t) for t in pos]] for g, pos in _root_positions(n).items()] for n in range(1, 5)]
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == ROOT_POSITIONS_DIGEST


def test_matrix_kernel_traffic_and_report_are_pinned():
    src = os.path.dirname(os.path.dirname(padicsp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", TRAFFIC_SCRIPT, json.dumps([MATRIX_CHECKS, TRAFFIC_KERNELS])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls, doc = json.loads(out.stdout)
    doc.pop("version")
    for c in doc["checks"]:
        c.pop("seconds")
    assert doc["summary"] == {"pass": len(MATRIX_CHECKS), "fail": 0, "skipped": 0}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert (calls, digest) == MATRIX_TRAFFIC

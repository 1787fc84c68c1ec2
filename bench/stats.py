"""Summary arithmetic shared by bench/run.py and its tests.

Everything here is a pure function of plain numbers, so the rules the
benchmark reports by can be tested without running padicsp.
"""

import math
from array import array

# Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n, q):
    # 1-based nearest rank; the rounding keeps 99.9% of 10000 at exactly 9990
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n, q):
    """How many of n samples lie beyond the q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it, or None."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def charged_seconds(elapsed, ok, charge):
    """Time a case is charged: its own time if it succeeded in less than the charge, else the charge.

    A failed case costs exactly the charge however fast it failed, so the
    sum over cases moves continuously when a case crosses the budget and
    turning a fast failure into a success never raises it above the charge.
    """
    if ok and elapsed < charge:
        return elapsed
    return charge


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its child spans cover.

    Spans are given in start order, as a tracer appends them; parents[i]
    is the index of span i's parent or -1.  Children may overlap each
    other or stick out of their parent: only the union of their
    intervals inside the parent is subtracted, never more.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)  # how far each span's children have been covered so far
    for j in range(n):
        p = parents[j]
        if p < 0:
            continue
        lo = max(starts[j], reach[p])
        hi = min(ends[j], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    for i in range(n):
        covered[i] = ends[i] - starts[i] - covered[i]
    return covered

"""Shared pytest wiring: the acceptance scoreboard, and the root helpers
that several test modules build with.

test_acceptance registers one verdict line per numbered criterion; the
terminal summary repeats them in order after the run so the whole gate
can be read off a CI log in one glance.  A criterion that raises before
it registers its verdict is listed as ERROR, so it never drops off.

The root helpers read a root's coefficients over the simple basis
a_1, ..., a_{n-1}, b only, so the tests can hold the library's column
pairs, line maps and volume slices to them.
"""
import re

from padicsp.rootsys import Root

ACCEPTANCE_VERDICTS = []


def simple_roots(n: int):
    """a_1 = e_1 - e_2, ..., a_{n-1} = e_{n-1} - e_n, then the long simple
    root b = 2 e_n: the roots whose coefficients are the unit vectors."""
    return [Root(n, tuple([int(k == i) for k in range(n)])) for i in range(n)]


def in_levi(g: Root) -> bool:
    """A positive root of the block-diagonal GL_n: b is not in it."""
    return g.coeffs[-1] == 0


def in_radical(g: Root) -> bool:
    """A positive root of the abelian radical: b is in it once."""
    return g.coeffs[-1] == 1


def pytest_runtest_logreport(report):
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not (match and report.failed):
        return
    tag = f"criterion {int(match.group(1)):02d}:"
    if not any(line.startswith(tag) for line in ACCEPTANCE_VERDICTS):
        crash = getattr(report.longrepr, "reprcrash", None)
        why = crash.message.splitlines()[0] if crash else f"failed in {report.when}"
        ACCEPTANCE_VERDICTS.append(f"{tag} ERROR  ({why})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_VERDICTS):
        terminalreporter.write_line(line)

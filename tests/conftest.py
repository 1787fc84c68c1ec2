"""Shared pytest wiring: the acceptance scoreboard.

test_acceptance registers one verdict line per numbered criterion; the
terminal summary repeats them in order after the run so the whole gate
can be read off a CI log in one glance.  A criterion that raises before
it registers its verdict is listed as ERROR, so it never drops off.
"""
import re

ACCEPTANCE_VERDICTS = []


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

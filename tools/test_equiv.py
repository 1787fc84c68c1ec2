"""Tests of the equivalence battery (tools/equiv.py).  They sit outside
the Tier-1 suite: run them with `python3 -m pytest tools`."""
import json

import equiv


def test_strip_volatile_removes_the_timings_and_version_at_any_depth():
    report = {
        "version": "0.1.0",
        "seconds": 1.5,
        "checks": [{"name": "a", "seconds": 0.2, "parameters": {"seconds": 3, "n": [2]}}],
        "nested": [[{"version": 1, "keep": "seconds"}]],
    }
    assert equiv.strip_volatile(report) == {
        "checks": [{"name": "a", "parameters": {"n": [2]}}],
        "nested": [[{"keep": "seconds"}]],
    }
    assert report["checks"][0]["seconds"] == 0.2  # the input is left as it was
    assert equiv.digest(report) == equiv.digest({**report, "seconds": 9.9, "version": "2"})
    assert equiv.digest(report) != equiv.digest({**report, "checks": []})


def test_records_cut_a_report_by_check():
    report = {"tool": "padicsp", "checks": [{"name": "b", "cases": 1}, {"name": "a", "cases": 2}]}
    assert equiv.records(report) == {
        "report": {"tool": "padicsp"},
        "check b": {"name": "b", "cases": 1},
        "check a": {"name": "a", "cases": 2},
    }


def test_check_names_the_first_differing_record(capsys):
    item = {"argv": [], "exit": 0, "records": {"report": "r", "check a": "x", "check b": "y"}}
    values = {"item": {"report": {}, "check a": {"name": "a", "seconds": 1}, "check b": {"name": "b"}}}
    assert equiv.check({"item": item}, values, {"item": item}) == 0
    changed = {**item, "records": {"report": "r", "check a": "x2", "check b": "y2"}}
    assert equiv.check({"item": changed}, values, {"item": item}) == 1
    out = capsys.readouterr().out
    assert "FAIL item: record 'check a': x -> x2" in out and '{"name": "a"}' in out and "check b" not in out
    assert equiv.check({"item": {**item, "exit": 1}}, values, {"item": item}) == 1
    assert capsys.readouterr().out == "FAIL item: exit 0 -> 1\n"
    assert equiv.check({"item": {**changed, "exit": 1}}, values, {"item": item}) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL item: exit 0 -> 1\n  record 'check a': x -> x2\n  now: ")
    assert equiv.check({}, {}, {"item": item}) == 1
    assert "FAIL item: missing" in capsys.readouterr().out


def test_one_enumeration_digests_as_committed():
    name = "enumerate bad-pairs --n 3"
    status, found = equiv.run_item(equiv.HERE.parent, equiv.ENUMERATIONS[name])
    committed = json.loads(equiv.DIGESTS.read_text())[name]
    assert status == committed["exit"] == 0
    assert {key: equiv.digest(value) for key, value in found.items()} == committed["records"]

"""Acceptance gate: each numbered experiment must pass at its stated
tolerance.  One test per criterion; each prints its pass/fail line with
the measured detail so a failure is diagnosable from the test log."""

import pytest

from halleydyn import acceptance


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA,
                         ids=[name for name, _ in acceptance.CRITERIA])
def test_criterion(name, fn, capsys):
    ok, detail = fn(seed=0)
    with capsys.disabled():
        print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name} failed: {detail}"


def test_run_reports_every_criterion(monkeypatch):
    # test_criterion already runs every experiment; here cheap stand-ins
    # check run()'s ordering, seed passing and folding of exceptions
    seeds = []

    def passing(seed):
        seeds.append(seed)
        return True, "fine"

    def failing(seed):
        return False, "gate missed"

    def raising(seed):
        raise ValueError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("E2", failing), ("E1", passing), ("E3", raising)])
    assert acceptance.run(seed=5) == [("E2", False, "gate missed"),
                                      ("E1", True, "fine"),
                                      ("E3", False, "ValueError: boom")]
    assert seeds == [5]
    assert acceptance.run(only=["e3", "E1"], seed=1) == [("E1", True, "fine"),
                                                         ("E3", False, "ValueError: boom")]


def test_run_subset_filter():
    results = acceptance.run(only={"E3"}, seed=0)
    assert len(results) == 1
    assert results[0][0] == "E3"
    assert results[0][1]

"""Acceptance gate: each numbered experiment must pass at its stated
tolerance.  One test per criterion; each prints its pass/fail line with
the measured detail so a failure is diagnosable from the test log."""

import tracemalloc

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


def test_run_subset_filter(monkeypatch):
    ran = []

    def criterion(name):
        def fn(seed):
            ran.append(name)
            return True, "fine"
        return fn

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [(name, criterion(name)) for name in ("E1", "E2", "E3")])
    results = acceptance.run(only={"E3"}, seed=0)
    assert results == [("E3", True, "fine")]
    assert ran == ["E3"]


def test_e1_memory_peak_is_that_of_its_grids():
    # E1 reads the real parts of the pixel centres per column, so no 800^2
    # array of centres (10 MB) is held while the next grid is classified
    tracemalloc.start()
    try:
        acceptance.e1(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"E1 peaked at {peak / 1e6:.1f} MB traced"

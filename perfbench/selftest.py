"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of the checkout.  It records tiny-size references into
``.bench_build/perfbench-selftest``, runs every workload at that size in
fresh workers with tracing on, and checks that the reported metric names
match ``BENCHMARK.json``.  It then shows that a one-byte PPM corruption and
an exception injected into a job are counted as failures (and do not abort
the run), while a changed pixel is only counted in ``pixels_changed``,
and that a failure the reference already had is known only when it raises
the same exception type (or, in paperlab, fails the same gate).  Exits nonzero on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import record_reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from common import WORKLOADS  # noqa: E402
from halleydyn import cli, ratmap  # noqa: E402

WORK = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
REFDIR = os.path.join(WORK, "ref")


def expect(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def check_all(inp, payloads) -> wl.Check:
    total = wl.Check()
    for payload in payloads:
        total.add(wl.check(inp, payload))
    return total


def test_workloads(spec: dict):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the workloads run.py accepts")
    expect(layers == {name for name, _ in tracer.PER_LAYER},
           "BENCHMARK.json per_layer lists every traced metric")
    for name in WORKLOADS:
        rec = run.run_workload(name, 1, 0.0, True, scale="tiny", refdir=REFDIR)
        expect(rec["failed"] == 0 and rec["attempted"] > 0,
               f"{name}: tiny run passes its output checks ({rec['attempted']} ops)")
        expect(set(run.end_to_end(rec)) == e2e, f"{name}: end-to-end metric names")
        expect(set(rec["layers"]) == layers, f"{name}: per-layer metric names")


def test_ppm_corruption():
    inp = wl.prepare("render-sparse", 0, "tiny", os.path.join(WORK, "out"),
                     json.load(open(os.path.join(REFDIR, "reference.json"))), REFDIR)

    def corrupted(edit):
        payload = wl.job(inp, 0)
        with open(payload["ppm"], "rb") as fh:
            data = bytearray(fh.read())
        with open(payload["ppm"], "wb") as fh:
            fh.write(edit(data))
        return wl.check(inp, payload)

    c = corrupted(lambda d: d[:-1])
    expect(c.failed == 1, "a PPM one byte short is a failure")

    def header(d):
        d[1] ^= 0x01
        return d

    c = corrupted(header)
    expect(c.failed == 1, "a one-byte change in the PPM header is a failure")

    def pixel(d):
        d[-1] ^= 0x01
        return d

    c = corrupted(pixel)
    expect(c.failed == 0 and c.pixels_changed == 1,
           "a one-byte change in the pixels is counted, not failed")


def test_injected_exceptions():
    refs = json.load(open(os.path.join(REFDIR, "reference.json")))
    inp = wl.prepare("construct-corpus", 0, "tiny", os.path.join(WORK, "out"),
                     refs, REFDIR)
    real = ratmap.halley_of

    def broken(p, seed=0):
        raise RuntimeError("injected")

    ratmap.halley_of = broken
    try:
        _, times, payloads = worker.timed_phase(wl, inp, 0.0)
    finally:
        ratmap.halley_of = real
    c = check_all(inp, payloads)
    expect(len(times) == len(inp.pool) and c.failed == len(inp.pool),
           "an exception injected into halley_of fails that op in every job "
           "and the run goes on")

    inp = wl.prepare("render-cycle", 0, "tiny", os.path.join(WORK, "out"), refs, REFDIR)
    real_main = cli.main
    calls = []

    def flaky(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real_main(argv)

    cli.main = flaky
    try:
        _, times, payloads = worker.timed_phase(wl, inp, 0.0, jobs=2)
    finally:
        cli.main = real_main
    c = check_all(inp, payloads)
    expect(len(payloads) == 2 and c.failed == 1 and c.attempted == 2,
           "a job that raises is one failure and the next job still runs")


def test_error_types():
    refs = json.load(open(os.path.join(REFDIR, "reference.json")))
    inp = wl.prepare("construct-corpus", 0, "tiny", os.path.join(WORK, "out"),
                     refs, REFDIR)
    pinned = len(inp.pool) - 1  # konig_of raised ValueError here at the reference
    real = ratmap.konig_of

    def konig_raising(exc) -> wl.Check:
        def broken(p, k):
            raise exc

        ratmap.konig_of = broken
        try:
            ops = wl._corpus_ops(wl.pool_polynomial(inp.pool[pinned]))
        finally:
            ratmap.konig_of = real
        return wl.check(inp, {"entry": pinned, "ops": ops})

    c = konig_raising(ValueError("negative dimensions are not allowed"))
    expect(c.failed == 0 and any("konig_of" in f for f in c.known_failures),
           "the exception type the reference recorded is a known failure")
    c = konig_raising(IndexError("injected"))
    expect(c.failed == 1 and "konig_of" in c.failures[0],
           "another exception type from the same operation is unexpected")

    full_dir = os.path.join(HERE, "reference")
    full = json.load(open(os.path.join(full_dir, "reference.json")))

    def paperlab_e4(variant: int, detail: str) -> wl.Check:
        inp = wl.prepare("paperlab", variant, "full", os.path.join(WORK, "out"),
                         full, full_dir)
        results = [(n, ok, detail if n == "E4" else d)
                   for n, ok, d in inp.reference["job"]["results"]]
        return wl.check(inp, {"results": results})

    expect(paperlab_e4(3, "ValueError: negative dimensions are not allowed").known == 1
           and paperlab_e4(1, "max rel err = 3e-07").known == 1,
           "paperlab E4 failing as at the reference is known")
    expect(paperlab_e4(3, "IndexError: injected").failed == 1
           and paperlab_e4(1, "ValueError: injected").failed == 1,
           "paperlab E4 failing another way is unexpected")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(REFDIR)
    for name in WORKLOADS:
        record_reference.update(REFDIR, record_reference.record(
            name, "tiny", REFDIR, os.path.join(WORK, "out")))
    test_workloads(spec)
    test_ppm_corruption()
    test_injected_exceptions()
    test_error_types()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

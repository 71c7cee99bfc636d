"""Record the reference outputs that every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

Run from the root of the checkout whose outputs are the reference.  For
each workload and input variant this runs one job and stores its outputs
in ``perfbench/reference``: the render summary CSV, the PPM (gzipped) and
its sha256; each corpus polynomial and the outcome of every operation on
it; the PASS/FAIL line of every paperlab experiment.  Existing entries of
other workloads and scales are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from common import WORKLOADS  # noqa: E402


def record(workload: str, scale: str, refdir: str, outdir: str) -> dict:
    """Reference entries of one workload, keyed like reference.json."""
    entries = {}
    if workload == "construct-corpus":
        inp = wl.prepare(workload, 0, scale, outdir, {}, refdir)
        jobs = {}
        for idx, entry in enumerate(inp.pool):
            ops = wl._corpus_ops(wl.pool_polynomial(entry))
            jobs[str(idx)] = wl.reference_entry(inp, {"entry": idx, "ops": ops}, refdir)
        entries[wl.reference_key(workload, scale, 0)] = {"pool": inp.pool,
                                                          "entries": jobs}
        return entries
    for variant in range(wl.VARIANTS):
        inp = wl.prepare(workload, variant, scale, outdir, {}, refdir)
        payload = wl.job(inp, 0)
        entries[wl.reference_key(workload, scale, variant)] = {
            "job": wl.reference_entry(inp, payload, refdir)}
        if workload in wl.RENDERS:
            os.remove(payload["ppm"])
    return entries


def update(refdir: str, entries: dict):
    path = os.path.join(refdir, "reference.json")
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data.update(entries)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    refdir = os.path.join(HERE, "reference")
    os.makedirs(refdir, exist_ok=True)
    outdir = os.path.join(".bench_build", "perfbench")
    for name in args.workloads:
        print(f"recording {name}", flush=True)
        update(refdir, record(name, "full", refdir, outdir))


if __name__ == "__main__":
    main()

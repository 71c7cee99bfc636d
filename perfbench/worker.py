"""One benchmark run in a fresh process, started by run.py.

The first thing the worker does is import ``halleydyn.cli`` and report the
monotonic clock, so the parent can time spawn-to-import (``setup_s``).
With ``--probe`` it stops there.  Otherwise it builds the inputs, runs one
untimed warm-up job, then the timed phase: whole passes of jobs until
``--seconds`` have elapsed (at least one pass).  With ``--trace 1`` the
same jobs run a second time under the tracer.  Outputs are checked after
timing, and one JSON line goes to stdout.
"""

import time

import halleydyn.cli  # noqa: F401  (timed: this import is the set-up)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from common import THREAD_CAP  # noqa: E402


def timed_phase(wl, inp, seconds: float, jobs: int | None = None):
    """Run whole passes until `seconds` elapse, or exactly `jobs` jobs.

    Returns (wall seconds, per-job seconds, payloads).  A job that raises
    is recorded as a JobError payload and the phase goes on.
    """
    times, payloads = [], []
    clock = time.perf_counter
    start = clock()
    while True:
        for _ in range(inp.pass_size):
            t0 = clock()
            try:
                payload = wl.job(inp, len(payloads))
            except Exception as exc:  # counted as a failed job by the checks
                payload = wl.JobError(f"{type(exc).__name__}: {exc}")
            times.append(clock() - t0)
            payloads.append(payload)
        if jobs is not None:
            if len(payloads) >= jobs:
                break
        elif clock() - start >= seconds:
            break
    return clock() - start, times, payloads


def run(args) -> dict:
    import numpy
    import scipy

    import tracer as tracing
    import workloads as wl

    with open(os.path.join(args.refdir, "reference.json")) as fh:
        references = json.load(fh)
    inp = wl.prepare(args.workload, args.seed, args.scale, args.outdir,
                     references, args.refdir)
    if not inp.reference:
        raise SystemExit(f"no reference outputs for {args.workload} "
                         f"({args.scale}, variant {inp.variant})")
    try:
        wl.warmup(inp)
    except Exception as exc:  # the timed jobs will show the same failure
        print(f"warm-up raised {type(exc).__name__}: {exc}", file=sys.stderr)

    wall, times, payloads = timed_phase(wl, inp, args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "imported_at": IMPORTED_AT,
        "jobs": len(times),
        "wall": wall,
        "job_times": times,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_CAP},
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
        },
        "variant": inp.variant,
    }

    total = wl.Check()
    for payload in payloads:
        total.add(wl.check(inp, payload))
    result["pixels_changed"] = total.pixels_changed

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, traced_payloads = timed_phase(wl, inp, 0.0, jobs=len(times))
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(
            args.outdir, f"spans-{args.workload}-{args.seed}.jsonl"))
        traced = wl.Check()
        for payload in traced_payloads:
            traced.add(wl.check(inp, payload))
        result["layers"] = tracer.layer_metrics(len(times), traced_wall, wall,
                                                traced.pixels_changed)
        total.add(traced)

    result.update({
        "attempted": total.attempted,
        "failed": total.failed,
        "known": total.known,
        "failures": total.failures,
        "known_failures": sorted(set(total.known_failures)),
        "notes": sorted(set(total.notes)),
    })
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int)
    ap.add_argument("--scale")
    ap.add_argument("--refdir")
    ap.add_argument("--outdir")
    args = ap.parse_args()
    if args.probe:
        out = {"imported_at": IMPORTED_AT}
    else:
        out = run(args)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

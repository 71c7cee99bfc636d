"""Benchmark entry point for halleydyn.

    python3 perfbench/run.py --workload render-sparse --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each run spawns fresh single-threaded worker processes (BLAS and OpenMP
pools capped at one thread, string hashing seeded): a few that only import ``halleydyn.cli`` to
time set-up, then one that warms up, runs the timed phase and checks the
outputs against ``perfbench/reference``.  The report goes to stdout; its
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a second, traced pass over the same jobs with ``--trace 1``.

``failed`` counts unexpected failures only.  Operations that already
failed on the same input when the reference was recorded are known
failures: they are listed, and counted in the report's ``fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import THREAD_CAP, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7  # spawn-to-import timings per run; setup_s is their median
TIME_LIMIT = 170.0  # the whole run, in seconds
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s/job", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAP)
    # With a random string-hash seed per process, paperlab's peak RSS
    # was 414 MB instead of 350 MB in about one run in seven.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(argv: list, env: dict, deadline: float) -> tuple[float, dict]:
    """Run the worker; return (spawn time, its JSON result line)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(argv)}")
    return started, json.loads(lines[-1])


def tail_percentile(times: list) -> tuple[float, float] | None:
    """(percent, value) of the highest percentile with at least ten samples
    beyond it, or None when fewer than 11 samples exist."""
    n = len(times)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    rank = n - 10  # samples at or below the percentile
    return pct, sorted(times)[rank - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full",
                 refdir: str = os.path.join(HERE, "reference")) -> dict:
    """Spawn the set-up probes and the worker; return the combined record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "halleydyn", "__init__.py")):
        raise BenchError(f"no halleydyn sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(refdir, "reference.json")):
        raise BenchError(f"no reference outputs in {refdir}")
    deadline = time.monotonic() + TIME_LIMIT
    env = worker_env()
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        started, probe = spawn(["--probe"], env, deadline)
        setups.append(probe["imported_at"] - started)
    outdir = os.path.join(ROOT, ".bench_build", "perfbench")
    started, rec = spawn(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(int(trace)),
                          "--scale", scale, "--refdir", refdir, "--outdir", outdir],
                         env, deadline)
    setups.append(rec["imported_at"] - started)
    rec["setup_samples"] = setups
    return rec


def end_to_end(rec: dict) -> dict:
    """The gated end-to-end metrics (those in BENCHMARK.json)."""
    values = {
        "setup_s": statistics.median(rec["setup_samples"]),
        "wall_s": rec["wall"] / rec["jobs"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def report(workload: str, seed: int, rec: dict, metrics: dict):
    """Human-readable lines; the JSON result follows them."""
    env = rec["env"]
    print(f"# perfbench {workload} seed={seed} variant={rec['variant']} "
          f"jobs={rec['jobs']}")
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} threads={env['threads']} "
          f"PYTHONHASHSEED={env['hash_seed']}")
    e2e = end_to_end(rec)
    n = rec["jobs"]
    tail = tail_percentile(rec["job_times"])
    tail_text = (f"{tail[1]:.4f} s  (p{tail[0]:.0f} of {n} jobs)" if tail
                 else f"n/a  (needs 11 jobs, have {n})")
    attempted = rec["attempted"]
    bad = rec["known"] + rec["failed"]
    print(f"setup_s      {e2e['setup_s']['value']:.4f} s  "
          f"(median of {len(rec['setup_samples'])} spawns)")
    print(f"wall_s       {e2e['wall_s']['value']:.4f} s/job  "
          f"(timed phase {rec['wall']:.2f} s over {n} jobs)")
    print(f"job_p50_s    {statistics.median(rec['job_times']):.4f} s  (n={n})")
    print(f"job_tail_s   {tail_text}")
    print(f"fail_frac    {bad / attempted:.4f}  ({rec['known']} known + "
          f"{rec['failed']} unexpected of {attempted} operations)")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']['value']:.1f} MB")
    print(f"pixels_changed {rec['pixels_changed']}")
    for line in rec["failures"]:
        print(f"FAILED: {line}")
    for line in rec["known_failures"]:
        print(f"known failure: {line}")
    for line in rec["notes"]:
        print(f"note: {line}")
    if rec.get("layers"):
        _report_layers(rec["layers"])
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def _report_layers(layers: dict):
    v = {k: m["value"] for k, m in layers.items()}
    print(f"trace: traced {v['trace.wall_s']:.4f} s/job = self times "
          f"{v['trace.spans_self_s']:.4f} + bookkeeping {v['trace.bookkeeping_s']:.4f}"
          f" + uncovered {v['trace.uncovered_s']:.4f}; untraced "
          f"{v['trace.untraced_wall_s']:.4f} s/job, overhead {v['trace.overhead_s']:+.4f}")
    if v["cli.main.incl_s"] > 0:
        share = v["dynamics.boundedness_evidence.incl_s"] / v["cli.main.incl_s"]
        print(f"trace: boundedness_evidence is {100 * share:.1f}% of cli.main")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = rec["layers"] if args.trace else end_to_end(rec)
    report(args.workload, args.seed, rec, metrics)
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change runs of the benchmark, summarised as one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_19.json

PARENT and CHANGE are commits of the repository holding this script; each
is exported with ``git archive`` into a temporary directory, and the file
records both as full commit ids.  The parent's BENCHMARK.json names the
command, the workloads, the run length and the bounds.  Pair k runs every
workload with seed FIRST_SEED + k through each export's unchanged
``python3 perfbench/run.py --workload W --seed S --seconds RUN_SECONDS``,
the parent first when k is even and the change first when k is odd.  The
file keeps every run and, per workload and end-to-end metric, each
side's median and quartiles, the pairs the change wins (lower is better
for every gated metric; ties count for neither side), the change in the
medians and the parent's interquartile range.  With --traced, one
``--trace 1`` run per side and workload, at FIRST_SEED, adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 100  # above the seeds that tests and examples use


def commit_id(rev: str) -> str:
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                          stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def export(commit: str, into: str) -> str:
    """The tree of commit, extracted into a new directory under into."""
    tree = os.path.join(into, commit)
    tar = tree + ".tar"
    subprocess.run(["git", "-C", ROOT, "archive", "--output", tar, commit], check=True)
    with tarfile.open(tar) as fh:
        fh.extractall(tree, filter="data")
    os.remove(tar)
    return tree


def run_once(tree: str, bench: dict, workload: str, seed: int, trace: int) -> dict:
    """The JSON result line of one benchmark run in tree, with its host line."""
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    host = next((line[2:] for line in lines if line.startswith("# nproc=")), "")
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    result["host"] = host
    return result


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def summary(runs: list, bench: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        out[workload] = {}
        for metric in sorted(mine[0]["metrics"]):
            side = {s: [r["metrics"][metric] for r in mine if r["side"] == s]
                    for s in ("parent", "change")}
            if not all(side.values()):
                continue
            by_pair = {}
            for r in mine:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][metric]
            pairs = [p for p in by_pair.values() if len(p) == 2]
            parent, change = quartiles(side["parent"]), quartiles(side["change"])
            out[workload][metric] = {
                "parent": parent,
                "change": change,
                "pairs": len(pairs),
                "change_wins": sum(p["change"] < p["parent"] for p in pairs),
                "parent_wins": sum(p["parent"] < p["change"] for p in pairs),
                "median_change_frac": change["median"] / parent["median"] - 1.0,
                "parent_iqr": parent["q3"] - parent["q1"],
                "bound": bounds.get(metric),
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent commit")
    ap.add_argument("change", help="the commit holding the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    commits = {"parent": commit_id(args.parent), "change": commit_id(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: export(commit, tmp) for side, commit in commits.items()}
        with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        workloads = [w["name"] for w in bench["workloads"]]
        doc = {"command": " ".join(bench["command"]) + " --workload W --seed S "
                          f"--seconds {bench['run_seconds']}",
               "host": None, "parent_commit": commits["parent"],
               "change_commit": commits["change"], "pairs": args.pairs,
               "first_seed": FIRST_SEED, "summary": {}, "runs": [], "traced": []}

        def record(into: list, fields: dict, result: dict):
            doc["host"] = doc["host"] or result.pop("host")
            result.pop("host", None)
            into.append({**fields, **result})
            doc["summary"] = summary(doc["runs"], bench)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")

        for k in range(args.pairs):
            seed = FIRST_SEED + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    r = run_once(trees[side], bench, workload, seed, 0)
                    print(f"pair {k} {workload} {side}: wall_s "
                          f"{r['metrics']['wall_s']:.4f} correct={r['correct']}", flush=True)
                    record(doc["runs"], {"pair": k, "seed": seed, "workload": workload,
                                         "side": side, "first": side == order[0]}, r)
        if args.traced:
            for workload in workloads:
                for side in ("parent", "change"):
                    r = run_once(trees[side], bench, workload, FIRST_SEED, 1)
                    record(doc["traced"], {"seed": FIRST_SEED, "workload": workload,
                                           "side": side}, r)
    return 0


if __name__ == "__main__":
    sys.exit(main())

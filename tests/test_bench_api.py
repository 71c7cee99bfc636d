"""The benchmark's workloads call the package through fixed signatures.

These tests make the same calls as perfbench/workloads.py, mostly at a
small size, so a change to a signature the benchmark relies on fails here
too.  The render workloads' variant 0 and two corpus entries also run at
full size through the benchmark's own output check against its recorded
references, so a change the benchmark would call incorrect fails here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    # workloads.py imports its sibling module common, and its dataclasses
    # need the module registered under its name
    sys.path.insert(0, str(_PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", _PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_PERFBENCH))
    return module


workloads = _load_workloads()
REFDIR = str(_PERFBENCH / "reference")


def _prepare(workload, outdir):
    with open(Path(REFDIR) / "reference.json") as fh:
        references = json.load(fh)
    return workloads.prepare(workload, 0, "full", str(outdir), references, REFDIR)

CORPUS_OPS = {
    "halley_of", "konig_of", "chebyshev_halley_of", "degree_census",
    "classify_fixed_points/halley", "classify_fixed_points/konig",
    "classify_fixed_points/chebyshev", "free_critical_fates", "map_rotation_order",
}


@pytest.mark.parametrize("index", [0, 35])
def test_corpus_ops_all_succeed(tmp_path, index):
    pool = workloads.make_pool(36)
    assert pool[35] == workloads.CORPUS_PINNED
    ops = workloads._corpus_ops(workloads.pool_polynomial(pool[index]))
    assert {op: state for op, (state, _) in ops.items()} == dict.fromkeys(CORPUS_OPS, "ok")
    inp = _prepare("construct-corpus", tmp_path)
    assert inp.pool == pool
    check = workloads.check(inp, {"entry": index, "ops": ops})
    assert (check.failed, check.failures) == (0, [])


@pytest.mark.parametrize("workload", sorted(workloads.RENDERS))
def test_render_config_with_seed_key_runs(tmp_path, workload):
    path = workloads._write_config(str(tmp_path), workload, workloads.RENDERS[workload],
                                   workloads.TINY_RES, 3)
    with open(path) as fh:
        assert "seed = 3" in fh.read().splitlines()
    result = workloads._render(path, str(tmp_path / "out.ppm"))
    assert result["rc"] == 0
    assert "seed,3" in result["csv"].splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.RENDERS))
def test_render_passes_the_benchmark_check(tmp_path, workload):
    inp = _prepare(workload, tmp_path)
    assert inp.variant == 0 and inp.reference
    check = workloads.check(inp, workloads.job(inp, 0))
    assert (check.failed, check.failures) == (0, [])
    assert check.attempted > 0

"""The benchmark tracer wraps package functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("qual", tracer.SPANNED + tracer.AGGREGATED)
def test_traced_name_resolves(qual):
    assert callable(tracer._lookup(qual))

"""Span tracer that wraps the package's public functions from outside.

Installing the tracer rebinds each traced function in every ``halleydyn``
module that holds it, so calls made through ``from .x import f`` are seen
too.  Each call of a spanned function records (name, start, end, parent);
a span's self time is its duration minus the time its traced children
cover.  Scalar hot paths (``eval_sphere``) are only counted and timed in
aggregate, and their time is charged to the enclosing span as child time.
Spans stay in memory and are written out once, after the traced phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

SPANNED = (
    "polycore.find_roots",
    "ratmap.make_reduced",
    "ratmap.halley_of",
    "ratmap.konig_of",
    "ratmap.chebyshev_halley_of",
    "ratmap.fixed_points",
    "ratmap.critical_points",
    "classify.classify_fixed_points",
    "dynamics.classify_grid",
    "dynamics.boundedness_evidence",
    "dynamics.free_critical_fates",
    "dynamics.iterate_orbit",
    "dynamics.immediate_basin_component",
    "dynamics.interval_convergence_check",
    "symmetry.map_rotation_order",
    "symmetry.grid_symmetry_order",
    "paramsearch.cycle_condition_polynomial",
    "paramsearch.roots_of_F",
    "paramsearch.verify_cycle",
    "render.write_image",
    "cli.main",
)
AGGREGATED = ("ratmap.eval_sphere",)
EXPERIMENTS = tuple(f"E{i}" for i in range(1, 11))

# Every per-layer metric, with its unit.  Times and counts are per job.
# The counts (calls, pixels, pixel_steps, degree_sum, factors_cancelled,
# bytes) are computed from arguments and return values and repeat exactly
# for identical inputs.
PER_LAYER = (
    ("dynamics.classify_grid.calls", "count/job"),
    ("dynamics.classify_grid.self_s", "s/job"),
    ("dynamics.classify_grid.pixels", "count/job"),
    ("dynamics.classify_grid.pixel_steps", "count/job"),
    ("dynamics.classify_grid.undecided_frac", "ratio"),
    ("dynamics.classify_grid.ns_per_pixel_step", "ns"),
    ("dynamics.boundedness_evidence.calls", "count/job"),
    ("dynamics.boundedness_evidence.incl_s", "s/job"),
    ("dynamics.boundedness_evidence.self_s", "s/job"),
    ("dynamics.boundedness_evidence.pixels", "count/job"),
    ("dynamics.boundedness_evidence.pixels_per_image_pixel", "ratio"),
    ("dynamics.free_critical_fates.incl_s", "s/job"),
    ("dynamics.iterate_orbit.calls", "count/job"),
    ("dynamics.iterate_orbit.self_s", "s/job"),
    ("dynamics.immediate_basin_component.self_s", "s/job"),
    ("dynamics.interval_convergence_check.incl_s", "s/job"),
    ("polycore.find_roots.calls", "count/job"),
    ("polycore.find_roots.self_s", "s/job"),
    ("polycore.find_roots.failed", "count/job"),
    ("polycore.find_roots.degree_sum", "count/job"),
    ("ratmap.halley_of.incl_s", "s/job"),
    ("ratmap.konig_of.incl_s", "s/job"),
    ("ratmap.chebyshev_halley_of.incl_s", "s/job"),
    ("ratmap.make_reduced.calls", "count/job"),
    ("ratmap.make_reduced.self_s", "s/job"),
    ("ratmap.make_reduced.failed", "count/job"),
    ("ratmap.make_reduced.factors_cancelled", "count/job"),
    ("ratmap.eval_sphere.calls", "count/job"),
    ("ratmap.eval_sphere.self_s", "s/job"),
    ("ratmap.fixed_points.self_s", "s/job"),
    ("ratmap.critical_points.self_s", "s/job"),
    ("classify.classify_fixed_points.calls", "count/job"),
    ("classify.classify_fixed_points.self_s", "s/job"),
    ("classify.classify_fixed_points.failed", "count/job"),
    ("symmetry.map_rotation_order.self_s", "s/job"),
    ("symmetry.grid_symmetry_order.self_s", "s/job"),
    ("paramsearch.cycle_condition_polynomial.incl_s", "s/job"),
    ("paramsearch.roots_of_F.incl_s", "s/job"),
    ("paramsearch.verify_cycle.incl_s", "s/job"),
    ("render.write_image.self_s", "s/job"),
    ("render.write_image.bytes", "byte/job"),
    ("render.pixels_changed", "count/job"),
    ("cli.main.incl_s", "s/job"),
    ("cli.main.self_s", "s/job"),
) + tuple((f"acceptance.{e}.incl_s", "s/job") for e in EXPERIMENTS) + (
    ("trace.wall_s", "s/job"),
    ("trace.untraced_wall_s", "s/job"),
    ("trace.overhead_s", "s/job"),
    ("trace.spans_self_s", "s/job"),
    ("trace.uncovered_s", "s/job"),
    ("trace.bookkeeping_s", "s/job"),
)


def _extras(name: str, args, kwargs, result) -> dict | None:
    """Work counts of one call, taken from its arguments and result."""
    if name == "dynamics.classify_grid":
        return {"pixels": result.width * result.height,
                "pixel_steps": int(result.iterations.sum(dtype=np.int64)),
                "undecided": int((result.labels == np.iinfo(np.int32).min).sum())}
    if name == "polycore.find_roots":
        return {"degree_sum": args[0].degree}
    if name == "ratmap.make_reduced":
        num, den = args[0], args[1]
        return {"factors_cancelled": num.degree + den.degree
                - result.num.degree - result.den.degree}
    if name == "render.write_image":
        path = args[2] if len(args) > 2 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        # span: [name, parent index or -1, start, end, child time, failed, extras]
        self.spans: list = []
        self.stack: list[int] = []
        self.agg: dict[str, list] = {n: [0, 0.0] for n in AGGREGATED}
        self.bookkeeping = 0.0
        self._patches: list = []

    # -- installing --------------------------------------------------

    def install(self):
        acceptance = importlib.import_module("halleydyn.acceptance")
        for qual in SPANNED:
            self._rebind(qual, self._spanned(qual, _lookup(qual)))
        for qual in AGGREGATED:
            self._rebind(qual, self._aggregated(qual, _lookup(qual)))
        criteria = acceptance.CRITERIA
        self._patches.append((acceptance, "CRITERIA", criteria))
        acceptance.CRITERIA = [(n, self._spanned(f"acceptance.{n}", fn))
                               for n, fn in criteria]

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _rebind(self, qual: str, wrapper):
        original = wrapper.__wrapped__
        for modname, module in list(sys.modules.items()):
            if modname != "halleydyn" and not modname.startswith("halleydyn."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, clock(), 0.0, 0.0, False, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[3] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[2]
            rec[6] = _extras(name, args, kwargs, result)
            if rec[6] is not None:
                spent = clock() - end
                self.bookkeeping += spent
                if parent >= 0:
                    spans[parent][4] += spent
            return result

        return wrapper

    def _aggregated(self, name: str, fn):
        spans, stack, tally = self.spans, self.stack, self.agg[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                tally[0] += 1
                tally[1] += spent
                if stack:
                    spans[stack[-1]][4] += spent

        return wrapper

    # -- results -----------------------------------------------------

    def write_spans(self, path: str):
        """Write the spans once, as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end, _, failed, extras) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "failed": failed, "extras": extras}) + "\n")

    def layer_metrics(self, jobs: int, traced_wall: float, untraced_wall: float,
                      pixels_changed: int) -> dict:
        """Every PER_LAYER metric, per job, from the recorded spans."""
        stats: dict[str, dict] = {}
        under_bound = [False] * len(self.spans)
        for i, (name, parent, start, end, child, failed, extras) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                         "failed": 0})
            st["calls"] += 1
            st["incl_s"] += end - start
            st["self_s"] += end - start - child
            st["failed"] += failed
            for key, value in (extras or {}).items():
                st[key] = st.get(key, 0) + value
            # parents precede children, so one pass marks every descendant
            under_bound[i] = parent >= 0 and (
                under_bound[parent]
                or self.spans[parent][0] == "dynamics.boundedness_evidence")
        bound_pixels = sum((sp[6] or {}).get("pixels", 0)
                           for i, sp in enumerate(self.spans)
                           if under_bound[i] and sp[0] == "dynamics.classify_grid")
        for name, (calls, spent) in self.agg.items():
            stats[name] = {"calls": calls, "incl_s": spent, "self_s": spent}
        grid = stats.get("dynamics.classify_grid", {})
        grid_pixels = grid.get("pixels", 0)
        steps = grid.get("pixel_steps", 0)
        derived = {
            "dynamics.classify_grid.undecided_frac":
                grid.get("undecided", 0) / grid_pixels if grid_pixels else 0.0,
            "dynamics.classify_grid.ns_per_pixel_step":
                1e9 * grid.get("self_s", 0.0) / steps if steps else 0.0,
            "dynamics.boundedness_evidence.pixels": bound_pixels / jobs,
            "dynamics.boundedness_evidence.pixels_per_image_pixel":
                bound_pixels / (grid_pixels - bound_pixels)
                if grid_pixels > bound_pixels else 0.0,
            "render.pixels_changed": pixels_changed / jobs,
        }
        spans_self = sum(st["self_s"] for st in stats.values())
        trace = {
            "wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "overhead_s": traced_wall - untraced_wall,
            "spans_self_s": spans_self,
            "uncovered_s": traced_wall - spans_self - self.bookkeeping,
            "bookkeeping_s": self.bookkeeping,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in derived:
                value = derived[metric]
            elif metric.startswith("trace."):
                value = trace[metric[len("trace."):]] / jobs
            else:
                qual, stat = metric.rsplit(".", 1)
                value = stats.get(qual, {}).get(stat, 0) / jobs
            out[metric] = {"value": value, "unit": unit}
        return out


def _lookup(qual: str):
    modname, attr = qual.split(".")
    return getattr(importlib.import_module(f"halleydyn.{modname}"), attr)

"""The benchmark's four workloads: inputs made from a seed, jobs, output checks.

A workload turns (seed, scale) into inputs, runs one job at a time through
the package's public functions, and checks each job's outputs against the
reference recorded by ``record_reference.py``.  The program only ever sees
the generated inputs; the seed itself stays in the benchmark.

Every operation a job attempts ends in one of three states:

* ``ok``: it returned and its outputs passed every check;
* ``known``: it failed the way the reference already failed: the same
  operation on the same input raised the same exception type when the
  reference was recorded, or, for an operation never reached there, this
  operation raised that type on another input of the reference.  A
  paperlab experiment's FAIL is known when the reference failed it the
  same way: with the same exception type, or both at a numeric gate;
* ``failed``: anything else, i.e. a new exception, a nonzero exit, a
  malformed image or an output that disagrees with the reference or with
  an exact prediction.

Pixels that differ from the reference image are counted but are not a
failure: a change may alter pixels as long as it explains them.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import os
import re
from dataclasses import dataclass, field

import numpy as np

from common import WORKLOADS
from halleydyn import acceptance, classify, cli, dynamics, ratmap, symmetry
from halleydyn.polycore import Polynomial

# Seeds map onto this many input variants, each with its own recorded
# reference; seeds that agree modulo VARIANTS give identical inputs.
VARIANTS = 4

MAX_ITER = 200
TOL = 1e-6  # multiplier, location and target agreement

RENDERS = {
    # z(z^7 - 1): sparse map; the central root's component stays off the
    # border, so [components] runs the 256/512/1024 boundedness probe.
    "render-sparse": {"coeffs": (0, -1, 0, 0, 0, 0, 0, 0, 1),
                      "center": 0j, "half": 2.0, "res": 400},
    # z^3 + 6z + b at the real quintic root: dense map, every component
    # reaches the border, about half the pixels stay undecided.
    "render-cycle": {"coeffs": (62.5144396, 6, 0, 1),
                     "center": 1 + 0j, "half": 0.2, "res": 400},
}
TINY_RES = 24

CORPUS_SIZE = {"full": 36, "tiny": 3}
CORPUS_SEED = 7001
CORPUS_MIN_SEP = 0.5
# pinned last: at the reference commit konig_of and chebyshev_halley_of
# leak a bare ValueError from polycore._deflate on this polynomial
CORPUS_PINNED = [[-1.484, 0.964, 3], [-0.600, 1.121, 3], [0.827, -0.824, 2]]

PAPERLAB_SMALL = ("E8", "E9", "E10")  # the warm-up, and the tiny-scale battery


# ----------------------------------------------------------------------
# results of checking


@dataclass
class Check:
    """Tally of one or more jobs' operations after their outputs are checked."""

    attempted: int = 0
    known: int = 0
    failed: int = 0
    pixels_changed: int = 0
    failures: list = field(default_factory=list)  # unexpected, with reasons
    known_failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # soft differences

    def ok(self):
        self.attempted += 1

    def fail(self, what: str):
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)

    def known_fail(self, what: str):
        self.attempted += 1
        self.known += 1
        self.known_failures.append(what)

    def add(self, other: "Check"):
        self.attempted += other.attempted
        self.known += other.known
        self.failed += other.failed
        self.pixels_changed += other.pixels_changed
        self.failures += other.failures
        self.known_failures += other.known_failures
        self.notes += other.notes


@dataclass
class JobError:
    """A job that raised instead of returning a payload."""

    error: str


def _err(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc.args[0] if exc.args else ''}"


def error_type(message: str) -> str | None:
    """The exception type that starts an error message ("ValueError: ..."),
    or None when the message does not start with one (a gate's detail)."""
    m = re.match(r"([A-Za-z_]\w*): ", message)
    return m.group(1) if m else None


def _close(a: complex, b: complex, tol: float = TOL) -> bool:
    if np.isinf(a.real) or np.isinf(b.real):
        return np.isinf(a.real) and np.isinf(b.real)
    return abs(a - b) <= tol * max(1.0, abs(b))


# ----------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    workload: str
    seed: int
    scale: str
    variant: int
    outdir: str
    reference: dict
    refdir: str
    config_path: str = ""
    warm_config_path: str = ""
    pool: list = field(default_factory=list)

    @property
    def pass_size(self) -> int:
        """Jobs per pass; the timed phase only ever runs whole passes."""
        return len(self.pool) if self.workload == "construct-corpus" else 1


def reference_key(workload: str, scale: str, variant: int) -> str:
    if workload == "construct-corpus":
        return f"{workload}/{scale}"
    return f"{workload}/{scale}/v{variant}"


def prepare(workload: str, seed: int, scale: str, outdir: str,
            references: dict, refdir: str) -> Inputs:
    """Build a run's inputs (untimed).  Raises KeyError for an unknown name."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    variant = 0 if workload == "construct-corpus" else seed % VARIANTS
    ref = references.get(reference_key(workload, scale, variant), {})
    inp = Inputs(workload, seed, scale, variant, outdir, ref, refdir)
    os.makedirs(outdir, exist_ok=True)
    if workload in RENDERS:
        spec = RENDERS[workload]
        res = spec["res"] if scale == "full" else TINY_RES
        inp.config_path = _write_config(outdir, workload, spec, res, variant)
        inp.warm_config_path = _write_config(outdir, workload + "-warm", spec,
                                             TINY_RES, variant)
    elif workload == "construct-corpus":
        inp.pool = ref.get("pool") or make_pool(CORPUS_SIZE[scale])
    return inp


def _write_config(outdir, stem, spec, res, variant) -> str:
    # sub-pixel window offset: quarter-pixel steps, distinct per variant
    pitch = 2.0 * spec["half"] / res
    center = spec["center"] + complex(0.25 * variant * pitch,
                                      0.25 * ((3 * variant) % 4) * pitch)
    lines = [f"coeff = {c!r}" for c in spec["coeffs"]]
    lines += [
        "method = halley",
        f"window = {center.real!r}, {center.imag!r}, {spec['half']!r}, {spec['half']!r}",
        f"res = {res}x{res}",
        f"max_iter = {MAX_ITER}",
        f"seed = {variant}",
    ]
    path = os.path.join(outdir, f"{stem}.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def make_pool(count: int, seed: int = CORPUS_SEED) -> list:
    """Polynomials of degree 3-8 with root multiplicities 1-3.

    Each entry is a list of [re, im, multiplicity] rows; the roots keep
    CORPUS_MIN_SEP apart and are rounded to three decimals.  Degrees cycle
    3, 4, ..., 8 so every pool covers them evenly; the last entry is
    CORPUS_PINNED.
    """
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count - 1:
        deg = 3 + len(pool) % 6
        mults, rem = [], deg
        while rem:
            m = int(rng.integers(1, min(rem, 3) + 1))
            mults.append(m)
            rem -= m
        if len(mults) < 2:
            continue
        roots: list[complex] = []
        for _ in mults:
            for _attempt in range(100):
                z = complex(round(float(rng.uniform(-1.5, 1.5)), 3),
                            round(float(rng.uniform(-1.5, 1.5)), 3))
                if all(abs(z - r) >= CORPUS_MIN_SEP for r in roots):
                    roots.append(z)
                    break
        if len(roots) == len(mults):
            pool.append([[z.real, z.imag, m] for z, m in zip(roots, mults)])
    pool.append(CORPUS_PINNED)
    return pool


def pool_polynomial(entry) -> Polynomial:
    return Polynomial.from_roots([complex(re, im) for re, im, m in entry
                                  for _ in range(m)])


def corpus_entry(inp: Inputs, k: int) -> int:
    """Pool index of job k: every pass visits the pool in a seeded order."""
    n = len(inp.pool)
    order = np.random.default_rng([inp.seed, k // n]).permutation(n)
    return int(order[k % n])


# ----------------------------------------------------------------------
# jobs (the timed part: program calls only)


def warmup(inp: Inputs):
    """One small untimed job through the same code paths."""
    if inp.workload in RENDERS:
        _render(inp.warm_config_path, os.path.join(inp.outdir, "warm.ppm"))
    elif inp.workload == "construct-corpus":
        _corpus_ops(pool_polynomial(inp.pool[0]))
    else:
        acceptance.run(only=PAPERLAB_SMALL, seed=inp.variant)


def job(inp: Inputs, k: int):
    if inp.workload in RENDERS:
        out = os.path.join(inp.outdir, f"{inp.workload}-{k}.ppm")
        return _render(inp.config_path, out)
    if inp.workload == "construct-corpus":
        idx = corpus_entry(inp, k)
        return {"entry": idx, "ops": _corpus_ops(pool_polynomial(inp.pool[idx]))}
    only = PAPERLAB_SMALL if inp.scale == "tiny" else None
    return {"results": acceptance.run(only=only, seed=inp.variant)}


def _render(config_path: str, out: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["render", "--config", config_path, "--out", out])
    return {"rc": rc, "csv": buf.getvalue(), "ppm": out}


def _corpus_ops(p: Polynomial) -> dict:
    """Run every corpus operation on p; map op name to ('ok', data) or
    ('error', message).  Operations whose input map failed are skipped."""
    out: dict = {}

    def attempt(op, fn):
        try:
            value = fn()
        except Exception as exc:  # counted by the checks, never fatal
            out[op] = ("error", _err(exc))
            return None
        out[op] = ("ok", value)
        return value

    maps = {
        "halley": attempt("halley_of", lambda: ratmap.halley_of(p)),
        "konig": attempt("konig_of", lambda: ratmap.konig_of(p, 4)),
        "chebyshev": attempt("chebyshev_halley_of",
                             lambda: ratmap.chebyshev_halley_of(p, 0)),
    }
    attempt("degree_census", lambda: ratmap.degree_census(p))
    for name, R in maps.items():
        if R is not None:
            attempt(f"classify_fixed_points/{name}",
                    lambda R=R: classify.classify_fixed_points(p, R))
    H = maps["halley"]
    if H is not None:
        attempt("free_critical_fates", lambda: dynamics.free_critical_fates(p, H))
        attempt("map_rotation_order", lambda: symmetry.map_rotation_order(H))
    return {op: (state, _plain(op, v)) for op, (state, v) in out.items()}


def _cplx(z) -> list:
    """JSON form of a sphere point: [re, im], or None for infinity."""
    if ratmap.is_infinity(z):
        return None
    z = complex(z)
    return [z.real, z.imag]


def _uncplx(v) -> complex:
    return complex(np.inf, 0.0) if v is None else complex(v[0], v[1])


def _plain(op: str, value):
    """Reduce an operation's return value to the JSON data the checks use."""
    if isinstance(value, str):
        return value
    if op in ("halley_of", "konig_of", "chebyshev_halley_of"):
        return {"degree": value.degree}
    if op == "degree_census":
        return {"predicted_degree": value.predicted_degree}
    if op.startswith("classify_fixed_points"):
        return [{"location": _cplx(r.location), "multiplier": _cplx(r.multiplier),
                 "class": r.klass, "origin": r.origin.kind,
                 "predicted": None if r.predicted is None else _cplx(r.predicted)}
                for r in value]
    if op == "free_critical_fates":
        return [{"kind": f.kind, "period": f.period,
                 "last": None if f.last is None else _cplx(f.last)} for f in value]
    return value  # map_rotation_order: an int


# ----------------------------------------------------------------------
# references


def reference_entry(inp: Inputs, payload, refdir: str) -> dict:
    """What record_reference.py stores for one job of this commit."""
    if inp.workload in RENDERS:
        with open(payload["ppm"], "rb") as fh:
            data = fh.read()
        stem = reference_key(inp.workload, inp.scale, inp.variant).replace("/", "-")
        with gzip.open(os.path.join(refdir, stem + ".ppm.gz"), "wb", 9) as fh:
            fh.write(data)
        return {"csv": _strip_image_line(payload["csv"]),
                "sha256": hashlib.sha256(data).hexdigest(), "ppm": stem + ".ppm.gz"}
    if inp.workload == "construct-corpus":
        return {op: list(v) for op, v in payload["ops"].items()}
    return {"results": [list(r) for r in payload["results"]]}


def _strip_image_line(csv: str) -> str:
    return "\n".join(line for line in csv.splitlines() if not line.startswith("image,"))


# ----------------------------------------------------------------------
# checks (untimed, after the timed phase)


def check(inp: Inputs, payload) -> Check:
    if isinstance(payload, JobError):
        c = Check()
        c.fail(f"job raised {payload.error}")
        return c
    if inp.workload in RENDERS:
        return _check_render(inp, payload)
    if inp.workload == "construct-corpus":
        return _check_corpus(inp, payload)
    return _check_paperlab(inp, payload)


def ppm_problem(data: bytes, width: int, height: int) -> str | None:
    """Why data is not a P6 image of the given size, or None."""
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return "malformed PPM header"
    if len(data) != len(header) + 3 * width * height:
        return f"malformed PPM: {len(data)} bytes, want {len(header) + 3 * width * height}"
    return None


def pixels_changed(data: bytes, ref: bytes, width: int, height: int) -> int:
    a = np.frombuffer(data[-3 * width * height:], np.uint8).reshape(-1, 3)
    b = np.frombuffer(ref[-3 * width * height:], np.uint8).reshape(-1, 3)
    return int(np.any(a != b, axis=1).sum())


def _check_render(inp: Inputs, payload: dict) -> Check:
    c = Check()
    ref = inp.reference["job"]
    res = RENDERS[inp.workload]["res"] if inp.scale == "full" else TINY_RES
    try:
        with open(payload["ppm"], "rb") as fh:
            data = fh.read()
        os.remove(payload["ppm"])
    except OSError as exc:
        data, problem = b"", f"no image: {exc}"
    else:
        problem = ppm_problem(data, res, res)
    if payload["rc"] != 0:
        c.fail(f"render exited {payload['rc']}")
        return c
    if problem:
        c.fail(problem)
        return c
    if hashlib.sha256(data).hexdigest() != ref["sha256"]:
        with gzip.open(os.path.join(inp.refdir, ref["ppm"]), "rb") as fh:
            c.pixels_changed = pixels_changed(data, fh.read(), res, res)
        c.notes.append(f"{c.pixels_changed} pixels differ from the reference image")
    problems = summary_problems(parse_summary(payload["csv"]), parse_summary(ref["csv"]))
    if problems:
        c.fail("; ".join(problems))
    else:
        c.ok()
    return c


def parse_summary(csv: str) -> dict:
    """The render summary CSV as {'degree': int, section: [row, ...]}."""
    out: dict = {"degree": None}
    section = None
    for line in csv.splitlines():
        if line.startswith("degree,"):
            out["degree"] = int(line.split(",", 1)[1])
        elif line.startswith("["):
            section = line.strip("[]")
            out[section] = []
        elif section and "," in line and not line.startswith(("location,", "root,")):
            out[section].append(line.split(","))
    return out


def _loc(text: str) -> complex:
    return complex(np.inf, 0.0) if text == "inf" else complex(text)


def _match(rows, loc: complex):
    for row in rows:
        if _close(_loc(row[0]), loc):
            return row
    return None


def summary_problems(got: dict, want: dict) -> list:
    """Hard differences between two render summaries."""
    probs = []
    if got["degree"] != want["degree"]:
        probs.append(f"degree {got['degree']} != {want['degree']}")
    for section, compare in (("fixed_points", _fixed_point_row),
                             ("free_critical_fates", _fate_row),
                             ("components", _component_row)):
        rows, ref_rows = got.get(section, []), want.get(section, [])
        if len(rows) != len(ref_rows):
            probs.append(f"{section}: {len(rows)} rows != {len(ref_rows)}")
            continue
        for ref_row in ref_rows:
            row = _match(rows, _loc(ref_row[0]))
            if row is None:
                probs.append(f"{section}: no row at {ref_row[0]}")
            elif not compare(row, ref_row):
                probs.append(f"{section}: {','.join(row)} != {','.join(ref_row)}")
    return probs


def _fixed_point_row(row, ref) -> bool:
    return (row[2:] == ref[2:]
            and abs(complex(row[1]) - complex(ref[1])) < TOL)


def _fate_row(row, ref) -> bool:
    if row[1] != ref[1]:
        return False
    if row[1] == "root":
        return _close(complex(row[2]), complex(ref[2]))
    return row[2] == ref[2]


def _component_row(row, ref) -> bool:
    return row[1:] == ref[1:]


def _check_corpus(inp: Inputs, payload: dict) -> Check:
    c = Check()
    idx = payload["entry"]
    ops = payload["ops"]
    entries = inp.reference.get("entries", {})
    refs = entries.get(str(idx), {})
    for op, (state, value) in ops.items():
        ref_state, ref_value = refs.get(op, (None, None))
        where = f"pool[{idx}] {op}"
        if state == "error":
            if ref_state == "error":
                known = error_type(value) == error_type(ref_value)
            else:  # an op never reached at the reference: types it raised elsewhere
                known = ref_state is None and error_type(value) in {
                    error_type(e[op][1]) for e in entries.values()
                    if e.get(op, ("ok",))[0] == "error"}
            if known:
                c.known_fail(f"{where}: {value}")
            else:
                c.fail(f"{where}: {value}")
            continue
        problems = _corpus_problems(op, value, ops, ref_value if ref_state == "ok" else None)
        if problems:
            c.fail(f"{where}: " + "; ".join(problems))
        else:
            c.ok()
        if ref_state == "error":
            c.notes.append(f"{where} no longer fails ({ref_value})")
    return c


def _ok_value(ops: dict, op: str):
    state, value = ops.get(op, (None, None))
    return value if state == "ok" else None


def _corpus_problems(op: str, value, ops: dict, ref) -> list:
    probs = []
    if op == "halley_of":
        census = _ok_value(ops, "degree_census")
        if census and value["degree"] != census["predicted_degree"]:
            probs.append(f"degree {value['degree']} != census prediction "
                         f"{census['predicted_degree']}")
        if ref and value["degree"] != ref["degree"]:
            probs.append(f"degree {value['degree']} != reference {ref['degree']}")
    elif op == "degree_census":
        if ref and value != ref:
            probs.append(f"census {value} != reference {ref}")
    elif op == "classify_fixed_points/halley":
        H = _ok_value(ops, "halley_of")
        if H and len(value) != H["degree"] + 1:
            probs.append(f"{len(value)} fixed points for degree {H['degree']}")
        for rec in value:
            if rec["predicted"] is not None and not abs(
                    _uncplx(rec["multiplier"]) - _uncplx(rec["predicted"])) < TOL:
                probs.append(f"multiplier {rec['multiplier']} vs predicted {rec['predicted']}")
        if ref:
            probs += _records_problems(value, ref)
    elif op == "free_critical_fates" and ref:
        if [(f["kind"], f["period"]) for f in value] != [(f["kind"], f["period"]) for f in ref]:
            probs.append(f"fates {[f['kind'] for f in value]} != {[f['kind'] for f in ref]}")
        else:
            for f, g in zip(value, ref):
                if f["kind"] == "root" and not _close(_uncplx(f["last"]), _uncplx(g["last"])):
                    probs.append(f"fate target {f['last']} != {g['last']}")
    elif op == "map_rotation_order" and ref is not None and value != ref:
        probs.append(f"rotation order {value} != reference {ref}")
    return probs


def _records_problems(records, ref_records) -> list:
    if len(records) != len(ref_records):
        return [f"{len(records)} fixed points != reference {len(ref_records)}"]
    probs = []
    for want in ref_records:
        loc = _uncplx(want["location"])
        got = next((r for r in records if _close(_uncplx(r["location"]), loc)), None)
        if got is None:
            probs.append(f"no fixed point at {want['location']}")
        elif (got["class"], got["origin"]) != (want["class"], want["origin"]):
            probs.append(f"fixed point {want['location']}: {got['class']}/{got['origin']}"
                         f" != {want['class']}/{want['origin']}")
        elif not abs(_uncplx(got["multiplier"]) - _uncplx(want["multiplier"])) < TOL:
            probs.append(f"multiplier {got['multiplier']} != reference {want['multiplier']}")
    return probs


def _check_paperlab(inp: Inputs, payload: dict) -> Check:
    c = Check()
    ref = {name: (ok, detail) for name, ok, detail
           in inp.reference.get("job", {}).get("results", [])}
    for name, ok, detail in payload["results"]:
        ref_ok, ref_detail = ref.get(name, (None, None))
        if ok:
            c.ok()
            if ref_ok is False:
                c.notes.append(f"{name} now passes")
        elif ref_ok is False and error_type(detail) == error_type(ref_detail):
            c.known_fail(f"{name}: FAIL - {detail}")
        else:
            c.fail(f"{name}: FAIL - {detail}")
        if ref_detail is not None and detail != ref_detail:
            c.notes.append(f"{name} detail changed: {detail}")
    if ref and {name for name, _, _ in payload["results"]} != set(ref):
        c.fail("experiments run differ from the reference")
    return c

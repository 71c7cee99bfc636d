"""Command line front end.

Subcommands:
  render    basin-of-attraction image (PPM) plus a text summary
  analyze   fixed-point classification, extraneous points, symmetry orders
  cycles    the cubic-family parameter search: five 2-cycle parameters
  profile   real-axis profile of the map as CSV
  paperlab  run the built-in acceptance experiments (E1-E10)

Configs are flat key=value text files; see parse_config.  Exit codes:
0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, HalleyDynError, IOFailure
from .polycore import Polynomial
from .ratmap import (
    RationalMap,
    halley_of,
    konig_of,
    chebyshev_halley_of,
    free_critical_points,
    is_infinity,
)
from .classify import classify_fixed_points, extraneous_fixed_points
from .dynamics import (
    MAX_ITER_LIMIT,
    Window,
    classify_grid,
    immediate_basin_component,
    real_axis_profile,
    orbit_outcomes,
    profile_to_csv,
)
from .symmetry import map_rotation_order, symmetry_report
from .render import write_image
from .paramsearch import (
    cycle_condition_polynomial,
    quintic_factor_problem,
    roots_of_F,
    verify_cycle,
    xi_of,
)


@dataclass
class JobConfig:
    """A job's settings, one field per config key (coeff lines collect
    into coeffs).  seed is only echoed in the summaries: no computation
    reads it."""

    coeffs: list = field(default_factory=list)
    method: str = "halley"
    window: Window | None = None
    res: tuple = (400, 400)
    max_iter: int = 200
    seed: int = 0
    x_min: float = -2.0
    x_max: float = 2.0
    samples: int = 401
    shading: float = 0.55


def _parse_complex(text: str) -> complex:
    """Accept a finite 're,im' or a bare real number."""
    parts = [t.strip() for t in text.split(",")]
    try:
        if len(parts) in (1, 2):
            z = complex(*(float(t) for t in parts))
            if cmath.isfinite(z):
                return z
    except ValueError:
        pass
    raise ConfigError(f"cannot parse finite complex value {text!r}")


def _parse_window(text: str) -> Window:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"window needs cx,cy,hw,hh, got {text!r}")
    try:
        cx, cy, hw, hh = (float(t) for t in parts)
    except ValueError:
        raise ConfigError(f"window needs numeric cx,cy,hw,hh, got {text!r}")
    try:
        return Window(complex(cx, cy), hw, hh)
    except ValueError as exc:
        raise ConfigError(f"{exc}, got {text!r}")


def _parse_res(text: str) -> tuple:
    m = re.fullmatch(r"(\d+)\s*[xX]\s*(\d+)", text.strip())
    if m:
        w, h = int(m.group(1)), int(m.group(2))
    elif text.strip().isdigit():
        w = h = int(text.strip())
    else:
        raise ConfigError(f"resolution must be WxH or a single integer, got {text!r}")
    if w < 2 or h < 2:
        raise ConfigError("resolution must be at least 2x2")
    return (w, h)


# config key -> parser of its value; the field of JobConfig it sets has
# the key's name, except that coeff lines append to coeffs
_PARSERS = {
    "coeff": _parse_complex,
    "method": str,
    "window": _parse_window,
    "res": _parse_res,
    "max_iter": int,
    "seed": int,
    "x_min": float,
    "x_max": float,
    "samples": int,
    "shading": float,
}


def parse_config(text: str) -> JobConfig:
    """Parse the flat key=value format.

    Lines are 'key = value'; '#' starts a comment; 'coeff' may repeat, one
    line per ascending-order coefficient, each 're,im' or a bare real.
    """
    cfg = JobConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}")
        if key == "coeff":
            cfg.coeffs.append(parsed)
        else:
            setattr(cfg, key, parsed)
    return _checked(cfg)


# a window's pixel pitch must span this many units in the last place of
# the centre's largest coordinate, so that neighbouring pixel centres stay
# distinct doubles (coordinates just past a power of 2 have twice the ulp)
MIN_PITCH_ULPS = 4


def _checked(cfg: JobConfig) -> JobConfig:
    """cfg, once its values are in range."""
    if cfg.window is not None:
        w, (width, height) = cfg.window, cfg.res
        pitch = min(2.0 * w.half_width / width, 2.0 * w.half_height / height)
        floor = MIN_PITCH_ULPS * math.ulp(max(abs(w.center.real), abs(w.center.imag)))
        if pitch < floor:
            raise ConfigError(
                f"window too small for res {width}x{height}: pixel pitch {pitch:.3g} "
                f"is below {MIN_PITCH_ULPS} ulps ({floor:.3g}) of the window centre")
    if not 1 <= cfg.max_iter <= MAX_ITER_LIMIT:
        raise ConfigError(f"max_iter must lie in [1, {MAX_ITER_LIMIT}]")
    if not 0.0 <= cfg.shading <= 1.0:
        raise ConfigError("shading must lie in [0, 1]")
    if not -math.inf < cfg.x_min < cfg.x_max < math.inf:
        raise ConfigError("need finite x_min < x_max")
    if cfg.samples < 2:
        raise ConfigError("samples must be at least 2")
    return cfg


def load_config(path: str) -> JobConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)


def build_polynomial(cfg: JobConfig) -> Polynomial:
    if len(cfg.coeffs) < 2:
        raise ConfigError("config needs at least two coeff lines (degree >= 1)")
    p = Polynomial.make(cfg.coeffs)
    if p.degree < 1:
        raise ConfigError("polynomial degenerates to a constant after trimming")
    return p


def build_map(p: Polynomial, method: str) -> RationalMap:
    """method is 'halley', 'konig(n)', or 'chebyshev(sigma)'."""
    m = method.strip().lower()
    if m == "halley":
        return halley_of(p)
    km = re.fullmatch(r"konig\((\d+)\)", m)
    if km:
        n = int(km.group(1))
        if n < 2:
            raise ConfigError("konig order must be >= 2")
        return konig_of(p, n)
    cm = re.fullmatch(r"chebyshev\(([^)]*)\)", m)
    if cm:
        sigma = _parse_complex(cm.group(1))
        return chebyshev_halley_of(p, sigma)
    raise ConfigError(f"unknown method {method!r}")


def _digit_unit(z: complex) -> float:
    """A unit of the tenth significant digit of |z|; 1 at 0 and at
    non-finite z."""
    return 10.0 ** (math.floor(math.log10(abs(z))) - 9) if z and cmath.isfinite(z) else 1.0


def _fmt(z: complex) -> str:
    """One CSV field per value, to 10 significant digits of |z|: a part
    smaller than half a unit of that tenth digit prints as 0 (never -0),
    every other part in its .10g form.  complex() can parse every form
    emitted."""
    z = complex(z)
    half = 0.5 * _digit_unit(z)
    real, imag = (0.0 if abs(x) < half else x for x in (z.real, z.imag))
    if imag == 0.0:
        return f"{real:.10g}"
    return f"{real:.10g}{imag:+.10g}j"


def _by_location(items, location):
    """items in the order of their locations: real part, then imaginary
    part, each rounded to the tenth significant digit of |z|, and infinity
    last.  A conjugate pair then comes in one order whatever the noise in
    its last bits, also where its real parts are noise about 0."""
    def key(item):
        z = location(item)
        if is_infinity(z):
            return (1, 0, 0)
        z = complex(z)
        unit = _digit_unit(z)
        return (0, round(z.real / unit) * unit, round(z.imag / unit) * unit)
    return sorted(items, key=key)


def _summary_fixed_points(p, R, out):
    records = _by_location(classify_fixed_points(p, R), lambda r: r.location)
    out.write("[fixed_points]\n")
    out.write("location,multiplier,class,origin\n")
    for r in records:
        out.write(f"{_fmt(r.location)},{_fmt(r.multiplier)},{r.klass},{r.origin.kind}\n")
    out.write("[extraneous]\n")
    out.write("location,multiplier\n")
    for r in extraneous_fixed_points(records):
        out.write(f"{_fmt(r.location)},{_fmt(r.multiplier)}\n")


def cmd_render(args) -> int:
    cfg = load_config(args.config)
    if not args.out:
        raise ConfigError("render needs an output path (--out)")
    p = build_polynomial(cfg)
    R = build_map(p, cfg.method)
    window = cfg.window or Window(0j, 2.0, 2.0)
    roots = [c.location for c in R.source.roots]
    # every attracting cycle attracts a critical point, so the free
    # critical orbits find the cycles whose basins the grid labels; the
    # orbits that reach one cycle carry one tuple, passed once
    crits = free_critical_points(R, roots)
    fates = orbit_outcomes(R, [c.location for c in crits], roots, cfg.max_iter)
    cycles = tuple(dict.fromkeys(f.cycle for f in fates if f.kind == "cycle"))
    grid = classify_grid(R, roots, window, cfg.res, max_iter=cfg.max_iter,
                         cycles=cycles)
    # by keyword: perfbench/tracer.py reads a third positional argument as the path
    write_image(grid, path=args.out, shading=cfg.shading)

    out = sys.stdout
    out.write("# render summary\n")
    out.write(f"seed,{cfg.seed}\n")
    out.write(f"method,{cfg.method}\n")
    out.write(f"degree,{R.degree}\n")
    out.write(f"image,{args.out}\n")
    _summary_fixed_points(p, R, out)

    out.write("[free_critical_fates]\n")
    out.write("location,outcome,target\n")
    for c, f in _by_location(zip(crits, fates), lambda cf: cf[0].location):
        if f.kind == "root":
            tgt = _fmt(roots[f.root_index])
        elif f.kind == "cycle":
            tgt = "period-" + str(f.period)
        else:
            tgt = "undecided"
        out.write(f"{_fmt(c.location)},{f.kind},{tgt}\n")

    # per-root component report on the rendered window.  A component that
    # avoids the image border has all its 4-neighbours inside the image, so
    # it keeps its area in every larger window: boundedness_evidence(R,
    # roots, grid, r) would say bounded-evidence without classifying more
    out.write("[components]\n")
    out.write("root,touches_border,verdict\n")
    for r in _by_location(roots, complex):
        try:
            _, touches = immediate_basin_component(grid, r)
        except HalleyDynError:
            out.write(f"{_fmt(r)},n/a,undecided-seed\n")
            continue
        verdict = "true,unbounded-evidence" if touches else "false,bounded-evidence"
        out.write(f"{_fmt(r)},{verdict}\n")
    return 0


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    p = build_polynomial(cfg)
    R = build_map(p, cfg.method)
    out = sys.stdout
    out.write("# analyze\n")
    out.write(f"seed,{cfg.seed}\n")
    out.write(f"method,{cfg.method}\n")
    out.write(f"degree,{R.degree}\n")
    _summary_fixed_points(p, R, out)
    out.write("[symmetry]\n")
    order = map_rotation_order(R)
    out.write(f"map_rotation_order,{order}\n")
    try:
        rep = symmetry_report(R)
    except (HalleyDynError, ValueError) as exc:
        out.write(f"group_comparison,skipped ({exc})\n")
    else:
        out.write(f"polynomial_order,{rep.sigma_p_order}\n")
        out.write(f"grid_order,{rep.grid_order}\n")
        out.write(f"equality,{str(rep.equality).lower()}\n")
    return 0


def cmd_cycles(args) -> int:
    out = sys.stdout
    factor_ok = quintic_factor_problem(cycle_condition_polynomial()) is None
    out.write("# cubic family z^3 + 6z + b: parameters with a 2-cycle through 1\n")
    out.write(f"factor_check,{'PASS' if factor_ok else 'FAIL'}\n")
    out.write("[candidates]\n")
    out.write("b,xi,residual,multiplier_magnitude\n")
    for cl in roots_of_F():
        cand = verify_cycle(cl.location)
        out.write(f"{_fmt(cand.b)},{_fmt(xi_of(cand.b))},"
                  f"{cand.residual:.3e},{abs(cand.multiplier):.3e}\n")
    return 0 if factor_ok else 3


def cmd_profile(args) -> int:
    cfg = load_config(args.config)
    p = build_polynomial(cfg)
    R = build_map(p, cfg.method)
    if not R.is_real:
        raise ConfigError(f"profile needs a real map: {cfg.method} of this "
                          "polynomial has a non-real coefficient")
    rows = real_axis_profile(R, cfg.x_min, cfg.x_max, cfg.samples)
    if not args.out:
        profile_to_csv(rows, sys.stdout)
        return 0
    try:
        with open(args.out, "w", newline="") as fh:
            profile_to_csv(rows, fh)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    sys.stdout.write(f"wrote {args.out} ({len(rows)} rows)\n")
    return 0


def cmd_paperlab(args) -> int:
    from . import acceptance

    only = set(args.only) if args.only else None
    results = acceptance.run(only=only, seed=args.seed)
    failed = []
    for name, ok, detail in results:
        sys.stdout.write(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}\n")
        if not ok:
            failed.append(name)
    if failed:
        sys.stdout.write(f"failed: {' '.join(failed)}\n")
        return 1
    sys.stdout.write(f"all {len(results)} criteria passed\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="halleydyn",
        description="Halley-method dynamics: basins, fixed points, "
                    "symmetry, and the cubic 2-cycle family.")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="basin image + summary")
    analyze = sub.add_parser("analyze", help="fixed points and symmetry")
    sub.add_parser("cycles", help="cubic-family 2-cycle table")
    profile = sub.add_parser("profile", help="real-axis CSV")
    for sp in (render, analyze, profile):
        sp.add_argument("--config", required=True, help="key=value config file")
    for sp in (render, profile):
        sp.add_argument("--out", help="output path")
    sp = sub.add_parser("paperlab", help="run acceptance experiments")
    sp.add_argument("--only", action="append", metavar="EID",
                    help="run a subset (repeatable), e.g. --only E3")
    sp.add_argument("--seed", type=int, default=0,
                    help="picks the experiments' random corpus and sample points")

    args = parser.parse_args(argv)
    handlers = {
        "render": cmd_render,
        "analyze": cmd_analyze,
        "cycles": cmd_cycles,
        "profile": cmd_profile,
        "paperlab": cmd_paperlab,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except HalleyDynError as exc:
        sys.stderr.write(f"numeric failure: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

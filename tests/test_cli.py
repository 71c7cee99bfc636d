"""End-to-end tests for the command line interface."""

import io
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from halleydyn import cli
from halleydyn.cli import (
    JobConfig,
    build_map,
    build_polynomial,
    main,
    parse_config,
)
from halleydyn.dynamics import Window, boundedness_evidence, classify_grid
from halleydyn.errors import ConfigError
from halleydyn.polycore import Polynomial
from halleydyn.ratmap import INF, halley_of, is_infinity
from halleydyn.render import CYCLE_COLOR, read_image

CUBIC_CFG = """\
# odd cubic with roots 0, 1, -1
coeff = 0
coeff = -1
coeff = 0
coeff = 1
method = halley
window = 0, 0, 2, 2
res = 60x60
max_iter = 80
seed = 3
"""

OCTIC_CFG = """\
coeff = 0
coeff = -1
coeff = 0
coeff = 0
coeff = 0
coeff = 0
coeff = 0
coeff = 0
coeff = 1
method = halley
x_min = -1.0
x_max = 0.0
samples = 21
"""


def test_parse_config_full():
    cfg = parse_config(CUBIC_CFG)
    assert cfg.coeffs == [0j, -1 + 0j, 0j, 1 + 0j]
    assert cfg.method == "halley"
    assert cfg.window.center == 0j
    assert cfg.window.half_width == 2.0
    assert cfg.res == (60, 60)
    assert cfg.max_iter == 80
    assert cfg.seed == 3


def test_readme_lists_every_config_key():
    # the README's key table names exactly the keys parse_config accepts,
    # each with JobConfig's default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (none|`[^`]*`) \|", readme, flags=re.MULTILINE)
    keys = [key for key, _ in rows]
    assert sorted(keys) == sorted(cli._PARSERS)
    assert len(keys) == len(set(keys))
    defaults = JobConfig()
    for key, default in rows:
        field = "coeffs" if key == "coeff" else key
        want = getattr(defaults, field)
        if default == "none":
            assert not want, key
        else:
            assert cli._PARSERS[key](default.strip("`")) == want, key


def test_readme_lists_every_option_of_each_subcommand(capsys):
    # each "- `halleydyn <command> ...`" usage line of the README names
    # exactly the options of that subcommand's --help usage
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^- `halleydyn (\w+)([^`]*)`", readme, flags=re.MULTILINE)
    assert sorted(command for command, _ in lines) == [
        "analyze", "cycles", "paperlab", "profile", "render"]
    for command, usage in lines:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = set(re.findall(r"--[\w-]+", capsys.readouterr().out.split("\n\n")[0]))
        assert set(re.findall(r"--[\w-]+", usage)) == options, command


def test_parse_config_complex_coeff_and_defaults():
    cfg = parse_config("coeff = 1, -2\ncoeff = 3\n")
    assert cfg.coeffs == [1 - 2j, 3 + 0j]
    assert cfg.window is None
    assert cfg.res == (400, 400)
    assert isinstance(cfg, JobConfig)


def test_parse_config_rejections():
    with pytest.raises(ConfigError):
        parse_config("bogus_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("coeff = not-a-number\n")
    with pytest.raises(ConfigError):
        parse_config("window = 0,0,2\n")
    with pytest.raises(ConfigError):
        parse_config("window = 0,0,-1,1\n")
    with pytest.raises(ConfigError):
        parse_config("res = 1\n")
    with pytest.raises(ConfigError):
        parse_config("samples = 1\n")
    with pytest.raises(ConfigError):
        parse_config("max_iter = 0\n")
    with pytest.raises(ConfigError):
        parse_config("no equals sign here\n")


def test_build_polynomial_guards():
    with pytest.raises(ConfigError):
        build_polynomial(JobConfig(coeffs=[1 + 0j]))
    # high-order zeros trim away to a constant
    with pytest.raises(ConfigError):
        build_polynomial(JobConfig(coeffs=[1 + 0j, 0j, 0j]))


def test_build_map_methods():
    from halleydyn.polycore import Polynomial

    p = Polynomial.make((0.0, -1.0, 0.0, 1.0))
    h = build_map(p, "halley")
    k3 = build_map(p, "konig(3)")
    assert np.allclose(h.num.coeffs, k3.num.coeffs)
    newton = build_map(p, "konig(2)")
    assert newton.degree >= 2
    cheb = build_map(p, "chebyshev(0.5)")
    for z in (0.4 + 0.3j, 2.0, -1.7):
        assert abs(cheb(complex(z)) - h(complex(z))) <= 1e-9
    with pytest.raises(ConfigError):
        build_map(p, "konig(1)")
    with pytest.raises(ConfigError):
        build_map(p, "secant")


def test_render_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG)
    img1 = tmp_path / "a.ppm"
    rc = main(["render", "--config", str(cfg_path), "--out", str(img1)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# render summary\n")
    assert "seed,3\n" in out
    assert "[fixed_points]" in out
    assert "[extraneous]" in out
    assert "[free_critical_fates]" in out
    assert "[components]" in out

    width, height, pixels = read_image(str(img1))
    assert (width, height) == (60, 60)
    assert pixels.shape == (60, 60, 3)

    # rerunning the identical job must reproduce the image byte for byte
    img2 = tmp_path / "b.ppm"
    rc = main(["render", "--config", str(cfg_path), "--out", str(img2)])
    capsys.readouterr()
    assert rc == 0
    assert img1.read_bytes()[15:] == img2.read_bytes()[15:]


def test_render_summary_is_machine_parseable(tmp_path, capsys):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG)
    rc = main(["render", "--config", str(cfg_path),
               "--out", str(tmp_path / "x.ppm")])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    start = lines.index("[fixed_points]") + 2  # skip the header row
    parsed = 0
    for line in lines[start:]:
        if line.startswith("["):
            break
        loc, mult, klass, origin = line.split(",")
        if loc != "inf":
            complex(loc)  # must not raise
        complex(mult)
        assert klass in {"superattracting", "attracting", "repelling",
                         "rationally_indifferent", "irrationally_indifferent"}
        assert origin in {"root", "critical", "infinity", "other"}
        parsed += 1
    assert parsed == 6  # three roots, two extraneous points, infinity


def test_render_draws_cycle_basins_in_the_cycle_colour(tmp_path, capsys):
    # z^3 + 6z + b at the real cycle parameter: one free critical orbit
    # falls into the superattracting two-cycle through 1, and the render
    # hands that cycle to the grid, so its basin is drawn, not left black
    cfg_path = tmp_path / "cycle.cfg"
    cfg_path.write_text("coeff = 62.5144396\ncoeff = 6\ncoeff = 0\ncoeff = 1\n"
                        "window = 1, 0, 0.2, 0.2\nres = 48\nshading = 1\n")
    img = tmp_path / "cycle.ppm"
    rc = main(["render", "--config", str(cfg_path), "--out", str(img)])
    out = capsys.readouterr().out
    assert rc == 0
    assert ",cycle,period-2\n" in out
    _, _, pixels = read_image(str(img))
    cycle_color = np.array(CYCLE_COLOR, dtype=np.uint8)
    assert not (pixels == 0).all(axis=2).any()
    # the four pixels with a corner at z = 1
    assert (pixels[23:25, 23:25] == cycle_color).all()


@pytest.mark.parametrize("coeffs, center", [
    ((0, -1, 0, 0, 0, 0, 0, 0, 1), (0.0025, 0.0075)),   # z^8 - z, off-dyadic centre
    ((0, -1, 0, 1), (0, 0)),                             # z^3 - z: every component
])                                                       # reaches the border
def test_components_match_boundedness_evidence_on_the_image_lattice(
        tmp_path, capsys, coeffs, center):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text("".join(f"coeff = {c}\n" for c in coeffs)
                        + f"window = {center[0]}, {center[1]}, 2, 2\nres = 64\n"
                          "max_iter = 80\n")
    rc = main(["render", "--config", str(cfg_path), "--out", str(tmp_path / "c.ppm")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    rows = lines[lines.index("[components]") + 2:]
    R = halley_of(Polynomial.make(coeffs))
    roots = [c.location for c in R.source.roots]
    assert len(rows) == len(roots)
    grid = classify_grid(R, roots, Window(complex(*center), 2.0, 2.0), 64, max_iter=80)
    for row, r in zip(rows, cli._by_location(roots, complex)):
        rep = boundedness_evidence(R, roots, grid, r)
        assert row == f"{cli._fmt(r)},{str(rep.touches[0]).lower()},{rep.verdict}"
    assert any(row.endswith(",false,bounded-evidence") for row in rows) == (len(coeffs) == 9)


def test_render_does_not_depend_on_config_seed(tmp_path, capsys):
    # render-cycle's polynomial and window: the roots 1.734 +- 3.876j are a
    # conjugate pair whose order, and so whose colours, once followed the
    # root finder's seeded start
    img = tmp_path / "cycle.ppm"
    runs = []
    for seed in (0, 3):
        cfg_path = tmp_path / f"seed{seed}.cfg"
        cfg_path.write_text("coeff = 62.5144396\ncoeff = 6\ncoeff = 0\ncoeff = 1\n"
                            f"window = 1, 0, 0.2, 0.2\nres = 48\nseed = {seed}\n")
        rc = main(["render", "--config", str(cfg_path), "--out", str(img)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"seed,{seed}\n" in out
        runs.append((img.read_bytes(),
                     [line for line in out.splitlines() if not line.startswith("seed,")]))
    assert runs[0] == runs[1]


def _fixed_point_rows(out):
    lines = out.splitlines()
    start = lines.index("[fixed_points]") + 2  # skip the header row
    end = lines.index("[extraneous]")
    return [line.split(",") for line in lines[start:end]]


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize("method", ["konig(4)", "chebyshev(0)"])
def test_non_halley_methods_are_classified(tmp_path, capsys, command, method):
    # measured classes and origins, without the Halley multiplier cross-check
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG.replace("method = halley", f"method = {method}")
                        .replace("res = 60x60", "res = 24x24"))
    out_flag = ["--out", str(tmp_path / "m.ppm")] if command == "render" else []
    rc = main([command, "--config", str(cfg_path)] + out_flag)
    out = capsys.readouterr().out
    assert rc == 0
    degree = int(next(line for line in out.splitlines()
                      if line.startswith("degree,")).split(",")[1])
    rows = _fixed_point_rows(out)
    assert len(rows) == degree + 1
    assert {row[3] for row in rows} >= {"root", "infinity"}


def test_conjugate_pairs_print_in_one_order(monkeypatch):
    # render-cycle's cubic: its roots 1.734 +- 3.876j are a conjugate pair.
    # Whichever of them carries the larger real part by one unit in the
    # last place, and so comes first in find_roots' exact (real, imag)
    # order, the rows come out the same.
    p = Polynomial.make([62.5144396, 6, 0, 1])
    R = halley_of(p)
    records = cli.classify_fixed_points(p, R)

    def noisy(upper_first):
        out = []
        for r in records:
            z = r.location
            if not is_infinity(z) and z.real > 1:
                toward = -np.inf if (z.imag > 0) == upper_first else np.inf
                z = complex(np.nextafter(z.real, toward), z.imag)
            out.append(replace(r, location=z))
        return sorted(out, key=lambda r: (1, 0.0, 0.0) if is_infinity(r.location)
                      else (0, r.location.real, r.location.imag))

    csv = []
    for upper_first in (True, False):
        recs = noisy(upper_first)
        assert (recs[3].location.imag > 0) == upper_first
        monkeypatch.setattr(cli, "classify_fixed_points", lambda p, R, recs=recs: recs)
        out = io.StringIO()
        cli._summary_fixed_points(p, R, out)
        csv.append(out.getvalue())
    assert csv[0] == csv[1]
    assert csv[0].index("\n1.733961031-3.8755") < csv[0].index("\n1.733961031+3.8755")
    # points of several magnitudes, with noise about the real axis
    points = [INF, 1 - 1e-31j, 0.743, -1e-17 + 0.5j, -0.669 + 0.322j, 1e-17 - 0.5j,
              -0.901 - 0.434j]
    assert cli._by_location(points, lambda z: z) == [
        -0.901 - 0.434j, -0.669 + 0.322j, 1e-17 - 0.5j, -1e-17 + 0.5j, 0.743, 1 - 1e-31j, INF]


@pytest.mark.parametrize("z, text", [
    (1 - 9.860761315e-32j, "1"),                          # render-sparse's root 1
    (-3.467922062 - 2.242077543e-44j, "-3.467922062"),    # render-cycle's real root
    (3 + 1.01e-15j, "3"),
    (complex(-0.0, -1.414213562), "0-1.414213562j"),
    (complex(-1e-17, 0.5), "0+0.5j"),
    (-0.0, "0"),
    (1 + 4.9e-10j, "1"),                                  # below half a unit of 1e-9
    (1 + 5.1e-10j, "1+5.1e-10j"),                         # above it, in .10g form
    (-2.25 + 1e-3j, "-2.25+0.001j"),
    (1.5e-20 - 2e-30j, "1.5e-20"),
])
def test_fmt_prints_parts_below_the_tenth_digit_of_the_modulus_as_zero(z, text):
    assert cli._fmt(z) == text


def test_render_passes_each_cycle_once(tmp_path, capsys, monkeypatch):
    # two free critical orbits of this quintic's Halley map reach one
    # attracting 3-cycle, at different points of it
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["cycles"])
        return classify_grid(*args, **kwargs)

    monkeypatch.setattr(cli, "classify_grid", spy)
    cfg_path = tmp_path / "quintic.cfg"
    cfg_path.write_text("".join(f"coeff = {c}\n" for c in
                                (-1.94, 3.26, -1.74, 0.72, -1.73, 1))
                        + "window = 0, 0, 0.05, 0.05\nres = 16\n")
    rc = main(["render", "--config", str(cfg_path), "--out", str(tmp_path / "q.ppm")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count(",cycle,period-3\n") == 2
    assert len(seen) == 1 and len(seen[0]) == 1 and len(seen[0][0]) == 3


def test_render_requires_out(tmp_path, capsys):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG)
    rc = main(["render", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:")


def test_unknown_key_exits_two(tmp_path, capsys):
    # capture_radius is no key: the radius is the constant dynamics.CAPTURE_RADIUS;
    # nor is out: --out alone names the output
    cfg_path = tmp_path / "bad.cfg"
    for key in ["bogus", "capture_radius", "out"]:
        cfg_path.write_text(CUBIC_CFG + f"{key} = 1\n")
        rc = main(["analyze", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"unknown key {key!r}" in err


@pytest.mark.parametrize("command, flag, value", [
    ("render", "--window", "0,0,1,1"),
    ("render", "--res", "8"),
    ("render", "--max-iter", "10"),
    ("profile", "--window", "0,0,1,1"),
    ("analyze", "--out", "x.ppm"),
])
def test_flags_the_config_owns_exit_two(tmp_path, capsys, command, flag, value):
    # the job comes from the config alone; analyze writes no file
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG)
    out = ["--out", str(tmp_path / "x.out")] if command != "analyze" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path)] + out + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


OUT = ["--out", "x.out"]


@pytest.mark.parametrize("command, lines, flags", [
    ("render", "shading = 2\n", OUT),
    ("render", "shading = nan\n", OUT),
    ("render", "window = 0, 0, nan, 1\n", OUT),
    ("render", "window = 0, 0, inf, 1\n", OUT),
    ("render", "window = nan, 0, 1, 1\n", OUT),
    ("render", "window = 0, 0, 1, 0\n", OUT),
    # removed keys: these now fail as unknown keys, not by a range check
    ("render", "capture_radius = nan\n", OUT),
    ("render", "capture_radius = inf\n", OUT),
    ("profile", "x_min = 1\nx_max = 0\n", OUT),
    ("profile", "x_max = nan\n", OUT),
    ("profile", "x_min = -inf\n", OUT),
    ("analyze", "coeff = nan\n", []),
    ("render", "max_iter = 3000000000\n", OUT),
])
def test_out_of_range_values_exit_two(tmp_path, capsys, monkeypatch, command, lines, flags):
    # flags: the arguments after --config, where x.out lands in tmp_path
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(CUBIC_CFG + lines)
    rc = main([command, "--config", str(cfg_path)] + flags)
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("window, res, ok", [
    # pitch 3.1e-17 under ulp(0.5) = 1.1e-16: 28 distinct centres in 64 columns
    ("0.5, 0, 1e-15, 1e-15", "64x64", False),
    ("0, 0.5, 1e-15, 1e-15", "64x64", False),
    ("1, 0, 1e-15, 0.5", "64x64", False),  # the narrower axis decides
    ("1, 0, 1e-12, 1e-12", "64x64", True),  # pitch 3.1e-14, 141 ulps of 1
    ("0, 0, 1e-300, 1e-300", "64x64", True),  # doubles are dense about 0
])
def test_window_below_float_resolution_exits_two(tmp_path, capsys, window, res, ok):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(CUBIC_CFG + f"window = {window}\nres = {res}\n")
    if ok:
        assert parse_config(cfg_path.read_text()).window is not None
        return
    rc = main(["render", "--config", str(cfg_path), "--out", str(tmp_path / "x.ppm")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: window too small for res 64x64")
    assert not (tmp_path / "x.ppm").exists()


def test_degenerate_map_exits_three(tmp_path, capsys):
    cfg_path = tmp_path / "degen.cfg"
    cfg_path.write_text("coeff = 1\ncoeff = 2\ncoeff = 1\n")  # (z+1)**2
    rc = main(["analyze", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numeric failure: DegenerateMap")
    # Koenig's derivative tower overflows double precision at high order
    cfg_path.write_text("coeff = 0\ncoeff = -1\ncoeff = 0\ncoeff = 1\nmethod = konig(140)\n")
    rc = main(["analyze", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numeric failure: DegenerateMap") and "overflow" in err


Z2_MINUS_1 = "coeff = -1\ncoeff = 0\ncoeff = 1\nres = 24x24\nmax_iter = 50\nsamples = 21\n"


@pytest.mark.parametrize("command", ["render", "analyze", "profile"])
@pytest.mark.parametrize("text", [
    "coeff = 0, 1\ncoeff = 0\ncoeff = 1\nres = 24x24\nmax_iter = 50\n",  # z^2 + i
    Z2_MINUS_1 + "method = chebyshev(0.5, 0.25)\n",
    Z2_MINUS_1 + "method = chebyshev(1e300)\n",
    Z2_MINUS_1 + "method = konig(60)\n",
    Z2_MINUS_1 + "window = 0.5, 0, 1e-15, 1e-15\nres = 64x64\n",  # pitch below an ulp
    # z^3 - 1 scaled by 1e-80: Koenig's critical polynomial loses its top
    # coefficients to rounding
    "coeff = -1e-80\ncoeff = 0\ncoeff = 0\ncoeff = 1e-80\nres = 24x24\nmethod = konig(4)\n",
], ids=["complex-coeff", "complex-sigma", "sigma-1e300", "konig-60", "sub-ulp-window",
        "scaled-1e-80"])
@pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
def test_every_outcome_is_an_exit_code(tmp_path, capsys, command, text):
    # a result, a config error or a numeric failure, with at most one line
    # on stderr: never an uncaught exception
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(text)
    out = [] if command == "analyze" else ["--out", str(tmp_path / "out")]
    rc = main([command, "--config", str(cfg_path)] + out)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3)
    assert len(err.splitlines()) == (rc != 0)
    assert err.startswith({0: "", 2: "config error:", 3: "numeric failure:"}[rc])


@pytest.mark.parametrize("coeffs, method", [
    ("coeff = 0, 1\ncoeff = 0\ncoeff = 1\n", "halley"),
    ("coeff = -1\ncoeff = 0\ncoeff = 1\n", "chebyshev(0, 1)"),
])
def test_profile_of_a_non_real_map_is_a_config_error(tmp_path, capsys, coeffs, method):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(coeffs + f"method = {method}\n")
    assert main(["profile", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: profile needs a real map")


def test_render_with_an_overflowing_sigma_is_a_numeric_failure(tmp_path, capsys):
    # the derivative numerator overflows to the zero polynomial
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(Z2_MINUS_1 + "method = chebyshev(1e300)\n")
    assert main(["render", "--config", str(cfg_path), "--out", str(tmp_path / "x.ppm")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: DegenerateMap: derivative numerator")


@pytest.mark.parametrize("scale", ["1e200", "1e-200", "1e-90", "1e-100", "1e-155", "1e-160"])
def test_map_coefficients_out_of_range_exit_three(tmp_path, capsys, scale):
    # z^3 - 1 scaled so far that the map's products overflow or underflow;
    # at 1e-90 and 1e-100 the multiplier's dv * dv underflows; from 1e-155
    # the map has subnormal coefficients (6e-310 and below), which once
    # scaled num - z*den to non-finite ones: each is a result or a numeric
    # failure, never an uncaught exception (exit 1)
    cfg_path = tmp_path / "scaled.cfg"
    cfg_path.write_text(f"coeff = -{scale}\ncoeff = 0\ncoeff = 0\ncoeff = {scale}\n")
    rc = main(["analyze", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    if abs(math.log10(float(scale))) < 150:
        assert rc in (0, 3)
        return
    assert rc == 3
    assert err.startswith("numeric failure: DegenerateMap")
    assert ("overflow" if float(scale) > 1 else "underflow") in err


def test_analyze_reports_symmetry(tmp_path, capsys):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG)
    rc = main(["analyze", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[symmetry]" in out
    assert "map_rotation_order,2" in out
    assert "polynomial_order,2" in out
    assert "equality,true" in out


def test_cycles_table(capsys):
    rc = main(["cycles"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "factor_check,PASS" in out
    assert "[candidates]" in out
    assert "62.5144396" in out
    data = [l for l in out.splitlines()
            if l and not l.startswith(("#", "[", "b,", "factor"))]
    assert len(data) == 5
    for line in data:
        b, xi, residual, mult = line.split(",")
        complex(b), complex(xi)
        assert float(residual) <= 1e-8
        assert float(mult) <= 1e-6


def test_profile_marks_pole(tmp_path, capsys):
    cfg_path = tmp_path / "octic.cfg"
    cfg_path.write_text(OCTIC_CFG)
    rc = main(["profile", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,Hx,Hx_minus_x,pole_flag"
    pole_rows = [l for l in lines[1:] if l.endswith(",1")]
    assert len(pole_rows) == 1
    x = float(pole_rows[0].split(",")[0])
    assert abs(x - (-0.7741685699586097)) <= 1e-9
    # pole rows carry empty value fields
    assert pole_rows[0].split(",")[1] == ""


def test_profile_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "octic.cfg"
    cfg_path.write_text(OCTIC_CFG)
    out_path = tmp_path / "profile.csv"
    rc = main(["profile", "--config", str(cfg_path), "--out", str(out_path)])
    msg = capsys.readouterr().out
    assert rc == 0
    assert str(out_path) in msg
    header = out_path.read_text().splitlines()[0]
    assert header == "x,Hx,Hx_minus_x,pole_flag"
    # one writer: stdout carries the very bytes --out writes
    assert main(["profile", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.encode() == out_path.read_bytes()


@pytest.mark.parametrize("command", ["render", "profile"])
def test_out_in_a_missing_directory_is_an_io_failure(tmp_path, capsys, command):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CUBIC_CFG if command == "render" else OCTIC_CFG)
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "no" / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric failure: IOFailure")


def test_paperlab_single_criterion(capsys, monkeypatch):
    # stand-in criteria: test_acceptance runs the real experiments
    from halleydyn import acceptance

    seeds = []

    def passing(seed):
        seeds.append(seed)
        return True, "fine"

    def failing(seed):
        return False, "gate missed"

    monkeypatch.setattr(acceptance, "CRITERIA", [("E2", failing), ("E3", passing)])
    rc = main(["paperlab", "--only", "E3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "E3: PASS - fine\nall 1 criteria passed\n"
    rc = main(["paperlab", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out == "E2: FAIL - gate missed\nE3: PASS - fine\nfailed: E2\n"
    assert seeds == [0, 2]

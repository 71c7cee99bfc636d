"""eval_sphere on arrays against a 50-digit mpmath oracle.

The oracle evaluates num(z) / den(z) from the same double coefficients
at 50 significant digits, so the comparison measures only the rounding
of the double-precision evaluator (and its 1/z chart for huge |z|),
also on maps of degree up to 127, where Horner in z overflows well
below 1e8.
"""

import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from halleydyn.dynamics import DEFAULT_MAX_ITER, orbit_outcomes
from halleydyn.errors import Indeterminate
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import (INF, RationalMap, eval_sphere, fixed_points, halley_of,
                              is_infinity, konig_of, poles)

mpmath.mp.dps = 50

MAPS = {
    "halley-quadratic": halley_of(Polynomial.make([-1, 0, 1])),
    "halley-sparse-octic": halley_of(Polynomial.make([0, -1, 0, 0, 0, 0, 0, 0, 1])),
    "halley-complex-quartic": halley_of(Polynomial.make([1 + 2j, -0.5, 0.3j, 0.7, 1])),
    # deg num < deg den: Newton's map for z^3 - 1 conjugated by 1/z
    "low-numerator": RationalMap(Polynomial.make([0, 3]),
                                 Polynomial.make([2, 0, 0, 1])),
    # deg num == deg den
    "equal-degrees": RationalMap(Polynomial.make([1, -2j, 0.5]),
                                 Polynomial.make([-3, 1, 2])),
}


def oracle(R, z: complex) -> complex:
    zm = mpmath.mpc(z.real, z.imag)
    num = mpmath.polyval([mpmath.mpc(c.real, c.imag) for c in reversed(R.num.coeffs)], zm)
    den = mpmath.polyval([mpmath.mpc(c.real, c.imag) for c in reversed(R.den.coeffs)], zm)
    return complex(num / den)


def sample_points(rng, count, log10_min, log10_max):
    radius = 10.0 ** rng.uniform(log10_min, log10_max, count)
    return radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("where,lo,hi", [("disk", -2.0, math.log10(3.0)),
                                         ("beyond-handoff", 8.0, 60.0)])
def test_array_matches_mpmath(name, where, lo, hi):
    R = MAPS[name]
    zs = sample_points(np.random.default_rng(11), 200, lo, hi)
    got = eval_sphere(R, zs)
    want = np.array([oracle(R, complex(z)) for z in zs])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _sparse_value(coeffs, zm):
    """sum_k c_k zm**k over the nonzero double coefficients, at mpmath's
    precision: the high-degree maps below have few nonzero terms."""
    return mpmath.fsum(mpmath.mpc(c.real, c.imag) * zm ** k for k, c in enumerate(coeffs) if c)


def _high_degree_map(family: str, n: int):
    coeffs = [0.0] * (n + 1)
    coeffs[n] = 1.0
    coeffs[1 if family == "halley-z^n-z" else 0] = -1.0
    p = Polynomial.make(coeffs)
    return konig_of(p, 2) if family == "newton-z^n-1" else halley_of(p)


# |z| from 1 to 1e8 every half decade, where Horner in z overflows from
# degree 39 on, then on to 1e300
RAY_RADII = 10.0 ** np.concatenate([np.arange(0, 9, 0.5), np.arange(20, 301, 40)])
# points where the evaluator once gave INF or raised Indeterminate
ONCE_WRONG = {("halley-z^n-z", 20): [1e8], ("halley-z^n-z", 24): [5.6e6],
              ("halley-z^n-z", 32): [1e5], ("halley-z^n-z", 64): [1000 + 1000j]}


@pytest.mark.parametrize("family", ["halley-z^n-z", "halley-z^n-1", "newton-z^n-1"])
def test_high_degree_maps_match_mpmath(family):
    # Halley of z^n - z and z^n - 1 and Newton (konig(2)) of z^n - 1, on
    # rays and beside the closed-form poles: Halley's of z^n - 1 solve
    # z^n = -(n - 1) / (n + 1), and Newton's is 0.  Measured largest
    # relative errors: 3.1e-15 on the rays and 5.7e-11 beside the poles,
    # where the offset 1e-6 amplifies the rounding of den.  A value beyond
    # double range must come back as INF.
    rays = (np.exp(1j * np.array([0.1, 2.0, 4.5]))[:, None] * RAY_RADII).ravel()
    for n in (5, 20, 24, 32, 40, 48, 64):
        R = _high_degree_map(family, n)
        if family == "halley-z^n-1":
            angles = np.pi * (2 * np.arange(n) + 1) / n
            pole_points = ((n - 1) / (n + 1)) ** (1 / n) * np.exp(1j * angles)
        else:
            pole_points = np.array([0j] if family == "newton-z^n-1" else [])
        beside = pole_points + np.maximum(1.0, np.abs(pole_points)) * 1e-6 * np.exp(0.7j)
        on_rays = np.concatenate([rays, ONCE_WRONG.get((family, n), [])])
        for zs, bound in ((on_rays, 1e-14), (beside, 1e-9)):
            got = eval_sphere(R, zs)
            zms = [mpmath.mpc(z.real, z.imag) for z in zs.tolist()]
            want = np.array([complex(_sparse_value(R.num.coeffs, zm)
                                     / _sparse_value(R.den.coeffs, zm)) for zm in zms])
            finite = np.isfinite(want)
            assert (got[~finite] == INF).all()
            assert np.all(np.abs(got[finite] - want[finite]) <= bound * np.abs(want[finite])), n


@pytest.mark.parametrize("name", sorted(MAPS))
def test_array_equals_scalar_calls(name):
    R = MAPS[name]
    rng = np.random.default_rng(5)
    zs = np.concatenate([sample_points(rng, 60, -2.0, 1.0),
                         sample_points(rng, 20, 7.5, 9.0),
                         [np.inf, complex(np.nan, 0.0)]])
    got = eval_sphere(R, zs)
    for z, v in zip(zs, got):
        w = eval_sphere(R, complex(z))
        if is_infinity(w):
            assert np.isinf(v)
        else:
            assert v == w


def test_poles_map_to_infinity():
    # (z + 1) / (z^2 - 4): den vanishes exactly at +-2 in floating point
    R = RationalMap(Polynomial.make([1, 1]), Polynomial.make([-4, 0, 1]))
    got = eval_sphere(R, np.array([2.0, -2.0, 0.5]))
    assert np.isinf(got[0]) and np.isinf(got[1])
    assert got[2] == pytest.approx(1.5 / -3.75)
    # the quadratic's map z(z^2+3) / (3z^2+1): i/sqrt(3) rounds off the pole,
    # but den stays inside its rounding envelope there
    h = MAPS["halley-quadratic"]
    pole = 1j / math.sqrt(3.0)
    got = eval_sphere(h, np.array([pole, -pole, 1.0]))
    assert np.isinf(got[0]) and np.isinf(got[1]) and np.isfinite(got[2])


@pytest.mark.parametrize("name,at_infinity", [
    pytest.param("halley-quadratic", INF,  # deg num > deg den
                 id="halley-quadratic-at_infinity0"),
    ("low-numerator", 0j),              # deg num < deg den
    ("equal-degrees", 0.25 + 0j),       # lead ratio 0.5 / 2
])
def test_value_at_infinity(name, at_infinity):
    R = MAPS[name]
    assert eval_sphere(R, INF) == at_infinity
    got = eval_sphere(R, np.array([np.inf, complex(np.inf, -np.inf), complex(np.nan, 1.0)]))
    if is_infinity(at_infinity):
        assert np.all(np.isinf(got))
    else:
        assert np.all(got == at_infinity)


def _load(name: str, path: Path, monkeypatch):
    """The file at path imported as module name, in sys.modules for one test."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entered", [INF, complex(math.inf, 5.0), complex(math.nan, 0.0)])
def test_infinity_is_one_value(entered, monkeypatch):
    # every way the package hands back the point at infinity gives the one
    # value INF, a plain complex, whatever non-finite value was entered
    quartic = Polynomial.make([1 + 2j, -0.5, 0.3j, 0.7, 1])
    R = halley_of(quartic)
    q = poles(R)[0].location
    roots = [c.location for c in find_roots(quartic)]
    fate, = orbit_outcomes(R, [entered], roots, DEFAULT_MAX_ITER)
    assert fate.kind == "undecided"
    points = [eval_sphere(R, q), complex(eval_sphere(R, np.array([q, 0.3]))[0]),
              fixed_points(R)[-1], fate.last, eval_sphere(R, entered)]
    # the benchmark's reader of fixed-point and fate records, which this
    # suite must not edit: it writes infinity as None
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    _load("common", perfbench / "common.py", monkeypatch)
    workloads = _load("perfbench_workloads", perfbench / "workloads.py", monkeypatch)
    for z in points:
        assert z == INF and is_infinity(z) and type(z) is complex
        assert workloads._cplx(z) is None


def test_unreduced_map_raises_on_arrays():
    shared = Polynomial.make([-1, 1])  # z - 1
    r = RationalMap(Polynomial.make([0, 1]) * shared, shared)
    with pytest.raises(Indeterminate):
        eval_sphere(r, np.array([0.5, 1.0, 2.0]))
    assert eval_sphere(r, np.array([0.5, 2.0])) == pytest.approx([0.5, 2.0])

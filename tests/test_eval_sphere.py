"""eval_sphere on arrays against a 50-digit mpmath oracle.

The oracle evaluates num(z) / den(z) from the same double coefficients
at 50 significant digits, so the comparison measures only the rounding
of the double-precision evaluator (and its 1/z chart for huge |z|).
"""

import math

import mpmath
import numpy as np
import pytest

from halleydyn.errors import Indeterminate
from halleydyn.polycore import Polynomial
from halleydyn.ratmap import INF, RationalMap, eval_sphere, halley_of, is_infinity

mpmath.mp.dps = 50

MAPS = {
    "halley-quadratic": halley_of(Polynomial.make([-1, 0, 1])),
    "halley-sparse-octic": halley_of(Polynomial.make([0, -1, 0, 0, 0, 0, 0, 0, 1])),
    "halley-complex-quartic": halley_of(Polynomial.make([1 + 2j, -0.5, 0.3j, 0.7, 1])),
    # deg num < deg den: Newton's map for z^3 - 1 conjugated by 1/z
    "low-numerator": RationalMap(Polynomial.make([0, 3]),
                                 Polynomial.make([2, 0, 0, 1]), reduced=True),
    # deg num == deg den
    "equal-degrees": RationalMap(Polynomial.make([1, -2j, 0.5]),
                                 Polynomial.make([-3, 1, 2]), reduced=True),
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
    R = RationalMap(Polynomial.make([1, 1]), Polynomial.make([-4, 0, 1]), reduced=True)
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
    ("halley-quadratic", INF),          # deg num > deg den
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


def test_unreduced_map_raises_on_arrays():
    shared = Polynomial.make([-1, 1])  # z - 1
    r = RationalMap(Polynomial.make([0, 1]) * shared, shared, reduced=False)
    with pytest.raises(Indeterminate):
        eval_sphere(r, np.array([0.5, 1.0, 2.0]))
    assert eval_sphere(r, np.array([0.5, 2.0])) == pytest.approx([0.5, 2.0])

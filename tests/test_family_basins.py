"""Every advertised map family decides the pixels around its roots.

Over the box of a polynomial's roots, at most UNDECIDED_BOUND of a 48^2
grid may stay undecided after 200 steps.  Halley's map meets the bound on
these polynomials.  The Koenig and Chebyshev-Halley maps built as reduced
num/den do not: their rounded coefficients move each attracting fixed
point off p's root by more than the capture radius, and from konig(5) on
they do not even fix the roots, so orbits that converge are never
captured.  Root-form steps, which iterate each family from the sums
sum_i k_i / (z - r_i)^j over p's roots, are the remedy these gates await.

Nor may a free critical orbit that converges to a root be reported as a
period-1 cycle there: such a point matches the root (polycore's
CLUSTER_RADIUS), so its orbit is an undecided converging tail.
"""

import numpy as np
import pytest

from halleydyn.dynamics import UNDECIDED, Window, classify_grid, free_critical_fates
from halleydyn.polycore import CLUSTER_RADIUS, Polynomial
from halleydyn.ratmap import chebyshev_halley_of, halley_of, konig_of

UNDECIDED_BOUND = 0.01

# (re, im, multiplicity) rows: entries 17, 28 and 11 of the benchmark's
# seeded corpus, on which the reduced Koenig and Chebyshev-Halley maps
# leave the most pixels undecided
ROOTS = {
    17: [(1.354, 0.532, 3), (0.402, 1.404, 1), (1.123, 0.987, 3), (-0.481, -0.775, 1)],
    28: [(-0.149, -0.821, 2), (-1.154, -0.64, 2), (-0.675, -0.329, 3)],
    11: [(-0.313, -0.697, 2), (-0.821, -1.072, 1), (-0.556, 1.438, 2),
         (0.264, -1.154, 2), (0.142, -0.459, 1)],
}
# entry 29 of the same corpus, whose konig(4) map once reported a period-1
# cycle at a root
ROOT_29 = [(1.308, 0.372, 1), (0.614, -0.161, 3), (-1.15, -1.434, 2), (1.193, 1.116, 1),
           (0.438, 0.863, 1)]
BUILDERS = {
    "halley": halley_of,
    "konig(4)": lambda p: konig_of(p, 4),
    "chebyshev(0)": lambda p: chebyshev_halley_of(p, 0),
    "chebyshev(1)": lambda p: chebyshev_halley_of(p, 1),
}


def _polynomial(rows) -> Polynomial:
    """The monic polynomial with the (re, im, multiplicity) rows as roots."""
    return Polynomial.from_roots([complex(re, im) for re, im, m in rows for _ in range(m)])


def _undecided_share(entry: int, build) -> float:
    """Undecided share of the 48^2 grid of build(p) over the roots' box:
    centred at the midpoint of their bounding box, with half-extents
    0.75 times their spread plus 0.1."""
    zs = np.array([complex(re, im) for re, im, _ in ROOTS[entry]])
    p = _polynomial(ROOTS[entry])
    re, im = zs.real, zs.imag
    window = Window(complex((re.min() + re.max()) / 2, (im.min() + im.max()) / 2),
                    0.75 * np.ptp(re) + 0.1, 0.75 * np.ptp(im) + 0.1)
    grid = classify_grid(build(p), [c.location for c in p.roots], window, 48, max_iter=200)
    return float(np.mean(grid.labels == UNDECIDED))


@pytest.mark.parametrize("entry", sorted(ROOTS))
def test_halley_decides_the_roots_box(entry):
    assert _undecided_share(entry, halley_of) <= UNDECIDED_BOUND


# undecided share of each case before root-form steps: 100%, 100%,
# 93.1%, 100% and 55.8%
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2 and FOUND 20: the reduced Koenig and "
                   "Chebyshev-Halley maps miss their own roots")
@pytest.mark.parametrize("entry, family, arg", [
    (17, "konig", 4), (17, "konig", 5), (17, "chebyshev", 0), (28, "konig", 6),
    (11, "chebyshev", 0),
])
def test_family_decides_the_roots_box(entry, family, arg):
    build = {"konig": konig_of, "chebyshev": chebyshev_halley_of}[family]
    assert _undecided_share(entry, lambda p: build(p, arg)) <= UNDECIDED_BOUND


def _fates(entry: int, method: str):
    """(p, free_critical_fates of the method's map of p) for corpus entry
    11, 17 or 29."""
    p = _polynomial(ROOT_29 if entry == 29 else ROOTS[entry])
    return p, free_critical_fates(p, BUILDERS[method](p))


# before cycle points were matched to roots by polycore.matching_point,
# 7 of the 9 non-Halley maps reported such cycles, 1.2e-8 to 7.2e-7 from
# a root
@pytest.mark.parametrize("method", sorted(BUILDERS))
@pytest.mark.parametrize("entry", [11, 17, 29])
def test_no_free_critical_orbit_is_a_period_one_cycle_at_a_root(entry, method):
    p, fates = _fates(entry, method)
    assert not [f.cycle for f in fates if f.period == 1 and any(
        abs(f.cycle[0] - r.location) <= CLUSTER_RADIUS for r in p.roots)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: rounding moved the reduced maps' attracting "
                   "fixed points 1.4e-6 to 8.3e-6 off the triple roots")
@pytest.mark.parametrize("method", ["konig(4)", "chebyshev(1)"])
def test_entry_17_has_no_cycle_fate(method):
    _, fates = _fates(17, method)
    assert not [f.cycle for f in fates if f.kind == "cycle"]

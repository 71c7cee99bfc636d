"""Every advertised map family decides the pixels around its roots.

Over the box of a polynomial's roots, at most UNDECIDED_BOUND of a 48^2
grid may stay undecided after 200 steps.  Halley's map meets the bound on
these polynomials.  The Koenig and Chebyshev-Halley maps built as reduced
num/den do not: their rounded coefficients move each attracting fixed
point off p's root by more than the capture radius, and from konig(5) on
they do not even fix the roots, so orbits that converge are never
captured.  Root-form steps, which iterate each family from the sums
sum_i k_i / (z - r_i)^j over p's roots, are the remedy these gates await.
"""

import numpy as np
import pytest

from halleydyn.dynamics import UNDECIDED, Window, classify_grid
from halleydyn.polycore import Polynomial
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


def _undecided_share(entry: int, build) -> float:
    """Undecided share of the 48^2 grid of build(p) over the roots' box:
    centred at the midpoint of their bounding box, with half-extents
    0.75 times their spread plus 0.1."""
    zs = np.array([complex(re, im) for re, im, _ in ROOTS[entry]])
    p = Polynomial.from_roots([z for z, (_, _, m) in zip(zs, ROOTS[entry]) for _ in range(m)])
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

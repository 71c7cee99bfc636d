"""An exact check of basin-grid labels: sampled pixel centres iterated at
50 digits with mpmath.

Halley's step for p = prod_i (z - r_i)**k_i is z - 2 S1 / (S1**2 + S2),
with S_j = sum_i k_i / (z - r_i)**j, so near a multiple root it loses
nothing to the cancellation that p's expanded coefficients suffer.  A
sample is followed until it lies within ORACLE_RADIUS of a root, whose
label its pixel must carry.  The grids are the golden grids of the three
polynomials with multiple roots, (z^2 - 1)^2, (z^2 - 1)^3 and z^4 - z^2,
on the acceptance window at 120^2.  The samples are pixels labelled by a
multiple root, where orbits converge only linearly, and pixels with a
4-neighbour of another label.
"""

import mpmath
import numpy as np
import pytest

from halleydyn.dynamics import UNDECIDED, Window, classify_grid
from halleydyn.polycore import Polynomial
from halleydyn.ratmap import halley_of

ORACLE_DIGITS = 50
ORACLE_RADIUS = mpmath.mpf("1e-20")
ORACLE_MAX_STEPS = 1_000
SAMPLES = 40  # of each kind per grid: about 0.5 s per grid on a 2-core host

# (root, multiplicity) of each polynomial
CASES = {
    "e1-k2": [(1, 2), (-1, 2)],
    "e1-k3": [(1, 3), (-1, 3)],
    "e5-z4-z2": [(0, 2), (1, 1), (-1, 1)],
}


def _oracle_root(z0: complex, roots) -> int:
    """Index into roots (the (root, multiplicity) rows) of the root that
    Halley's orbit of z0 reaches at ORACLE_DIGITS digits."""
    with mpmath.workdps(ORACLE_DIGITS):
        z = mpmath.mpc(z0.real, z0.imag)
        for _ in range(ORACLE_MAX_STEPS):
            gaps = [z - r for r, _ in roots]
            near = min(range(len(roots)), key=lambda i: abs(gaps[i]))
            if abs(gaps[near]) < ORACLE_RADIUS:
                return near
            s1 = sum(k / g for g, (_, k) in zip(gaps, roots))
            s2 = sum(k / g ** 2 for g, (_, k) in zip(gaps, roots))
            z -= 2 * s1 / (s1 ** 2 + s2)
    raise AssertionError(f"no root within {ORACLE_MAX_STEPS} steps from {z0}")


def _boundary(labels: np.ndarray) -> np.ndarray:
    """Pixels with a 4-neighbour of another label."""
    out = np.zeros(labels.shape, dtype=bool)
    for axis in (0, 1):
        differs = np.diff(labels, axis=axis) != 0
        lo = [slice(None)] * 2
        hi = [slice(None)] * 2
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        out[tuple(lo)] |= differs
        out[tuple(hi)] |= differs
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_labels_match_the_50_digit_orbit(name):
    rows = CASES[name]
    p = Polynomial.from_roots([r for r, k in rows for _ in range(k)])
    roots = [c.location for c in p.roots]
    grid = classify_grid(halley_of(p), roots, Window(0j, 2.0, 2.0), 120)
    labels, centers = grid.labels, grid.pixel_centers()
    # the grid's label of each oracle root
    label_of = [min(range(len(roots)), key=lambda i: abs(roots[i] - r)) for r, _ in rows]
    multiple = [label_of[i] for i, (_, k) in enumerate(rows) if k > 1]
    rng = np.random.default_rng(0)
    kinds = {"multiple-root basin": np.isin(labels, multiple),
             "basin boundary": _boundary(labels) & (labels != UNDECIDED)}
    for kind, mask in kinds.items():
        pixels = np.flatnonzero(mask)
        assert pixels.size >= SAMPLES, kind
        for k in rng.choice(pixels, SAMPLES, replace=False).tolist():
            z0 = complex(centers.flat[k])
            assert labels.flat[k] == label_of[_oracle_root(z0, rows)], (kind, z0)

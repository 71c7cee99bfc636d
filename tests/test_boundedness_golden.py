"""Golden boundedness reports: areas, border flags and verdicts must not move.

Each probe starts from classify_grid of its first window at the case's
resolution.  Any change to how the seed component is found shows up here
as an exact float mismatch.
"""

import pytest

from halleydyn.dynamics import Window, boundedness_evidence, classify_grid
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import halley_of


def _z_zn(n):
    return Polynomial.make([0, -1] + [0] * (n - 1) + [1])


def _nested(center, half, scales):
    return [Window(center, s * half, s * half) for s in scales]


# name: (polynomial, windows, resolution, areas, touches, verdict); the
# windows are the first window and its 2x and 4x enlargements
CASES = {
    # E6: z(z^n - 1) over [-2,2]^2, [-4,4]^2, [-8,8]^2 at resolution 200
    "e6-n7": (_z_zn(7), _nested(0j, 2.0, (1, 2, 4)), 200,
              (1.3903999999999999, 1.3903999999999999, 1.3903999999999999),
              (False, False, False), "bounded-evidence"),
    "e6-n9": (_z_zn(9), _nested(0j, 2.0, (1, 2, 4)), 200,
              (1.524, 1.524, 1.524),
              (False, False, False), "bounded-evidence"),
    # z^8 - z on the render command's three windows at an off-dyadic centre
    "render-octic": (_z_zn(7), _nested(0.0025 + 0.0075j, 2.0, (1, 2, 4)), 128,
                     (1.3984375, 1.3984375, 1.3984375),
                     (False, False, False), "bounded-evidence"),
    # the central component of z^3 - z reaches the border of every window
    "cubic-odd": (Polynomial.make([0, -1, 0, 1]), _nested(0j, 2.0, (1, 2, 4)), 140,
                  (7.157551020408163, 23.22285714285714, 85.47591836734694),
                  (True, True, True), "unbounded-evidence"),
    # non-square windows on one lattice of pitch 3/101 x 2/101
    "non-square": (_z_zn(7),
                   [Window(0.1 + 0.05j, s * 1.5, s * 1.0) for s in (1, 2, 4)], 101,
                   (1.3904519164787768, 1.3904519164787768, 1.3904519164787768),
                   (False, False, False), "bounded-evidence"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundedness_report_matches_golden(name):
    p, windows, res, areas, touches, verdict = CASES[name]
    R = halley_of(p)
    roots = [c.location for c in find_roots(p)]
    grid = classify_grid(R, roots, windows[0], res)
    rep = boundedness_evidence(R, roots, grid, 0j)
    assert rep.areas == areas
    assert rep.touches == touches
    assert rep.verdict == verdict
    assert rep.windows == tuple(windows)

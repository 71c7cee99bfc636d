"""Golden hashes of basin grids: labels and iteration counts must not move.

The digests were recorded before the grid step was routed through the
shared sphere evaluator; any change to the per-pixel arithmetic, the
capture test or the treatment of poles and infinity shows up here.
"""

import cmath
import hashlib

import numpy as np
import pytest

from halleydyn.dynamics import Window, classify_grid
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import RationalMap, halley_of

# the real quintic parameter of z^3 + 6z + b with a superattracting
# two-cycle through 1; its partner (1 + 4b) / (b - 20) in closed form.
# The capture test asks for the same target on consecutive steps, which a
# two-cycle alternates, so the recorded grid leaves its basin undecided.
CYCLE_B = 62.5144396
CYCLE = (1.0 + 0j, complex((1.0 + 4.0 * CYCLE_B) / (CYCLE_B - 20.0)))


def _halley_case(coeffs):
    p = Polynomial.make(coeffs)
    return halley_of(p), [c.location for c in find_roots(p)]


def _inverted_newton():
    # Newton's map for z^3 - 1 conjugated by 1/z: 3w / (w^3 + 2), so
    # deg num < deg den and infinity maps to the repelling fixed point 0
    R = RationalMap(Polynomial.make([0, 3]), Polynomial.make([2, 0, 0, 1]),
                    reduced=True)
    return R, [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]


CASES = {
    "cubic": (lambda: _halley_case([0, -1, 0, 1]),
              Window(0j, 2.0, 1.5), (96, 72), (),
              "c2472495b0f5c002000896cd5f277219bb738749a71fb43cde7ff0bc013ad75c"),
    "sparse-octic": (lambda: _halley_case([0, -1, 0, 0, 0, 0, 0, 0, 1]),
                     Window(0j, 1.5, 1.5), 96, (),
                     "e665d68da89750dc083c4cad421b59103c92e8caae41e65d2d6c2d08bd3e739f"),
    "cycle": (lambda: _halley_case([CYCLE_B, 6, 0, 1]),
              Window(1 + 0j, 0.2, 0.2), 96, (CYCLE,),
              "241d5e385f861ffcefb92844726a7913a030945769565c9073cb001436786d26"),
    "low-numerator": (_inverted_newton,
                      Window(0j, 2.0, 2.0), 96, (),
                      "ee3382686dc12ff6d0f625a61c4d315deb05cdd8070d4fc8ba4b9801376896c9"),
}


def grid_digest(grid) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(grid.labels, dtype=np.int32).tobytes())
    h.update(np.ascontiguousarray(grid.iterations, dtype=np.int32).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_matches_golden_hash(name):
    build, window, res, cycles, digest = CASES[name]
    R, roots = build()
    grid = classify_grid(R, roots, window, res, cycles=cycles)
    assert grid_digest(grid) == digest

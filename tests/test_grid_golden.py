"""Golden hashes of basin grids and free critical fates: they must not move.

The first four digests were recorded before the grid step was routed
through the shared sphere evaluator, the acceptance grids and the fates
before single orbits and grids shared one capture loop; any change to the
per-pixel arithmetic, the capture test or the treatment of poles and
infinity shows up here.  When capture on first entry into a target's
disk replaced capture after three consecutive steps near one label, only
the two cycle digests (some cycle-basin counts fell by 2) and the `last`
of the root fates moved; the labels of the cycle grids are pinned on
their own, and were recorded before that change.  The rule gives the old
labels because every target's disk is a trap on these maps, which
test_capture_disks_are_traps checks.  When find_roots began to return the
roots of a real polynomial exactly real or in exactly conjugate pairs,
only the `last` of two root fates moved: the real root of z^3 + 6z + b
lost its -9.15e-53j of noise, and the two fates of z^3 - z became exact
conjugates.
"""

import cmath
import hashlib

import numpy as np
import pytest

from halleydyn.dynamics import (
    CAPTURE_RADIUS,
    UNDECIDED,
    OrbitOutcome,
    Window,
    classify_grid,
    free_critical_fates,
)
from halleydyn.paramsearch import family_polynomial, halley_b
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import RationalMap, eval_sphere, halley_of

# the real quintic parameter of z^3 + 6z + b with a superattracting
# two-cycle through 1; its partner (1 + 4b) / (b - 20) in closed form.
# Both points of the cycle share a label.  Every pixel of this window is
# captured, 4,484 of its 9,216 by the cycle (label -1); the latest capture
# is at step 39.
CYCLE_B = 62.5144396
CYCLE = (1.0 + 0j, complex((1.0 + 4.0 * CYCLE_B) / (CYCLE_B - 20.0)))


def _halley_case(coeffs):
    p = Polynomial.make(coeffs)
    return halley_of(p), [c.location for c in find_roots(p)]


def _inverted_newton():
    # Newton's map for z^3 - 1 conjugated by 1/z: 3w / (w^3 + 2), so
    # deg num < deg den and infinity maps to the repelling fixed point 0
    R = RationalMap(Polynomial.make([0, 3]), Polynomial.make([2, 0, 0, 1]))
    return R, [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]


def _acceptance_case(coeffs, digest):
    # the acceptance grids' window and budget; the kernel is elementwise,
    # so 120^2 pins the same per-pixel arithmetic as their 400^2 and 800^2
    return (lambda: _halley_case(coeffs), Window(0j, 2.0, 2.0), 120, (), digest)


CASES = {
    "cubic": (lambda: _halley_case([0, -1, 0, 1]),
              Window(0j, 2.0, 1.5), (96, 72), (),
              "c2472495b0f5c002000896cd5f277219bb738749a71fb43cde7ff0bc013ad75c"),
    "sparse-octic": (lambda: _halley_case([0, -1, 0, 0, 0, 0, 0, 0, 1]),
                     Window(0j, 1.5, 1.5), 96, (),
                     "e665d68da89750dc083c4cad421b59103c92e8caae41e65d2d6c2d08bd3e739f"),
    "cycle": (lambda: _halley_case([CYCLE_B, 6, 0, 1]),
              Window(1 + 0j, 0.2, 0.2), 96, (CYCLE,),
              "0d4dad711e6757dbb97d77af26afc9c48d8e6d6ff11cabfeb6dadd3936efd329"),
    "low-numerator": (_inverted_newton,
                      Window(0j, 2.0, 2.0), 96, (),
                      "ee3382686dc12ff6d0f625a61c4d315deb05cdd8070d4fc8ba4b9801376896c9"),
    # E1: (z^2 - 1)^k for k = 1, 2, 3
    "e1-k1": _acceptance_case(
        [-1, 0, 1],
        "0d92207d407949bc00c1ead10738ed4ea4561ab8b885074c8fd5b6e39440962e"),
    "e1-k2": _acceptance_case(
        [1, 0, -2, 0, 1],
        "f953aa7cbe41ebd7d2d68882396654e3593e81169af1fa8cafdd1feded526229"),
    "e1-k3": _acceptance_case(
        [-1, 0, 3, 0, -3, 0, 1],
        "0454ed77daa91ad3e2c5a1300b55e585835a55793ead9ea9ad74cd231ab45de5"),
    # E5's four polynomials; E7's z(z^n - 1) grids for n = 2 and 3 are
    # the z^3 - z and z^4 - z grids here, and for n = 7 and 9 E6's below
    "e5-z3-1": _acceptance_case(
        [-1, 0, 0, 1],
        "742bb174c18a1d10bd670da8f132191649adcf2147df162a39ff04c19a1e5809"),
    "e5-z3-z": _acceptance_case(
        [0, -1, 0, 1],
        "4186389f0efe373347da5b0e3ae2b474ce3de3e47a42283ab6cf4e206dde3e60"),
    "e5-z4-z": _acceptance_case(
        [0, -1, 0, 0, 1],
        "0b95aa8ada19496fb3b14d7e274930a50c7b67fe01341d05d03a1b15142c8c73"),
    "e5-z4-z2": _acceptance_case(
        [0, 0, -1, 0, 1],
        "49bf1a6ddf06e70fc8bf674be09e7cdb0f4c69225302513c749df6cc2be698a6"),
    # E6: z(z^n - 1) for n = 7 and 9
    "e6-n7": _acceptance_case(
        [0, -1] + [0] * 6 + [1],
        "95999884ea8bbed7ee29bf01355062d594ee100e87e9fe6b3948f041a51ed0bb"),
    "e6-n9": _acceptance_case(
        [0, -1] + [0] * 8 + [1],
        "412663b2313d71f7d3db026cce76715cb52d7cfa836b596451f7f1fb5c150b26"),
    # grids of several kernel blocks whose pixel counts (75,000 and 65,535)
    # are not multiples of the block size; recorded when each grid ran as
    # one kernel call
    "cubic-blocks": (lambda: _halley_case([0, -1, 0, 1]),
                     Window(0j, 2.0, 1.5), (300, 250), (),
                     "b73da7470cd06aa28f1fe8bb26cf700876a1d540f0143696641a6c04decbc1c8"),
    "cycle-blocks": (lambda: _halley_case([CYCLE_B, 6, 0, 1]),
                     Window(1 + 0j, 0.2, 0.2), (257, 255), (CYCLE,),
                     "c8d3e8cc0f93d4fc3cb75bffe322e867748defd3b3d1dc454646cb6e3b31b1dd"),
}

# labels alone of the cycle grids, recorded before capture on first entry
# replaced the three-step rule: that change lowered the counts of some
# cycle-basin pixels by 2 and must move no label
CYCLE_LABELS = {
    "cycle": "4da015d57346fa8db40004d0603453f0947609c5cfce65b5f08d475f0f31b662",
    "cycle-blocks": "5b11bb8e25570e66aafa848fb38bdca23be1085b61ef4ce0d9d4f7331027bb89",
}

# free_critical_fates, field by field, exact floats included
FATES = {
    "z^3 - z": (
        lambda: (Polynomial.make([0, -1, 0, 1]), halley_of(Polynomial.make([0, -1, 0, 1]))),
        [OrbitOutcome("root", root_index=1, iterations=3,
                      last=6.106478696464268e-16j),
         OrbitOutcome("root", root_index=1, iterations=3,
                      last=-6.106478696464268e-16j)]),
    "z^3 + 6z + b": (
        lambda: (family_polynomial(62.5144395981942), halley_b(62.5144395981942)),
        [OrbitOutcome("root", root_index=0, iterations=3,
                      last=-3.4679220603808507 + 0j),
         OrbitOutcome("cycle", iterations=200,
                      cycle=(5.905235039330978 + 0j, 1.000000000000001 + 0j),
                      last=1.000000000000001 + 0j)]),
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


@pytest.mark.parametrize("name", sorted(CYCLE_LABELS))
def test_cycle_grid_labels_match_golden_hash(name):
    build, window, res, cycles, _ = CASES[name]
    R, roots = build()
    grid = classify_grid(R, roots, window, res, cycles=cycles)
    labels = np.ascontiguousarray(grid.labels, dtype=np.int32).tobytes()
    assert hashlib.sha256(labels).hexdigest() == CYCLE_LABELS[name]


def test_two_cycle_basin_is_labelled():
    build, window, res, cycles, _ = CASES["cycle"]
    R, roots = build()
    grid = classify_grid(R, roots, window, res, cycles=cycles)
    assert not (grid.labels == UNDECIDED).any()
    assert int(grid.labels[grid.locate(1 + 0j)]) == -1


@pytest.mark.parametrize("name", sorted(FATES))
def test_free_critical_fates_match_golden(name):
    build, want = FATES[name]
    p, R = build()
    assert free_critical_fates(p, R) == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_capture_disks_are_traps(name):
    # 256 points on the boundary of each target's CAPTURE_RADIUS disk land
    # inside it: after one step about a root (worst ratio 0.5, at E1's
    # triple roots), after the period about a cycle point (0.015 for the
    # 2-cycle).  So an orbit captured on first entry stays in its basin.
    build, _, _, cycles, _ = CASES[name]
    R, roots = build()
    ring = CAPTURE_RADIUS * np.exp(2j * np.pi * np.arange(256) / 256)
    for target, period in ([(complex(r), 1) for r in roots]
                           + [(complex(p), len(cyc)) for cyc in cycles for p in cyc]):
        w = target + ring
        for _ in range(period):
            w = eval_sphere(R, w)
        assert (np.abs(w - target) < CAPTURE_RADIUS).all()

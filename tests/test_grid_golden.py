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
conjugates.  When the multiple roots got proven trap disks, only the
iteration counts of the three grids with multiple roots (e1-k2, e1-k3
and e5-z4-z2) moved, and the `last` of the root fates, which is now the
root that captured the orbit; test_label_oracle checks their labels at
50 digits.  When every root got a proven trap disk, Halley's simple roots
included, and each orbit was captured at its first step inside one, the
iteration counts of every grid and root fate moved, and no label: the
labels of every grid are pinned on their own (LABELS), recorded before
that change.
"""

import cmath
import hashlib

import mpmath
import numpy as np
import pytest

from halleydyn import dynamics
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
              "6aee8d44eef3ad36c7895f50b6856b5888da6c2022ba613b0e716c341a0cda4d"),
    "sparse-octic": (lambda: _halley_case([0, -1, 0, 0, 0, 0, 0, 0, 1]),
                     Window(0j, 1.5, 1.5), 96, (),
                     "8396a84091c0cadee3c7054639f39fba0e14c05ef73c915cf55697810c4cc04e"),
    "cycle": (lambda: _halley_case([CYCLE_B, 6, 0, 1]),
              Window(1 + 0j, 0.2, 0.2), 96, (CYCLE,),
              "56fffc3eba3453a917b12b8250197ed78c2e798b92ca732882514fc5b40c9956"),
    "low-numerator": (_inverted_newton,
                      Window(0j, 2.0, 2.0), 96, (),
                      "00f2749de9b1f7035ef982bb2a904873a7bd26d181045c98d17ee269971ae4cd"),
    # E1: (z^2 - 1)^k for k = 1, 2, 3
    "e1-k1": _acceptance_case(
        [-1, 0, 1],
        "2181148f7a549fed459851524a755cda9cfafa82dfb5f0548ec12ceea5c820da"),
    "e1-k2": _acceptance_case(
        [1, 0, -2, 0, 1],
        "579b0a6390179ed12d1c619bdc57e8627d6c77894a93f3e68471568afe95cc6e"),
    "e1-k3": _acceptance_case(
        [-1, 0, 3, 0, -3, 0, 1],
        "e3a555ce75c3e6d95d8b59aaa51374908317a2fa981001ca7be3ab4c5c7dfa78"),
    # E5's four polynomials; E7's z(z^n - 1) grids for n = 2 and 3 are
    # the z^3 - z and z^4 - z grids here, and for n = 7 and 9 E6's below
    "e5-z3-1": _acceptance_case(
        [-1, 0, 0, 1],
        "a535acf265952dcb318280b4ecbc2851249feba775f0bc943b8af65477cebfe8"),
    "e5-z3-z": _acceptance_case(
        [0, -1, 0, 1],
        "41e21a97c7590f439e010a823195df9161bbaaf1d3a3383392b4f9df38a9dadc"),
    "e5-z4-z": _acceptance_case(
        [0, -1, 0, 0, 1],
        "6fa57b892900c1e3f2cc0bef94d4841dcaded0573aea4a9108724e75393cd2da"),
    "e5-z4-z2": _acceptance_case(
        [0, 0, -1, 0, 1],
        "ead929e7f94d6c9364c33eec50dc6443bff7414383d5281acb41c1dcdb517c2b"),
    # E6: z(z^n - 1) for n = 7 and 9
    "e6-n7": _acceptance_case(
        [0, -1] + [0] * 6 + [1],
        "934752510000c5d14e137d6705fb48eaf365750a8dff902f5572ca9d871866cc"),
    "e6-n9": _acceptance_case(
        [0, -1] + [0] * 8 + [1],
        "ada254d45798cec118eac0c3f493c0522bce32aeef9165250964d6dabe99cfb1"),
    # grids of several kernel blocks whose pixel counts (75,000 and 65,535)
    # are not multiples of the block size; recorded when each grid ran as
    # one kernel call
    "cubic-blocks": (lambda: _halley_case([0, -1, 0, 1]),
                     Window(0j, 2.0, 1.5), (300, 250), (),
                     "0d6745ee8372f521db96f636a02d5c0f218389b6dfa96f5baa27a9b9815d72fd"),
    "cycle-blocks": (lambda: _halley_case([CYCLE_B, 6, 0, 1]),
                     Window(1 + 0j, 0.2, 0.2), (257, 255), (CYCLE,),
                     "5228c7ad6dee034b5c663fa36f79e7d4c81b1f4d4ce3842e875ef9d2641de083"),
}

# labels alone of the cycle grids, recorded before capture on first entry
# replaced the three-step rule: that change lowered the counts of some
# cycle-basin pixels by 2 and must move no label
CYCLE_LABELS = {
    "cycle": "4da015d57346fa8db40004d0603453f0947609c5cfce65b5f08d475f0f31b662",
    "cycle-blocks": "5b11bb8e25570e66aafa848fb38bdca23be1085b61ef4ce0d9d4f7331027bb89",
}

# labels alone of every grid, recorded before Halley's simple roots got
# trap disks: that change moved iteration counts, and must move no label
LABELS = {
    "cubic": "0f7b5c368ddbbfe3ad357ccf290480b3c2608836c86841ffa175d1f2b97ca8aa",
    "cubic-blocks": "948dd6ec90e84a542cd498dd81b6b3727904584c7e0587d93709fc194d097f2d",
    "cycle": "4da015d57346fa8db40004d0603453f0947609c5cfce65b5f08d475f0f31b662",
    "cycle-blocks": "5b11bb8e25570e66aafa848fb38bdca23be1085b61ef4ce0d9d4f7331027bb89",
    # the three E1 grids share their labels: a pixel's label is the sign of
    # its real part
    "e1-k1": "d9ec8df8393e459f68fa9ff211e04eb4219d32266798e4429870499f9c3a38b4",
    "e1-k2": "d9ec8df8393e459f68fa9ff211e04eb4219d32266798e4429870499f9c3a38b4",
    "e1-k3": "d9ec8df8393e459f68fa9ff211e04eb4219d32266798e4429870499f9c3a38b4",
    "e5-z3-1": "d13e8a1085f18efa30ca9233a3ce3e894fba260bc525c2503029e26e32b90631",
    "e5-z3-z": "5d2f89c0b966a44eb153d222be1853faff1c05326c1163ca9bd29dd1e89544ca",
    "e5-z4-z": "6db54f20ec5b6ff941f563934d834bb724b3d0e964444aa0c12961bcf79fad6f",
    "e5-z4-z2": "435eb7ace7ec33680be25deaaba7533ab2025886a2b8fea174162c1f71afa4fd",
    "e6-n7": "eae51e63c618221dc194f688008975df46e20f79ce05a4a01d784c61bab9b372",
    "e6-n9": "037a243dd06beebccfdfc57b16efae22cb57c3682755bacf57454e3d74efa177",
    "low-numerator": "a1211dac054e6005c22353bec8014d1f8c4c3a74c10bbffe57b185284ac86667",
    "sparse-octic": "19381f8480dce1d505d789ae3b86aa589179c11e221fa616665d93df89b811cd",
}

# free_critical_fates, field by field, exact floats included
FATES = {
    "z^3 - z": (
        lambda: (Polynomial.make([0, -1, 0, 1]), halley_of(Polynomial.make([0, -1, 0, 1]))),
        [OrbitOutcome("root", root_index=1, iterations=1, last=0j),
         OrbitOutcome("root", root_index=1, iterations=1, last=0j)]),
    "z^3 + 6z + b": (
        lambda: (family_polynomial(62.5144395981942), halley_b(62.5144395981942)),
        [OrbitOutcome("root", root_index=0, iterations=1,
                      last=-3.467922062417944 + 0j),
         OrbitOutcome("cycle", iterations=200,
                      cycle=(5.905235039330978 + 0j, 1.000000000000001 + 0j),
                      last=1.000000000000001 + 0j)]),
}


def grid_digest(grid) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(grid.labels, dtype=np.int32).tobytes())
    h.update(np.ascontiguousarray(grid.iterations, dtype=np.int32).tobytes())
    return h.hexdigest()


def labels_digest(grid) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid.labels, dtype=np.int32).tobytes()).hexdigest()


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
    assert labels_digest(grid) == CYCLE_LABELS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_labels_match_golden_hash(name):
    build, window, res, cycles, _ = CASES[name]
    R, roots = build()
    assert labels_digest(classify_grid(R, roots, window, res, cycles=cycles)) == LABELS[name]


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


# Halley's maps of polynomials with simple roots only: z^n - 1, z^3 - z and
# z^4 + a z^2 + 1 at sampled a (none of them 2 or -2, where roots merge)
SIMPLE_ROOTS = {f"z^{n} - 1": [-1] + [0] * (n - 1) + [1] for n in range(2, 9)}
SIMPLE_ROOTS["z^3 - z"] = [0, -1, 0, 1]
SIMPLE_ROOTS.update((f"z^4 + ({a:.3f})z^2 + 1", [1, 0, a, 0, 1]) for a in
                    [complex(x, y) for x, y in np.random.default_rng(4).uniform(-3, 3, (4, 2))]
                    + [0.5, -1.0, 3.0])


@pytest.mark.parametrize("name", sorted(SIMPLE_ROOTS))
def test_simple_roots_get_trap_disks(name):
    # a simple root is a superattracting fixed point of Halley's map, and
    # its proven disk is wider than CAPTURE_RADIUS
    R, roots = _halley_case(SIMPLE_ROOTS[name])
    radii = [radius for _, _, radius in dynamics._targets(R, tuple(roots), ())]
    assert len(radii) == R.source.degree and min(radii) > CAPTURE_RADIUS
    _check_capture_disks(R, roots, ())


@pytest.mark.parametrize("name", sorted(CASES))
def test_capture_disks_are_traps(name):
    build, _, _, cycles, _ = CASES[name]
    R, roots = build()
    _check_capture_disks(R, roots, cycles)


def _check_capture_disks(R, roots, cycles):
    # 256 points on the boundary of each target's CAPTURE_RADIUS disk land
    # inside it: after one step about a root (worst ratio 0.5, at E1's
    # triple roots), after the period about a cycle point (0.015 for the
    # 2-cycle).  So an orbit captured on first entry stays in its basin.
    # Each proven trap disk, wider than CAPTURE_RADIUS, is checked the same
    # way in one step, under eval_sphere and at 50 digits.
    ring = np.exp(2j * np.pi * np.arange(256) / 256)
    for target, period in ([(complex(r), 1) for r in roots]
                           + [(complex(p), len(cyc)) for cyc in cycles for p in cyc]):
        w = target + CAPTURE_RADIUS * ring
        for _ in range(period):
            w = eval_sphere(R, w)
        assert (np.abs(w - target) < CAPTURE_RADIUS).all()
    for _, target, radius in dynamics._targets(R, tuple(complex(r) for r in roots), cycles):
        if radius > CAPTURE_RADIUS:
            circle = target + radius * ring
            assert (np.abs(eval_sphere(R, circle) - target) < radius).all()
            assert max(_exact_distances(R, circle, target)) < radius


def _exact_distances(R, points, target):
    """|R(z) - target| at each point z, at 50 digits, with R's float
    coefficients taken exactly."""
    with mpmath.workdps(50):
        num = [mpmath.mpc(c.real, c.imag) for c in reversed(R.num.coeffs)]
        den = [mpmath.mpc(c.real, c.imag) for c in reversed(R.den.coeffs)]
        t = mpmath.mpc(target.real, target.imag)
        for z in points.tolist():
            z = mpmath.mpc(z.real, z.imag)
            yield float(abs(mpmath.polyval(num, z) / mpmath.polyval(den, z) - t))

"""Rotation symmetry estimates for polynomials, maps, and grids."""

import numpy as np
import pytest

from halleydyn import symmetry
from halleydyn.dynamics import UNDECIDED, Window, classify_grid
from halleydyn.errors import NotNormalized, WindowNotCentered
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.symmetry import (
    N_MAX,
    grid_symmetry_order,
    map_rotation_order,
    polynomial_symmetry_order,
    symmetry_report,
)
from halleydyn.ratmap import chebyshev_halley_of, halley_of, konig_of


def odd_family(n):
    return Polynomial.make([0, -1] + [0] * (n - 1) + [1])  # z(z^n - 1)


def test_polynomial_orders():
    assert polynomial_symmetry_order(odd_family(2)) == 2
    assert polynomial_symmetry_order(odd_family(3)) == 3
    assert polynomial_symmetry_order(Polynomial.make([-1, 0, 0, 1])) == 3
    assert polynomial_symmetry_order(Polynomial.make([0] * 5 + [1])) == 1


def test_polynomial_order_requires_normalized():
    with pytest.raises(NotNormalized):
        polynomial_symmetry_order(Polynomial.make([1, 1, 1]))


@pytest.mark.parametrize("n", range(2, 10))
def test_map_rotation_order_matches_family(n):
    p = odd_family(n)
    for R in (halley_of(p), konig_of(p, 4), chebyshev_halley_of(p, 0)):
        assert map_rotation_order(R) == n


@pytest.mark.parametrize("n", [13, 14])
def test_orders_above_the_grid_probe_bound(n):
    # z^n - 1: the map's order is exact at any n, while the grid probe
    # tests orders up to N_MAX only, so the report declines to compare
    R = halley_of(Polynomial.make([-1] + [0] * (n - 1) + [1]))
    assert n > N_MAX
    assert map_rotation_order(R) == n
    with pytest.raises(ValueError, match="N_MAX"):
        symmetry_report(R)


def test_map_rotation_order_asymmetric_case():
    p = Polynomial.make([0, 1, -2, 1])  # z(z-1)^2 has no rotation symmetry
    assert map_rotation_order(halley_of(p)) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_grid_order_equals_map_order(n):
    p = odd_family(n)
    h = halley_of(p)
    roots = [c.location for c in find_roots(p)]
    grid = classify_grid(h, roots, Window(0j, 2.0, 2.0), (201, 201))
    assert grid_symmetry_order(grid) == map_rotation_order(h) == n


def test_grid_order_requires_centered_window():
    p = odd_family(3)
    h = halley_of(p)
    roots = [c.location for c in find_roots(p)]
    grid = classify_grid(h, roots, Window(1.0 + 0j, 2.0, 2.0), (64, 64))
    with pytest.raises(WindowNotCentered):
        grid_symmetry_order(grid)


def test_containment_divisibility():
    # the polynomial order always divides the map order
    cases = [odd_family(2), odd_family(3),
             Polynomial.make([-1, 0, 0, 1]),
             Polynomial.make([0, 0, -1, 0, 1])]  # z^2(z^2-1)
    for p in cases:
        sp = polynomial_symmetry_order(p)
        sh = map_rotation_order(halley_of(p))
        assert sh % sp == 0


def test_symmetry_report_full_agreement():
    rep = symmetry_report(halley_of(odd_family(3)))
    assert rep.sigma_p_order == 3
    assert rep.map_rotation_order == 3
    assert rep.grid_order == 3
    assert rep.equality


def test_symmetry_report_needs_three_roots():
    with pytest.raises(ValueError):
        symmetry_report(halley_of(Polynomial.make([0, 1, -2, 1])))


def _per_label_vote(src, dst):
    """The vote as one np.unique per source label: each goes to its most
    frequent destination, the smallest on a tie."""
    keys = np.unique(src)
    images = np.empty_like(keys)
    for i, a in enumerate(keys):
        tgt, counts = np.unique(dst[src == a], return_counts=True)
        images[i] = tgt[counts.argmax()]
    if np.unique(images).size != images.size:
        return None
    return float((images[np.searchsorted(keys, src)] == dst).mean())


def test_histogram_vote_matches_the_per_label_vote():
    # synthetic label grids with cycle labels (negative) and undecided
    # pixels, compared pixel by pixel against a grid rolled by a few pixels
    # so the vote sees mixed destinations
    rng = np.random.default_rng(5)
    seen = set()
    for trial in range(60):
        labels = rng.integers(-3, 4, size=(30, 30)).astype(np.int32)
        labels[rng.random(labels.shape) < 0.1] = UNDECIDED
        if trial % 2:
            labels = np.sort(labels, axis=1)  # mostly one destination per label
        moved = np.roll(labels, rng.integers(0, 3), axis=1)
        keep = (labels != UNDECIDED) & (moved != UNDECIDED)
        src, dst = labels[keep], moved[keep]
        want = _per_label_vote(src, dst)
        assert symmetry._vote_agreement(src, dst) == want
        seen.add(want is None)
    assert seen == {True, False}


def test_histogram_vote_breaks_a_tie_toward_the_smaller_destination():
    src = np.array([-2, -2, -2, -2, 0, 0, 0], dtype=np.int32)
    dst = np.array([3, -1, 3, -1, 1, 1, 2], dtype=np.int32)
    assert _per_label_vote(src, dst) == symmetry._vote_agreement(src, dst) == 4 / 7
    # -2 ties between -1 and 3 and goes to -1, the majority destination of 1
    src = np.array([-2, -2, -2, -2, 1, 1, 1], dtype=np.int32)
    dst = np.array([3, -1, 3, -1, -1, -1, 2], dtype=np.int32)
    assert _per_label_vote(src, dst) is symmetry._vote_agreement(src, dst) is None
    assert symmetry._vote_agreement(src[:0], dst[:0]) is None

"""Rotation symmetry estimates for polynomials, maps, and grids."""

import pytest

from halleydyn.dynamics import Window, classify_grid
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

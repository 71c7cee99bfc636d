"""Tests for the cubic-family parameter search."""

import cmath

import numpy as np
import pytest

from halleydyn.errors import ExcludedParameter, NoCycle, PoleAtTwenty
from halleydyn.paramsearch import (
    CYCLE_RESIDUAL_TOL,
    F_COEFFS,
    cycle_condition_polynomial,
    family_polynomial,
    halley_b,
    roots_of_F,
    verify_cycle,
    xi_of,
)
from halleydyn.acceptance import CONDITION_COEFFS
from halleydyn.polycore import AffineMap
from halleydyn.ratmap import conjugate, halley_of, same_map


def test_family_polynomial_coefficients():
    p = family_polynomial(3.5)
    assert p.degree == 3
    assert np.allclose(p.coeffs, (3.5, 6.0, 0.0, 1.0))


def test_family_rejects_degenerate_parameters():
    with pytest.raises(ExcludedParameter):
        family_polynomial(0.0)
    with pytest.raises(ExcludedParameter):
        family_polynomial(4j * cmath.sqrt(2))
    with pytest.raises(ExcludedParameter):
        halley_b(-4j * cmath.sqrt(2))


def test_halley_b_matches_generic_construction():
    # the closed form must agree with the generic constructor pointwise
    for b in (2.0, -5.0, 1.0 + 2.0j):
        closed = halley_b(b)
        generic = halley_of(family_polynomial(b))
        for z in (0.5, -1.3 + 0.7j, 2.0, 0.1j):
            lhs = closed(complex(z))
            rhs = generic(complex(z))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_halley_b_closed_form_coefficients():
    b = 7.0
    h = halley_b(b)
    assert np.allclose(h.num.coeffs, (-2 * b, 0.0, -2 * b, -2.0, 0.0, 1.0))
    assert np.allclose(h.den.coeffs, (12.0, -b, 6.0, 0.0, 2.0))


def test_free_critical_points_pinned_at_unit_points():
    # the family is engineered so the free critical points sit at +-1
    from halleydyn.polycore import find_roots
    from halleydyn.ratmap import free_critical_points

    for b in (3.0, -11.0, 62.5144395981942):
        roots = find_roots(family_polynomial(b))
        crit = sorted(free_critical_points(halley_b(b), roots),
                      key=lambda z: complex(getattr(z, "location", z)).real)
        crit = [complex(getattr(z, "location", z)) for z in crit]
        assert len(crit) == 2
        assert abs(crit[0] - (-1.0)) <= 1e-8
        assert abs(crit[1] - 1.0) <= 1e-8


def test_xi_of_values():
    assert abs(xi_of(0.0) - (1.0 / -20.0)) <= 1e-12
    b = 62.5144395981942
    expected = (1.0 + 4.0 * b) / (b - 20.0)
    assert abs(xi_of(b) - expected) <= 1e-12
    # xi must equal the image of +1 under the map itself
    h = halley_b(b)
    assert abs(h(1.0 + 0j) - xi_of(b)) <= 1e-9


def test_xi_pole_at_twenty():
    with pytest.raises(PoleAtTwenty):
        xi_of(20.0)


def test_cycle_condition_polynomial_shape():
    cond = cycle_condition_polynomial()
    assert cond.degree == 6
    assert abs(cond.coeffs[-1] - 10.0) <= 1e-9
    # the expansion is exact: it reproduces the frozen coefficients
    assert tuple(cond.coeffs) == CONDITION_COEFFS


def test_condition_factors_through_b_plus_seven():
    cond = cycle_condition_polynomial()
    quotient, remainder = cond.deflated([(-7.0, 1)]), abs(cond(-7.0))
    scale = max(abs(c) for c in cond.coeffs)
    assert remainder <= 1e-6 * scale
    assert quotient.degree == 5
    expected = np.array(F_COEFFS, dtype=np.complex128)
    got = np.array(quotient.coeffs, dtype=np.complex128)
    assert np.allclose(got, expected, rtol=1e-8, atol=1e-2)


def test_roots_of_F_structure():
    roots = roots_of_F()
    assert sum(r.multiplicity for r in roots) == 5
    real = [r for r in roots if abs(r.location.imag) <= 1e-8]
    assert len(real) == 1
    assert abs(real[0].location.real - 62.5144395981942) <= 1e-6
    # the complex roots pair off under conjugation (real coefficients)
    others = sorted((r.location for r in roots if abs(r.location.imag) > 1e-8),
                    key=lambda z: (z.real, z.imag))
    assert len(others) == 4
    assert abs(others[0] - others[1].conjugate()) <= 1e-6
    assert abs(others[2] - others[3].conjugate()) <= 1e-6


def test_verify_cycle_at_real_parameter():
    cand = verify_cycle(62.5144395981942)
    assert cand.residual <= CYCLE_RESIDUAL_TOL
    z0, z1 = cand.cycle
    assert abs(z0 - 1.0) <= 1e-12
    assert abs(z1 - 5.905235) <= 1e-5
    # superattracting: the cycle passes through a critical point
    assert abs(cand.multiplier) <= 1e-8


def test_verify_cycle_all_roots_of_F():
    for r in roots_of_F():
        cand = verify_cycle(r.location)
        assert abs(cand.multiplier) <= 1e-6
        assert abs(cand.cycle[1] - 1.0) > 0.5  # genuine two-cycle, not fixed


def test_no_cycle_at_generic_parameter():
    with pytest.raises(NoCycle):
        verify_cycle(5.0)


def test_conjugacy_between_opposite_parameters():
    # the odd symmetry H_b(-z) = -H_{-b}(z), as an identity of maps
    for b in (3.0, 62.5144395981942, 1.0 - 2.5j):
        assert same_map(conjugate(halley_b(b), AffineMap(-1.0)), halley_b(-b))
    flipped = conjugate(halley_b(3.0), AffineMap(-1.0))
    assert not same_map(flipped, halley_b(-3.0 - 1e-6))

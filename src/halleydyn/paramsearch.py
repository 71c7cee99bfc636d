"""Superattracting two-cycles in the cubic family z**3 + 6z + b.

The family keeps the free critical points of the Halley map pinned at
+-1 for every admissible b, so a two-cycle through +1 is superattracting
automatically.  The cycle condition H_b(H_b(1)) = 1 clears to a degree-6
polynomial in b; its (b+7) factor belongs to a degenerate parameter and
the quintic cofactor carries the five parameters with a genuine cycle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExcludedParameter,
    InterpolationInconsistent,
    NoCycle,
    PoleAtTwenty,
)
from .polycore import Polynomial, RootCluster, find_roots, horner, _deflate
from .ratmap import RationalMap

# roots of the discriminant of z**3 + 6z + b: the polynomial degenerates
_EXCLUDED_B = (0j, 4j * cmath.sqrt(2), -4j * cmath.sqrt(2))
_EXCLUDED_RADIUS = 1e-9

# quintic cofactor of the cycle condition, ascending coefficients
F_COEFFS = (-1830821.0, 388025.0, -92141.0, 9625.0, -757.0, 10.0)

CYCLE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class CycleCandidate:
    b: complex
    cycle: tuple
    multiplier: complex
    residual: float


def _check_admissible(b: complex):
    for bad in _EXCLUDED_B:
        if abs(b - bad) <= _EXCLUDED_RADIUS:
            raise ExcludedParameter(f"b = {b} is outside the family")


def family_polynomial(b: complex) -> Polynomial:
    _check_admissible(b)
    return Polynomial.make((b, 6.0, 0.0, 1.0))


def halley_b(b: complex) -> RationalMap:
    """Halley map of z**3 + 6z + b in closed form.

    (z**5 - 2 z**3 - 2b z**2 - 2b) / (2 z**4 + 6 z**2 - b z + 12); the
    numerator and denominator never share a root for admissible b.
    """
    b = complex(b)
    _check_admissible(b)
    num = Polynomial.make((-2.0 * b, 0.0, -2.0 * b, -2.0, 0.0, 1.0))
    den = Polynomial.make((12.0, -b, 6.0, 0.0, 2.0))
    return RationalMap(num, den, reduced=True, method="halley")


def xi_of(b: complex) -> complex:
    """Image of the free critical point +1, the candidate cycle partner:
    (1 + 4b) / (b - 20)."""
    b = complex(b)
    if abs(b - 20.0) <= 1e-12:
        raise PoleAtTwenty("cycle partner expression has a pole at b = 20")
    return (1.0 + 4.0 * b) / (b - 20.0)


def cycle_condition_polynomial(sample_offset: int = 0) -> Polynomial:
    """Degree-6 polynomial in b vanishing exactly when H_b(H_b(1)) = 1.

    Built numerically: the rational condition is evaluated at 9 sample
    parameters, cleared by its known denominator (b - 20)**5 times the
    map denominator at the partner point, and interpolated through 7 of
    the samples.  The remaining 2 act as held-out consistency probes.
    The result is scaled to leading coefficient 10.
    """
    bs = np.array([1, 2, 3, 4, 5, 6, 8, 9, 11], dtype=np.float64) + sample_offset
    vals = np.array([_cleared_condition(float(b)) for b in bs])
    fit_b, fit_v = bs[:7], vals[:7]
    vander = np.vander(fit_b, 7, increasing=True)
    coeffs = np.linalg.solve(vander, fit_v)
    for b_hold, v_hold in zip(bs[7:], vals[7:]):
        approx = horner(coeffs, b_hold)
        if abs(approx - v_hold) > 1e-6 * max(abs(v_hold), 1.0):
            raise InterpolationInconsistent(
                f"held-out sample at b = {b_hold} off by {abs(approx - v_hold)}")
    scaled = coeffs * (10.0 / coeffs[-1])
    return Polynomial.make(scaled)


def _cleared_condition(b: float) -> float:
    h = halley_b(b)
    xi = xi_of(b)
    residual = h.num(xi) - h.den(xi)  # (H_b(xi) - 1) * den(xi)
    return (residual * (b - 20.0) ** 5).real


def divide_out_root(p: Polynomial, r: complex) -> tuple[Polynomial, float]:
    """Synthetic division of p by (z - r): (quotient, |remainder|).

    The remainder of the division is p(r)."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    quotient = _deflate(np.array(p.coeffs, dtype=np.complex128), r)
    return Polynomial.make(quotient), abs(horner(p.coeffs, r))


def roots_of_F(seed: int = 0) -> list[RootCluster]:
    """The five roots of the quintic cofactor of the cycle condition."""
    return find_roots(Polynomial.make(F_COEFFS), seed=seed)


def verify_cycle(b: complex, start: complex = 1.0 + 0j,
                 tol: float = CYCLE_RESIDUAL_TOL) -> CycleCandidate:
    """Confirm a two-cycle of halley_b(b) through the start point.

    Raises NoCycle when the second image misses the start beyond tol.
    The reported multiplier is the product of derivatives around the
    cycle; it vanishes identically when the start is a free critical
    point of the family (+1 or -1).
    """
    b = complex(b)
    h = halley_b(b)
    z1 = h(complex(start))
    z2 = h(z1)
    residual = abs(z2 - start)
    if residual > tol * max(1.0, abs(start)):
        raise NoCycle(f"orbit of {start} returns to {z2}, not {start}")
    multiplier = h.derivative_at(complex(start)) * h.derivative_at(z1)
    return CycleCandidate(b=b, cycle=(complex(start), z1),
                          multiplier=multiplier, residual=residual)


def conjugacy_check(b: complex, samples: int = 32, seed: int = 0,
                    tol: float = 1e-9) -> bool:
    """Probe the odd symmetry H_b(-z) = -H_{-b}(z) at random points."""
    b = complex(b)
    _check_admissible(b)
    _check_admissible(-b)
    h_plus = halley_b(b)
    h_minus = halley_b(-b)
    rng = np.random.default_rng(seed)
    checked = 0
    attempts = 0
    while checked < samples:
        attempts += 1
        if attempts > 200 * samples:
            raise ValueError("could not sample points away from the poles")
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if abs(h_plus.den(-z)) <= 1e-9 * h_plus.den.eval_scale(z):
            continue
        if abs(h_minus.den(z)) <= 1e-9 * h_minus.den.eval_scale(z):
            continue
        lhs = h_plus(-z)
        rhs = -h_minus(z)
        if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
            return False
        checked += 1
    return checked == samples

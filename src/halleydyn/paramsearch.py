"""Superattracting two-cycles in the cubic family z**3 + 6z + b.

The family keeps the free critical points of the Halley map pinned at
+-1 for every admissible b, so a two-cycle through +1 is superattracting
automatically.  The cycle condition H_b(H_b(1)) = 1 clears to a degree-6
polynomial in b, expanded exactly from the map's coefficient table; its
(b+7) factor belongs to a degenerate parameter and the quintic cofactor
carries the five parameters with a genuine cycle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import ExcludedParameter, NoCycle, PoleAtTwenty
from .polycore import (
    X,
    Polynomial,
    RootCluster,
    deflate,
    find_roots,
    horner,
)
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


def _halley_table(b):
    """Ascending z-coefficients (num, den) of the family's Halley map,
    written once for b a number (halley_b) or a Polynomial in b (the
    cycle condition's expansion)."""
    return (-2.0 * b, 0.0, -2.0 * b, -2.0, 0.0, 1.0), (12.0, -b, 6.0, 0.0, 2.0)


def halley_b(b: complex) -> RationalMap:
    """Halley map of z**3 + 6z + b in closed form.

    (z**5 - 2 z**3 - 2b z**2 - 2b) / (2 z**4 + 6 z**2 - b z + 12); the
    numerator and denominator never share a root for admissible b.
    """
    b = complex(b)
    _check_admissible(b)
    num, den = _halley_table(b)
    return RationalMap(Polynomial.make(num), Polynomial.make(den), method="halley")


def xi_of(b: complex) -> complex:
    """Image of the free critical point +1, the candidate cycle partner:
    (1 + 4b) / (b - 20)."""
    b = complex(b)
    if abs(b - 20.0) <= 1e-12:
        raise PoleAtTwenty("cycle partner expression has a pole at b = 20")
    return (1.0 + 4.0 * b) / (b - 20.0)


def cycle_condition_polynomial() -> Polynomial:
    """Degree-6 polynomial in b vanishing exactly when H_b(H_b(1)) = 1.

    H_b(xi) = 1 at xi = (1 + 4b) / (b - 20) means (num - den)(xi) = 0.
    Multiplied by (b - 20)**5 this is sum_k c_k(b) (1 + 4b)**k
    (b - 20)**(5 - k) over the coefficients c_k of num - den, expanded in
    b with integer coefficients far below 2**53, so exactly.  The result
    is scaled to leading coefficient 10.
    """
    num, den = _halley_table(X)
    diff = [_as_polynomial(n) - _as_polynomial(d)
            for n, d in zip_longest(num, den, fillvalue=0.0)]
    top = len(diff) - 1
    xi_num, xi_den = Polynomial.make((1.0, 4.0)), Polynomial.make((-20.0, 1.0))
    cond = Polynomial(())
    for k, c in enumerate(diff):
        for _ in range(k):
            c = c * xi_num
        for _ in range(top - k):
            c = c * xi_den
        cond = cond + c
    return cond.scale(10.0 / cond.lead)


def _as_polynomial(c) -> Polynomial:
    return c if isinstance(c, Polynomial) else Polynomial.make((c,))


def divide_out_root(p: Polynomial, r: complex) -> tuple[Polynomial, float]:
    """Synthetic division of p by (z - r): (quotient, |remainder|).

    The remainder of the division is p(r)."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    quotient = deflate(np.array(p.coeffs, dtype=np.complex128), r)
    return Polynomial.make(quotient), abs(horner(p.coeffs, r))


def quintic_factor_problem(cond: Polynomial) -> str | None:
    """None when the cycle condition cond is (b + 7) times the quintic
    F_COEFFS, else what fails first: dividing out b = -7 must leave a
    remainder of at most 1e-6 of cond's largest coefficient, and each
    quotient coefficient must lie within 1e-8 of F_COEFFS (relative, with
    a floor of 1)."""
    quotient, remainder = divide_out_root(cond, -7.0)
    lead = max(abs(c) for c in cond.coeffs)
    if not remainder <= 1e-6 * lead:
        return f"remainder {remainder:.2e} after dividing out (b+7)"
    for got, want in zip(quotient.coeffs, F_COEFFS):
        if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
            return f"quintic coefficient {got} != {want}"
    return None


def roots_of_F() -> list[RootCluster]:
    """The five roots of the quintic cofactor of the cycle condition."""
    return find_roots(Polynomial.make(F_COEFFS))


def verify_cycle(b: complex) -> CycleCandidate:
    """Confirm a two-cycle of halley_b(b) through the free critical point 1.

    Raises NoCycle when the second image misses 1 by more than
    CYCLE_RESIDUAL_TOL.  The reported multiplier is the product of
    derivatives around the cycle, which vanishes identically because the
    cycle passes through a critical point.
    """
    b = complex(b)
    h = halley_b(b)
    z1 = h(1.0 + 0j)
    z2 = h(z1)
    residual = abs(z2 - 1.0)
    if residual > CYCLE_RESIDUAL_TOL:
        raise NoCycle(f"orbit of 1 returns to {z2}, not 1")
    multiplier = h.derivative_at(1.0 + 0j) * h.derivative_at(z1)
    return CycleCandidate(b=b, cycle=(1.0 + 0j, z1),
                          multiplier=multiplier, residual=residual)

"""Rational iteration maps on the Riemann sphere.

Maps are quotients of two Polynomials, reduced so numerator and
denominator share no root.  Construction helpers build the Halley map
and its Koenig / Chebyshev-Halley relatives directly from a polynomial.

eval_sphere is the one evaluator of a map on the sphere, for single
points and whole arrays alike.  A point z is a pole when den(z) is lost
in its own rounding envelope:

    |den(z)| <= POLE_RTOL * sum_k |d_k| |z|**k.

The same rule decides poles in the 1/z chart (where both sides scale by
|z|**-deg(den)) and in RationalMap.derivative_at.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMap, Indeterminate, NotFixed
from .polycore import (
    AffineMap,
    Polynomial,
    RootCluster,
    compose_affine,
    envelope,
    find_roots,
    horner,
    _deflate,
)

MATCH_RADIUS = 1e-7
HANDOFF_RADIUS = 1e8
POLE_RTOL = 1e-12
FIXED_RTOL = 1e-6
LOCAL_DEGREE_RTOL = 1e-7


class Infinity:
    """Point at infinity on the Riemann sphere (module-level singleton INF)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = Infinity()


def is_infinity(z) -> bool:
    return isinstance(z, Infinity)


@dataclass(frozen=True)
class RationalMap:
    num: Polynomial
    den: Polynomial
    reduced: bool = False

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def __call__(self, z):
        return eval_sphere(self, z)

    def derivative_at(self, z: complex) -> complex:
        """Quotient-rule derivative at a finite non-pole point."""
        nv = self.num(z)
        dv = self.den(z)
        if abs(dv) <= POLE_RTOL * self.den.eval_scale(z):
            raise ZeroDivisionError("derivative at a pole")
        return (self.num.deriv()(z) * dv - nv * self.den.deriv()(z)) / (dv * dv)


@dataclass(frozen=True)
class DegreeCensus:
    """Root/critical counts of p and the degree they predict for its Halley map."""

    distinct_roots: int
    special_count: int
    special_total_multiplicity: int
    predicted_degree: int


def make_reduced(num: Polynomial, den: Polynomial,
                 match_radius: float = MATCH_RADIUS,
                 seed: int = 0,
                 hints: tuple = ()) -> RationalMap:
    """Cancel shared roots of num and den, matched within match_radius.

    Shared powers of z are cancelled exactly by coefficient shifts; the
    remaining matches are removed by synthetic division.

    hints are locations of expected shared roots known to higher accuracy
    than the large num/den products can resolve (the method constructors
    pass roots and critical points of the source polynomial).  A matched
    pair near a hint is deflated at the hint on both sides; without one,
    each side is deflated at its own recovered root location.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return RationalMap(Polynomial(()), Polynomial((1.0 + 0j,)), reduced=True)
    t = min(num.valuation(), den.valuation())
    if t:
        num = Polynomial.make(num.coeffs[t:])
        den = Polynomial.make(den.coeffs[t:])
    if num.degree >= 1 and den.degree >= 1:
        nw = np.array(num.coeffs, dtype=np.complex128)
        dw = np.array(den.coeffs, dtype=np.complex128)
        nclusters = [[c.location, c.multiplicity] for c in find_roots(num, seed=seed)]
        dclusters = [[c.location, c.multiplicity] for c in find_roots(den, seed=seed)]
        for nc in nclusters:
            for entry in dclusters:
                if nc[1] == 0 or entry[1] == 0:
                    continue
                if abs(nc[0] - entry[0]) <= match_radius:
                    cancel = min(nc[1], entry[1])
                    loc_n, loc_d = nc[0], entry[0]
                    for h in hints:
                        if abs(h - nc[0]) <= match_radius:
                            loc_n = loc_d = complex(h)
                            break
                    for _ in range(cancel):
                        nw = _deflate(nw, loc_n)
                        dw = _deflate(dw, loc_d)
                    nc[1] -= cancel
                    entry[1] -= cancel
        num = Polynomial.make(nw)
        den = Polynomial.make(dw)
    return RationalMap(num, den, reduced=True)


def _cancel_hints(p: Polynomial, roots, seed: int = 0) -> tuple:
    """Locations where a method's raw num and den can share a factor.

    Any common root of the raw pair is a root or a critical point of the
    source polynomial (both sides vanishing forces p or p' to vanish), and
    those come out of the small, exactly known p far more accurately than
    out of the degree-3d products.
    """
    hints = [c.location for c in roots]
    if p.degree >= 2:
        hints += [c.location for c in find_roots(p.deriv(), seed=seed)]
    return tuple(hints)


def halley_of(p: Polynomial, seed: int = 0) -> RationalMap:
    """Halley iteration z - 2 p p' / (2 p'^2 - p p'') as a reduced rational map.

    DegenerateMap is raised when p has a single distinct root; the
    iteration then collapses to an affine contraction onto that root.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    roots = find_roots(p, seed=seed)
    if len(roots) < 2:
        raise DegenerateMap("single distinct root gives an affine iteration")
    dp = p.deriv()
    den = (dp * dp).scale(2.0) - p * p.deriv(2)
    num = den.shifted_up(1) - (p * dp).scale(2.0)
    return make_reduced(num, den, seed=seed, hints=_cancel_hints(p, roots, seed))


def konig_of(p: Polynomial, n: int, seed: int = 0) -> RationalMap:
    """Koenig iteration of order n (n=2 is Newton, n=3 is Halley).

    Uses the derivative tower of 1/p: with q_0 = 1 and
    q_{k+1} = q_k' p - (k+1) q_k p', the k-th derivative of 1/p equals
    q_k / p**(k+1), and the map is z + (n-1) q_{n-2} p / q_{n-1}.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    roots = find_roots(p, seed=seed)
    if len(roots) < 2:
        raise DegenerateMap("single distinct root gives an affine iteration")
    dp = p.deriv()
    q_prev = Polynomial((1.0 + 0j,))
    q_cur = q_prev
    for k in range(n - 1):
        q_next = q_cur.deriv() * p - (k + 1.0) * (q_cur * dp)
        q_prev, q_cur = q_cur, q_next
    num = q_cur.shifted_up(1) + float(n - 1) * (q_prev * p)
    return make_reduced(num, q_cur, seed=seed, hints=_cancel_hints(p, roots, seed))


def chebyshev_halley_of(p: Polynomial, sigma: complex, seed: int = 0) -> RationalMap:
    """One-parameter family z - (1 + (p p'' / 2) / (p'^2 - sigma p p'')) p / p'.

    sigma = 0 is Chebyshev's method, sigma = 1/2 recovers Halley.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    roots = find_roots(p, seed=seed)
    if len(roots) < 2:
        raise DegenerateMap("single distinct root gives an affine iteration")
    dp = p.deriv()
    pddp = p * p.deriv(2)
    bracket = dp * dp - complex(sigma) * pddp
    den = dp * bracket
    num = den.shifted_up(1) - p * (bracket + pddp.scale(0.5))
    return make_reduced(num, den, seed=seed, hints=_cancel_hints(p, roots, seed))


def eval_sphere(R: RationalMap, z):
    """Evaluate R at sphere points: INF, a complex number or an ndarray.

    Array entries that are not finite stand for the point at infinity,
    and so do non-finite entries of the returned array; a scalar input
    returns a complex or INF.  Points beyond HANDOFF_RADIUS are evaluated
    in the chart w = 1/z through the reversed coefficients, so huge inputs
    neither overflow nor lose the leading behaviour.  A pole (see the
    module docstring) maps to infinity; if num vanishes there by the same
    rule, Indeterminate is raised (R is not reduced).
    """
    if is_infinity(z):
        return _value_at_infinity(R)
    if isinstance(z, np.ndarray):
        return _eval_array(R, z)
    v = _eval_array(R, np.array([complex(z)]))[0]
    return complex(v) if cmath.isfinite(v) else INF


def _value_at_infinity(R: RationalMap):
    dn, dd = R.num.degree, R.den.degree
    if dn > dd:
        return INF
    if dn < dd:
        return 0j
    return R.num.lead / R.den.lead


def _eval_array(R: RationalMap, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    num, den = R.num, R.den
    diff = num.degree - den.degree
    with np.errstate(all="ignore"):
        az = np.abs(z)
        near = az <= HANDOFF_RADIUS  # False for non-finite entries
        if near.all():
            out = _quotient(num.coeffs, den.coeffs, z, az)
        else:
            at_inf = _value_at_infinity(R)
            out = np.full(z.shape, np.inf if is_infinity(at_inf) else at_inf,
                          dtype=np.complex128)
            out[near] = _quotient(num.coeffs, den.coeffs, z[near], az[near])
            far = ~near & np.isfinite(z)
            if far.any():
                zf = z[far]
                w = 1.0 / zf
                ratio = _quotient(num.coeffs[::-1], den.coeffs[::-1], w, np.abs(w))
                out[far] = ratio if diff == 0 else zf ** diff * ratio
    out[~np.isfinite(out)] = np.inf
    return out


def _quotient(num_c, den_c, x: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """num_c(x) / den_c(x) in one chart of the sphere, with np.inf at poles."""
    nv = horner(num_c, x)
    dv = horner(den_c, x)
    pole = _vanishes(den_c, x, ax, dv)
    if pole.any():
        both = _vanishes(num_c, x[pole], ax[pole], nv[pole])
        if both.any():
            raise Indeterminate(f"num and den both vanish at {x[pole][both][0]}")
    q = nv / dv
    q[pole] = np.inf
    return q


def _vanishes(coeffs, x: np.ndarray, ax: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Where |v| <= POLE_RTOL * envelope(coeffs, x), for v = horner(coeffs, x).

    sum_k |c_k| * max(1, |x|)**deg bounds the envelope from above at the
    cost of one power, so the envelope itself is only evaluated at the
    few points that meet the bound.
    """
    av = np.abs(v)
    hit = av <= (POLE_RTOL * sum(abs(c) for c in coeffs)
                 * np.maximum(1.0, ax) ** (len(coeffs) - 1))
    if hit.any():
        hit[hit] = av[hit] <= POLE_RTOL * envelope(coeffs, x[hit])
    return hit


def fixed_points(R: RationalMap) -> list:
    """Sphere fixed points: roots of num - z*den, plus INF when R fixes it."""
    g = R.num - R.den.shifted_up(1)
    out: list = []
    if g.degree >= 1:
        out.extend(c.location for c in find_roots(g))
    elif g.is_zero:
        raise Indeterminate("identity map has no isolated fixed points")
    if R.num.degree > R.den.degree:
        out.append(INF)
    return out


def multiplier_at(R: RationalMap, z, tol: float = FIXED_RTOL) -> complex:
    """Derivative of R at a fixed point z (complex or INF).

    At infinity the multiplier is the derivative at 0 of w -> 1/R(1/w),
    estimated at w = 1e-6 with one Richardson extrapolation step.
    """
    if is_infinity(z):
        if not is_infinity(eval_sphere(R, INF)):
            raise NotFixed("INF is not fixed")
        return _inf_multiplier(R)
    z = complex(z)
    img = eval_sphere(R, z)
    if is_infinity(img) or abs(img - z) > tol * max(1.0, abs(z)):
        raise NotFixed(f"{z} is not fixed")
    return R.derivative_at(z)


def _inf_multiplier(R: RationalMap, h: float = 1e-6) -> complex:
    def g_over_w(w: complex) -> complex:
        v = eval_sphere(R, 1.0 / w)
        if is_infinity(v):
            raise NotFixed("orbit of the probe point left the chart")
        return 1.0 / (w * v)

    d1 = g_over_w(complex(h))
    d2 = g_over_w(complex(h / 2.0))
    return 2.0 * d2 - d1


def critical_points(R: RationalMap, seed: int = 0) -> list[RootCluster]:
    """Finite critical points of R with multiplicities (zeros of the
    derivative numerator num' den - num den')."""
    c = R.num.deriv() * R.den - R.num * R.den.deriv()
    if c.degree < 1:
        return []
    return find_roots(c, seed=seed)


def free_critical_points(R: RationalMap, roots,
                         match_radius: float = 1e-6) -> list[RootCluster]:
    """Critical points of R that do not coincide with any supplied root.

    roots may hold complex numbers or RootCluster entries.
    """
    locs = [complex(getattr(r, "location", r)) for r in roots]
    out = []
    for cluster in critical_points(R):
        if all(abs(cluster.location - r) > match_radius for r in locs):
            out.append(cluster)
    return out


def poles(R: RationalMap, seed: int = 0) -> list[RootCluster]:
    if R.den.degree < 1:
        return []
    return find_roots(R.den, seed=seed)


def local_degree_at(R: RationalMap, z0) -> int:
    """Local mapping degree at a fixed point: 1 + multiplicity of z0 as a
    zero of the derivative numerator."""
    if is_infinity(z0):
        return local_degree_at(_conjugate_to_origin(R), 0j)
    z0 = complex(z0)
    img = eval_sphere(R, z0)
    if is_infinity(img) or abs(img - z0) > FIXED_RTOL * max(1.0, abs(z0)):
        raise NotFixed(f"{z0} is not fixed")
    c = R.num.deriv() * R.den - R.num * R.den.deriv()
    mult = 0
    q = c
    while q.degree >= 0 and not q.is_zero:
        if abs(q(z0)) > LOCAL_DEGREE_RTOL * max(q.eval_scale(z0), 1e-300):
            break
        q = q.deriv()
        mult += 1
    return mult + 1


def _conjugate_to_origin(R: RationalMap) -> RationalMap:
    """The map w -> 1/R(1/w), sending a neighborhood of INF to one of 0."""
    dn, dd = R.num.degree, R.den.degree
    if dn <= dd:
        raise NotFixed("INF is not fixed")
    nr = Polynomial.make(tuple(reversed(R.num.coeffs)))
    dr = Polynomial.make(tuple(reversed(R.den.coeffs)))
    return RationalMap(dr.shifted_up(dn - dd), nr, reduced=R.reduced)


def degree_census(p: Polynomial, seed: int = 0) -> DegreeCensus:
    """Count data predicting deg(halley_of(p)) = 2N + s - B - 1.

    N is the number of distinct roots; s counts critical points of p of
    multiplicity >= 2 that are not roots of p, and B is their cumulative
    multiplicity.
    """
    roots = find_roots(p, seed=seed)
    n_distinct = len(roots)
    s = 0
    b = 0
    if p.degree >= 2:
        for crit in find_roots(p.deriv(), seed=seed):
            if crit.multiplicity < 2:
                continue
            if any(abs(crit.location - r.location) <= 1e-6 for r in roots):
                continue
            s += 1
            b += crit.multiplicity
    return DegreeCensus(
        distinct_roots=n_distinct,
        special_count=s,
        special_total_multiplicity=b,
        predicted_degree=2 * n_distinct + s - b - 1,
    )


def scaling_check(p: Polynomial, T: AffineMap, c: complex,
                  samples: int = 50, seed: int = 0,
                  tol: float = 1e-8) -> bool:
    """Affine covariance probe: halley_of(c * p(T z)) == T^-1 o halley_of(p) o T
    at random sample points."""
    h_p = halley_of(p, seed=seed)
    h_q = halley_of(compose_affine(p, T, c), seed=seed)
    t_inv = T.inverse()
    rng = np.random.default_rng(seed)
    checked = 0
    attempts = 0
    while checked < samples and attempts < 20 * samples:
        attempts += 1
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        lhs = eval_sphere(h_q, z)
        rhs_mid = eval_sphere(h_p, T(z))
        if is_infinity(lhs) or is_infinity(rhs_mid):
            continue
        rhs = t_inv(rhs_mid)
        if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
            return False
        checked += 1
    return checked == samples


def conjugate_rotation(R: RationalMap, a: complex) -> RationalMap:
    """The conjugated map z -> a^-1 R(a z)."""
    t = AffineMap(complex(a))
    num = compose_affine(R.num, t).scale(1.0 / complex(a))
    den = compose_affine(R.den, t)
    return RationalMap(num, den, reduced=R.reduced)

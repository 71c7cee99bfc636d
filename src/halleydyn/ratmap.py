"""Rational iteration maps on the Riemann sphere.

Maps are quotients of two Polynomials, reduced so numerator and
denominator share no root.  Construction helpers build the Halley map
and its Koenig / Chebyshev-Halley relatives directly from a polynomial.

Each constructor builds its raw num and den once from p and divides out
their common factors, each to an exact order, at the only points where
they can share one: p's roots, and p's non-root critical points for
Halley and Chebyshev-Halley or the multiple zeros of q_{n-2} for
Koenig(n).  The orders are rules in the multiplicity, stated by each
constructor: at a k-fold root 2(k-1) for Halley, (n-1)(k-1) for Koenig(n)
and 3(k-1) or 3k-2 for Chebyshev-Halley; at a critical point of
multiplicity m, m - 1 (2m - 1 for Chebyshev-Halley at sigma = 1/2); at a
zero of q_{n-2} of multiplicity mu, mu - 1.  The roots and critical
points are p.roots and p.critical, which each Polynomial object finds
once, so every map and census built from one p shares one find_roots on
p and one on p'.

eval_sphere is the one evaluator of a map on the sphere, for single
points and whole arrays alike.  A point z is a pole when den(z) is lost
in its own rounding envelope:

    |den(z)| <= POLE_RTOL * sum_k |d_k| |z|**k.

The same rule decides poles in the 1/z chart (where both sides scale by
|z|**-deg(den)) and in RationalMap.derivative_at.  eval_sphere moves to
that chart beyond RationalMap.handoff_radius, where Horner in z could
overflow, and a value that overflowed never counts as vanishing.

poles, critical_points and fixed_points define R's special points, and
matching_point identifies a computed point with a given one.  The point
at infinity is INF = complex(inf, 0), the value eval_sphere writes for
every non-finite result; any non-finite input stands for it.  INF is fixed
when k = deg num - deg den >= 1, with local degree k and multiplier
den.lead / num.lead for k = 1, 0 for k >= 2, both exact.

Each constructor also lists R's finite fixed points in its family's
closed form (RationalMap.fixed, read off p as the constructor states),
which fixed_points returns when they fit R, and R's critical polynomial
(RationalMap.free_critical; E = 3p''^2 - 2p'p''' for Halley), whose zeros
off p's roots free_critical_points returns.  Each falls back to
root-finding the map's own polynomial when a check against R fails.

Identities between maps are decided from coefficients, never from
sample points: same_map(R, S) compares num_R den_S with num_S den_R
within IDENTITY_RTOL of their largest coefficient, and conjugate(R, T)
builds T^-1 o R o T for an affine T.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateMap, Indeterminate, NonConvergence, NotFixed
from .polycore import (
    CLUSTER_RADIUS,
    ONE,
    X,
    AffineMap,
    Polynomial,
    RootCluster,
    compose_affine,
    derivative,
    envelope,
    find_roots,
    horner,
    matching_point,
    residual_ok,
)

HANDOFF_RADIUS = 1e8
POLE_RTOL = 1e-12
FIXED_RTOL = 1e-6
LOCAL_DEGREE_RTOL = 1e-7
SUPERATTRACTING_TOL = 1e-8
IDENTITY_RTOL = 1e-9

INF = complex(math.inf, 0.0)  # the point at infinity, as eval_sphere writes it


def is_infinity(z) -> bool:
    """Whether the sphere point z is the point at infinity: any non-finite z."""
    return not cmath.isfinite(z)


@dataclass(frozen=True)
class RationalMap:
    """num / den on the sphere.  Maps built by halley_of, konig_of and
    chebyshev_halley_of carry their method ('halley', 'konig(n)',
    'chebyshev(sigma)'), the Polynomial they were built from as source
    (with its roots and critical points), their finite fixed points in
    find_roots order and free_critical (f, orders, kept: see
    free_critical_points); bare quotients carry None."""

    num: Polynomial
    den: Polynomial
    method: str | None = None
    source: Polynomial | None = None
    fixed: tuple[complex, ...] | None = None
    free_critical: tuple | None = None

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def is_real(self) -> bool:
        """Whether num and den are both Polynomial.is_real."""
        return self.num.is_real and self.den.is_real

    def __call__(self, z):
        return eval_sphere(self, z)

    @cached_property
    def handoff_radius(self) -> float:
        """Where eval_sphere hands points to the 1/z chart: min(HANDOFF_RADIUS,
        r) for the largest r at which every term |c_k| r**k of num and of
        den stays below 1e300 / (its number of terms), so that Horner in z
        cannot overflow inside it."""
        return min([HANDOFF_RADIUS] + [
            (1e300 / (len(f.coeffs) * abs(c))) ** (1 / k)
            for f in (self.num, self.den) for k, c in enumerate(f.coeffs) if k and c])

    def derivative_at(self, z: complex) -> complex:
        """Quotient-rule derivative at a finite non-pole point."""
        nv = self.num(z)
        dv = self.den(z)
        if abs(dv) <= POLE_RTOL * envelope(self.den.coeffs, z):
            raise ZeroDivisionError("derivative at a pole")
        dn, dd = self.num.deriv()(z), self.den.deriv()(z)
        if dv * dv == 0:  # underflow: divide by dv twice, before multiplying
            return (dn - nv / dv * dd) / dv
        return (dn * dv - nv * dd) / (dv * dv)


@dataclass(frozen=True)
class DegreeCensus:
    """Root/critical counts of p and the degree they predict for its Halley map."""

    distinct_roots: int
    special_count: int
    special_total_multiplicity: int
    predicted_degree: int


def make_reduced(num: Polynomial, den: Polynomial, cancel=()) -> RationalMap:
    """num / den with the common factors that cancel names divided out.

    Common powers of z, counted by coefficients that are exactly zero,
    are shifted out.  cancel holds (point, count) pairs; each point is
    then deflated count times from both sides (Polynomial.deflated), less
    the powers of z already shifted out when the point is the origin, so
    a real num or den deflated at pairs closed under conjugation stays
    exactly real (Polynomial.deflated).
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return RationalMap(Polynomial(()), ONE)
    t = min(num.valuation(), den.valuation())
    if t:
        num = Polynomial.make(num.coeffs[t:])
        den = Polynomial.make(den.coeffs[t:])
    pairs = [(h, count - t if h == 0 else count) for h, count in cancel]
    return RationalMap(num.deflated(pairs), den.deflated(pairs))


def _check_source(p: Polynomial) -> None:
    """Check p as the source of a map that iterates: ValueError below
    degree 1, and DegenerateMap when p.roots holds a single distinct root,
    as the iteration is then affine."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if len(p.roots) < 2:
        raise DegenerateMap("single distinct root gives an affine iteration")


def _in_double_range(f: Polynomial) -> bool:
    """Whether f is nonzero with no subnormal or non-finite coefficient
    (Polynomial.make trims coefficients that overflowed to inf away)."""
    return not f.is_zero and all(cmath.isfinite(c) and not 0 < abs(c) < sys.float_info.min
                                 for c in f.coeffs)


def _reduced_map(method: str, p: Polynomial, num: Polynomial, den: Polynomial,
                 cancel, fixed, critical) -> RationalMap:
    """num / den cancelled at the (point, order) pairs of cancel, carrying
    method, the source p, the RootClusters fixed (or None) and free_critical;
    DegenerateMap when num or den left double precision (_in_double_range)."""
    if not (_in_double_range(num) and _in_double_range(den)):
        raise DegenerateMap(f"{method} map coefficients overflow or underflow "
                            "double precision")
    if fixed is not None:
        fixed = tuple(sorted((c.location for c in fixed), key=lambda z: (z.real, z.imag)))
    f, orders, kept = critical
    return replace(make_reduced(num, den, cancel), method=method, source=p, fixed=fixed,
                   free_critical=(f, tuple(orders), tuple(kept)))


def _other_zeros(f: Polynomial, orders, known) -> tuple[RootCluster, ...]:
    """The zeros of f that match no point of known, with f first deflated
    count times at each (point, count) of orders so they cannot split (a
    real f deflated at orders closed under conjugation stays real, so
    its zeros come exactly real or in conjugate pairs); NonConvergence
    when orders count more zeros than rounding left f."""
    if sum(count for _, count in orders) > f.degree:
        raise NonConvergence(f"{f.degree} zeros cannot have the orders {orders}")
    rest = f.deflated(orders)
    if rest.degree < 1:
        return ()
    return tuple(c for c in find_roots(rest) if matching_point(c.location, known) is None)


def _halley_critical(p: Polynomial):
    """Halley's free_critical: H' = p^2 E / (2p'^2 - pp'')^2, and E vanishes
    to order 2k - 4 at a k-fold root (k >= 3) and 2m - 2 at a critical
    point of multiplicity m, where H is not critical (multiplier 1 + 2/m)."""
    d2 = p.deriv(2)
    e = (d2 * d2).scale(3.0) - (p.deriv() * p.deriv(3)).scale(2.0)
    return e, [(r.location, 2 * r.multiplicity - 4) for r in p.roots] \
        + [(c.location, 2 * c.multiplicity - 2) for c in p.critical], ()


def halley_of(p: Polynomial) -> RationalMap:
    """Halley iteration z - 2 p p' / (2 p'^2 - p p'') as a reduced rational map.

    num and den share a factor of order 2(k - 1) at a k-fold root of p and
    m - 1 at a non-root critical point of multiplicity m; those roots and
    critical points are its finite fixed points.  DegenerateMap is raised
    when p has a single distinct root; the iteration then collapses to an
    affine contraction onto that root.
    """
    _check_source(p)
    dp = p.deriv()
    den = (dp * dp).scale(2.0) - p * p.deriv(2)
    cancel = [(r.location, 2 * (r.multiplicity - 1)) for r in p.roots]
    cancel += [(c.location, c.multiplicity - 1) for c in p.critical]
    return _reduced_map("halley", p, X * den - (p * dp).scale(2.0), den, cancel,
                        p.roots + p.critical, _halley_critical(p))


def _derivative_tower(p: Polynomial, n: int) -> list[Polynomial]:
    """q_0 .. q_n with q_0 = 1 and q_{k+1} = q_k' p - (k+1) q_k p'."""
    dp = p.deriv()
    tower = [ONE]
    for k in range(n):
        q = tower[-1]
        tower.append(q.deriv() * p - (k + 1.0) * (q * dp))
    return tower


def konig_of(p: Polynomial, n: int) -> RationalMap:
    """Koenig iteration of order n (n=2 is Newton, n=3 is Halley).

    Uses the derivative tower of 1/p: with q_0 = 1 and
    q_{k+1} = q_k' p - (k+1) q_k p', the k-th derivative of 1/p equals
    q_k / p**(k+1), and the map is z + (n-1) q_{n-2} p / q_{n-1}.

    q_j vanishes to order j(k - 1) at a k-fold root of p, so num and den
    share a factor of order (n-1)(k-1) there.  Anywhere else they share a
    factor of order mu - 1 at each zero of q_{n-2} of multiplicity mu
    (q_{n-1} = q_{n-2}' p - (n-1) q_{n-2} p' vanishes to order mu - 1):
    for Halley (n = 3) p's critical points, for z^8 - z and n = 4
    the seven roots of 6z^7 + 1, found on q_{n-2} with the roots of p
    divided out at their orders (n-2)(k-1).  Their order is not a function
    of the critical multiplicity alone: on z^3 - 1 the double critical
    point 0 is a double zero of q_4, as 1/p has only every third Taylor
    term.  R's finite fixed points are p's roots and those zeros.

    q_{n-1} has degree (n-1)(d-1) and num one more for p of degree d, as
    their leading coefficients are never zero; DegenerateMap is raised when
    rounding left either one shorter.

    K' = (n q_{n-1}^2 - (n-1) q_{n-2} q_n) / q_{n-1}^2 = p W / q_{n-1}^2 for
    W = n q_{n-1} q_{n-2}' - (n-1) q_{n-2} q_{n-1}', of order n - 2 at a
    simple root, 2(n-1)(k-1) - k at a k-fold one and 2(mu - 1) at a zero of
    q_{n-2}, where K is not critical.  Koenig(3) reads Halley's E = W / p.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_source(p)
    *_, q_prev, q_cur = _derivative_tower(p, n - 1)
    num = X * q_cur + float(n - 1) * (q_prev * p)
    top = (n - 1) * (p.degree - 1)
    if q_cur.degree != top or num.degree != top + 1:
        raise DegenerateMap(f"konig({n}) coefficients overflow double precision")
    extra = p.critical if n == 3 else _other_zeros(
        q_prev, [(r.location, (n - 2) * (r.multiplicity - 1)) for r in p.roots], p.roots)
    cancel = [(r.location, (n - 1) * (r.multiplicity - 1)) for r in p.roots]
    cancel += [(c.location, c.multiplicity - 1) for c in extra]
    critical = _halley_critical(p) if n == 3 else (
        (q_cur * q_prev.deriv()).scale(float(n)) - (q_prev * q_cur.deriv()).scale(n - 1.0),
        [(r.location, (n - 1) * max(2 * r.multiplicity - 2, 1) - r.multiplicity)
         for r in p.roots]
        + [(c.location, 2 * c.multiplicity - 2) for c in extra], ())
    return _reduced_map(f"konig({n})", p, num, q_cur, cancel, p.roots + extra, critical)


def chebyshev_halley_of(p: Polynomial, sigma: complex) -> RationalMap:
    """One-parameter family z - (1 + (p p'' / 2) / (p'^2 - sigma p p'')) p / p'.

    sigma = 0 is Chebyshev's method, sigma = 1/2 recovers Halley.

    num and den share a factor of order 3(k - 1) at a k-fold root of p,
    or 3k - 2 when the leading coefficient k^2 - sigma k(k-1) of
    p'^2 - sigma p p'' there is zero (sigma = 2 at k = 2, 3/2 at k = 3).
    At a non-root critical point of multiplicity m the order is m - 1,
    or 2m - 1 for sigma = 1/2, whose den carries the extra factor p'.

    R's finite fixed points are p's roots, bar those where 3k - 2 applies
    (R moves them), and for sigma = 1/2 p's critical points, else the zeros
    of f = 2p'^2 + (1 - 2 sigma) p p'' that are not (R has poles there),
    found with f's factors divided out 2k - 2 times at a root (2k - 1 when
    2k^2 + (1 - 2 sigma) k(k-1) = 0) and m - 1 times at a critical point.
    If that search fails, the map carries no list (fixed_points root-finds).

    R' = p^2 E_sigma / (2 den^2), E_sigma = 3(1 - sigma) p'^2 p''^2 - p'^3 p'''
    + sigma(2 sigma - 1) p p''^3, of order 2r - 2k at a k-fold root (k >= 2)
    with cancellation order r, one more where 2 sigma (k - 1) = 2k - 1.  An
    m-fold critical point is a pole of order 2m + 1 (sigma = 0) or m, so a
    critical point of R of multiplicity 2m or m - 1.  Chebyshev(1/2) reads E.
    """
    _check_source(p)
    dp, d2 = p.deriv(), p.deriv(2)
    dp2, pddp = dp * dp, p * d2
    bracket = dp2 - complex(sigma) * pddp
    den = dp * bracket

    def root_order(k: int) -> int:
        return 3 * k - 2 if k * k - sigma * (k * (k - 1)) == 0 else 3 * (k - 1)

    def fixed_order(k: int) -> int:
        return 2 * k - 1 if 2 * k * k + (1 - 2 * sigma) * (k * (k - 1)) == 0 else 2 * k - 2

    def e_order(k: int) -> int:
        return 2 * root_order(k) - 2 * k + int(2 * sigma * (k - 1) == 2 * k - 1)

    def kept(m: int) -> int:
        return 2 * m if sigma == 0 else m - 1

    cancel = [(r.location, root_order(r.multiplicity)) for r in p.roots]
    cancel += [(c.location, 2 * c.multiplicity - 1 if sigma == 0.5 else c.multiplicity - 1)
               for c in p.critical]
    # where the bracket lost its leading term, R maps the root elsewhere
    fixed = tuple(r for r in p.roots if root_order(r.multiplicity) < 3 * r.multiplicity - 2)
    try:
        fixed += p.critical if sigma == 0.5 else _other_zeros(
            dp2.scale(2.0) + pddp.scale(1 - 2 * complex(sigma)),
            [(r.location, fixed_order(r.multiplicity)) for r in p.roots]
            + [(c.location, c.multiplicity - 1) for c in p.critical], p.roots + p.critical)
    except NonConvergence:
        fixed = None
    num = X * den - p * (bracket + pddp.scale(0.5))
    d2sq = d2 * d2
    critical = _halley_critical(p) if sigma == 0.5 else (
        dp2 * (d2sq.scale(3 * (1 - sigma)) - dp * p.deriv(3))
        + (pddp * d2sq).scale(sigma * (2 * sigma - 1)),
        [(r.location, e_order(r.multiplicity)) for r in p.roots]
        + [(c.location, 2 * c.multiplicity - 2 + kept(c.multiplicity)) for c in p.critical],
        tuple(replace(c, multiplicity=kept(c.multiplicity))
              for c in p.critical if kept(c.multiplicity)))
    return _reduced_map(f"chebyshev({sigma})", p, num, den, cancel, fixed, critical)


def eval_sphere(R: RationalMap, z):
    """Evaluate R at sphere points: a complex number or an ndarray.

    A non-finite input stands for the point at infinity, and every
    non-finite value returned is exactly INF; a scalar input returns a
    complex.  Points beyond R.handoff_radius are evaluated in the chart
    w = 1/z through the reversed coefficients, so huge inputs neither
    overflow nor lose the leading behaviour.  A pole (see the module
    docstring) maps to infinity; if num vanishes there by the same rule,
    Indeterminate is raised (R is not reduced).
    """
    if isinstance(z, np.ndarray):
        return _eval_array(R, z)
    return complex(_eval_array(R, np.array([complex(z)]))[0])


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
        near = az <= R.handoff_radius  # False for non-finite entries
        if near.all():
            out = _quotient(num.coeffs, den.coeffs, z, az)
        else:
            out = np.full(z.shape, _value_at_infinity(R), dtype=np.complex128)
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
    """Where |v| <= POLE_RTOL * envelope(coeffs, x), for v = horner(coeffs, x),
    and the envelope is finite: an overflowed value never vanishes.

    sum_k |c_k| * max(1, |x|)**deg bounds the envelope from above at the
    cost of one power, so the envelope itself is only evaluated at the
    few points that meet the bound.
    """
    av = np.abs(v)
    hit = av <= (POLE_RTOL * sum(abs(c) for c in coeffs)
                 * np.maximum(1.0, ax) ** (len(coeffs) - 1))
    if hit.any():
        env = envelope(coeffs, x[hit])
        hit[hit] = (av[hit] <= POLE_RTOL * env) & np.isfinite(env)
    return hit


def fixed_points(R: RationalMap) -> list:
    """Sphere fixed points: roots of g = num - z*den, plus INF when R fixes it.

    R.fixed, the constructor's list, is returned unpolished when it has
    deg g points, each passing is_fixed_point (one call for all); else,
    as for a bare quotient, g's roots are found.  A Koenig or
    Chebyshev-Halley map may miss p's roots by over FIXED_RTOL.
    """
    g = R.num - R.den.shifted_up(1)
    if R.fixed is not None and len(R.fixed) == g.degree \
            and is_fixed_point(R, np.array(R.fixed, dtype=np.complex128)).all():
        out = list(R.fixed)
    elif g.is_zero:
        raise Indeterminate("identity map has no isolated fixed points")
    else:
        out = [c.location for c in find_roots(g)] if g.degree >= 1 else []
    if R.num.degree > R.den.degree:
        out.append(INF)
    return out


def is_fixed_point(R: RationalMap, z):
    """Whether R fixes the finite point z: |R(z) - z| <= FIXED_RTOL * max(1, |z|);
    elementwise for an ndarray z, as eval_sphere takes."""
    return np.abs(eval_sphere(R, z) - z) <= FIXED_RTOL * np.maximum(1.0, np.abs(z))


def multiplier_at(R: RationalMap, z) -> complex:
    """Derivative of R at a fixed point z, finite or INF; NotFixed when
    a finite z fails is_fixed_point.

    At infinity it is the derivative at 0 of w -> 1/R(1/w), which is
    w**k den.lead / num.lead to leading order for k = deg num - deg den:
    den.lead / num.lead when k = 1 and 0 when k >= 2.
    """
    if is_infinity(z):
        k = local_degree_at(R, INF)
        return R.den.lead / R.num.lead if k == 1 else 0j
    z = complex(z)
    if not is_fixed_point(R, z):
        raise NotFixed(f"{z} is not fixed")
    return R.derivative_at(z)


def _critical_numerator(R: RationalMap) -> Polynomial:
    """num' den - num den', whose zeros are R's finite critical points;
    DegenerateMap when it left double precision (R not constant)."""
    c = R.num.deriv() * R.den - R.num * R.den.deriv()
    if R.degree > 0 and not _in_double_range(c):
        raise DegenerateMap("derivative numerator overflows or underflows double precision")
    return c


def critical_points(R: RationalMap) -> list[RootCluster]:
    """Finite critical points of R with multiplicities (zeros of the
    derivative numerator num' den - num den')."""
    c = _critical_numerator(R)
    if c.degree < 1:
        return []
    return find_roots(c)


def free_critical_points(R: RationalMap, roots) -> list[RootCluster]:
    """Critical points of R, with multiplicities, that do not coincide with
    any supplied root (see matching_point).

    roots may hold complex numbers or RootCluster entries.

    A constructed map reads them off R.free_critical = (f, orders, kept),
    as its constructor states: the zeros of f that match no root of p,
    after deflating f count times at each (point, count) of orders so the
    factors there cannot split into spurious nearby zeros, and the
    RootClusters kept.  If that root search fails, or a zero found fails
    find_roots's residual gate on R's own derivative numerator or moves by
    over CLUSTER_RADIUS in a Newton step on it, that numerator's zeros are
    found instead, as for a bare quotient.
    """
    found = None
    if R.free_critical is not None:
        f, orders, kept = R.free_critical
        c = np.array(_critical_numerator(R).coeffs, dtype=np.complex128)
        c /= np.abs(c).max()
        try:
            found = list(_other_zeros(f, orders, R.source.roots))
        except NonConvergence:
            pass
        if found and not all(residual_ok(c, w.location) and _newton_close(c, w) for w in found):
            found = None
        found = None if found is None else found + list(kept)
    if found is None:
        found = critical_points(R)
    return [c for c in found if matching_point(c.location, roots) is None]


def _newton_close(c: np.ndarray, w: RootCluster) -> bool:
    """Whether a Newton step on the (m-1)-th derivative of c, for w's
    multiplicity m, moves w.location by at most CLUSTER_RADIUS."""
    c = derivative(c, w.multiplicity - 1)
    return abs(horner(c, w.location)) <= CLUSTER_RADIUS * abs(horner(derivative(c), w.location))


def poles(R: RationalMap) -> list[RootCluster]:
    if R.den.degree < 1:
        return []
    return find_roots(R.den)


def local_degree_at(R: RationalMap, z0) -> int:
    """Local mapping degree at a fixed point.

    At INF it is deg num - deg den (NotFixed unless that is >= 1).  At a
    finite point it is 1 unless the multiplier is below SUPERATTRACTING_TOL,
    the bound classify uses; then it is 1 plus the multiplicity of z0 as a
    zero of the derivative numerator.
    """
    if is_infinity(z0):
        k = R.num.degree - R.den.degree
        if k < 1:
            raise NotFixed("INF is not fixed")
        return k
    z0 = complex(z0)
    if abs(multiplier_at(R, z0)) >= SUPERATTRACTING_TOL:
        return 1
    mult = 0
    q = _critical_numerator(R)
    while q.degree >= 0 and not q.is_zero:
        if abs(q(z0)) > LOCAL_DEGREE_RTOL * max(envelope(q.coeffs, z0), 1e-300):
            break
        q = q.deriv()
        mult += 1
    return mult + 1


def degree_census(p: Polynomial) -> DegreeCensus:
    """Count data predicting deg(halley_of(p)) = 2N + s - B - 1.

    N is the number of distinct roots; s counts critical points of p of
    multiplicity >= 2 that are not roots of p, and B is their cumulative
    multiplicity.  The counts come from p.roots and p.critical, which a
    map built from the same p object has already found.
    """
    special = [c.multiplicity for c in p.critical if c.multiplicity >= 2]
    return DegreeCensus(
        distinct_roots=len(p.roots),
        special_count=len(special),
        special_total_multiplicity=sum(special),
        predicted_degree=2 * len(p.roots) + len(special) - sum(special) - 1,
    )


def same_map(R: RationalMap, S: RationalMap) -> bool:
    """Whether R and S are one map: num_R den_S and num_S den_R agree
    coefficientwise within IDENTITY_RTOL of their largest coefficient."""
    a, b = R.num * S.den, S.num * R.den
    scale = max((abs(c) for c in a.coeffs + b.coeffs), default=0.0)
    return all(abs(c) <= IDENTITY_RTOL * scale for c in (a - b).coeffs)


def conjugate(R: RationalMap, T: AffineMap) -> RationalMap:
    """T^-1 o R o T, that is (num(T z) - b den(T z)) / a over den(T z)
    for T z = a z + b."""
    num = compose_affine(R.num, T)
    den = compose_affine(R.den, T)
    num = (num - den.scale(T.b)).scale(1.0 / complex(T.a))
    return RationalMap(num, den)

"""Dense complex polynomials with simultaneous-iteration root finding.

Coefficients are stored in ascending order (index k holds the z**k
coefficient).  Root finding combines the Aberth-Ehrlich simultaneous
iteration for simple roots with a derivative-recursion pass that pins
down multiple roots to full precision; double precision alone smears a
multiplicity-m cluster over a radius of roughly eps**(1/m), which would
defeat a fixed merging radius for m >= 3.  derivative is the one
coefficient derivative: Polynomial.deriv and the root finder take it.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import NonConvergence, NotNormalized

TRIM_RTOL = 1e-12
CLUSTER_RADIUS = 1e-6
MULTIPLE_ROOT_RTOL = 1e-10
RESIDUAL_RTOL = 1e-6
MAX_SWEEPS = 200
NORMAL_FORM_RTOL = 1e-9


def _trim(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    """Drop high-order coefficients below TRIM_RTOL relative to the largest."""
    if not coeffs:
        return ()
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return ()
    k = len(coeffs)
    while k > 0 and abs(coeffs[k - 1]) <= TRIM_RTOL * scale:
        k -= 1
    return coeffs[:k]


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial over the complex numbers.

    The empty coefficient tuple is the zero polynomial.  All arithmetic
    trims the result so the leading coefficient is genuinely nonzero.

    roots and critical are found at most once per object: cached_property
    keeps each in the instance __dict__, which equality and hashing never
    read.  An equal but distinct Polynomial finds its own.
    """

    coeffs: tuple[complex, ...]

    @classmethod
    def make(cls, coeffs) -> "Polynomial":
        return cls(_trim(tuple(complex(c) for c in coeffs)))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """The monic polynomial with the given roots, repeated by multiplicity."""
        acc = np.array([1.0 + 0j])
        for r in roots:
            acc = np.convolve(acc, np.array([-complex(r), 1.0]))
        return cls.make(acc)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> complex:
        return self.coeffs[-1]

    @property
    def is_real(self) -> bool:
        """Whether every coefficient's imaginary part is exactly 0."""
        return not any(c.imag for c in self.coeffs)

    def __call__(self, z):
        return horner(self.coeffs, z)

    def deriv(self, order: int = 1) -> "Polynomial":
        return Polynomial.make(derivative(self.coeffs, order))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial.make(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial(())
            prod = np.convolve(np.array(self.coeffs), np.array(other.coeffs))
            return Polynomial.make(prod)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        return Polynomial.make(tuple(complex(c) * a for a in self.coeffs))

    def shifted_up(self, k: int) -> "Polynomial":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return Polynomial(((0j,) * k) + self.coeffs)

    def valuation(self) -> int:
        """Order of vanishing at the origin: the number of leading zero
        coefficients, counting only exact zeros."""
        if self.is_zero:
            raise ValueError("zero polynomial has no valuation")
        return next(k for k, c in enumerate(self.coeffs) if c != 0)

    def support(self, rtol: float) -> list[int]:
        """Exponents whose coefficients exceed rtol times the largest."""
        scale = max((abs(c) for c in self.coeffs), default=0.0)
        return [k for k, c in enumerate(self.coeffs) if abs(c) > rtol * scale]

    def deflated(self, pairs) -> "Polynomial":
        """self divided by (z - h) count times for each (h, count) of pairs,
        by synthetic division (deflate), each remainder discarded.  When
        self is real and the pairs of nonzero count are a multiset closed
        under exact conjugation, the exact quotient is real, and the result
        keeps only the real parts of the computed one."""
        moved = [(complex(h), count) for h, count in pairs if count]
        w = list(self.coeffs)
        for h, count in moved:
            for _ in range(count):
                w, _ = deflate(w, h)
        if self.is_real and Counter(moved) == Counter((h.conjugate(), c) for h, c in moved):
            w = [c.real for c in w]
        return Polynomial.make(w)

    @cached_property
    def roots(self) -> tuple["RootCluster", ...]:
        """find_roots(self), as a tuple."""
        return tuple(find_roots(self))

    @cached_property
    def critical(self) -> tuple["RootCluster", ...]:
        """The zeros of p' that match no root (see matching_point), with
        their multiplicities; empty below degree 2."""
        if self.degree < 2:
            return ()
        return tuple(c for c in find_roots(self.deriv())
                     if matching_point(c.location, self.roots) is None)


X = Polynomial((0j, 1.0 + 0j))
ONE = Polynomial((1.0 + 0j,))


@dataclass(frozen=True)
class RootCluster:
    """A root location with its merged multiplicity."""

    location: complex
    multiplicity: int


@dataclass(frozen=True)
class AffineMap:
    """z -> a*z + b with a != 0."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("affine map needs a != 0")

    def __call__(self, z: complex) -> complex:
        return self.a * z + self.b

    def inverse(self) -> "AffineMap":
        return AffineMap(1.0 / self.a, -self.b / self.a)


@dataclass(frozen=True)
class NormalizedForm:
    """Maximal factorization p(z) = z**alpha * p0(z**beta) with p0 monic."""

    alpha: int
    beta: int
    p0: Polynomial


def matching_point(z: complex, points):
    """The first of points (complex numbers or RootClusters) within
    CLUSTER_RADIUS of z, or None: the one rule identifying a computed
    point with a known one."""
    return next((h for h in points
                 if abs(z - complex(getattr(h, "location", h))) <= CLUSTER_RADIUS), None)


def derivative(c, order: int = 1) -> np.ndarray:
    """The ascending complex128 coefficients of the order-th derivative of
    the ascending coefficients c: the package's one coefficient derivative."""
    c = np.asarray(c, dtype=np.complex128)
    for _ in range(order):
        c = np.arange(1, len(c)) * c[1:]
    return c


def horner(coeffs, z):
    """Value at z of the ascending coefficients, for a scalar or an ndarray z.

    This is the package's one complex Horner loop: polynomials, the
    reversed 1/z chart of the sphere evaluator and the root finder's
    residuals all evaluate through it.  Arrays of two or more points are
    updated in place, and a zero coefficient adds nothing but the sign of
    a zero.  numpy's in-place product rounds differently from acc * z on
    a one-element array, so scalars and single points take the
    out-of-place loop, and a point gets the same value alone as in a batch.
    """
    if not isinstance(z, np.ndarray) or z.size < 2:
        acc = np.zeros(z.shape, dtype=np.complex128) if isinstance(z, np.ndarray) else 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc
    acc = np.zeros(z.shape, dtype=np.complex128)
    for c in reversed(coeffs):
        acc *= z
        if c != 0:
            acc += c
    return acc


def envelope(coeffs, z):
    """Sum of |c_k| |z|**k, the rounding-error envelope of horner(coeffs, z)."""
    az = abs(z)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * az + abs(c)
    return acc


def taylor(c, t, count: int | None = None) -> list:
    """The first count (default: all) ascending coefficients of c(t + h)
    in h: coefficient k is the remainder of the (k + 1)-th synthetic
    division of c by (z - t) (deflate), and 0 once c is used up."""
    out = []
    for _ in range(len(c) if count is None else count):
        c, remainder = deflate(c, t)
        out.append(remainder)
    return out


def compose_affine(p: Polynomial, T: AffineMap) -> Polynomial:
    """Coefficients of p(T(z)) for T(z) = a z + b: coefficient k is that
    of h**k in p(b + h) (taylor), times a**k."""
    a = complex(T.a)
    return Polynomial.make([c * a ** k for k, c in enumerate(taylor(p.coeffs, complex(T.b)))])


def normalized_form(p: Polynomial) -> NormalizedForm:
    """Split a normalized polynomial into z**alpha * p0(z**beta), beta maximal.

    Raises NotNormalized unless p is monic with (numerically) vanishing
    second-leading coefficient.  A monomial z**alpha reports beta = 1 and
    constant p0 = 1.  Both tests, and the support that fixes beta, use
    NORMAL_FORM_RTOL.
    """
    if p.degree < 1:
        raise NotNormalized("degree must be positive")
    scale = max(abs(c) for c in p.coeffs)
    if abs(p.lead - 1.0) > NORMAL_FORM_RTOL:
        raise NotNormalized("leading coefficient must be 1")
    if abs(p.coeffs[p.degree - 1]) > NORMAL_FORM_RTOL * scale:
        raise NotNormalized("second-leading coefficient must vanish")
    support = p.support(NORMAL_FORM_RTOL)
    alpha = support[0]
    if len(support) == 1:
        return NormalizedForm(alpha=alpha, beta=1, p0=ONE)
    beta = math.gcd(*(k - alpha for k in support[1:]))
    p0 = Polynomial.make(tuple(p.coeffs[alpha + beta * j]
                               for j in range((p.degree - alpha) // beta + 1)))
    return NormalizedForm(alpha=alpha, beta=beta, p0=p0)


# ----------------------------------------------------------------------
# root finding


def find_roots(p: Polynomial) -> list[RootCluster]:
    """All complex roots of p, merged into clusters with multiplicities.

    Simple roots come from the Aberth-Ehrlich simultaneous iteration
    started on a circle with a fixed perturbation, so the result depends
    on p alone, and are polished by Newton steps on the input polynomial.
    Multiple roots are located through the derivative recursion: a root of
    p with multiplicity m+1 appears as a multiplicity-m root of p', where
    it is eventually simple and therefore accurately computable.
    Surviving locations closer than CLUSTER_RADIUS are merged, summing
    multiplicity.  When p.is_real (every coefficient's imaginary part is
    exactly 0), or every coefficient's real part is exactly 0, the clusters
    are paired by conjugation (see _conjugate_paired): a real root has
    imaginary part exactly 0, and a non-real root of imaginary part > 0 has
    its partner at exactly its .conjugate(), with the same multiplicity.
    Other polynomials' roots are left as found.
    Clusters come sorted by real part, then imaginary part.

    Raises NonConvergence when residuals stay above tolerance after
    MAX_SWEEPS sweeps, and ValueError for constant input.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    scale = max(abs(c) for c in p.coeffs)
    c = np.array(p.coeffs, dtype=np.complex128) / scale
    try:
        return _gated_clusters(p, c, _roots_rec(c))
    except NonConvergence:
        # heavy root clustering can stall the simultaneous iteration at
        # pseudo-equilibria; fall back to the companion-matrix cloud
        return _gated_clusters(p, c, _companion_clusters(c))


def _gated_clusters(p: Polynomial, c: np.ndarray, raw) -> list[RootCluster]:
    """Merge raw (location, multiplicity) pairs of p's roots, for p's
    scaled coefficients c, and enforce the exit gates."""
    merged = _merge(raw, CLUSTER_RADIUS)
    total = sum(m for _, m in merged)
    if total != p.degree:
        raise NonConvergence(f"found multiplicity total {total} for degree {p.degree}")
    for loc, mult in merged:
        if not residual_ok(c, loc):
            raise NonConvergence(f"residual too large at {loc}")
    if p.is_real or not any(a.real for a in p.coeffs):
        merged = _conjugate_paired(merged)
    merged.sort(key=lambda t: (t[0].real, t[0].imag))
    return [RootCluster(loc, m) for loc, m in merged]


def _conjugate_paired(merged: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """The clusters of a polynomial with real coefficients, made exactly
    symmetric under conjugation.

    Each cluster's partner is the cluster nearest to its conjugate.  A
    cluster that is its own partner is real: its imaginary part becomes
    exactly 0.  Two clusters that are each other's partners, with the same
    multiplicity, are a conjugate pair: the one of larger imaginary part
    keeps its value and the other becomes its .conjugate().  Any other
    pattern (which the true roots, being symmetric, never show) leaves
    the clusters as found.
    """
    locs = np.array([loc for loc, _ in merged], dtype=np.complex128)
    partner = np.abs(locs[None, :] - locs.conj()[:, None]).argmin(axis=1).tolist()
    out = []
    for k, (loc, mult) in enumerate(merged):
        j = partner[k]
        if j == k:
            out.append((complex(loc.real, 0.0), mult))
            continue
        other, other_mult = merged[j]
        if partner[j] != k or other_mult != mult or other.imag == loc.imag:
            return merged
        out.append((complex(loc) if loc.imag > other.imag else complex(other).conjugate(),
                    mult))
    return out


def residual_ok(c: np.ndarray, z: complex) -> bool:
    """find_roots's exit gate: |c(z)| <= max(RESIDUAL_RTOL * envelope(c, z),
    TRIM_RTOL), for coefficients c scaled to a largest modulus of 1."""
    # coefficients below TRIM_RTOL*scale count as zero, so a residual below
    # that floor is zero too
    return abs(horner(c, z)) <= max(RESIDUAL_RTOL * envelope(c, z), TRIM_RTOL)


def _companion_clusters(c: np.ndarray):
    """Root cloud from the companion matrix, re-clustered and sharpened.

    A multiplicity-m root of a floating-point polynomial surfaces as m
    simple roots smeared over a radius of order eps**(1/m), so the merge
    radius here is much wider than the primary path's.  Each merged center
    is then re-polished on the (m-1)th derivative, where the root is
    simple again and Newton recovers full accuracy.
    """
    if not np.isfinite(c).all():  # scaling a subnormal p can leave infs or NaNs
        raise NonConvergence("non-finite coefficients")
    cloud = np.roots(c[::-1])
    if len(cloud) == 0:
        return []
    r = max(CLUSTER_RADIUS, 1e-3 * (1.0 + float(np.abs(cloud).max())))
    merged = _merge([(complex(z), 1) for z in cloud], r)
    out = []
    for loc, m in merged:
        base = derivative(c, m - 1)
        z = _newton_polish(base, derivative(base), loc)
        out.append((z if abs(z - loc) <= r else loc, m))
    return out


def deflate(c, r: complex) -> tuple[list, complex]:
    """(quotient, remainder) of the ascending coefficients c (a list or
    tuple of Python scalars, which the loop reads faster than an ndarray)
    divided by (z - r): the package's one synthetic-division loop.  The
    quotient is an ascending list; the empty c gives ([], 0)."""
    out = []
    acc = c[-1] if c else 0
    for a in c[-2::-1]:
        out.append(acc)
        acc = a + r * acc
    out.reverse()
    return out, acc


def _roots_rec(c: np.ndarray) -> list[tuple[complex, int]]:
    """Roots with multiplicities of the (trimmed, scaled) coefficient array."""
    scale = np.abs(c).max()
    k = len(c)
    while k > 1 and abs(c[k - 1]) <= TRIM_RTOL * scale:
        k -= 1
    c = c[:k]
    n = len(c) - 1
    out: list[tuple[complex, int]] = []
    # exact deflation of roots at the origin
    m0 = 0
    while m0 < n and abs(c[m0]) <= TRIM_RTOL * scale:
        m0 += 1
    if m0:
        out.append((0j, m0))
        c = c[m0:]
        n -= m0
    if n == 0:
        return out
    if n <= 2:
        out.extend((z, 1) for z in _aberth(c))
        return out
    dc = derivative(c)
    dclusters = _merge(_roots_rec(dc), CLUSTER_RADIUS)
    work = c.tolist()
    for loc, m in dclusters:
        if loc == 0j:
            continue  # origin roots were deflated exactly above
        env = envelope(c, loc)
        if abs(horner(c, loc)) <= MULTIPLE_ROOT_RTOL * env:
            if m + 1 > len(work) - 1:
                raise NonConvergence("derivative clusters claim more roots than remain")
            out.append((loc, m + 1))
            for _ in range(m + 1):
                work, _ = deflate(work, loc)
    if len(work) - 1 >= 1:
        out.extend((_newton_polish(c, dc, z), 1) for z in _aberth(np.array(work)))
    return out


def _quadratic(c: np.ndarray) -> list[complex]:
    a2, a1, a0 = c[2], c[1], c[0]
    disc = cmath.sqrt(a1 * a1 - 4.0 * a2 * a0)
    # pick the branch that avoids cancellation in -a1 -+ disc
    if (a1.conjugate() * disc).real >= 0.0:
        q = -0.5 * (a1 + disc)
    else:
        q = -0.5 * (a1 - disc)
    if q != 0:
        return [q / a2, a0 / q]
    return [0j, -a1 / a2]


@cache
def _start_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """_aberth's start points for degree n on the unit circle, as the
    factors exp(i angle_k) and 1 + jitter_k of each: the same jitter on
    every call, so roots depend on the polynomial alone."""
    rng = np.random.default_rng(0)
    angles = 2.0 * np.pi * (np.arange(n) + 0.35) / n
    jitter = 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    factors = np.exp(1j * angles), 1.0 + jitter
    for f in factors:
        f.flags.writeable = False
    return factors


def _aberth(c: np.ndarray) -> list[complex]:
    """Roots of a polynomial with (assumed) simple roots: in closed form
    up to degree 2, else by the Aberth-Ehrlich sweep."""
    n = len(c) - 1
    if n == 1:
        return [complex(-c[0] / c[1])]
    if n == 2:
        return [complex(r) for r in _quadratic(c)]
    cauchy = 1.0 + float(np.abs(c[:-1] / c[-1]).max())
    if abs(c[0]) > 0:
        radius = min(cauchy, 1.0 + abs(c[0] / c[-1]) ** (1.0 / n))
    else:
        radius = min(cauchy, 2.0)
    turns, jitter = _start_circle(n)
    z = radius * turns * jitter
    dc = derivative(c)
    ok = False
    for _ in range(MAX_SWEEPS):
        pv = horner(c, z)
        dv = horner(dc, z)
        with np.errstate(all="ignore"):
            newton = np.where(dv != 0, pv / dv, 0.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            s = (1.0 / diff).sum(axis=1) - 1.0  # remove the diagonal 1/1 terms
            denom = 1.0 - newton * s
            w = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        w = np.where(np.isfinite(w), w, 0.0)
        z = z - w
        if np.all(np.abs(w) <= 1e-13 * (1.0 + np.abs(z))):
            ok = True
            break
    if not ok:
        # accept anyway if every residual is already at the noise floor
        if not np.all(np.abs(horner(c, z)) <= 1e-10 * envelope(c, z)):
            raise NonConvergence("Aberth-Ehrlich sweep budget exhausted")
    return [complex(v) for v in z]


def _newton_polish(c: np.ndarray, dc: np.ndarray, z: complex) -> complex:
    for _ in range(3):
        pv = horner(c, z)
        if abs(pv) <= 1e-15 * envelope(c, z):
            break
        dv = horner(dc, z)
        if dv == 0:
            break
        z = z - pv / dv
    return z


def _merge(points: list[tuple[complex, int]],
           radius: float) -> list[tuple[complex, int]]:
    """Single-linkage merge of (location, multiplicity) pairs within radius."""
    pts = list(points)
    merged: list[tuple[complex, int]] = []
    while pts:
        loc, mult = pts.pop()
        changed = True
        while changed:
            changed = False
            keep = []
            for q, qm in pts:
                if abs(q - loc) <= radius:
                    # multiplicity-weighted mean keeps the better-determined side
                    loc = (loc * mult + q * qm) / (mult + qm)
                    mult += qm
                    changed = True
                else:
                    keep.append((q, qm))
            pts = keep
        merged.append((loc, mult))
    return merged

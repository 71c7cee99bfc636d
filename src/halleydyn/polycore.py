"""Dense complex polynomials with simultaneous-iteration root finding.

Coefficients are stored in ascending order (index k holds the z**k
coefficient).  Root finding combines the Aberth-Ehrlich simultaneous
iteration for simple roots with a derivative-recursion pass that pins
down multiple roots to full precision; double precision alone smears a
multiplicity-m cluster over a radius of roughly eps**(1/m), which would
defeat a fixed merging radius for m >= 3.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NotNormalized

TRIM_RTOL = 1e-12
CLUSTER_RADIUS = 1e-6
MULTIPLE_ROOT_RTOL = 1e-10
DEFAULT_SEED = 0
MAX_SWEEPS = 200


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
    """

    coeffs: tuple[complex, ...]

    @classmethod
    def make(cls, coeffs) -> "Polynomial":
        return cls(_trim(tuple(complex(c) for c in coeffs)))

    @classmethod
    def from_roots(cls, roots, lead: complex = 1.0) -> "Polynomial":
        acc = np.array([complex(lead)])
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

    def __call__(self, z):
        return horner(self.coeffs, z)

    def deriv(self, order: int = 1) -> "Polynomial":
        c = self.coeffs
        for _ in range(order):
            c = tuple(k * c[k] for k in range(1, len(c)))
        return Polynomial.make(c)

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

    def valuation(self, rtol: float = TRIM_RTOL) -> int:
        """Order of vanishing at the origin."""
        if self.is_zero:
            raise ValueError("zero polynomial has no valuation")
        scale = max(abs(c) for c in self.coeffs)
        for k, c in enumerate(self.coeffs):
            if abs(c) > rtol * scale:
                return k
        return self.degree

    def eval_scale(self, z) -> float:
        """Sum of |c_k| |z|**k, the rounding-error envelope of __call__."""
        return envelope(self.coeffs, z)


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


def horner(coeffs, z):
    """Value at z of the ascending coefficients, for a scalar or an ndarray z.

    This is the package's one complex Horner loop: polynomials, the
    reversed 1/z chart of the sphere evaluator and the root finder's
    residuals all evaluate through it.
    """
    acc = np.zeros(z.shape, dtype=np.complex128) if isinstance(z, np.ndarray) else 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def envelope(coeffs, z):
    """Sum of |c_k| |z|**k, the rounding-error envelope of horner(coeffs, z)."""
    az = abs(z)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * az + abs(c)
    return acc


def eval_with_derivatives(p: Polynomial, z: complex) -> tuple[complex, complex, complex]:
    """Evaluate p, p', p'' at z in one fused Horner pass."""
    pv = 0j
    dv = 0j
    hv = 0j
    for c in reversed(p.coeffs):
        hv = hv * z + dv
        dv = dv * z + pv
        pv = pv * z + c
    return pv, dv, 2.0 * hv


def compose_affine(p: Polynomial, T: AffineMap, c: complex = 1.0) -> Polynomial:
    """Coefficients of c * p(T(z)), built by iterated multiplication."""
    lin = Polynomial((complex(T.b), complex(T.a)))
    acc = Polynomial(())
    power = ONE
    for coeff in p.coeffs:
        acc = acc + power.scale(coeff)
        power = power * lin
    return acc.scale(c)


def normalized_form(p: Polynomial, tol: float = 1e-9) -> NormalizedForm:
    """Split a normalized polynomial into z**alpha * p0(z**beta), beta maximal.

    Raises NotNormalized unless p is monic with (numerically) vanishing
    second-leading coefficient.  A monomial z**alpha reports beta = 1 and
    constant p0 = 1.
    """
    if p.degree < 1:
        raise NotNormalized("degree must be positive")
    scale = max(abs(c) for c in p.coeffs)
    if abs(p.lead - 1.0) > tol:
        raise NotNormalized("leading coefficient must be 1")
    if p.degree >= 1 and abs(p.coeffs[p.degree - 1]) > tol * scale:
        raise NotNormalized("second-leading coefficient must vanish")
    alpha = p.valuation(rtol=tol)
    support = [k - alpha for k in range(alpha, p.degree + 1)
               if abs(p.coeffs[k]) > tol * scale]
    gaps = [g for g in support if g > 0]
    if not gaps:
        return NormalizedForm(alpha=alpha, beta=1, p0=ONE)
    beta = gaps[0]
    for g in gaps[1:]:
        beta = _gcd(beta, g)
    p0 = Polynomial.make(tuple(p.coeffs[alpha + beta * j]
                               for j in range((p.degree - alpha) // beta + 1)))
    return NormalizedForm(alpha=alpha, beta=beta, p0=p0)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# ----------------------------------------------------------------------
# root finding


def find_roots(p: Polynomial,
               cluster_radius: float = CLUSTER_RADIUS,
               seed: int = DEFAULT_SEED,
               max_sweeps: int = MAX_SWEEPS) -> list[RootCluster]:
    """All complex roots of p, merged into clusters with multiplicities.

    Simple roots come from the Aberth-Ehrlich simultaneous iteration
    started on a perturbed circle (deterministic for a fixed seed) and are
    polished by Newton steps on the input polynomial.  Multiple roots are
    located through the derivative recursion: a root of p with
    multiplicity m+1 appears as a multiplicity-m root of p', where it is
    eventually simple and therefore accurately computable.  Surviving
    locations closer than cluster_radius are merged, summing multiplicity.

    Raises NonConvergence when residuals stay above tolerance after the
    sweep budget, and ValueError for constant input.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    scale = max(abs(c) for c in p.coeffs)
    c = np.array(p.coeffs, dtype=np.complex128) / scale
    try:
        raw = _roots_rec(c, seed, max_sweeps, cluster_radius)
        return _gated_clusters(p.degree, c, raw, cluster_radius)
    except NonConvergence:
        # heavy root clustering can stall the simultaneous iteration at
        # pseudo-equilibria; fall back to the companion-matrix cloud
        raw = _companion_clusters(c, cluster_radius)
        return _gated_clusters(p.degree, c, raw, cluster_radius)


def _gated_clusters(degree: int, c: np.ndarray, raw,
                    cluster_radius: float) -> list[RootCluster]:
    """Merge raw (location, multiplicity) pairs and enforce the exit gates."""
    merged = _merge(raw, cluster_radius)
    total = sum(m for _, m in merged)
    if total != degree:
        raise NonConvergence(f"found multiplicity total {total} for degree {degree}")
    for loc, mult in merged:
        # coefficients below TRIM_RTOL*scale count as zero, so the residual
        # envelope is not meaningful below that floor (c is scaled to 1)
        env = max(envelope(c, loc), TRIM_RTOL)
        if abs(horner(c, loc)) > 1e-6 * env:
            raise NonConvergence(f"residual too large at {loc}")
    merged.sort(key=lambda t: (t[0].real, t[0].imag))
    return [RootCluster(loc, m) for loc, m in merged]


def _companion_clusters(c: np.ndarray, cluster_radius: float):
    """Root cloud from the companion matrix, re-clustered and sharpened.

    A multiplicity-m root of a floating-point polynomial surfaces as m
    simple roots smeared over a radius of order eps**(1/m), so the merge
    radius here is much wider than the primary path's.  Each merged center
    is then re-polished on the (m-1)th derivative, where the root is
    simple again and Newton recovers full accuracy.
    """
    cloud = np.roots(c[::-1])
    if len(cloud) == 0:
        return []
    r = max(cluster_radius, 1e-3 * (1.0 + float(np.abs(cloud).max())))
    merged = _merge([(complex(z), 1) for z in cloud], r)
    out = []
    for loc, m in merged:
        base = c
        for _ in range(m - 1):
            base = np.arange(1, len(base), dtype=np.complex128) * base[1:]
        dbase = np.arange(1, len(base), dtype=np.complex128) * base[1:]
        z = _newton_polish(base, dbase, loc)
        out.append((z if abs(z - loc) <= r else loc, m))
    return out


def _deflate(c: np.ndarray, r: complex) -> np.ndarray:
    """Synthetic division of c (ascending) by (z - r); remainder discarded."""
    n = len(c) - 1
    out = np.empty(n, dtype=np.complex128)
    acc = c[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = c[k] + r * acc
    return out


def _roots_rec(c: np.ndarray, seed: int, max_sweeps: int,
               cluster_radius: float) -> list[tuple[complex, int]]:
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
    if n == 1:
        out.append((-c[0] / c[1], 1))
        return out
    if n == 2:
        out.extend((r, 1) for r in _quadratic(c))
        return out
    dc = np.arange(1, n + 1) * c[1:]
    dclusters = _merge(_roots_rec(dc, seed, max_sweeps, cluster_radius),
                       cluster_radius)
    work = c
    for loc, m in dclusters:
        if loc == 0j:
            continue  # origin roots were deflated exactly above
        env = envelope(c, loc)
        if abs(horner(c, loc)) <= MULTIPLE_ROOT_RTOL * env:
            out.append((loc, m + 1))
            for _ in range(m + 1):
                work = _deflate(work, loc)
    if len(work) - 1 >= 1:
        simple = _aberth(work, seed, max_sweeps)
        dcf = np.arange(1, len(c)) * c[1:]
        simple = [_newton_polish(c, dcf, z) for z in simple]
        out.extend((z, 1) for z in simple)
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


def _aberth(c: np.ndarray, seed: int, max_sweeps: int) -> list[complex]:
    """Aberth-Ehrlich sweep for a polynomial with (assumed) simple roots."""
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
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * (np.arange(n) + 0.35) / n
    jitter = 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z = radius * np.exp(1j * angles) * (1.0 + jitter)
    dc = np.arange(1, n + 1) * c[1:]
    ok = False
    for _ in range(max_sweeps):
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

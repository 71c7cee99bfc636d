"""Rotation-symmetry estimation for polynomials, maps, and basin grids.

The symmetry order of a normalized polynomial is the beta exponent of
its maximal z**alpha * p0(z**beta) form.  For the induced Halley map the
order is probed two independent ways: as a coefficient identity at
random sample points, and as a label permutation on a computed basin
grid.  The polynomial's rotation group always embeds in the map's, so
the polynomial order must divide both probe results.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ContainmentError, WindowNotCentered
from .polycore import Polynomial, find_roots, normalized_form
from .ratmap import RationalMap, eval_sphere, halley_of
from .dynamics import UNDECIDED, BasinGrid, Window, classify_grid

MAP_PROBE_POINTS = 64
MAP_PROBE_RTOL = 1e-9
GRID_AGREEMENT = 0.99
DEFAULT_N_MAX = 12


@dataclass(frozen=True)
class SymmetryGroupEstimate:
    order: int
    evidence: str  # 'coefficient_identity' | 'grid_invariance' | 'both'
    containment_checked: bool


@dataclass(frozen=True)
class SymmetryReport:
    sigma_p_order: int
    map_rotation_order: int
    grid_order: int
    equality: bool
    estimate: SymmetryGroupEstimate


def polynomial_symmetry_order(p: Polynomial) -> int:
    """Rotation order of a normalized polynomial (the maximal beta)."""
    return normalized_form(p).beta


def map_rotation_order(R: RationalMap, n_max: int = DEFAULT_N_MAX,
                       points: int = MAP_PROBE_POINTS,
                       rtol: float = MAP_PROBE_RTOL,
                       seed: int = 0) -> int:
    """Largest n <= n_max with R(lam z) = lam R(z) for lam = exp(2 pi i / n).

    Checked at random sample points away from the poles; falls back to 1
    when no larger order verifies.
    """
    rng = np.random.default_rng(seed)
    zs = []
    attempts = 0
    while len(zs) < points:
        attempts += 1
        if attempts > 200 * points:
            raise ValueError("could not sample points away from the poles")
        z = complex(rng.uniform(-1.7, 1.7), rng.uniform(-1.7, 1.7))
        if abs(z) < 0.2:
            continue
        # a margin for conditioning, not a pole test: R is evaluated to
        # about eps * envelope / |den| relative error, which must stay
        # well below rtol for the equivariance comparison
        if abs(R.den(z)) <= 1e-6 * R.den.eval_scale(z):
            continue
        zs.append(z)
    zs = np.array(zs)
    values = eval_sphere(R, zs)
    for n in range(n_max, 1, -1):
        lam = cmath.exp(2j * cmath.pi / n)
        if _equivariant(R, zs, values, lam, rtol):
            return n
    return 1


def _equivariant(R, zs, values, lam, rtol) -> bool:
    rot = eval_sphere(R, lam * zs)
    at_inf = ~np.isfinite(values)
    if np.any(at_inf != ~np.isfinite(rot)):
        return False
    with np.errstate(invalid="ignore"):
        close = np.abs(rot - lam * values) <= rtol * np.maximum(1.0, np.abs(values))
    return bool(np.all(close | at_inf))


def grid_symmetry_order(grid: BasinGrid, n_max: int = DEFAULT_N_MAX,
                        agreement: float = GRID_AGREEMENT) -> int:
    """Largest n <= n_max whose rotation permutes the grid labels.

    Rotates pixel centers by 2 pi / n and samples the label at the
    nearest pixel.  Pixels on label boundaries or without a label are
    excluded; the remaining pairs must follow a single label permutation
    on at least the agreement fraction.  Needs a square window centered
    at the origin.
    """
    w = grid.window
    if abs(w.center) > 1e-12 or abs(w.half_width - w.half_height) > 1e-12 \
            or grid.width != grid.height:
        raise WindowNotCentered("need a square window centered at 0")
    labels = grid.labels
    interior = labels != UNDECIDED
    same = np.ones_like(interior)
    same[1:, :] &= labels[1:, :] == labels[:-1, :]
    same[:-1, :] &= labels[:-1, :] == labels[1:, :]
    same[:, 1:] &= labels[:, 1:] == labels[:, :-1]
    same[:, :-1] &= labels[:, :-1] == labels[:, 1:]
    # border pixels have missing neighbors; treat them as boundary
    same[0, :] = same[-1, :] = False
    same[:, 0] = same[:, -1] = False
    source = interior & same
    centers = grid.pixel_centers()
    for n in range(n_max, 1, -1):
        if _rotation_consistent(grid, labels, centers, source, n, agreement):
            return n
    return 1


def _rotation_consistent(grid, labels, centers, source, n, agreement) -> bool:
    w = grid.window
    rot = centers * cmath.exp(2j * cmath.pi / n)
    col = np.rint((rot.real - (w.center.real - w.half_width)) / grid.pixel_width - 0.5)
    row = np.rint(((w.center.imag + w.half_height) - rot.imag) / grid.pixel_height - 0.5)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    valid = source & inside
    src = labels[valid]
    dst = labels[row[valid].astype(np.int64), col[valid].astype(np.int64)]
    keep = dst != UNDECIDED
    src = src[keep]
    dst = dst[keep]
    if src.size == 0:
        return False
    # majority-vote permutation per source label
    perm = {}
    for a in np.unique(src):
        tgt, counts = np.unique(dst[src == a], return_counts=True)
        perm[int(a)] = int(tgt[counts.argmax()])
    if len(set(perm.values())) != len(perm):
        return False
    mapped = np.array([perm[int(a)] for a in src])
    return float((mapped == dst).mean()) >= agreement


def symmetry_report(p: Polynomial, n_max: int = DEFAULT_N_MAX,
                    resolution: int = 400, max_iter: int = 200,
                    window_half: float = 2.0, seed: int = 0) -> SymmetryReport:
    """Cross-checked symmetry orders of p and its Halley map.

    Requires a normalized polynomial with at least three distinct roots
    (two-root inputs have straight-line basin boundaries, where rotation
    order is not the right invariant).  Raises ContainmentError when the
    polynomial order fails to divide either map-side estimate.
    """
    roots = find_roots(p, seed=seed)
    if len(roots) < 3:
        raise ValueError("need at least three distinct roots")
    sigma_p = polynomial_symmetry_order(p)
    R = halley_of(p, seed=seed)
    map_order = map_rotation_order(R, n_max=n_max, seed=seed)
    grid = classify_grid(R, [c.location for c in roots],
                         Window(0j, window_half, window_half),
                         resolution, max_iter=max_iter)
    grid_order = grid_symmetry_order(grid, n_max=n_max)
    if map_order % sigma_p or grid_order % sigma_p:
        raise ContainmentError(
            f"polynomial order {sigma_p} does not divide probes "
            f"({map_order}, {grid_order})")
    equality = sigma_p == map_order == grid_order
    estimate = SymmetryGroupEstimate(
        order=map_order if map_order == grid_order else sigma_p,
        evidence="both" if map_order == grid_order else "coefficient_identity",
        containment_checked=True,
    )
    return SymmetryReport(sigma_p, map_order, grid_order, equality, estimate)

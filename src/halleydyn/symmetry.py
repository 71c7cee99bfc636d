"""Rotation-symmetry estimation for polynomials, maps, and basin grids.

The symmetry order of a normalized polynomial is the beta exponent of
its maximal z**alpha * p0(z**beta) form.  For a map built from it
(Halley, Koenig or Chebyshev-Halley) the order is read two independent
ways: exactly, from the exponents of the map's coefficients, and as a
label permutation on a computed basin grid, whose rotated pixel centres
are sampled through BasinGrid.pixel_of.  The polynomial's rotation
group always embeds in the map's, so the polynomial order must divide
both results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContainmentError, WindowNotCentered
from .polycore import NORMAL_FORM_RTOL, Polynomial, normalized_form
from .ratmap import RationalMap
from .dynamics import DEFAULT_MAX_ITER, UNDECIDED, BasinGrid, Window, classify_grid

GRID_AGREEMENT = 0.99
N_MAX = 12  # the largest rotation order the grid probe tests
PROBE_STRIDE = 16  # the grid probe first tries every 16th source pixel
# symmetry_report's grid: REPORT_WINDOW at REPORT_RESOLUTION x
# REPORT_RESOLUTION pixels, each orbit run for DEFAULT_MAX_ITER steps
REPORT_WINDOW = Window(0j, 2.0, 2.0)
REPORT_RESOLUTION = 400


@dataclass(frozen=True)
class SymmetryReport:
    sigma_p_order: int
    map_rotation_order: int
    grid_order: int
    equality: bool


def polynomial_symmetry_order(p: Polynomial) -> int:
    """Rotation order of a normalized polynomial (the maximal beta)."""
    return normalized_form(p).beta


def map_rotation_order(R: RationalMap) -> int:
    """Largest n with R(lam z) = lam R(z) for lam = exp(2 pi i / n).

    For a reduced R that holds exactly when every exponent of den, and
    every exponent of num minus one, agree mod n: n divides the gcd g of
    their differences, so the order is g.  When g = 0 (R(z) = c z, which
    commutes with every rotation) it is N_MAX.  A coefficient counts when
    it exceeds NORMAL_FORM_RTOL of its polynomial's largest, the rule
    normalized_form applies to p.
    """
    exps = ([k - 1 for k in R.num.support(NORMAL_FORM_RTOL)]
            + R.den.support(NORMAL_FORM_RTOL))
    return math.gcd(*(k - exps[0] for k in exps)) or N_MAX


def grid_symmetry_order(grid: BasinGrid) -> int:
    """Largest n <= N_MAX whose rotation permutes the grid labels.

    Rotates pixel centers by 2 pi / n and samples the label of the pixel
    containing each (BasinGrid.pixel_of).  Pixels on label boundaries or
    without a label are excluded; the remaining pairs must follow a single
    label permutation on at least the GRID_AGREEMENT fraction.  A sample
    of the pixels rejects most orders before the full pass (see
    _rotation_consistent), with the full pass's answer.  Needs a square
    window centered at the origin.
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
    src, src_centers = labels[source], grid.pixel_centers()[source]
    for n in range(N_MAX, 1, -1):
        if _rotation_consistent(grid, labels, src, src_centers, n):
            return n
    return 1


def _rotation_consistent(grid, labels, src, src_centers, n) -> bool:
    """Whether rotation by 2 pi / n follows one label permutation on at
    least the GRID_AGREEMENT share of the pairs of the source pixels, whose
    labels and centres, in row-major order, are src and src_centers.

    Every PROBE_STRIDE-th source pixel is tried first.  Its T kept pairs,
    whose histogram rows have largest counts summing to M, bound the
    agreement of all the pairs from above by (M + U) / (T + U), where U
    source pixels were not tried: each adds at most one pair and one
    agreement.  A bound below GRID_AGREEMENT rejects n, and otherwise the
    full pass decides, so the answer is the full pass's either way.
    """
    rot = cmath.exp(2j * cmath.pi / n)
    tried = np.s_[::PROBE_STRIDE]
    pairs = _rotated_pairs(grid, labels, src[tried], src_centers[tried] * rot)
    kept, untried = pairs[0].size, src.size - src[tried].size
    agree = int(_histogram(*pairs).max(axis=1).sum()) if kept else 0
    if kept + untried == 0 or (agree + untried) / (kept + untried) < GRID_AGREEMENT - 1e-9:
        return False
    agreement = _vote_agreement(*_rotated_pairs(grid, labels, src, src_centers * rot))
    return agreement is not None and agreement >= GRID_AGREEMENT


def _rotated_pairs(grid, labels, src, rotated):
    """(source, destination) label pairs of the pixels with labels src
    whose rotated centres land inside the grid on a labelled pixel."""
    row, col = grid.pixel_of(rotated)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    dst = labels[row[inside], col[inside]]  # the label at each rotated centre
    keep = dst != UNDECIDED
    return src[inside][keep], dst[keep]


def _histogram(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Counts of the label pairs (src[i], dst[i]), at least one, in one row
    per source label that occurs and one column per label between the
    smallest and largest."""
    lo = min(src.min(), dst.min())
    k = int(max(src.max(), dst.max())) - int(lo) + 1
    hist = np.bincount((src - lo) * k + (dst - lo), minlength=k * k).reshape(k, k)
    return hist[hist.any(axis=1)]


def _vote_agreement(src: np.ndarray, dst: np.ndarray) -> float | None:
    """Share of the label pairs (src[i], dst[i]) that follow the
    majority-vote permutation, in which each source label goes to its
    most frequent destination (the smallest on a tie); every count is read
    off one histogram of the pairs.  None when there are no pairs or two
    source labels vote for one destination."""
    if src.size == 0:
        return None
    hist = _histogram(src, dst)
    images = hist.argmax(axis=1)
    if np.unique(images).size != images.size:
        return None
    agree = hist[np.arange(images.size), images].sum()
    return float(agree / src.size)


def symmetry_report(R: RationalMap) -> SymmetryReport:
    """Cross-checked symmetry orders of a constructed map R and of the
    polynomial p = R.source it was built from, read with p.roots.
    The grid covers REPORT_WINDOW at REPORT_RESOLUTION x REPORT_RESOLUTION
    pixels.

    Requires a normalized p with at least three distinct roots (two-root
    inputs have straight-line basin boundaries, where rotation order is
    not the right invariant) and an order of p at most N_MAX, the largest
    the grid probe tests: ValueError otherwise.  Raises
    ContainmentError when the polynomial order fails to divide either
    map-side estimate.
    """
    p, roots = R.source, R.source.roots
    if len(roots) < 3:
        raise ValueError("need at least three distinct roots")
    sigma_p = polynomial_symmetry_order(p)
    if sigma_p > N_MAX:
        raise ValueError(f"polynomial order {sigma_p} exceeds the grid probe's "
                         f"N_MAX = {N_MAX}")
    map_order = map_rotation_order(R)
    grid = classify_grid(R, [c.location for c in roots], REPORT_WINDOW,
                         REPORT_RESOLUTION, max_iter=DEFAULT_MAX_ITER)
    grid_order = grid_symmetry_order(grid)
    if map_order % sigma_p or grid_order % sigma_p:
        raise ContainmentError(
            f"polynomial order {sigma_p} does not divide probes "
            f"({map_order}, {grid_order})")
    return SymmetryReport(sigma_p, map_order, grid_order,
                          sigma_p == map_order == grid_order)

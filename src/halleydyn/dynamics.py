"""Orbit iteration, basin grids, and real-axis convergence diagnostics.

One kernel, _classify_points, follows every orbit to a root or cycle:
grid pixels, the windows of boundedness probes, single orbits, free
critical points and the sample points of interval checks.  It splits the
points of a call into blocks of _BLOCK, applies the map to all live
points of a block at once and keeps state (position, point, step count)
only for points not yet retired.  A block hands back its live points
once at most _BLOCK // 8 remain; these tails are pooled and split into
equal pieces of at most _BLOCK for another round, and a round of one
piece runs it to the end.  Every step is elementwise, so a point's
outcome does not depend on its piece.  The pieces of a round run on one
module-level thread pool, created on first use with a thread per CPU the
process may use; numpy releases the GIL inside its ufuncs.  Its one
capture rule: a point is captured at the first step, at most max_iter,
at which it lies within the capture radius of a target; it takes the
label of the nearest such target (the first one on a tie), its iteration
count is that step, and its last point is that target.  Since
|Re w - Re t| <= |w - t|, only the points that pass that test on real
parts, against the largest radius of the targets sharing a real part,
are measured against the targets.
Targets are attracting: roots, and the points of attracting cycles.  A
cycle point, a lone target and a superattracting root (Halley's simple
roots) have radius CAPTURE_RADIUS; on every map the grid goldens pin,
that disk about a root maps into itself, and the one about a cycle point
maps into itself under the cycle's period.  Every other root, such as a
multiple root, where Halley's method converges only linearly, gets a
proven trap radius (_trap_radius): R maps the closed disk into the open
one, in exact arithmetic and in floats, so by the Schwarz lemma the disk
holds one fixed point, which attracts every orbit that enters.  Trap
disks meet no other target's disk.  So an orbit that enters a disk never
leaves its basin, and an orbit that enters a trap disk before max_iter
is labelled even when it would come within CAPTURE_RADIUS of the root
only after max_iter.

classify_grid classifies half the grid of a real map, and a quarter of
an odd one.  When R.is_real (every coefficient has imaginary part
exactly 0), the targets are closed under exact conjugation (radii
included, which conjugation keeps bit for bit) and the
window is centred on the real axis, the kernel runs on the top
ceil(H/2) rows only; each row below is its mirror row conjugated, with
the same counts and each label sent to that of the conjugate target.
When R is moreover odd (see _is_odd), the targets are closed under
exact t -> -conj(t) and the window is centred on the imaginary axis,
the kernel runs on the left ceil(W/2) columns only, and each column to
their right is its mirror column under z -> -conj(z) in the same way.
This is exact: the lattice of such a window is mirror-exact (see
_centers), and with real coefficients Horner's loop, complex division,
abs and the real-part screen commute with conjugation bit for bit, so
the conjugate of an orbit is an orbit, step for step.  Rounding to
nearest is symmetric under a change of sign, so for an odd real map
Horner's loop on num and den (which skips exactly-zero coefficients),
complex products and division, abs, the pole envelope, the 1/z chart
and the screen commute with z -> -conj(z) bit for bit as well, and the
image of an orbit under it is an orbit.

orbit_outcomes finds the cycles: the kernel follows its orbits to the
roots, and one vectorised continuation reads cycles off the points it
leaves undecided, applying the map to all of them at once for at most
PERIOD_CAP steps.  An orbit's first return within CYCLE_TOL of its
step-max_iter point gives its period.  polycore.matching_point decides
whether a cycle point is a root or a point of an earlier cycle.

The real-axis diagnostics require R.is_real and take a point as real when
its imaginary part is exactly 0: each point they test is found by
find_roots on a polynomial with real (or purely imaginary) coefficients,
which pairs its roots exactly under conjugation.

Every map application goes through ratmap.eval_sphere, the one sphere
evaluator, so poles follow its one rule: z is a pole when
|den(z)| <= POLE_RTOL * sum_k |d_k| |z|**k.

Basin components are labelled by _component_ids: the runs of equal
labels along each row are joined wherever two runs of the same label
touch vertically, by a union-find over runs (Wu, Otoo & Suzuki 2009)
whose trees are hooked and flattened as in Shiloach & Vishkin (1982).
A grid is labelled once, on first use of BasinGrid.components, and every
root's component on it is read from that one labelling.

BasinGrid.pixel_of is the lattice's one inverse: locate and the grid
symmetry probe find the pixel of a point through it.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import zip_longest

import numpy as np

from .errors import SeedUnlabeled
from .polycore import Polynomial, envelope, matching_point
from .ratmap import (
    HANDOFF_RADIUS,
    INF,
    POLE_RTOL,
    SUPERATTRACTING_TOL,
    RationalMap,
    critical_points,
    eval_sphere,
    fixed_points,
    free_critical_points,
    is_fixed_point,
    poles,
)

CAPTURE_RADIUS = 1e-8
DEFAULT_MAX_ITER = 200
CYCLE_TOL = 1e-9
PERIOD_CAP = 32
UNDECIDED = int(np.iinfo(np.int32).min)
MAX_ITER_LIMIT = int(np.iinfo(np.int32).max)  # iteration counts are int32
INTERVAL_SAMPLES = 7
INTERVAL_MAX_ITER = 500
# points per kernel block: a block's step temporaries stay in L2, and the
# blocks of one call run on _pool's threads (numpy releases the GIL)
_BLOCK = 32_768
_UNIT = 2.0 ** -53  # unit roundoff of a double
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle: center plus half extents."""

    center: complex
    half_width: float
    half_height: float

    def __post_init__(self):
        if not cmath.isfinite(complex(self.center)):
            raise ValueError("window centre must be finite")
        if not (0 < self.half_width < math.inf and 0 < self.half_height < math.inf):
            raise ValueError("window extents must be finite and positive")


@dataclass(frozen=True, eq=False)
class BasinGrid:
    """Per-pixel outcomes over a window; row 0 holds the top edge.

    labels: root index >= 0, cycle id encoded as -(id+1), or UNDECIDED.
    iterations: map applications until first capture (max_iter if none).
    """

    window: Window
    width: int
    height: int
    labels: np.ndarray
    iterations: np.ndarray
    max_iter: int

    @property
    def pixel_width(self) -> float:
        return 2.0 * self.window.half_width / self.width

    @property
    def pixel_height(self) -> float:
        return 2.0 * self.window.half_height / self.height

    @cached_property
    def components(self) -> np.ndarray:
        """Component id of each pixel: pixels share one exactly when they
        are joined by a 4-connected path of pixels of one label
        (UNDECIDED pixels included), computed on first use."""
        return _component_ids(self.labels)

    def pixel_centers(self) -> np.ndarray:
        return _centers(self.window, self.width, self.height,
                        np.arange(self.height), np.arange(self.width))

    def column_reals(self) -> np.ndarray:
        """The real part of each column of pixel_centers(), equal in every
        row, without building the centres of the whole grid."""
        return _centers(self.window, self.width, self.height, np.arange(1),
                        np.arange(self.width))[0].real

    def pixel_of(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) intp arrays of the pixels containing the points z:
        the floor of each point's offset from the window's top-left
        corner in pixel pitches.  A point outside the window lands outside
        [0, height) x [0, width), at most one pixel beyond its edge."""
        w, z = self.window, np.asarray(z)
        col = np.floor((z.real - (w.center.real - w.half_width)) / self.pixel_width)
        row = np.floor(((w.center.imag + w.half_height) - z.imag) / self.pixel_height)
        return (np.clip(row, -1, self.height).astype(np.intp),
                np.clip(col, -1, self.width).astype(np.intp))

    def locate(self, point: complex) -> tuple[int, int]:
        """(row, col) of the pixel containing a point, clamped to the grid."""
        row, col = self.pixel_of(point)
        return (min(max(int(row), 0), self.height - 1), min(max(int(col), 0), self.width - 1))


def _centers(window: Window, width: int, height: int, rows, cols) -> np.ndarray:
    """Centres of the given rows and columns of the window's width x height
    pixel lattice: pixel (i, j) is centred at x0 + (j + 0.5) pw,
    y0 - (i + 0.5) ph, where (x0, y0) is the window's top-left corner and
    pw x ph the pixel size; i and j may lie outside the window.  In a
    window centred on the real axis, a row i >= height / 2 lies at exactly
    minus the imaginary part of row height - 1 - i, so the lattice is
    symmetric under conjugation bit for bit; in one centred on the
    imaginary axis, a column j >= width / 2 lies at exactly minus the real
    part of column width - 1 - j, so it is symmetric under z -> -conj(z)."""
    pw = 2.0 * window.half_width / width
    ph = 2.0 * window.half_height / height
    xs = _axis(window.center.real - window.half_width, pw, cols, width,
               window.center.real == 0)
    ys = _axis(window.center.imag + window.half_height, -ph, rows, height,
               window.center.imag == 0)
    return xs[None, :] + 1j * ys[:, None]


def _axis(start: float, step: float, index, count: int, mirror: bool) -> np.ndarray:
    """start + (k + 0.5) step for each k of index; when mirror, a k with
    2 k >= count takes exactly minus the value of count - 1 - k."""
    k = np.asarray(index)
    values = start + (k + 0.5) * step
    if mirror:
        values = np.where(2 * k >= count, -(start + (count - 1 - k + 0.5) * step), values)
    return values


@dataclass(frozen=True)
class OrbitOutcome:
    """Result of iterating one initial value.

    kind is 'root', 'cycle', or 'undecided'; the other fields are filled
    according to the kind.
    """

    kind: str
    root_index: int | None = None
    iterations: int | None = None
    cycle: tuple | None = None
    last: complex | None = None

    @property
    def period(self) -> int | None:
        return None if self.cycle is None else len(self.cycle)


@dataclass(frozen=True)
class Obstruction:
    kind: str  # 'pole' | 'critical' | 'fixed'
    location: float


@dataclass(frozen=True)
class IntervalReport:
    x1: float
    x2: float
    obstruction: Obstruction | None
    predicted_limit: float | None
    verified: bool


@dataclass(frozen=True)
class BoundednessReport:
    windows: tuple
    areas: tuple
    touches: tuple
    verdict: str  # 'bounded-evidence' | 'unbounded-evidence'


@dataclass(frozen=True)
class ProfileRow:
    x: float
    value: float | None
    delta: float | None
    pole_flag: int


def iterate_orbit(R: RationalMap, z0, roots,
                  max_iter: int = DEFAULT_MAX_ITER) -> OrbitOutcome:
    """Iterate a single sphere point and report where the orbit settles:
    orbit_outcomes for one point.

    The orbit is captured by the first root disk it enters (see the module
    docstring), so it gets the label and iteration count of a pixel
    centred at z0.
    """
    return orbit_outcomes(R, [z0], roots, max_iter)[0]


def orbit_outcomes(R: RationalMap, points, roots, max_iter: int) -> list[OrbitOutcome]:
    """OrbitOutcome of each sphere point.

    One _classify_points call captures the orbits that reach a root, with
    that root as last.  The finite points w it leaves undecided (last is
    where each was at step max_iter) are then mapped together, one
    eval_sphere call per step, for at most PERIOD_CAP steps.  An orbit
    that first comes back within CYCLE_TOL of w after k steps is on a
    cycle of period k, listed from R(w), and last is its point of return.
    One that reaches infinity or does not come back stays undecided, and
    so does a cycle with a point that matches a root (see matching_point:
    a converging tail).  A cycle whose first point matches a point of an
    earlier outcome's cycle is that cycle, and its outcome carries the
    earlier tuple.
    """
    root_locs = tuple(complex(r) for r in roots)
    z = np.array([complex(p) for p in points], dtype=np.complex128)
    labels, iters, last = _classify_points(R, z, root_locs, (), max_iter)
    open_ = np.flatnonzero((labels == UNDECIDED) & np.isfinite(last))
    w = start = last[open_]
    steps = []  # steps[k - 1] holds the open points' images after k steps
    period = np.zeros(open_.size, dtype=np.int64)  # 0 searching, -1 lost to infinity
    while len(steps) < PERIOD_CAP and (period == 0).any():
        w = eval_sphere(R, w)
        steps.append(w)
        searching = period == 0
        period[searching & ~np.isfinite(w)] = -1
        period[searching & (np.abs(w - start) <= CYCLE_TOL)] = len(steps)

    found = [()] * z.size
    for j, i in enumerate(open_.tolist()):
        found[i] = tuple(complex(steps[k][j]) for k in range(period[j]))
    out = []
    cycles = []
    for label, it, w, cyc in zip(labels.tolist(), iters.tolist(), last.tolist(), found):
        if label != UNDECIDED:
            out.append(OrbitOutcome(kind="root", root_index=label, iterations=it, last=w))
        elif not cyc or any(matching_point(c, root_locs) is not None for c in cyc):
            out.append(OrbitOutcome(kind="undecided", iterations=it,
                                    last=w if cmath.isfinite(w) else INF))
        else:
            known = next((c for c in cycles if matching_point(cyc[0], c) is not None), None)
            if known is None:
                cycles.append(cyc)
            out.append(OrbitOutcome(kind="cycle", iterations=it, cycle=known or cyc,
                                    last=cyc[-1]))
    return out


def classify_grid(R: RationalMap, roots, window: Window, resolution,
                  max_iter: int = DEFAULT_MAX_ITER,
                  cycles: tuple = ()) -> BasinGrid:
    """Label every pixel of the window by the target capturing its orbit.

    resolution is (width, height) or a single square size.  cycles is an
    optional tuple of attracting cycles (tuples of points); pixels caught
    by cycle j get label -(j+1).  Identical inputs give identical grids;
    the iteration is plain dense float arithmetic with no randomness.

    When R.is_real (every coefficient has imaginary part exactly 0), the
    window is centred on the real axis and the targets are closed under
    exact conjugation (see _reflection), only the top ceil(height / 2)
    rows are classified.  Row i below them is row height - 1 - i
    conjugated: the same iteration counts, and each label sent to the
    label of its conjugate target.  When R is moreover odd (_is_odd: every
    nonzero coefficient of num has an exponent of one parity, and every
    one of den the other), the window is centred on the imaginary axis
    and the targets are closed under exact t -> -conj(t), only the left
    ceil(width / 2) columns are classified.  Column j right of them is
    column width - 1 - j under z -> -conj(z): the same counts, and each
    label sent to the label of target -conj(t).  An odd real map over a
    window centred at 0 is thus classified on a quarter of its grid.
    Either way each pixel holds, bit for bit, what the kernel gives at its
    pixel_centers() entry (the module docstring says why).
    """
    if isinstance(resolution, int):
        width = height = resolution
    else:
        width, height = resolution
    root_tuple = tuple(complex(r) for r in roots)
    cycle_tuple = tuple(tuple(complex(p) for p in cyc) for cyc in cycles)
    targets = _targets(R, root_tuple, cycle_tuple)
    row_sigma = (_reflection(R, root_tuple, cycle_tuple, targets, complex.conjugate)
                 if window.center.imag == 0 else None)
    col_sigma = (_reflection(R, root_tuple, cycle_tuple, targets, lambda t: -t.conjugate())
                 if window.center.real == 0 and _is_odd(R) else None)
    rows = height if row_sigma is None else -(-height // 2)
    cols = width if col_sigma is None else -(-width // 2)
    centers = _centers(window, width, height, np.arange(rows), np.arange(cols))
    labels, iters, _ = _classify_points(R, centers.ravel(), root_tuple, cycle_tuple,
                                        max_iter)
    labels, iters = labels.reshape(rows, cols), iters.reshape(rows, cols)
    if col_sigma is not None:
        # column j >= cols is column width - 1 - j under z -> -conj(z)
        labels = np.hstack([labels, col_sigma(labels[:, :width - cols][:, ::-1])])
        iters = np.hstack([iters, iters[:, :width - cols][:, ::-1]])
    if row_sigma is not None:
        # row i >= rows is row height - 1 - i conjugated
        labels = np.vstack([labels, row_sigma(labels[:height - rows][::-1])])
        iters = np.vstack([iters, iters[:height - rows][::-1]])
    return BasinGrid(window, width, height, labels, iters, max_iter)


def _is_odd(R: RationalMap) -> bool:
    """Whether R(-z) = -R(z) by exact zero coefficients: the nonzero
    coefficients of num all have exponents of one parity, and those of
    den all of the other.  Horner's loop skips exactly those zeros, so
    no tolerance applies."""
    num, den = ({k % 2 for k, c in enumerate(f.coeffs) if c != 0} for f in (R.num, R.den))
    return len(num) == len(den) == 1 and num != den


def _reflection(R: RationalMap, roots: tuple, cycles: tuple, targets: list, flip):
    """The label permutation that the reflection flip (conjugation, or
    t -> -conj(t)) induces, as a function on label arrays, or None where
    the kernel may not commute with it.  targets is _targets(R, roots,
    cycles).

    It exists when R.is_real, flip sends each root exactly to a root, the
    images of each cycle's points are exactly the points of a cycle, and
    each target's image has its capture radius bit for bit.  Targets of
    different labels (duplicates among them) within 3 CAPTURE_RADIUS of
    each other give None too: only targets within 2 CAPTURE_RADIUS can
    tie for the nearest, where the first one wins whatever the reflection
    does.  UNDECIDED maps to itself.
    """
    if not R.is_real:
        return None
    for k, (label, t, _) in enumerate(targets):
        if any(other != label and abs(t - u) < 3 * CAPTURE_RADIUS
               for other, u, _ in targets[k + 1:]):
            return None
    root_of = {r: i for i, r in enumerate(roots)}
    cycle_of = {frozenset(cyc): i for i, cyc in enumerate(cycles)}
    radius_of = {t: radius for _, t, radius in targets}
    try:
        root_map = [root_of[flip(r)] for r in roots]
        cycle_map = [cycle_of[frozenset(flip(p) for p in cyc)] for cyc in cycles]
    except KeyError:
        return None
    if any(radius_of[flip(t)] != radius for _, t, radius in targets):
        return None
    # table[label + len(cycles)] is the label of the flipped target
    table = np.array([-(j + 1) for j in reversed(cycle_map)] + root_map, dtype=np.int32)

    def sigma(labels: np.ndarray) -> np.ndarray:
        # an UNDECIDED entry takes a clipped index and is overwritten below
        out = table.take(labels + len(cycles), mode="clip")
        out[labels == UNDECIDED] = UNDECIDED
        return out

    return sigma


def _targets(R: RationalMap, roots: tuple, cycles: tuple) -> list:
    """(label, point, radius) of each target: root i has label i and the
    radius _trap_radius gives it among the other targets; the points of
    cycle j share label -(j + 1) and have radius CAPTURE_RADIUS."""
    points = list(roots) + [p for cyc in cycles for p in cyc]
    return ([(i, t, _trap_radius(R, t, points[:i] + points[i + 1:]))
             for i, t in enumerate(roots)]
            + [(-(ci + 1), p, CAPTURE_RADIUS) for ci, cyc in enumerate(cycles) for p in cyc])


def _trap_radius(R: RationalMap, t: complex, others: list) -> float:
    """Capture radius of the root target t, given the other targets.

    A superattracting t (|R'(t)| < SUPERATTRACTING_TOL, as classify
    calls it; Halley's simple roots are) keeps CAPTURE_RADIUS.  Otherwise
    the radius is the first r of sep / 3, sep / 6, sep / 12, ... above
    CAPTURE_RADIUS whose closed disk about t is a proven trap, and
    CAPTURE_RADIUS if none is.  sep is t's distance to the nearest other
    target, so the disks of two targets are disjoint.  A trap holds one
    fixed point, somewhere in its disk; sep keeps the disk about t, so a
    lone target, or one at infinity, has no sep and keeps CAPTURE_RADIUS.

    The proof: with N(h) = num(t + h) - t den(t + h) and D(h) = den(t + h)
    expanded about t, every z = t + h with |h| <= r has
    |R(z) - t| = |N(h)| / |D(h)| <= A(r) / L(r), where
    A(r) = sum_j (|N_j| + e_j) r**j and
    L(r) = |D_0| - e_0 - sum_{j>=1} (|D_j| + e_j) r**j,
    and e_j bounds the rounding of the computed coefficient, read off the
    same expansion of |num| and |den| about |t|.  delta(r) (spread below)
    bounds the rounding of eval_sphere's Horner loops and quotient on the
    disk, from the envelopes of num and den over L(r).  When
    A / L + delta < r and no point of the disk is a pole by eval_sphere's
    rule, R and its float evaluation both map the closed disk into the
    open one.  The bounds are taken on a disk wider than r by the rounding
    margin, so they also cover every point whose rounded distance to t is
    below r, which the kernel captures.  By the Schwarz lemma R then has
    exactly one fixed point in the disk, which attracts every orbit of R
    that enters (Earle-Hamilton), and no float orbit that enters ever
    leaves.  Conjugate targets of a real map, and t -> -conj(t) of an odd
    one, get bit-equal radii: every step is conjugation- and
    sign-symmetric in floats.
    """
    sep = min((abs(t - u) for u in others), default=math.inf)
    if not math.isfinite(sep):  # a lone target, or one at infinity
        return CAPTURE_RADIUS
    num, den = R.num.coeffs, R.den.coeffs
    n0, n1 = _taylor(num, t, 2)
    d0, d1 = _taylor(den, t, 2)
    if d0 == 0 or abs((n1 * d0 - n0 * d1) / (d0 * d0)) < SUPERATTRACTING_TOL:
        return CAPTURE_RADIUS
    # bounds the relative rounding of one Taylor shift, one Horner loop,
    # one complex division and these sums, with room to spare
    gamma = 8 * (max(len(num), len(den)) + 2) * _UNIT
    at = abs(t)
    env_num = _taylor([abs(c) for c in num], at)
    env_den = _taylor([abs(c) for c in den], at)
    shifted_den = _taylor(den, t)
    # upper[j] >= |N_j| and tail[j - 1] >= |D_j| for the exact coefficients,
    # lead <= |D_0|, with room for the rounding of the sums below
    upper = [abs(a - t * b) + gamma * (ea + at * eb) for a, b, ea, eb
             in zip_longest(_taylor(num, t), shifted_den, env_num, env_den, fillvalue=0)]
    tail = [abs(b) + gamma * eb for b, eb in zip(shifted_den[1:], env_den[1:])]
    lead = abs(shifted_den[0]) - 2 * gamma * env_den[0]
    r = sep / 3
    while r > CAPTURE_RADIUS:
        # the bounds hold on the disk of radius rho, which also holds every
        # point that the kernel's rounded |w - t| < r captures
        rho = (1 + gamma) * r
        a = (1 + gamma) * envelope(upper, rho)  # A(rho) >= |N(h)|
        low = lead - (1 + gamma) * rho * envelope(tail, rho)  # L(rho) <= |D(h)|
        # Horner's rounding on num and den, from their envelopes at |t| + rho
        eta_num = gamma * (1 + gamma) * envelope(num, at + rho)
        envelope_den = (1 + gamma) * envelope(den, at + rho)
        eta_den = gamma * envelope_den
        # no point of the disk is a pole by eval_sphere's rule, or is
        # evaluated in its 1/z chart
        if low - eta_den > POLE_RTOL * envelope_den \
                and (at + rho) * (1 + gamma) <= HANDOFF_RADIUS:
            image = at + a / low  # >= |R(z)|
            # >= |num/den - R(z)| for the computed num and den, then the division
            spread = (eta_num + image * eta_den) / (low - eta_den)
            if (a / low + spread + gamma * (image + spread)) * (1 + gamma) < r:
                return r
        r /= 2
    return CAPTURE_RADIUS


def _taylor(coeffs, t, count: int | None = None) -> list:
    """The first count (default: all) ascending coefficients of
    coeffs(t + h) in h, by repeated synthetic division."""
    a = list(coeffs)
    count = len(a) if count is None else count
    a += [0] * (count - len(a))
    for i in range(count):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += t * a[j + 1]
    return a[:count]


def _classify_points(R: RationalMap, z: np.ndarray, roots: tuple, cycles: tuple,
                     max_iter: int):
    """(labels, iterations, last) of each initial value in the 1-D array z.

    Every step is elementwise over the points, so a point's outcome does
    not depend on which other points share the call or its block.  A
    point is captured at the first step at which it lies within a
    target's capture radius (_targets: CAPTURE_RADIUS, or a root's proven
    trap radius), with the label of the nearest such target; the points
    of one cycle share a label.  last is the target that captured a
    point (the root, or the cycle point it was captured at), where an
    undecided point was at step max_iter, or INF when it was parked at
    infinity by a map that fixes infinity.  ValueError is raised unless
    0 <= max_iter <= MAX_ITER_LIMIT.
    The first exception of a round (in piece order) is raised once every
    piece of the round has finished.
    """
    if not 0 <= max_iter <= MAX_ITER_LIMIT:
        raise ValueError(f"max_iter must lie in [0, {MAX_ITER_LIMIT}]")
    z = np.asarray(z, dtype=np.complex128)
    finite = np.isfinite(z)
    if not finite.all():
        # every non-finite input as INF, the value eval_sphere returns there
        z = np.where(finite, z, INF)
    n = z.size
    labels = np.full(n, UNDECIDED, dtype=np.int32)
    iters = np.full(n, max_iter, dtype=np.int32)
    last = np.empty(n, dtype=np.complex128)  # every point retires exactly once
    targets = _targets(R, roots, cycles)
    target_labels = np.array([label for label, _, _ in targets], dtype=np.int32)
    target_points = np.array([point for _, point, _ in targets], dtype=np.complex128)
    # the screen's bands: each distinct real part once (a conjugate pair
    # shares one), with the largest radius of its targets
    bands = {}
    for _, point, radius in targets:
        bands[point.real] = max(radius, bands.get(point.real, radius))
    # a band of radius r > CAPTURE_RADIUS lowers its distances by slack, so
    # that near < CAPTURE_RADIUS holds wherever |Re w - Re t| < r: the
    # CAPTURE_RADIUS / 2 to spare exceeds the rounding of gap - slack
    screen = [(re, 0.0 if radius == CAPTURE_RADIUS else radius - CAPTURE_RADIUS / 2)
              for re, radius in sorted(bands.items())]
    # a map that fixes infinity parks orbits at INF, the one point where
    # the screen's near is inf once some (finite) target exists
    parks = R.num.degree > R.den.degree and bool(screen)

    def follow(pos, w, steps, alone):
        """Follow the points at positions pos, at w after steps map
        applications, writing out each as it retires.  Returns None once
        all have, or (unless alone) the live points' (pos, w, steps) once
        at most _BLOCK // 8 are live."""
        buffers = np.empty((2, w.size))
        while True:
            # screen: near is each point's distance to the nearest band, less
            # its slack; only points with near < CAPTURE_RADIUS can be captured
            re = w.real.copy()  # contiguous, as it is read once per band
            near, gap = buffers[:, :re.size]
            near.fill(np.inf)
            for target_re, slack in screen:
                np.abs(np.subtract(re, target_re, out=gap), out=gap)
                if slack:
                    np.subtract(gap, slack, out=gap)
                np.minimum(near, gap, out=near)
            cand = np.flatnonzero(near < CAPTURE_RADIUS)
            # index of the nearest target whose disk holds the point (the
            # first one on a tie), one target at a time to keep memory O(points)
            t = np.full(cand.size, -1, dtype=np.intp)
            best = np.full(cand.size, CAPTURE_RADIUS)
            wc = w[cand]
            for k, (_, target, radius) in enumerate(targets):
                d = np.abs(wc - target)
                # a trap disk meets no other target's disk
                closer = d < (best if radius == CAPTURE_RADIUS else radius)
                best[closer] = d[closer]
                t[closer] = k
            hit = t >= 0
            done, t = cand[hit], t[hit]
            labels[pos[done]] = target_labels[t]
            iters[pos[done]] = steps[done]
            retire = steps >= max_iter
            retire[done] = True
            if parks:
                # points parked at the point at infinity never converge to a root
                retire |= near == np.inf
            if retire.any():
                last[pos[retire]] = w[retire]
                # a captured point ends at the target that captured it
                last[pos[done]] = target_points[t]
                keep = np.flatnonzero(~retire)
                pos, w, steps = pos[keep], w[keep], steps[keep]
            if not pos.size:
                return None
            w = eval_sphere(R, w)
            steps += 1
            if not alone and pos.size <= _BLOCK // 8:
                return pos, w, steps

    def block(start: int):
        stop = min(start + _BLOCK, n)
        return follow(np.arange(start, stop), z[start:stop],
                      np.zeros(stop - start, dtype=np.int32), n <= _BLOCK)

    tasks = [partial(block, start) for start in range(0, n, _BLOCK)]
    while tails := [tail for tail in _run(tasks) if tail is not None]:
        # pool the tails and split them into equal pieces of at most _BLOCK
        pos, w, steps = (np.concatenate(part) for part in zip(*tails))
        k = -(-pos.size // _BLOCK)
        tasks = [partial(follow, *piece, k == 1)
                 for piece in zip(*(np.array_split(a, k) for a in (pos, w, steps)))]
    return labels, iters, last


def _run(tasks: list) -> list:
    """Results of the tasks, several on _pool(); the first exception (in
    task order) is raised once every task has finished."""
    if len(tasks) <= 1:
        return [task() for task in tasks]
    futures = [_pool().submit(task) for task in tasks]
    # no task may still be writing once the call returns or raises
    wait(futures)
    return [future.result() for future in futures]


def _pool() -> ThreadPoolExecutor:
    """The module's block executor, one thread per CPU the process may use,
    created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _POOL = ThreadPoolExecutor(max_workers=cpus,
                                       thread_name_prefix="halleydyn-block")
        return _POOL


def free_critical_fates(p: Polynomial, R: RationalMap) -> list[OrbitOutcome]:
    """Orbit outcome for each free critical point of R, a map built from p,
    with p.roots as the targets.

    Outcomes follow the order of free_critical_points, each orbit run for
    DEFAULT_MAX_ITER steps under the kernel's capture rule.  Any cycle outcome
    flags a polynomial whose iteration traps an open set away from the
    roots.
    """
    roots = [c.location for c in p.roots]
    crits = [c.location for c in free_critical_points(R, roots)]
    return orbit_outcomes(R, crits, roots, DEFAULT_MAX_ITER)


def immediate_basin_component(grid: BasinGrid, seed_point: complex):
    """4-connected same-label component containing seed_point.

    Returns (mask, touches_border).  The mask is read from
    grid.components, so the grid is labelled once for all its seeds.
    Raises SeedUnlabeled when the seed pixel is undecided, before any
    labelling.
    """
    row, col = grid.locate(complex(seed_point))
    if grid.labels[row, col] == UNDECIDED:
        raise SeedUnlabeled(f"pixel at {seed_point} has no label")
    return _component(grid.components, row, col)


def _component(ids: np.ndarray, row: int, col: int):
    """(mask, touches_border) of the component through (row, col), given
    ids, a component id per pixel."""
    mask = ids == ids[row, col]
    touches = bool(mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any())
    return mask, touches


def _component_ids(a: np.ndarray) -> np.ndarray:
    """int32 component id of each pixel of the 2-D array a: two pixels
    share an id exactly when a 4-connected path of pixels of equal value
    joins them.  Each id is the index of the first row run (in row-major
    order) of its component.

    The row runs of equal values are the nodes of a union-find, and an
    edge joins the two runs over each stretch of columns where vertically
    adjacent pixels are equal.  Every round hooks the larger root of each
    edge whose ends have different roots to the smallest root it meets
    there, then jumps pointers until every run points at its root.
    Pointers only go to smaller runs, so there are no cycles, and each
    round removes the larger root of every edge still split.
    """
    a = np.asarray(a)
    height, width = a.shape
    start = np.ones((height, width), dtype=bool)
    np.not_equal(a[:, 1:], a[:, :-1], out=start[:, 1:])
    runs = np.cumsum(start, dtype=np.int32).reshape(height, width)
    runs -= 1
    # one edge per stretch of columns over which the same two runs touch;
    # across such a stretch a run starts in the lower row where one does
    # in the upper
    same = a[:-1] == a[1:]
    first = same.copy()
    first[:, 1:] &= ~same[:, :-1] | start[:-1, 1:]
    upper, lower = runs[:-1][first], runs[1:][first]
    root = np.arange(runs[-1, -1] + 1, dtype=np.int32)
    while True:
        ru, rl = root[upper], root[lower]
        apart = ru != rl
        if not apart.any():
            return root[runs]
        # runs joined in one tree stay joined: drop their edges
        upper, lower, ru, rl = upper[apart], lower[apart], ru[apart], rl[apart]
        np.minimum.at(root, np.maximum(ru, rl), np.minimum(ru, rl))
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def boundedness_evidence(R: RationalMap, roots, grid: BasinGrid,
                         seed_point: complex) -> BoundednessReport:
    """Area-stabilization evidence that a basin component is bounded.

    grid holds the labels of classify_grid(R, roots, ...), and seed_point
    must lie in grid.window, in a root's basin: pixels beyond grid are
    labelled by roots alone, so a seed that grid labels with a cycle
    raises ValueError, and an undecided one SeedUnlabeled.  The seed's
    component is measured in grid.window and in that window enlarged 2x
    and 4x about its centre.  Evidence of boundedness requires the final
    component to avoid the border while its area settles to within 1
    percent of the previous window's.

    The first window's component is read from grid.components, so it
    shares the grid's one labelling; each enlarged window labels its
    pixels of the seed's label once.
    The enlarged windows are sampled on grid's pixel lattice, extended
    outward as in _centers, so the pitch is exactly constant: each is the
    lattice rectangle of 2x or 4x grid's width and height about grid (an
    odd margin puts its extra row below and its extra column to the
    right).  It holds the previous rectangle, whose labels it copies, and
    classifies the rest in one kernel call with grid.max_iter.
    Once a window's component avoids that window's border rows and
    columns, all its 4-neighbours lie inside the window, so it cannot
    grow: every later window reports the same area with touches False,
    and nothing more is classified.
    """
    w = grid.window
    seed_point = complex(seed_point)
    if not (w.center.real - w.half_width <= seed_point.real <= w.center.real + w.half_width
            and w.center.imag - w.half_height <= seed_point.imag
            <= w.center.imag + w.half_height):
        raise ValueError(f"seed_point {seed_point} lies outside the first window")
    row, col = grid.locate(seed_point)
    label = int(grid.labels[row, col])
    if label == UNDECIDED:
        raise SeedUnlabeled(f"pixel at {seed_point} has no label")
    if label < 0:
        raise ValueError(f"seed_point {seed_point} lies in a cycle's basin")
    root_tuple = tuple(complex(r) for r in roots)
    windows, areas, touches = [], [], []
    labels, r0, c0 = grid.labels, 0, 0
    for scale in (1, 2, 4):
        windows.append(Window(w.center, scale * w.half_width, scale * w.half_height))
        if touches and not touches[-1]:
            # all 4-neighbours of the component lie inside the previous
            # window, so it cannot grow
            areas.append(areas[-1])
            touches.append(False)
            continue
        if scale > 1:
            # rows r0:r0 + scale * height and columns c0:c0 + scale * width
            # of grid's lattice, holding the previous rectangle
            prev, pr0, pc0 = labels, r0, c0
            r0 = -((scale - 1) * grid.height // 2)
            c0 = -((scale - 1) * grid.width // 2)
            z = _centers(w, grid.width, grid.height,
                         np.arange(r0, r0 + scale * grid.height),
                         np.arange(c0, c0 + scale * grid.width))
            labels = np.empty(z.shape, dtype=np.int32)
            new = np.ones(z.shape, dtype=bool)
            inner = np.s_[pr0 - r0:pr0 - r0 + prev.shape[0], pc0 - c0:pc0 - c0 + prev.shape[1]]
            labels[inner] = prev
            new[inner] = False
            labels[new] = _classify_points(R, z[new], root_tuple, (), grid.max_iter)[0]
        ids = grid.components if scale == 1 else _component_ids(labels == label)
        comp, touch = _component(ids, row - r0, col - c0)
        areas.append(float(comp.sum()) * grid.pixel_width * grid.pixel_height)
        touches.append(touch)
    stable = areas[-2] > 0 and abs(areas[-1] - areas[-2]) < 0.01 * areas[-2]
    verdict = "bounded-evidence" if (stable and not touches[-1]) else "unbounded-evidence"
    return BoundednessReport(tuple(windows), tuple(areas), tuple(touches), verdict)


def _require_real(R: RationalMap):
    if not R.is_real:
        raise ValueError("map must have real coefficients")


def _real_points_between(points, lo: float, hi: float, margin: float) -> list[float]:
    """Sorted real parts of the real points in (lo + margin, hi - margin);
    points may be complex numbers (INF, never inside, among them) or RootClusters."""
    zs = (complex(getattr(pt, "location", pt)) for pt in points)
    return sorted(z.real for z in zs
                  if z.imag == 0 and lo + margin < z.real < hi - margin)


def interval_convergence_check(R: RationalMap, x1: float, x2: float) -> IntervalReport:
    """Monotone-convergence check on a real interval between fixed points.

    Scans the open interval for poles, critical points, and fixed points
    of R; any hit is reported as an obstruction (not raised).  On a clean
    interval the sign of R(x) - x picks the limiting endpoint, and each of
    INTERVAL_SAMPLES sample orbits must enter its CAPTURE_RADIUS disk
    within INTERVAL_MAX_ITER steps (all samples run in one kernel call);
    the endpoint is the only target, so it gets no trap radius.  Pass x2 = inf for the ray variant,
    which instead requires R(x) < x and predicts the left endpoint.
    The obstruction scan runs first, so hypothesis failures are reported
    even when an endpoint is not fixed.  ValueError unless R.is_real.
    """
    _require_real(R)
    if not x1 < x2:
        raise ValueError("need x1 < x2")
    ray = math.isinf(x2)
    hi = x2 if not ray else math.inf
    margin = 1e-9 * max(1.0, abs(x1), 0.0 if ray else abs(x2))

    for kind, points_of in (("pole", poles), ("critical", critical_points),
                            ("fixed", fixed_points)):
        hits = _real_points_between(points_of(R), x1, hi, margin)
        if hits:
            return IntervalReport(x1, x2, Obstruction(kind, hits[0]), None, False)

    for x in (x1,) if ray else (x1, x2):
        if not is_fixed_point(R, complex(x)):
            raise ValueError(f"endpoint {x} is not fixed")

    if ray:
        probe = x1 + max(1.0, abs(x1))
        if eval_sphere(R, complex(probe)).real >= probe:
            return IntervalReport(x1, x2, None, None, False)
        predicted = x1
        offsets = np.geomspace(0.05, 50.0, INTERVAL_SAMPLES) * max(1.0, abs(x1))
        test_points = [x1 + o for o in offsets]
    else:
        mid = 0.5 * (x1 + x2)
        predicted = x1 if eval_sphere(R, complex(mid)).real < mid else x2
        test_points = list(np.linspace(x1, x2, INTERVAL_SAMPLES + 2)[1:-1])

    labels, _, _ = _classify_points(R, np.array(test_points, dtype=np.complex128),
                                    (complex(predicted),), (), INTERVAL_MAX_ITER)
    verified = bool((labels == 0).all())
    return IntervalReport(x1, x2, None, predicted, verified)


def real_axis_profile(R: RationalMap, x_min: float, x_max: float,
                      samples: int) -> list[ProfileRow]:
    """Sampled graph of R along a real segment with poles marked.

    Regular rows carry (x, R(x), R(x) - x, 0); samples falling on a pole
    emit a gap (value None).  Each real pole in range contributes a
    dedicated row with pole_flag 1 so the emitted table shows where the
    graph breaks.  ValueError unless R.is_real.
    """
    _require_real(R)
    if not x_min < x_max:
        raise ValueError("need x_min < x_max")
    xs = np.linspace(x_min, x_max, samples)
    rows = []
    for x, v in zip(xs.tolist(), eval_sphere(R, xs).tolist()):
        if not cmath.isfinite(v):
            rows.append(ProfileRow(x, None, None, 0))
            continue
        rows.append(ProfileRow(x, v.real, v.real - x, 0))
    for c in poles(R):
        r = c.location
        if r.imag == 0 and x_min <= r.real <= x_max:
            rows.append(ProfileRow(float(r.real), None, None, 1))
    rows.sort(key=lambda row: (row.x, row.pole_flag))
    return rows


def profile_to_csv(rows: list[ProfileRow], out):
    """Write rows as CSV to the text stream out: a header line, then one
    line per row with each value in repr form and a gap left empty."""
    out.write("x,Hx,Hx_minus_x,pole_flag\n")
    for row in rows:
        v = "" if row.value is None else repr(row.value)
        d = "" if row.delta is None else repr(row.delta)
        out.write(f"{row.x!r},{v},{d},{row.pole_flag}\n")

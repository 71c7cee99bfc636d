"""Orbit iteration, basin grids, and real-axis convergence diagnostics.

Grid classification iterates every pixel center as an initial value and
labels it by the root (or attracting cycle) that captures its orbit.
The per-pixel iteration is vectorized over a shrinking active set; a
pixel is only labeled after its orbit stays inside the capture disk for
two further iterations, which filters out flybys near repelling fixed
points.

Every map application, for one orbit point or a whole active set, goes
through ratmap.eval_sphere, the one sphere evaluator, so poles follow its
one rule: z is a pole when |den(z)| <= POLE_RTOL * sum_k |d_k| |z|**k.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import SeedUnlabeled
from .polycore import Polynomial, RootCluster, find_roots
from .ratmap import (
    INF,
    RationalMap,
    eval_sphere,
    free_critical_points,
    halley_of,
    is_infinity,
    poles,
)

CAPTURE_RADIUS = 1e-8
DEFAULT_MAX_ITER = 200
CYCLE_TOL = 1e-9
PERIOD_CAP = 32
UNDECIDED = int(np.iinfo(np.int32).min)
REAL_COEFF_RTOL = 1e-9


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle: center plus half extents."""

    center: complex
    half_width: float
    half_height: float

    def __post_init__(self):
        if self.half_width <= 0 or self.half_height <= 0:
            raise ValueError("window extents must be positive")


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
    roots: tuple = ()
    cycles: tuple = ()

    @property
    def pixel_width(self) -> float:
        return 2.0 * self.window.half_width / self.width

    @property
    def pixel_height(self) -> float:
        return 2.0 * self.window.half_height / self.height

    def pixel_centers(self) -> np.ndarray:
        w = self.window
        xs = w.center.real - w.half_width + (np.arange(self.width) + 0.5) * self.pixel_width
        ys = w.center.imag + w.half_height - (np.arange(self.height) + 0.5) * self.pixel_height
        return xs[None, :] + 1j * ys[:, None]

    def locate(self, point: complex) -> tuple[int, int]:
        """(row, col) of the pixel containing a point, clamped to the grid."""
        w = self.window
        col = int((point.real - (w.center.real - w.half_width)) / self.pixel_width)
        row = int(((w.center.imag + w.half_height) - point.imag) / self.pixel_height)
        return (min(max(row, 0), self.height - 1), min(max(col, 0), self.width - 1))


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
    period: int | None = None
    last: object = None


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
                  max_iter: int = DEFAULT_MAX_ITER,
                  capture_radius: float = CAPTURE_RADIUS,
                  cycle_tol: float = CYCLE_TOL,
                  period_cap: int = PERIOD_CAP) -> OrbitOutcome:
    """Iterate a single sphere point and report where the orbit settles.

    Root capture requires the orbit to stay within capture_radius of the
    root for two further applications.  If the budget runs out, Brent's
    tortoise-and-hare detection runs on the orbit tail to look for an
    attracting cycle of period at most period_cap.
    """
    root_locs = [complex(r) for r in roots]
    z = z0
    for it in range(max_iter + 1):
        if not is_infinity(z):
            for ri, r in enumerate(root_locs):
                if abs(z - r) < capture_radius:
                    w = z
                    confirmed = True
                    for _ in range(2):
                        w = eval_sphere(R, w)
                        if is_infinity(w) or abs(w - r) >= capture_radius:
                            confirmed = False
                            break
                    if confirmed:
                        return OrbitOutcome(kind="root", root_index=ri,
                                            iterations=it, last=w)
                    break
        if it == max_iter:
            break
        z = eval_sphere(R, z)
    return _detect_cycle(R, z, root_locs, max_iter, capture_radius,
                         cycle_tol, period_cap)


def _detect_cycle(R, z, root_locs, max_iter, capture_radius,
                  cycle_tol, period_cap) -> OrbitOutcome:
    if is_infinity(z):
        return OrbitOutcome(kind="undecided", last=INF, iterations=max_iter)
    tortoise = z
    hare = eval_sphere(R, z)
    power = 1
    lam = 1
    while True:
        if is_infinity(hare):
            return OrbitOutcome(kind="undecided", last=INF, iterations=max_iter)
        if abs(tortoise - hare) <= cycle_tol:
            break
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
            if power > 2 * period_cap:
                return OrbitOutcome(kind="undecided", last=hare, iterations=max_iter)
        hare = eval_sphere(R, hare)
        lam += 1
    period = lam
    if period > period_cap:
        return OrbitOutcome(kind="undecided", last=hare, iterations=max_iter)
    pts = [hare]
    w = hare
    for _ in range(period - 1):
        w = eval_sphere(R, w)
        if is_infinity(w):
            return OrbitOutcome(kind="undecided", last=INF, iterations=max_iter)
        pts.append(w)
    for d in range(1, period):
        if period % d == 0 and abs(pts[d] - pts[0]) <= cycle_tol:
            period = d
            pts = pts[:d]
            break
    if any(abs(pt - r) < capture_radius for pt in pts for r in root_locs):
        # converging tail misread as a cycle; stay honest and undecided
        return OrbitOutcome(kind="undecided", last=pts[-1], iterations=max_iter)
    return OrbitOutcome(kind="cycle", cycle=tuple(pts), period=period,
                        iterations=max_iter, last=pts[-1])


def classify_grid(R: RationalMap, roots, window: Window, resolution,
                  max_iter: int = DEFAULT_MAX_ITER,
                  capture_radius: float = CAPTURE_RADIUS,
                  cycles: tuple = ()) -> BasinGrid:
    """Label every pixel of the window by the target capturing its orbit.

    resolution is (width, height) or a single square size.  cycles is an
    optional tuple of attracting cycles (tuples of points); pixels caught
    by cycle j get label -(j+1).  Identical inputs give identical grids;
    the iteration is plain dense float arithmetic with no randomness.
    """
    if isinstance(resolution, int):
        width = height = resolution
    else:
        width, height = resolution
    root_tuple = tuple(complex(r) for r in roots)
    cycle_tuple = tuple(tuple(complex(p) for p in cyc) for cyc in cycles)
    grid = BasinGrid(window, width, height,
                     labels=np.full((height, width), UNDECIDED, dtype=np.int32),
                     iterations=np.full((height, width), max_iter, dtype=np.int32),
                     max_iter=max_iter,
                     roots=root_tuple,
                     cycles=cycle_tuple)
    z = grid.pixel_centers().ravel().astype(np.complex128)
    n = z.size
    labels = np.full(n, UNDECIDED, dtype=np.int32)
    iters = np.full(n, max_iter, dtype=np.int32)

    targets = np.array(list(root_tuple)
                       + [p for cyc in cycle_tuple for p in cyc],
                       dtype=np.complex128)
    tlabels = np.array(list(range(len(root_tuple)))
                       + [-(ci + 1) for ci, cyc in enumerate(cycle_tuple) for _ in cyc],
                       dtype=np.int32)

    fixes_infinity = R.num.degree > R.den.degree

    active = np.arange(n)
    cand = np.full(n, -1, dtype=np.int64)
    cstart = np.zeros(n, dtype=np.int32)
    chits = np.zeros(n, dtype=np.int32)

    for it in range(max_iter + 1):
        if targets.size and active.size:
            za = z[active]
            dmat = np.abs(za[:, None] - targets[None, :])
            tidx = dmat.argmin(axis=1)
            hit = dmat[np.arange(za.size), tidx] < capture_radius
            t = np.where(hit, tidx, -1)
            prev = cand[active]
            same = (t == prev) & (t >= 0)
            chits[active] = np.where(same, chits[active] + 1, 0)
            fresh = (t != prev) & (t >= 0)
            idx_fresh = active[fresh]
            cstart[idx_fresh] = it
            cand[active] = t
            done = chits[active] >= 2
            if done.any():
                idx_done = active[done]
                labels[idx_done] = tlabels[cand[idx_done]]
                iters[idx_done] = cstart[idx_done]
                active = active[~done]
        if it == max_iter or active.size == 0:
            break
        za = eval_sphere(R, z[active])
        z[active] = za
        if fixes_infinity:
            # pixels parked at the point at infinity never converge to a root
            parked = ~np.isfinite(za)
            if parked.any():
                active = active[~parked]

    grid.labels[:] = labels.reshape(height, width)
    grid.iterations[:] = iters.reshape(height, width)
    return grid


def free_critical_fates(p: Polynomial, R: RationalMap | None = None,
                        max_iter: int = DEFAULT_MAX_ITER,
                        capture_radius: float = CAPTURE_RADIUS,
                        seed: int = 0) -> list[OrbitOutcome]:
    """Orbit outcome for each free critical point of the Halley map of p.

    Outcomes follow the order of free_critical_points.  Any cycle outcome
    flags a polynomial whose iteration traps an open set away from the
    roots.
    """
    if R is None:
        R = halley_of(p, seed=seed)
    roots = [c.location for c in find_roots(p, seed=seed)]
    fates = []
    for crit in free_critical_points(R, roots):
        fates.append(iterate_orbit(R, crit.location, roots,
                                   max_iter=max_iter,
                                   capture_radius=capture_radius))
    return fates


def has_trapped_cycle(fates: list[OrbitOutcome]) -> bool:
    return any(f.kind == "cycle" for f in fates)


def immediate_basin_component(grid: BasinGrid, seed_point: complex):
    """4-connected same-label component containing seed_point.

    Returns (mask, touches_border).  Raises SeedUnlabeled when the seed
    pixel is undecided.
    """
    row, col = grid.locate(complex(seed_point))
    label = int(grid.labels[row, col])
    if label == UNDECIDED:
        raise SeedUnlabeled(f"pixel at {seed_point} has no label")
    mask = grid.labels == label
    comp_ids, _ = ndimage.label(mask)
    comp = comp_ids[row, col]
    comp_mask = comp_ids == comp
    touches = bool(comp_mask[0].any() or comp_mask[-1].any()
                   or comp_mask[:, 0].any() or comp_mask[:, -1].any())
    return comp_mask, touches


def boundedness_evidence(R: RationalMap, roots, seed_point: complex,
                         windows, resolution: int = 400,
                         max_iter: int = DEFAULT_MAX_ITER,
                         capture_radius: float = CAPTURE_RADIUS) -> BoundednessReport:
    """Area-stabilization evidence that a basin component is bounded.

    Classifies the same seed component over a strictly increasing window
    sequence.  Evidence of boundedness requires the final component to
    avoid the border while its area settles to within 1 percent of the
    previous window's.

    resolution sets the pixel count of the first window; later windows
    scale it by their extent ratio, keeping the pixel pitch constant so
    that area estimates are comparable across windows (an interior
    component then sees identical sample centers under nested windows).
    """
    widths = [w.half_width for w in windows]
    if len(windows) < 2 or any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError("need a strictly increasing window sequence")
    areas = []
    touches = []
    for win in windows:
        ratio = win.half_width / windows[0].half_width
        res_w = max(2, round(resolution * ratio))
        ratio_h = win.half_height / windows[0].half_height
        res_h = max(2, round(resolution * ratio_h))
        grid = classify_grid(R, roots, win, (res_w, res_h),
                             max_iter=max_iter, capture_radius=capture_radius)
        mask, touch = immediate_basin_component(grid, seed_point)
        areas.append(float(mask.sum()) * grid.pixel_width * grid.pixel_height)
        touches.append(touch)
    stable = areas[-2] > 0 and abs(areas[-1] - areas[-2]) < 0.01 * areas[-2]
    verdict = "bounded-evidence" if (stable and not touches[-1]) else "unbounded-evidence"
    return BoundednessReport(tuple(windows), tuple(areas), tuple(touches), verdict)


def _require_real(R: RationalMap):
    for poly in (R.num, R.den):
        scale = max(abs(c) for c in poly.coeffs)
        if any(abs(c.imag) > REAL_COEFF_RTOL * scale for c in poly.coeffs):
            raise ValueError("map must have real coefficients")


def _real_roots_between(poly: Polynomial, lo: float, hi: float,
                        margin: float) -> list[float]:
    if poly.degree < 1:
        return []
    out = []
    for c in find_roots(poly):
        r = c.location
        if abs(r.imag) <= 1e-7 * max(1.0, abs(r.real)):
            x = r.real
            if lo + margin < x < hi - margin:
                out.append(x)
    return sorted(out)


def interval_convergence_check(R: RationalMap, x1: float, x2: float,
                               samples: int = 7,
                               capture_radius: float = CAPTURE_RADIUS,
                               max_iter: int = 500) -> IntervalReport:
    """Monotone-convergence check on a real interval between fixed points.

    Scans the open interval for poles, critical points, and fixed points
    of R; any hit is reported as an obstruction (not raised).  On a clean
    interval the sign of R(x) - x picks the limiting endpoint, and sample
    orbits must actually reach it.  Pass x2 = inf for the ray variant,
    which instead requires R(x) < x and predicts the left endpoint.
    The obstruction scan runs first, so hypothesis failures are reported
    even when an endpoint is not fixed.
    """
    _require_real(R)
    if not x1 < x2:
        raise ValueError("need x1 < x2")
    ray = math.isinf(x2)
    hi = x2 if not ray else math.inf
    margin = 1e-9 * max(1.0, abs(x1), 0.0 if ray else abs(x2))

    crit_poly = R.num.deriv() * R.den - R.num * R.den.deriv()
    fixed_poly = R.num - R.den.shifted_up(1)
    for kind, poly in (("pole", R.den), ("critical", crit_poly), ("fixed", fixed_poly)):
        hits = _real_roots_between(poly, x1, hi, margin)
        if hits:
            return IntervalReport(x1, x2, Obstruction(kind, hits[0]), None, False)

    for x in (x1,) if ray else (x1, x2):
        img = eval_sphere(R, complex(x))
        if is_infinity(img) or abs(img - x) > 1e-6 * max(1.0, abs(x)):
            raise ValueError(f"endpoint {x} is not fixed")

    if ray:
        probe = x1 + max(1.0, abs(x1))
        if eval_sphere(R, complex(probe)).real >= probe:
            return IntervalReport(x1, x2, None, None, False)
        predicted = x1
        offsets = np.geomspace(0.05, 50.0, samples) * max(1.0, abs(x1))
        test_points = [x1 + o for o in offsets]
    else:
        mid = 0.5 * (x1 + x2)
        predicted = x1 if eval_sphere(R, complex(mid)).real < mid else x2
        test_points = list(np.linspace(x1, x2, samples + 2)[1:-1])

    verified = True
    for x in test_points:
        z = complex(x)
        ok = False
        for _ in range(max_iter):
            if abs(z - predicted) < capture_radius:
                ok = True
                break
            z = eval_sphere(R, z)
            if is_infinity(z):
                break
        if not ok:
            verified = False
            break
    return IntervalReport(x1, x2, None, predicted, verified)


def real_axis_profile(R: RationalMap, x_min: float, x_max: float,
                      samples: int = 400) -> list[ProfileRow]:
    """Sampled graph of R along a real segment with poles marked.

    Regular rows carry (x, R(x), R(x) - x, 0); samples falling on a pole
    emit a gap (value None).  Each real pole in range contributes a
    dedicated row with pole_flag 1 so the emitted table shows where the
    graph breaks.
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
        if abs(r.imag) <= 1e-7 * max(1.0, abs(r.real)) and x_min <= r.real <= x_max:
            rows.append(ProfileRow(float(r.real), None, None, 1))
    rows.sort(key=lambda row: (row.x, row.pole_flag))
    return rows


def profile_to_csv(rows: list[ProfileRow], path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "Hx", "Hx_minus_x", "pole_flag"])
        for row in rows:
            writer.writerow([
                f"{row.x!r}",
                "" if row.value is None else f"{row.value!r}",
                "" if row.delta is None else f"{row.delta!r}",
                row.pole_flag,
            ])

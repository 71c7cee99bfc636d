"""Orbits, basin grids, boundedness evidence, and real-axis checks."""

import csv
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from halleydyn import dynamics
from halleydyn.dynamics import (
    UNDECIDED,
    Window,
    boundedness_evidence,
    classify_grid,
    free_critical_fates,
    immediate_basin_component,
    interval_convergence_check,
    iterate_orbit,
    orbit_outcomes,
    profile_to_csv,
    real_axis_profile,
)
from halleydyn.errors import Indeterminate, SeedUnlabeled
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import (
    INF,
    RationalMap,
    chebyshev_halley_of,
    eval_sphere,
    free_critical_points,
    halley_of,
    konig_of,
)

CUBIC_ODD = Polynomial.make([0, -1, 0, 1])           # z(z^2-1)
OCTIC = Polynomial.make([0, -1] + [0] * 6 + [1])      # z(z^7-1)


def roots_of(p):
    return [c.location for c in find_roots(p)]


def test_orbit_converges_cubically_from_two():
    p = Polynomial.make([-1, 0, 1])
    out = iterate_orbit(halley_of(p), 2.0, roots_of(p))
    assert out.kind == "root"
    assert out.iterations <= 8
    assert abs(roots_of(p)[out.root_index] - 1.0) < 1e-12


def test_orbit_capture_is_stable():
    # once declared converged, ten further applications stay captured
    p = CUBIC_ODD
    h = halley_of(p)
    roots = roots_of(p)
    rng = np.random.default_rng(3)
    for _ in range(12):
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        out = iterate_orbit(h, z0, roots, max_iter=300)
        if out.kind != "root":
            continue
        target = roots[out.root_index]
        z = out.last
        for _ in range(10):
            z = eval_sphere(h, z)
            assert abs(z - target) <= 1e-8


def test_orbit_follows_the_grid_capture_rule():
    # a single orbit from a pixel centre gets the pixel's label and count
    h = halley_of(CUBIC_ODD)
    roots = roots_of(CUBIC_ODD)
    grid = classify_grid(h, roots, Window(0.1 + 0.05j, 2.0, 2.0), 16)
    for z0, label, iters in zip(grid.pixel_centers().ravel().tolist(),
                                grid.labels.ravel().tolist(),
                                grid.iterations.ravel().tolist()):
        out = iterate_orbit(h, z0, roots)
        if label == UNDECIDED:
            assert out.kind != "root"
        else:
            assert (out.kind, out.root_index, out.iterations) == ("root", label, iters)
    assert (grid.labels != UNDECIDED).any()


def test_orbit_capture_must_complete_within_the_budget():
    # an orbit first entering a root's disk at step k needs max_iter >= k
    p = Polynomial.make([-1, 0, 1])
    h = halley_of(p)
    roots = roots_of(p)
    k = iterate_orbit(h, 2.0, roots).iterations
    assert k >= 1
    assert iterate_orbit(h, 2.0, roots, max_iter=k - 1).kind == "undecided"
    out = iterate_orbit(h, 2.0, roots, max_iter=k)
    assert (out.kind, out.iterations) == ("root", k)


def test_local_error_contraction_is_cubic_grade():
    # conservative order check: e_{k+1} <= C e_k^2.5 near a simple root
    p = Polynomial.make([-1, 0, 1])
    h = halley_of(p)
    e = 1e-2
    z = 1.0 + e
    for _ in range(3):
        z = h(z)
        e_next = abs(z - 1.0)
        if e_next <= 1e-13:
            break  # at the arithmetic floor the order is unmeasurable
        assert e_next <= 10.0 * e ** 2.5
        e = e_next


def test_grid_determinism():
    p = CUBIC_ODD
    h = halley_of(p)
    win = Window(0j, 1.5, 1.5)
    a = classify_grid(h, roots_of(p), win, (64, 64))
    b = classify_grid(h, roots_of(p), win, (64, 64))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.iterations, b.iterations)


def test_classify_points_is_split_invariant():
    # every kernel step is elementwise, so classifying z in one call or as
    # two pieces gives the same outcome, point by point, for any split
    h = halley_of(CUBIC_ODD)
    roots = tuple(roots_of(CUBIC_ODD))
    rng = np.random.default_rng(7)
    z = rng.uniform(-2, 2, 70_000) + 1j * rng.uniform(-2, 2, 70_000)
    z[::9_999] = np.inf  # parked at infinity, which this map fixes
    assert z.size > 2 * dynamics._BLOCK
    whole = dynamics._classify_points(h, z, roots, (), 60)
    assert (whole[0] == UNDECIDED).any() and (whole[0] != UNDECIDED).any()
    for k in (1, 32_769, 50_000):
        head = dynamics._classify_points(h, z[:k], roots, (), 60)
        tail = dynamics._classify_points(h, z[k:], roots, (), 60)
        for got, a, b in zip(whole, head, tail):
            assert np.array_equal(got, np.concatenate([a, b]))


def test_concurrent_callers_share_the_block_pool(monkeypatch):
    # callers in several threads, racing to create the pool under a short
    # switch interval, each get the outcomes of a lone call
    h = halley_of(CUBIC_ODD)
    roots = tuple(roots_of(CUBIC_ODD))
    rng = np.random.default_rng(8)
    n = 2 * dynamics._BLOCK + 5
    z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    want = dynamics._classify_points(h, z, roots, (), 20)
    monkeypatch.setattr(dynamics, "_POOL", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            got = list(callers.map(
                lambda _: dynamics._classify_points(h, z, roots, (), 20),
                range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
        if dynamics._POOL is not None:
            dynamics._POOL.shutdown()
    for outcome in got:
        for a, b in zip(outcome, want):
            assert np.array_equal(a, b)


def test_pooled_tails_match_points_classified_alone(monkeypatch):
    # (z - 2)(z + 1)^3: orbits reach the simple root 2 in a few steps and
    # the triple root -1 only linearly; far points stay undecided at
    # max_iter and infinity is parked.  Six blocks retire at very
    # different rates, so pooled pieces mix points at different steps.
    h = halley_of(Polynomial.make([-2, -5, -3, 1, 1]))
    roots = (-1 + 0j, 2 + 0j)
    kinds = {
        "fast": [2.1, 1.9 + 0.1j, 2.5 - 0.3j, 3 + 1j],
        "slow": [-1 + 0.01j, -1.05, -0.7 + 0.2j, -1.5 - 0.5j, -1 + 2j],
        "undecided": [40 + 40j, -300j],
        "parked": [np.inf],
    }
    distinct = np.array([z for pts in kinds.values() for z in pts], dtype=np.complex128)
    alone = [np.concatenate(a) for a in zip(*(
        dynamics._classify_points(h, distinct[i:i + 1], roots, (), 30)
        for i in range(distinct.size)))]
    first = np.cumsum([0] + [len(pts) for pts in kinds.values()])
    of_kind = {kind: np.arange(a, b) for kind, a, b in zip(kinds, first, first[1:])}
    labels, iters, last = alone
    assert (iters[of_kind["fast"]] <= 4).all() and (labels[of_kind["fast"]] == 1).all()
    assert (iters[of_kind["slow"]] >= 20).all() and (labels[of_kind["slow"]] == 0).all()
    assert (labels[of_kind["undecided"]] == UNDECIDED).all()
    assert np.isfinite(last[of_kind["undecided"]]).all()
    assert labels[of_kind["parked"]] == UNDECIDED and np.isinf(last[of_kind["parked"]])

    rng = np.random.default_rng(11)
    everything = np.arange(distinct.size)
    block = dynamics._BLOCK
    mostly_fast = np.where(rng.random(block) < 0.95, rng.choice(of_kind["fast"], block),
                           rng.choice(of_kind["slow"], block))
    source = np.concatenate([
        rng.choice(of_kind["fast"], block),
        rng.choice(of_kind["slow"], block),
        mostly_fast,
        rng.choice(np.concatenate([of_kind["undecided"], of_kind["parked"]]), block),
        rng.choice(everything, block),
        rng.choice(everything, 1_000),
    ])
    rounds = []
    run = dynamics._run

    def recording(tasks):
        rounds.append(tasks)
        return run(tasks)

    monkeypatch.setattr(dynamics, "_run", recording)
    got = dynamics._classify_points(h, distinct[source], roots, (), 30)
    for a, b in zip(got, alone):
        assert np.array_equal(a, b[source])
    # the tails were pooled, and some pooled piece held points at several steps
    assert len(rounds) >= 2 and len(rounds[0]) == 6
    assert any(np.unique(task.args[2]).size > 1 for tasks in rounds[1:] for task in tasks)


def test_nearest_of_two_targets_with_equal_real_parts_wins():
    # both targets pass the real-part screen; the distances decide, and
    # the first target wins a tie
    h = halley_of(CUBIC_ODD)
    z = np.array([1, 1 + 2.5e-9j, 1 + 1e-9j], dtype=np.complex128)
    labels, iters, _ = dynamics._classify_points(h, z, (1 + 3e-9j, 1 - 1e-9j), (), 0)
    assert labels.tolist() == [1, 0, 0] and iters.tolist() == [0, 0, 0]
    labels, _, _ = dynamics._classify_points(h, z[:1], (1 + 1e-9j, 1 - 1e-9j), (), 0)
    assert labels.tolist() == [0]


def test_grid_memory_peak_is_bounded():
    # kernel state is built per block and pooled only for the slow tails,
    # so an 800^2 grid peaks well under holding every live point at once
    h = halley_of(CUBIC_ODD)
    roots = roots_of(CUBIC_ODD)
    tracemalloc.start()
    try:
        classify_grid(h, roots, Window(0j, 2.0, 2.0), 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_multi_block_grid_of_unreduced_map_raises():
    # num and den share the factor z - c, with c the centre of a pixel far
    # from the first ones classified: the grid cannot be labelled
    win, res = Window(0j, 2.0, 2.0), (257, 255)
    c = dynamics.BasinGrid(win, *res, labels=None, iterations=None,
                           max_iter=200).pixel_centers()[200, 100]
    shared = Polynomial.make([-c, 1])
    r = RationalMap(Polynomial.make([1, 0, 1]) * shared, shared.scale(2.0))
    with pytest.raises(Indeterminate):
        classify_grid(r, [1j, -1j], win, res)


def test_grid_rotation_equivariance_quarter_turn():
    # z(z^4-1) has 4-fold symmetric dynamics; rotating the window by 90
    # degrees permutes the labels by the induced root permutation
    p = Polynomial.make([0, -1, 0, 0, 0, 1])
    h = halley_of(p)
    roots = roots_of(p)
    win = Window(0j, 1.8, 1.8)
    grid = classify_grid(h, roots, win, (80, 80), max_iter=250)

    perm = {}
    for i, r in enumerate(roots):
        img = 1j * r
        j = min(range(len(roots)), key=lambda k: abs(roots[k] - img))
        assert abs(roots[j] - img) < 1e-9
        perm[i] = j

    # centers rotate exactly under np.rot90 for a square origin window
    rotated = np.rot90(grid.labels, k=-1)
    mapped = np.full_like(grid.labels, UNDECIDED)
    for i, j in perm.items():
        mapped[grid.labels == i] = j
    decided = (grid.labels != UNDECIDED) & (rotated != UNDECIDED)
    assert decided.mean() > 0.98
    assert np.array_equal(mapped[decided], rotated[decided])


def _render_cycle_case():
    # render-cycle's map, with the 2-cycle its free critical orbits find
    p = Polynomial.make([62.5144396, 6, 0, 1])
    h = halley_of(p)
    roots = roots_of(p)
    crits = [c.location for c in free_critical_points(h, roots)]
    cycles = tuple(dict.fromkeys(f.cycle for f in orbit_outcomes(h, crits, roots, 200)
                                 if f.kind == "cycle"))
    assert [len(c) for c in cycles] == [2]
    return h, roots, cycles


def _octic_with_pairs_as_cycles():
    # z^8 - z with its non-real roots passed as six 1-cycles: conjugation
    # swaps cycle labels pairwise, and the real roots keep theirs
    roots = roots_of(OCTIC)
    real = [r for r in roots if r.imag == 0]
    return halley_of(OCTIC), real, tuple((r,) for r in roots if r.imag != 0)


@pytest.mark.parametrize("case, window, res", [
    (lambda: (halley_of(OCTIC), roots_of(OCTIC), ()), Window(0j, 1.3, 1.3), (96, 96)),
    (_render_cycle_case, Window(1 + 0j, 0.2, 0.2), (257, 255)),
    (_octic_with_pairs_as_cycles, Window(0.25 + 0j, 1.5, 1.2), (90, 77)),
])
def test_half_grid_of_real_map_equals_kernel_on_every_centre(case, window, res):
    # the lattice of an axis-centred window is mirror-exact, and the grid
    # built from its top rows holds, pixel for pixel, what the kernel gives
    # at every centre
    h, roots, cycles = case()
    grid = classify_grid(h, roots, window, res, cycles=cycles)
    centers = grid.pixel_centers()
    k = grid.height // 2
    assert np.array_equal(centers[-k:][::-1], centers[:k].conj())
    labels, iters, _ = dynamics._classify_points(
        h, centers.ravel(), tuple(roots), cycles, grid.max_iter)
    assert np.array_equal(grid.labels.ravel(), labels)
    assert np.array_equal(grid.iterations.ravel(), iters)
    assert len(np.unique(labels)) >= 3


def _counting_kernel(monkeypatch) -> list:
    """The sizes of the point arrays passed to the kernel from now on."""
    counted = []
    classify_points = dynamics._classify_points

    def counting(R, z, *args):
        counted.append(np.size(z))
        return classify_points(R, z, *args)

    monkeypatch.setattr(dynamics, "_classify_points", counting)
    return counted


@pytest.mark.parametrize("coeffs, center, half", [
    ([0, -1, 0, 1], 0j, True),                  # real map, axis-centred window
    ([62.5144396, 6, 0, 1], 1 + 0j, True),
    ([0, -1, 0, 1], 0.01j, False),              # off-axis window
    ([0, -1, 0, 1j], 0j, False),                # a non-real coefficient
])
def test_half_grid_classifies_the_top_rows_alone(monkeypatch, coeffs, center, half):
    # z^3 - z is odd and real, so a window centred on the imaginary axis
    # also has only its left columns classified
    p = Polynomial.make(coeffs)
    h, roots = halley_of(p), roots_of(p)
    counted = _counting_kernel(monkeypatch)
    width, height = 40, 33
    classify_grid(h, roots, Window(center, 0.5, 0.5), (width, height))
    rows = (height + 1) // 2 if half else height
    cols = (width + 1) // 2 if coeffs == [0, -1, 0, 1] and center.real == 0 else width
    assert counted == [rows * cols]


def test_targets_not_closed_under_conjugation_classify_every_row(monkeypatch):
    # a root off its conjugate, a repeated root, or targets of different
    # labels close enough that the first could win a tie
    h = halley_of(CUBIC_ODD)
    counted = _counting_kernel(monkeypatch)
    win = Window(0j, 1.5, 1.5)
    classify_grid(h, [-1, 0, 1 + 1e-300j], win, 16)
    classify_grid(h, [-1, 0, 1, 1], win, 16)
    classify_grid(h, [-1, 0, 1], win, 16, cycles=((1 + 1e-8j, 1 - 1e-8j),))
    classify_grid(h, [-1, 0, 1], win, 16, cycles=((1 + 4e-8j, 1 - 4e-8j),))
    assert counted == [256, 256, 256, 128]


def _odd_real_maps():
    for p in (CUBIC_ODD, Polynomial.make([0, 0, -1, 0, 1])):  # z^3 - z, z^4 - z^2
        for R in (halley_of(p), konig_of(p, 4), chebyshev_halley_of(p, 0)):
            yield pytest.param(R, roots_of(p), id=f"{R.method}-deg{p.degree}")


@pytest.mark.parametrize("R, roots", _odd_real_maps())
@pytest.mark.parametrize("center", [0j, 0.3j])
@pytest.mark.parametrize("res", [(41, 33), (40, 34)])
def test_odd_real_grid_equals_kernel_on_every_centre(R, roots, center, res):
    # an odd real map commutes with z -> -conj(z) bit for bit, so the grid
    # built from its left columns (and top rows, when centred at 0) holds
    # what the kernel gives at every centre
    assert dynamics._is_odd(R) and R.is_real
    grid = classify_grid(R, roots, Window(center, 1.6, 1.3), res)
    labels, iters, _ = dynamics._classify_points(
        R, grid.pixel_centers().ravel(), tuple(roots), (), grid.max_iter)
    assert np.array_equal(grid.labels.ravel(), labels)
    assert np.array_equal(grid.iterations.ravel(), iters)
    assert len(np.unique(labels)) >= 3


@pytest.mark.parametrize("width", [37, 40])
def test_lattice_centred_on_the_imaginary_axis_is_mirror_exact(width):
    # column j >= width / 2 lies at exactly minus the real part of column
    # width - 1 - j, also for the columns beyond the window that the
    # boundedness probe samples
    window = Window(0.4j, 1.3, 0.7)
    cols = np.arange(-width, 2 * width)  # symmetric about (width - 1) / 2
    xs = dynamics._centers(window, width, 5, np.arange(2), cols)[0].real
    pairs = cols != width - 1 - cols  # an odd width's middle column is its own mirror
    assert np.array_equal(xs[::-1][pairs], -xs[pairs])
    # and each column stays within rounding of x0 + (j + 0.5) pw
    assert np.abs(xs - (-1.3 + (cols + 0.5) * (2.6 / width))).max() < 1e-14


@pytest.mark.parametrize("center", [0j, 0.3j, 0.2 - 0.1j])
@pytest.mark.parametrize("width,height", [(37, 8), (40, 7)])
def test_column_reals_are_the_real_parts_of_every_row(center, width, height):
    grid = dynamics.BasinGrid(Window(center, 1.3, 0.7), width, height, labels=None,
                              iterations=None, max_iter=200)
    xs = grid.column_reals()
    assert xs.shape == (width,)
    assert np.array_equal(grid.pixel_centers().real, np.broadcast_to(xs, (height, width)))


def _blank_grid(center, width, height):
    return dynamics.BasinGrid(Window(center, 1.3, 0.7), width, height, labels=None,
                              iterations=None, max_iter=200)


@pytest.mark.parametrize("center", [0j, 0.3j, 0.2 - 0.1j, 1 + 0j])
@pytest.mark.parametrize("width,height", [(37, 41), (40, 33), (400, 400)])
def test_pixel_of_inverts_the_lattice(center, width, height):
    grid = _blank_grid(center, width, height)
    row, col = grid.pixel_of(grid.pixel_centers())
    rows, cols = np.indices((height, width))
    assert row.dtype == col.dtype == np.intp
    assert np.array_equal(row, rows) and np.array_equal(col, cols)
    # a hair (a millionth of a pixel) beyond each edge lies one pixel outside
    w, hx, hy = grid.window, 1e-6 * grid.pixel_width, 1e-6 * grid.pixel_height
    left, right = w.center.real - w.half_width - hx, w.center.real + w.half_width + hx
    top, bottom = w.center.imag + w.half_height + hy, w.center.imag - w.half_height - hy
    ys, xs = grid.pixel_centers()[:, 0].imag, grid.column_reals()
    for z, want_row, want_col in [(left + 1j * ys, np.arange(height), -1),
                                  (right + 1j * ys, np.arange(height), width),
                                  (xs + 1j * top, -1, np.arange(width)),
                                  (xs + 1j * bottom, height, np.arange(width))]:
        got_row, got_col = grid.pixel_of(z)
        assert np.array_equal(got_row, np.broadcast_to(want_row, z.shape))
        assert np.array_equal(got_col, np.broadcast_to(want_col, z.shape))


@pytest.mark.parametrize("center", [0j, 0.2 - 0.1j])
@pytest.mark.parametrize("width,height", [(37, 41), (400, 400)])
def test_locate_is_the_clamped_pixel_of(center, width, height):
    grid = _blank_grid(center, width, height)
    rng = np.random.default_rng(11)
    z = center + rng.uniform(-3, 3, 500) + 1j * rng.uniform(-2, 2, 500)
    row, col = grid.pixel_of(z)
    want = zip(np.clip(row, 0, height - 1), np.clip(col, 0, width - 1))
    assert [grid.locate(complex(p)) for p in z] == [(int(r), int(c)) for r, c in want]
    # points too far out for an intp pitch count still clamp to the corners
    assert grid.locate(complex(1e30, -1e30)) == (height - 1, width - 1)
    assert grid.locate(complex(-1e30, 1e30)) == (0, 0)


def test_column_mirror_falls_back_to_the_rows(monkeypatch):
    # z^4 - z and (z - 1)^2 (z + 1) are real but not odd (the latter's
    # roots +-1 are closed under t -> -conj(t) all the same), and
    # 1 + 2**-52 is real but not minus a root: only the rows are mirrored.
    # Targets that are not closed under conjugation or may tie fall back
    # to the full grid, on this odd map as on any
    # (test_targets_not_closed_under_conjugation_classify_every_row)
    win, res = Window(0j, 1.5, 1.5), (40, 33)
    counted = _counting_kernel(monkeypatch)
    for p in (Polynomial.make([0, -1, 0, 0, 1]), Polynomial.from_roots([1.0, 1.0, -1.0])):
        classify_grid(halley_of(p), roots_of(p), win, res)
    classify_grid(halley_of(CUBIC_ODD), [-1, 0, 1 + 2 ** -52], win, res)
    assert counted == [17 * 40] * 3


def test_free_critical_fates_of_odd_cubic():
    fates = free_critical_fates(CUBIC_ODD, halley_of(CUBIC_ODD))
    assert len(fates) == 2
    roots = roots_of(CUBIC_ODD)
    for f in fates:
        assert f.kind == "root"
        assert abs(roots[f.root_index]) < 1e-9  # both land on the root 0
    assert not any(f.kind == "cycle" for f in fates)


def test_trapped_cycle_is_reported():
    # the cubic z^3 + 6z + b at the real cycle parameter traps both free
    # critical orbits in a superattracting two-cycle
    from halleydyn.paramsearch import family_polynomial, halley_b

    b = 62.5144395981942
    fates = free_critical_fates(family_polynomial(b), halley_b(b))
    assert any(f.kind == "cycle" for f in fates)


def test_orbit_at_infinity_is_undecided():
    # z^2 parks the orbit of 2 at infinity, which it fixes; 1/z swaps
    # infinity and 0.  Orbits at or through infinity are not cycles, while
    # 0.5 <-> 2 under 1/z is one.
    square = RationalMap(Polynomial.make([0, 0, 1]), Polynomial.make([1]))
    out = iterate_orbit(square, 2.0, [0.0], max_iter=20)
    assert (out.kind, out.last, out.cycle, out.period) == ("undecided", INF, None, None)
    inverse = RationalMap(Polynomial.make([1]), Polynomial.make([0, 1]))
    at_inf, at_zero, finite = orbit_outcomes(inverse, [INF, 0.0, 0.5], [], 4)
    assert (at_inf.kind, at_inf.last, at_inf.cycle) == ("undecided", INF, None)
    assert (at_zero.kind, at_zero.last, at_zero.cycle) == ("undecided", 0j, None)
    assert (finite.kind, finite.cycle, finite.period) == ("cycle", (2 + 0j, 0.5 + 0j), 2)


def test_kernel_rejects_max_iter_out_of_range():
    R = halley_of(CUBIC_ODD)
    roots = roots_of(CUBIC_ODD)
    for bad in (-3, dynamics.MAX_ITER_LIMIT + 1):
        with pytest.raises(ValueError, match="max_iter"):
            classify_grid(R, roots, Window(0j, 2, 2), 8, max_iter=bad)
        with pytest.raises(ValueError, match="max_iter"):
            iterate_orbit(R, 1.0, roots, max_iter=bad)


@pytest.mark.parametrize("period", [dynamics.PERIOD_CAP, dynamics.PERIOD_CAP + 1])
def test_cycle_search_stops_at_the_period_cap(period):
    # a rotation by 2 pi / period puts every orbit on the unit circle on a
    # cycle of that period
    turn = RationalMap(Polynomial.make([0, np.exp(2j * np.pi / period)]),
                       Polynomial.make([1]))
    out = iterate_orbit(turn, 1.0, [], max_iter=5)
    if period <= dynamics.PERIOD_CAP:
        assert (out.kind, out.period) == ("cycle", period)
        assert out.last == out.cycle[-1]
    else:
        assert (out.kind, out.cycle, out.period) == ("undecided", None, None)


def test_attracting_fixed_point_off_the_roots_is_a_period_one_cycle():
    # z/2 + 1 attracts every finite orbit to 2; passed a root elsewhere,
    # the orbit of 0 is on a period-1 cycle, as Brent's detection had it
    half = RationalMap(Polynomial.make([1, 0.5]), Polynomial.make([1]))
    out = iterate_orbit(half, 0.0, [-5.0])
    assert (out.kind, out.cycle, out.period, out.last) == ("cycle", (2 + 0j,), 1, 2 + 0j)
    assert iterate_orbit(half, 0.0, [2.0]).kind == "root"


def test_converging_tail_is_not_a_cycle():
    # 0.95 z creeps toward its root 0: the orbit ends just outside the
    # root's capture disk and moves 5.1e-10, within CYCLE_TOL, in one
    # step, but its returning point lies in the disk
    creep = RationalMap(Polynomial.make([0, 0.95]), Polynomial.make([1]))
    out = iterate_orbit(creep, 1.02e-8 / 0.95, [0.0], max_iter=1)
    assert (out.kind, out.cycle) == ("undecided", None)
    assert 1e-8 < abs(out.last) < 1.1e-8


def test_orbits_reaching_one_cycle_share_its_tuple():
    # two free critical orbits of this quintic's Halley map reach one
    # attracting 3-cycle, at different points of it
    p = Polynomial.make([-1.94, 3.26, -1.74, 0.72, -1.73, 1])
    cycles = [f.cycle for f in free_critical_fates(p, halley_of(p)) if f.kind == "cycle"]
    assert len(cycles) == 2 and len(cycles[0]) == 3
    assert cycles[0] == cycles[1]


def test_immediate_basin_component_bounds():
    p = OCTIC
    h = halley_of(p)
    roots = roots_of(p)
    grid = classify_grid(h, roots, Window(0j, 2.0, 2.0), (150, 150))
    mask, touches = immediate_basin_component(grid, 0j)
    assert mask.any()
    assert not touches  # the central component stays interior on [-2,2]^2

    idx = grid.locate(0j)
    assert int(grid.labels[idx]) == min(
        range(len(roots)), key=lambda k: abs(roots[k]))


def test_immediate_basin_rejects_unlabeled_seed():
    p = CUBIC_ODD
    h = halley_of(p)
    grid = classify_grid(h, roots_of(p), Window(0j, 1.0, 1.0), (21, 21),
                         max_iter=1)
    with pytest.raises(SeedUnlabeled):
        # one iteration decides almost nothing near the Julia set
        immediate_basin_component(grid, 0.57 + 0.57j)


def test_boundedness_evidence_two_ways():
    octic = halley_of(OCTIC)
    grid = classify_grid(octic, roots_of(OCTIC), Window(0j, 2.0, 2.0), 140)
    rep = boundedness_evidence(octic, roots_of(OCTIC), grid, 0j)
    assert rep.verdict == "bounded-evidence"
    assert not rep.touches[-1]

    cubic = halley_of(CUBIC_ODD)
    grid = classify_grid(cubic, roots_of(CUBIC_ODD), Window(0j, 2.0, 2.0), 140)
    rep2 = boundedness_evidence(cubic, roots_of(CUBIC_ODD), grid, 0j)
    assert rep2.verdict == "unbounded-evidence"


def _nested(scales, half=2.0):
    return [Window(0j, s * half, s * half) for s in scales]


# name: (polynomial, windows, (width, height) of the first window's grid);
# a case of one window has only its first window's report checked; the
# others list the probe's three windows, which have a dyadic centre and
# pitch, so their full grids sample the lattice
SEED_COMPONENT_CASES = {
    "off-dyadic-octic": (OCTIC, [Window(0.0025 + 0.0075j, 2.0, 2.0)], (160, 160)),
    "border-touching": (CUBIC_ODD, [Window(0j, 2.0, 2.0)], (100, 100)),
    "non-square-odd": (OCTIC, [Window(0.1 + 0.05j, 1.5, 1.0)], (75, 75)),
    "several-tiles": (OCTIC, [Window(0j, 2.0, 2.0)], (256, 256)),
    "nested-octic": (OCTIC, _nested((1, 2, 4)), (128, 128)),
    # the component reaches every window's border and grows with it
    "nested-cubic": (CUBIC_ODD, _nested((1, 2, 4), half=1.0), (64, 64)),
    # non-square pixel grids: the cubic's component reaches every border;
    # the octic's reaches the first window's and closes in the second
    "non-square-pixels-cubic": (CUBIC_ODD, [Window(0j, s * 1.0, s * 0.5) for s in (1, 2, 4)],
                                (64, 32)),
    "non-square-pixels-octic": (OCTIC, [Window(0j, s * 1.0, s * 0.5) for s in (1, 2, 4)],
                                (64, 32)),
}


@pytest.mark.parametrize("name", sorted(SEED_COMPONENT_CASES))
def test_seed_component_equals_full_grid_component(name):
    p, windows, (width, height) = SEED_COMPONENT_CASES[name]
    h = halley_of(p)
    roots = roots_of(p)
    win = windows[0]
    grid = classify_grid(h, roots, win, (width, height))
    mask, touches = immediate_basin_component(grid, 0j)
    assert touches == (name in ("border-touching", "nested-cubic", "non-square-pixels-cubic",
                                "non-square-pixels-octic"))
    rep = boundedness_evidence(h, roots, grid, 0j)
    assert rep.areas[0] == float(mask.sum()) * grid.pixel_width * grid.pixel_height
    assert rep.touches[0] == touches
    if len(windows) == 1:
        return
    assert rep.windows == tuple(windows)
    expected = []
    for w in windows:
        scale = round(w.half_width / win.half_width)
        full = classify_grid(h, roots, w, (scale * width, scale * height))
        full_mask, full_touches = immediate_basin_component(full, 0j)
        expected.append((float(full_mask.sum()) * full.pixel_width * full.pixel_height,
                         full_touches))
    assert list(zip(rep.areas, rep.touches)) == expected
    if name == "nested-cubic":
        assert rep.areas[0] < rep.areas[1] < rep.areas[2]
    if name == "non-square-pixels-octic":
        assert rep.touches == (True, False, False)


def test_seed_component_rejects_unlabeled_seed():
    h = halley_of(CUBIC_ODD)
    # one iteration decides almost nothing near the Julia set
    grid = classify_grid(h, roots_of(CUBIC_ODD), Window(0j, 1.0, 1.0), 21, max_iter=1)
    with pytest.raises(SeedUnlabeled):
        boundedness_evidence(h, roots_of(CUBIC_ODD), grid, 0.57 + 0.57j)


def test_boundedness_evidence_classifies_few_pixels(monkeypatch):
    octic, octic_roots = halley_of(OCTIC), roots_of(OCTIC)
    octic_grid = classify_grid(octic, octic_roots, Window(0j, 2.0, 2.0), 128)
    cubic, cubic_roots = halley_of(CUBIC_ODD), roots_of(CUBIC_ODD)
    cubic_grid = classify_grid(cubic, cubic_roots, Window(0j, 1.0, 1.0), 64)
    counted = []
    classify_points = dynamics._classify_points

    def counting(R, z, *args):
        counted.append(np.array(z))
        return classify_points(R, z, *args)

    monkeypatch.setattr(dynamics, "_classify_points", counting)
    # work count, not time: the central component of z^8 - z stays off the
    # border of the grid's window, so the probe classifies nothing
    rep = boundedness_evidence(octic, octic_roots, octic_grid, 0j)
    assert rep.verdict == "bounded-evidence"
    assert counted == []
    # the component of the root 1 of z^3 - z reaches every border, so the
    # 2x and 4x windows are classified, but no centre twice and none of the
    # grid's: the 4x window's 256^2 centres less the grid's 64^2
    rep = boundedness_evidence(cubic, cubic_roots, cubic_grid, 1 + 0j)
    assert rep.touches == (True, True, True)
    z = np.concatenate(counted)
    assert np.unique(z).size == z.size == 256 ** 2 - 64 ** 2
    assert not np.isin(z, cubic_grid.pixel_centers()).any()


@pytest.mark.parametrize("seed", [2.5 + 0j, -0.1 - 2.01j, complex("nan")])
def test_boundedness_evidence_rejects_seed_outside_first_window(seed):
    h, roots = halley_of(OCTIC), roots_of(OCTIC)
    grid = classify_grid(h, roots, Window(0j, 2.0, 2.0), 16)
    with pytest.raises(ValueError, match="outside the first window"):
        boundedness_evidence(h, roots, grid, seed)


def test_boundedness_evidence_rejects_seed_in_a_cycle_basin():
    # render-cycle's map: the cycle basin about 1 reaches the border of
    # this window, and beyond it the probe would label it undecided
    from halleydyn.paramsearch import family_polynomial

    p = family_polynomial(62.5144395981942)
    h, roots = halley_of(p), roots_of(p)
    cycles = tuple(dict.fromkeys(f.cycle for f in free_critical_fates(p, h)
                                 if f.kind == "cycle"))
    grid = classify_grid(h, roots, Window(1 + 0j, 0.05, 0.05), 32, cycles=cycles)
    assert immediate_basin_component(grid, 1 + 0j)[1]
    with pytest.raises(ValueError, match="cycle's basin"):
        boundedness_evidence(h, roots, grid, 1 + 0j)


@pytest.mark.parametrize("center, half_width, half_height", [
    (0j, 0.0, 1.0),
    (0j, 1.0, -1.0),
    (0j, math.nan, 1.0),
    (0j, 1.0, math.inf),
    (complex(math.nan, 0.0), 1.0, 1.0),
    (complex(0.0, math.inf), 1.0, 1.0),
])
def test_window_rejects_non_finite_or_non_positive_values(center, half_width, half_height):
    with pytest.raises(ValueError, match="window"):
        Window(center, half_width, half_height)


def test_interval_convergence_between_fixed_points():
    h = halley_of(CUBIC_ODD)
    s = 1.0 / math.sqrt(3.0)
    rep = interval_convergence_check(h, s, 1.0)
    assert rep.verified and rep.obstruction is None
    assert abs(rep.predicted_limit - 1.0) < 1e-12

    rep2 = interval_convergence_check(h, -1.0, -s)
    assert rep2.verified
    assert abs(rep2.predicted_limit + 1.0) < 1e-12


def test_interval_convergence_ray_variant():
    h = halley_of(CUBIC_ODD)
    rep = interval_convergence_check(h, 1.0, math.inf)
    assert rep.verified
    assert abs(rep.predicted_limit - 1.0) < 1e-12


def test_interval_reports_interior_pole():
    h = halley_of(OCTIC)
    rep = interval_convergence_check(h, -1.0, 0.0)
    assert not rep.verified
    assert rep.obstruction is not None
    assert rep.obstruction.kind == "pole"
    assert abs(rep.obstruction.location + (1.0 / 6.0) ** (1.0 / 7.0)) < 1e-6


def test_interval_reports_interior_fixed_point():
    h = halley_of(CUBIC_ODD)
    rep = interval_convergence_check(h, -1.0, 1.0)  # 0 is fixed inside
    assert not rep.verified
    assert rep.obstruction is not None
    assert rep.obstruction.kind in ("fixed", "critical")


def test_interval_check_sees_fixed_points_of_i_times_a_real_polynomial():
    # q and i q give the same real Halley map, and the roots and critical
    # points of i q are paired under conjugation as exactly as those of q,
    # so both see the fixed point inside the interval
    q = [-2, -3, 0, -2, 0, 1]  # z^5 - 2z^3 - 3z - 2
    for p in (Polynomial.make(q), Polynomial.make([1j * c for c in q])):
        rep = interval_convergence_check(halley_of(p), -1.6327442085595998,
                                         -0.5654202546460343)
        assert rep.obstruction.kind == "fixed"
        assert abs(rep.obstruction.location + 1.2568993186064155) < 1e-12


def test_real_axis_profile_poles():
    rows = real_axis_profile(halley_of(OCTIC), -2.0, 2.0, samples=101)
    poles = [r for r in rows if r.pole_flag]
    assert len(poles) == 1
    assert abs(poles[0].x + (1.0 / 6.0) ** (1.0 / 7.0)) < 1e-9
    assert poles[0].value is None

    p9 = Polynomial.make([0, -1] + [0] * 8 + [1])
    rows9 = real_axis_profile(halley_of(p9), -2.0, 2.0, samples=101)
    poles9 = sorted(r.x for r in rows9 if r.pole_flag)
    assert len(poles9) == 2
    assert all(x < 0 for x in poles9)
    assert abs(poles9[0] + 0.9057374193064875) < 1e-9
    assert abs(poles9[1] + 0.7073332235439145) < 1e-9


def test_imaginary_axis_profile_via_rotation():
    # z^2(z^2-1) maps the imaginary axis to itself; conjugating by i gives
    # a real map whose graph is the imaginary-axis profile
    from halleydyn.polycore import AffineMap
    from halleydyn.ratmap import conjugate

    p = Polynomial.make([0, 0, -1, 0, 1])
    h = halley_of(p)
    s = conjugate(h, AffineMap(1j))
    rows = real_axis_profile(s, -1.5, 1.5, samples=31)
    for r in rows:
        if r.value is None:
            continue
        # cross-check: -i * H(iy) must equal the profiled value
        direct = -1j * eval_sphere(h, 1j * r.x)
        assert abs(direct.imag) < 1e-9
        assert abs(direct.real - r.value) < 1e-9


def test_profile_round_trips_through_csv(tmp_path):
    rows = real_axis_profile(halley_of(OCTIC), -2.0, 2.0, samples=41)
    path = tmp_path / "profile.csv"
    with open(path, "w", newline="") as fh:
        profile_to_csv(rows, fh)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["x", "Hx", "Hx_minus_x", "pole_flag"]
    assert len(got) == len(rows) + 1
    for row, rec in zip(got[1:], rows):
        assert float(row[0]) == rec.x
        if rec.value is None:
            assert row[1] == ""
        else:
            assert float(row[1]) == rec.value

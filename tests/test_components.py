"""The numpy component labeller against a flood fill, and its one labelling
per grid."""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halleydyn import dynamics
from halleydyn.dynamics import (
    UNDECIDED,
    Window,
    boundedness_evidence,
    classify_grid,
    immediate_basin_component,
)
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import halley_of


def _flood_fill(a: np.ndarray) -> np.ndarray:
    """Component number of each pixel of a, by breadth-first search over
    4-neighbours of equal value."""
    height, width = a.shape
    comp = np.full(a.shape, -1)
    count = 0
    for i in range(height):
        for j in range(width):
            if comp[i, j] >= 0:
                continue
            comp[i, j] = count
            queue = deque([(i, j)])
            while queue:
                r, c = queue.popleft()
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (0 <= rr < height and 0 <= cc < width and comp[rr, cc] < 0
                            and a[rr, cc] == a[r, c]):
                        comp[rr, cc] = count
                        queue.append((rr, cc))
            count += 1
    return comp


def _assert_same_partition(a: np.ndarray):
    ids = dynamics._component_ids(a)
    assert ids.dtype == np.int32 and ids.shape == a.shape
    comp = _flood_fill(a)
    # the pairs (flood-fill component, id) form a bijection
    pairs = {(int(c), int(i)) for c, i in zip(comp.ravel(), ids.ravel())}
    assert len(pairs) == len(set(comp.ravel().tolist())) == len(set(ids.ravel().tolist()))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(arrays(np.int32, st.tuples(st.integers(1, 40), st.integers(1, 40)),
              elements=st.sampled_from([UNDECIDED, -2, -1, 0, 1, 2])))
def test_component_ids_match_a_flood_fill(a):
    _assert_same_partition(a)


def _spiral(n: int) -> np.ndarray:
    """n x n array holding a one-pixel-wide square spiral of 1s in 0s."""
    a = np.zeros((n, n), dtype=np.int32)
    r, c, dr, dc = 0, 0, 0, 1
    a[r, c] = 1
    while True:
        moved = False
        # step on to a free cell while the cell beyond it stays off the spiral
        while (0 <= r + dr < n and 0 <= c + dc < n and not a[r + dr, c + dc]
               and not (0 <= r + 2 * dr < n and 0 <= c + 2 * dc < n
                        and a[r + 2 * dr, c + 2 * dc])):
            r, c = r + dr, c + dc
            a[r, c] = 1
            moved = True
        if not moved:
            return a
        dr, dc = dc, -dr


def test_a_spiral_is_one_component():
    a = _spiral(41)
    ids = dynamics._component_ids(a)
    assert np.unique(ids[a == 1]).size == 1
    assert a.sum() > 41 * 41 // 2  # the spiral winds all the way in
    _assert_same_partition(a)


def test_a_comb_is_one_component():
    a = np.zeros((30, 41), dtype=bool)
    a[-1] = True  # the spine
    a[:, ::2] = True  # teeth joined only through the spine
    ids = dynamics._component_ids(a)
    assert np.unique(ids[a]).size == 1
    # each gap between two teeth is a component of its own
    assert np.unique(ids[~a]).size == 20
    _assert_same_partition(a)


def test_a_grid_is_labelled_once_for_all_its_seeds(monkeypatch):
    p = Polynomial.make([0, -1] + [0] * 6 + [1])  # z(z^7 - 1)
    R, roots = halley_of(p), [c.location for c in find_roots(p)]
    grid = classify_grid(R, roots, Window(0j, 2.0, 2.0), 128)
    calls = []
    component_ids = dynamics._component_ids

    def counting(a):
        calls.append(a.shape)
        return component_ids(a)

    monkeypatch.setattr(dynamics, "_component_ids", counting)
    touches = [immediate_basin_component(grid, r)[1] for r in roots]
    assert calls == [(128, 128)]
    assert sorted(touches) == [False] + [True] * 7
    # the central component avoids the border: the probe reads the
    # grid's labelling and labels nothing more
    rep = boundedness_evidence(R, roots, grid, 0j)
    assert rep.touches == (False, False, False)
    assert calls == [(128, 128)]

"""Tests for basin rasterization and PPM output."""

import numpy as np
import pytest

from halleydyn.dynamics import UNDECIDED, BasinGrid, Window, classify_grid
from halleydyn.polycore import Polynomial, find_roots
from halleydyn.ratmap import halley_of
from halleydyn.render import (
    CYCLE_COLOR,
    UNDECIDED_COLOR,
    default_palette,
    read_image,
    render_rgb,
    write_image,
)


def _manual_grid(labels, iterations=None, max_iter=50):
    labels = np.asarray(labels, dtype=np.int32)
    if iterations is None:
        iterations = np.zeros_like(labels)
    return BasinGrid(window=Window(0j, 1.0, 1.0),
                     width=labels.shape[1], height=labels.shape[0],
                     labels=labels,
                     iterations=np.asarray(iterations, dtype=np.int32),
                     max_iter=max_iter)


def test_default_palette_distinct():
    pal = default_palette(8)
    assert len(pal) == 8
    assert len(set(pal)) == 8
    for color in pal:
        assert len(color) == 3
        assert all(0 <= c <= 255 for c in color)


def test_render_rgb_rejects_bad_shading():
    grid = _manual_grid([[0, 1]])
    with pytest.raises(ValueError):
        render_rgb(grid, 1.5)
    with pytest.raises(ValueError):
        render_rgb(grid, -0.1)


def test_render_rgb_pixel_classes():
    grid = _manual_grid([[0, 1], [UNDECIDED, -2]])
    rgb = render_rgb(grid, 1.0)
    palette = default_palette(2)
    assert rgb.shape == (2, 2, 3)
    assert tuple(rgb[0, 0]) == palette[0]
    assert tuple(rgb[0, 1]) == palette[1]
    assert tuple(rgb[1, 0]) == UNDECIDED_COLOR
    assert tuple(rgb[1, 1]) == CYCLE_COLOR


def test_render_rgb_colours_root_k_by_palette_colour_k():
    # colour k does not depend on how many roots the grid labels
    palette = default_palette(12)
    rgb = render_rgb(_manual_grid([[11, 0, 5]]), 1.0)
    assert [tuple(c) for c in rgb[0]] == [palette[11], palette[0], palette[5]]
    assert tuple(render_rgb(_manual_grid([[0]]), 1.0)[0, 0]) == palette[0]


def test_render_rgb_shading_dims_late_capture():
    grid = _manual_grid([[0, 0]], iterations=[[0, 50]], max_iter=50)
    rgb = render_rgb(grid, 0.5)
    early, late = rgb[0, 0], rgb[0, 1]
    color = default_palette(1)[0]
    assert tuple(early) == color
    assert tuple(late) == tuple(int(c * 0.5 + 0.5) for c in color)


def test_ppm_round_trip(tmp_path):
    grid = _manual_grid([[0, 1, 2], [2, 1, 0]])
    path = str(tmp_path / "tiny.ppm")
    write_image(grid, path, 1.0)
    width, height, pixels = read_image(path)
    assert (width, height) == (3, 2)
    assert np.array_equal(pixels, render_rgb(grid, 1.0))
    with open(path, "rb") as fh:
        assert fh.read().startswith(b"P6\n3 2\n255\n")


def test_write_image_is_byte_deterministic(tmp_path):
    p = Polynomial.make((-1.0, 0.0, 1.0))
    h = halley_of(p)
    roots = [c.location for c in find_roots(p)]
    grid = classify_grid(h, roots, Window(0j, 1.5, 1.5), (40, 40))
    path1 = str(tmp_path / "a.ppm")
    path2 = str(tmp_path / "b.ppm")
    write_image(grid, path1, 0.55)
    write_image(grid, path2, 0.55)
    with open(path1, "rb") as f1, open(path2, "rb") as f2:
        assert f1.read() == f2.read()


def test_cube_root_basins_land_in_distinct_colors(tmp_path):
    # the three seed points 1.2 * omega**k converge to the three distinct
    # cube roots of unity, so their pixels take three different colors
    p = Polynomial.make((-1.0, 0.0, 0.0, 1.0))
    h = halley_of(p)
    roots = [c.location for c in find_roots(p)]
    grid = classify_grid(h, roots, Window(0j, 2.0, 2.0), (90, 90))
    rgb = render_rgb(grid, 1.0)
    omega = np.exp(2j * np.pi / 3)
    seen_labels = set()
    seen_colors = set()
    for k in range(3):
        row, col = grid.locate(1.2 * omega ** k)
        label = int(grid.labels[row, col])
        assert label >= 0
        assert abs(roots[label] - omega ** k) <= 1e-6
        seen_labels.add(label)
        seen_colors.add(tuple(rgb[row, col]))
    assert len(seen_labels) == 3
    assert len(seen_colors) == 3

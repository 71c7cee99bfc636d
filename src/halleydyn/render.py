"""Basin grid rasterization to binary PPM (P6).

Output is byte deterministic: the same grid and color map always produce
the identical file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IOFailure
from .dynamics import UNDECIDED, BasinGrid

_GOLDEN_ANGLE = 0.6180339887498949
CYCLE_COLOR = (230, 40, 160)  # pixels captured by an attracting cycle
UNDECIDED_COLOR = (0, 0, 0)


def _hsv_bytes(h: float, s: float, v: float) -> tuple[int, int, int]:
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    r, g, b = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return (int(r * 255 + 0.5), int(g * 255 + 0.5), int(b * 255 + 0.5))


def default_palette(n: int) -> tuple:
    """n visually distinct colors, spaced by the golden angle in hue."""
    return tuple(_hsv_bytes((0.12 + k * _GOLDEN_ANGLE) % 1.0, 0.65, 0.95)
                 for k in range(n))


@dataclass(frozen=True)
class ColorMap:
    """Root palette and shading; cycle pixels take CYCLE_COLOR and
    undecided pixels UNDECIDED_COLOR.

    shading in [0, 1] dims each pixel by shading**(iterations/max_iter),
    so late captures fade toward darkness and shading = 1 disables the
    effect entirely.
    """

    palette: tuple = field(default_factory=lambda: default_palette(8))
    shading: float = 0.55

    def __post_init__(self):
        if not 0.0 <= self.shading <= 1.0:
            raise ValueError("shading must lie in [0, 1]")


def render_rgb(grid: BasinGrid, cmap: ColorMap) -> np.ndarray:
    """(height, width, 3) uint8 image of the grid under the color map."""
    labels = grid.labels
    max_label = int(labels.max(initial=-1))
    n = len(cmap.palette)
    if max_label >= n:
        raise ValueError(f"palette has {n} colors but label {max_label} occurs")
    # row n holds the cycle color, row n + 1 the undecided one
    table = np.array([*cmap.palette, CYCLE_COLOR, UNDECIDED_COLOR], dtype=float)
    row = np.where(labels >= 0, labels, np.where(labels == UNDECIDED, n + 1, n))
    rgb = table[row]
    if cmap.shading < 1.0:
        expo = grid.iterations.astype(np.float64) / max(grid.max_iter, 1)
        dim = np.power(cmap.shading, expo)  # 0.0**0.0 == 1.0 by convention
        rgb *= dim[:, :, None]
    rgb += 0.5
    return np.clip(rgb, 0.0, 255.0, out=rgb).astype(np.uint8)


def write_image(grid: BasinGrid, cmap: ColorMap, path: str):
    """Write the grid as a binary PPM (P6) file."""
    rgb = render_rgb(grid, cmap)
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(rgb.tobytes())
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def read_image(path: str):
    """Parse a binary PPM (P6) back into (width, height, uint8 array).

    Only the exact header layout produced by write_image is supported.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    if not data.startswith(b"P6\n"):
        raise ValueError("not a binary PPM written by this package")
    rest = data[3:]
    nl = rest.index(b"\n")
    width, height = (int(tok) for tok in rest[:nl].split())
    rest = rest[nl + 1:]
    nl = rest.index(b"\n")
    if rest[:nl] != b"255":
        raise ValueError("unsupported max value")
    pixels = np.frombuffer(rest[nl + 1:], dtype=np.uint8)
    return width, height, pixels.reshape(height, width, 3)

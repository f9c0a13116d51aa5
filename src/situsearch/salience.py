"""Category-independent location prior from simple center-surround salience.

The map is a lightweight take on classic center-surround salience: intensity
difference-of-Gaussians at three scales, color-opponency channels when RGB is
available, and gradient-orientation energy at four orientations. Channel maps
are individually normalized and summed, then heavily smoothed (the raw
response sits on object edges, but proposals are sampled at object centers)
and renormalized into a probability distribution over grid cells.

The smoothing std is a fixed fraction of the normalized image width; channel
weights are equal and the pyramid is fixed, because the prior only needs to
be qualitatively right: it nudges search toward foreground-object regions.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .gaussian import LocationMap, _normalize, check_grid, default_epsilon, fold, grid_shape
from .geometry import ImageFrame

CENTER_SIGMAS = (2.0, 4.0, 8.0)  # in rasterization cells
SURROUND_FACTOR = 4.0
ORIENTATIONS = (0.0, 45.0, 90.0, 135.0)
SMOOTHING_FRACTION = 0.10  # of normalized image width
WORKING_CELL = 4.0  # scaled pixels per cell while computing channels

SALIENCE_MAGIC = "SALIENCE v1"
_RESIZE_BLOCK = 16000  # cells per _resize temporary: under glibc's 128 KiB mmap threshold


def _smooth_rows(grid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate every column of ``grid`` with a symmetric kernel, reflecting at the ends.

    Each output starts from its centre tap and adds the outermost pair of
    taps first, as scipy's loop for a symmetric kernel does.
    """
    radius = len(weights) // 2
    n = grid.shape[0]
    # Reflected rows repeat every 2n: rows i + j, for all i and any j, are one slice of the
    # grid, the grid reversed and the grid again, however long the kernel (a thin frame's).
    period = np.concatenate([grid, grid[::-1], grid])
    out = period[:n] * weights[radius]
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        below, above = -j % (2 * n), j % (2 * n)
        np.add(period[below : below + n], period[above : above + n], out=pair)
        pair *= weights[radius - j]
        out += pair
    return out


def smooth_grid(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing with reflected boundaries (mass-preserving).

    Bit for bit ``scipy.ndimage.gaussian_filter(grid, sigma, mode="reflect")``:
    the same kernel, filtered along rows then columns, each output summed in
    scipy's order. The result is a new C-contiguous array.
    """
    grid = np.asarray(grid, dtype=float)
    if sigma <= 1e-15:  # scipy skips an axis with a smaller sigma
        return np.array(grid, order="C")
    radius = int(4.0 * sigma + 0.5)  # scipy's kernel, truncated at 4 sigma
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights /= weights.sum()
    columns = np.ascontiguousarray(_smooth_rows(grid, weights).T)
    return np.ascontiguousarray(_smooth_rows(columns, weights).T)


def _linear_taps(n_in: int, n_out: int):
    """Each output's two input indices and weights along one axis of ``_resize``."""
    centers = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    low = np.floor(centers)
    w0 = 1.0 - (centers - low)
    lows = np.clip(low, 0, n_in - 1).astype(np.intp)
    highs = np.clip(low + 1, 0, n_in - 1).astype(np.intp)
    return (lows, w0), (highs, 1.0 - w0)


def _resize(grid: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinear resize to an exact shape: ``grid`` itself if it has that shape.

    Otherwise a new C-contiguous array, bit for bit ``scipy.ndimage.zoom(grid,
    zoom, order=1, mode="nearest", grid_mode=True)`` with the zoom that gives
    ``shape``: each output sums its four products ``value * wy * wx`` from
    zero, in scipy's order.
    """
    if grid.shape == shape:
        return grid
    rows = _linear_taps(grid.shape[0], shape[0])
    cols = _linear_taps(grid.shape[1], shape[1])
    out = np.zeros(shape)
    # A few output rows at a time: temporaries this small are reused from the
    # heap, where a fresh grid-sized one would take a page fault per 4 KiB.
    step = max(1, _RESIZE_BLOCK // max(shape[1], grid.shape[1]))
    for start in range(0, shape[0], step):
        block = slice(start, start + step)
        for row_index, wy in rows:
            scaled = grid[row_index[block]] * wy[block, None]
            for col_index, wx in cols:
                term = scaled[:, col_index]
                term *= wx
                out[block] += term
    return out


def _normalized(channel: np.ndarray) -> np.ndarray:
    peak = float(channel.max())
    if peak < 1e-9:  # numerically flat: no signal, not structure to amplify
        return np.zeros_like(channel)
    return channel / peak


def compute_salience(
    image: np.ndarray, frame: ImageFrame, cell_size: float = 1.0
) -> LocationMap:
    """Salience distribution over the rasterization grid of a frame.

    ``image`` is a 2-D luminance array or an (H, W, 3) RGB array in [0, 1]
    whose pixel dimensions match the frame's original size.
    """
    img = np.asarray(image, dtype=float)
    if img.size == 0:
        raise InvalidInputError("image is empty")
    if img.ndim == 3 and img.shape[2] == 3:
        rgb = img
        lum = img.mean(axis=2)
    elif img.ndim == 2:
        rgb = None
        lum = img
    else:
        raise InvalidInputError(f"expected 2-d or (H, W, 3) image, got shape {img.shape}")
    if lum.shape != (int(round(frame.orig_height)), int(round(frame.orig_width))):
        raise InvalidInputError(
            f"image shape {lum.shape} does not match frame "
            f"{int(frame.orig_height)}x{int(frame.orig_width)}"
        )

    final_shape = grid_shape(frame, cell_size)
    # A frame thinner than WORKING_CELL is worked on in cells of its short side.
    working_cell = max(cell_size, min(WORKING_CELL, frame.norm_width, frame.norm_height))
    work_shape = grid_shape(frame, working_cell)
    cells_per_working = working_cell / cell_size

    channels = [_resize(lum, work_shape)]
    if rgb is not None:
        r, g, b = (_resize(rgb[:, :, i], work_shape) for i in range(3))
        channels.append(r - g)
        channels.append(b - (r + g) / 2)

    total = np.zeros(work_shape)
    centers = [sigma_cells / cells_per_working for sigma_cells in CENTER_SIGMAS]
    # One centre is another's surround (8 = 2 * 4 cells): smooth each sigma once.
    sigmas = {*centers, *(sigma * SURROUND_FACTOR for sigma in centers)}
    for chan in channels:
        smoothed = {sigma: smooth_grid(chan, sigma) for sigma in sigmas}
        for sigma in centers:
            total += _normalized(np.abs(smoothed[sigma] - smoothed[sigma * SURROUND_FACTOR]))

    # A grid one cell across (a 1×N image) has no gradient along that axis.
    gy, gx = (
        np.gradient(channels[0], axis=axis) if n > 1 else np.zeros(work_shape)
        for axis, n in enumerate(work_shape)
    )
    for degrees in ORIENTATIONS:
        theta = math.radians(degrees)
        energy = np.abs(math.cos(theta) * gx + math.sin(theta) * gy)
        total += _normalized(smooth_grid(energy, 2.0 / cells_per_working))

    sigma_smooth = SMOOTHING_FRACTION * frame.norm_width / working_cell
    total = smooth_grid(total, sigma_smooth)
    total = _resize(total, final_shape)
    np.maximum(total, 0.0, out=total)
    total += default_epsilon(total.size) * max(float(total.sum()), 1.0)
    return LocationMap._adopt(frame, cell_size, _normalize(total))


def save_salience(salience: LocationMap, path: str | Path) -> None:
    rows, cols = salience.grid.shape
    lines = [SALIENCE_MAGIC, f"{rows} {cols}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in salience.grid]
    Path(path).write_text("\n".join(lines) + "\n")


def combine(location: LocationMap, salience: LocationMap) -> LocationMap:
    """Pointwise product of two maps plus a floor, renormalized.

    The floor (``default_epsilon``, about a sixth of the result's mass for a
    conditioned map and salience) keeps every cell reachable even where the
    supports are disjoint. The search folds salience into each conditioned
    map as it rasterizes it (``rasterize_2d`` with ``weights``), with this
    same arithmetic.
    """
    check_grid(location.grid.shape, salience)
    product = fold(np.array(location.grid), salience.grid, default_epsilon(location.grid.size))
    return LocationMap._adopt(location.frame, location.cell_size, _normalize(product))

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import InvalidInputError
from .gaussian import LocationMap, _normalize, default_epsilon, fold, grid_shape
from .geometry import ImageFrame

CENTER_SIGMAS = (2.0, 4.0, 8.0)  # in rasterization cells
SURROUND_FACTOR = 4.0
ORIENTATIONS = (0.0, 45.0, 90.0, 135.0)
SMOOTHING_FRACTION = 0.10  # of normalized image width
WORKING_CELL = 4.0  # scaled pixels per cell while computing channels

SALIENCE_MAGIC = "SALIENCE v1"


@dataclass(eq=False)
class SalienceMap(LocationMap):
    """A LocationMap whose mass came from image salience rather than a model."""


def smooth_grid(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing with reflected boundaries (mass-preserving)."""
    if sigma <= 0:
        return np.array(grid, dtype=float)
    return ndimage.gaussian_filter(np.asarray(grid, dtype=float), sigma=sigma, mode="reflect")


def _resize(grid: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinear resize to an exact shape."""
    if grid.shape == shape:
        return grid
    zoom = (shape[0] / grid.shape[0], shape[1] / grid.shape[1])
    out = ndimage.zoom(grid, zoom, order=1, mode="nearest", grid_mode=True)
    # zoom rounds its output shape; trim or edge-pad the stray row/column
    out = out[: shape[0], : shape[1]]
    if out.shape != shape:
        pad = ((0, shape[0] - out.shape[0]), (0, shape[1] - out.shape[1]))
        out = np.pad(out, pad, mode="edge")
    return out


def _normalized(channel: np.ndarray) -> np.ndarray:
    peak = float(channel.max())
    if peak < 1e-9:  # numerically flat: no signal, not structure to amplify
        return np.zeros_like(channel)
    return channel / peak


def compute_salience(
    image: np.ndarray, frame: ImageFrame, cell_size: float = 1.0
) -> SalienceMap:
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
    working_cell = max(cell_size, WORKING_CELL)
    work_shape = grid_shape(frame, working_cell)
    cells_per_working = working_cell / cell_size

    channels = [_resize(lum, work_shape)]
    if rgb is not None:
        r, g, b = (_resize(rgb[:, :, i], work_shape) for i in range(3))
        channels.append(r - g)
        channels.append(b - (r + g) / 2)

    total = np.zeros(work_shape)
    for chan in channels:
        for sigma_cells in CENTER_SIGMAS:
            sigma = sigma_cells / cells_per_working
            center = smooth_grid(chan, sigma)
            surround = smooth_grid(chan, sigma * SURROUND_FACTOR)
            total += _normalized(np.abs(center - surround))

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
    total = np.maximum(total, 0.0)
    total += default_epsilon(total.size) * max(float(total.sum()), 1.0)
    return SalienceMap._adopt(frame, cell_size, _normalize(total))


def save_salience(salience: SalienceMap, path: str | Path) -> None:
    rows, cols = salience.grid.shape
    lines = [SALIENCE_MAGIC, f"{rows} {cols}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in salience.grid]
    Path(path).write_text("\n".join(lines) + "\n")


def combine(location: LocationMap, salience: SalienceMap, epsilon: float | None = None) -> LocationMap:
    """Pointwise product of two maps plus a floor, renormalized.

    The floor keeps every cell reachable even where the supports are
    disjoint; by default it is 1e-6 spread across the grid. The search folds
    salience into each conditioned map as it rasterizes it (``rasterize_2d``
    with ``weights``), with this same arithmetic.
    """
    if location.grid.shape != salience.grid.shape:
        raise InvalidInputError(
            f"grid shapes differ: {location.grid.shape} vs {salience.grid.shape}"
        )
    if epsilon is None:
        epsilon = default_epsilon(location.grid.size)
    if epsilon <= 0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    product = fold(np.array(location.grid), salience.grid, epsilon)
    return LocationMap._adopt(location.frame, location.cell_size, _normalize(product))

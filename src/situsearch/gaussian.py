"""Named-dimension multivariate normal machinery.

Every distribution here addresses its dimensions by string label rather than
position, so the 4-d and 6-d joints built elsewhere can never be silently
transposed at a call site. Fitting uses the maximum-likelihood (1/N)
covariance with a small trace-scaled ridge added so that near-singular
training data (thin objects, tiny folds) still factorizes.

Conditioning follows the standard Gaussian identities: with the joint split
into unobserved block a and observed block b,

    mean_a|b = mu_a + S_ab S_bb^-1 (x_b - mu_b)
    cov_a|b  = S_aa - S_ab S_bb^-1 S_ba

The observed block is solved through a Cholesky factorization of the
(regularized) block, never an explicit inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .geometry import ImageFrame

# Ridge added to fitted covariances: epsilon = FIT_RIDGE * trace(cov)/d,
# floored at FIT_RIDGE_FLOOR for all-identical samples.
FIT_RIDGE = 1e-8
FIT_RIDGE_FLOOR = 1e-12

_PSD_TOL = 1e-10
_SYM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _set_frozen_state(obj, state: dict, arrays: tuple[str, ...]) -> None:
    """Restore a pickled instance; numpy unpickles arrays writeable, so refreeze them."""
    obj.__dict__.update(state)
    for name in arrays:
        if name in state:
            _frozen(state[name])


@dataclass(eq=False)
class MultivariateGaussian:
    """Multivariate normal with labeled dimensions.

    Immutable after construction: the arrays are stored read-only and no
    method mutates state, so instances are safe to share across runs.
    """

    dims: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray
    epsilon: float = 0.0  # ridge applied at fit time, carried for serialization

    def __post_init__(self) -> None:
        self.dims = tuple(self.dims)
        if len(set(self.dims)) != len(self.dims):
            raise InvalidInputError(f"dimension labels must be unique, got {self.dims}")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = len(self.dims)
        if mean.shape != (d,) or cov.shape != (d, d):
            raise InvalidInputError(
                f"shape mismatch: {d} dims, mean {mean.shape}, cov {cov.shape}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise InvalidInputError("mean and covariance must be finite")
        asym = np.max(np.abs(cov - cov.T)) if d else 0.0
        scale = max(np.max(np.abs(cov)), 1.0)
        if asym > _SYM_TOL * scale:
            raise InvalidInputError(f"covariance is not symmetric (max asymmetry {asym:g})")
        cov = (cov + cov.T) / 2
        eigmin = float(np.linalg.eigvalsh(cov).min())
        tr = float(np.trace(cov))
        if eigmin < -_PSD_TOL * max(tr, 1.0):
            raise InvalidInputError(f"covariance is not PSD (min eigenvalue {eigmin:g})")
        self.mean = _frozen(mean.copy())
        self.cov = _frozen(cov)

    @property
    def dim(self) -> int:
        return len(self.dims)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.dims)}

    @cached_property
    def _chol(self) -> np.ndarray:
        return _frozen(_safe_cholesky(self.cov))

    @cached_property
    def _conditionals(self) -> dict[tuple[str, ...], _Conditional]:
        """condition()'s value-independent algebra, per observed-label tuple."""
        return {}

    def __getstate__(self) -> dict:
        # The conditioning memo is rebuilt on demand rather than pickled.
        state = dict(self.__dict__)
        state.pop("_conditionals", None)
        return state

    def __setstate__(self, state: dict) -> None:
        _set_frozen_state(self, state, ("mean", "cov", "_chol"))

    def indices(self, labels: Iterable[str]) -> list[int]:
        idx = self._index
        out = []
        for label in labels:
            if label not in idx:
                raise InvalidInputError(f"unknown dimension label {label!r}; have {self.dims}")
            out.append(idx[label])
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw; mean + L z with L the cached Cholesky factor."""
        z = rng.standard_normal(self.dim)
        return self.mean + self._chol @ z

    def pdf_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Unnormalized density of a 2-d Gaussian on the grid ys x xs.

        Row i, column j holds the density at (xs[j], ys[i]). Only valid for
        2-dimensional distributions; the first dimension is x.
        """
        if self.dim != 2:
            raise InvalidInputError(f"pdf_grid needs a 2-d distribution, got {self.dim}-d")
        dx = np.asarray(xs, dtype=float) - self.mean[0]
        dy = np.asarray(ys, dtype=float) - self.mean[1]
        det = self.cov[0, 0] * self.cov[1, 1] - self.cov[0, 1] ** 2
        if det <= 0 or not math.isfinite(det):
            # Degenerate: all mass at the cell nearest the mean.
            out = np.zeros((len(dy), len(dx)))
            out[int(np.argmin(np.abs(dy))), int(np.argmin(np.abs(dx)))] = 1.0
            return out
        ia = self.cov[1, 1] / det
        ib = -self.cov[0, 1] / det
        ic = self.cov[0, 0] / det
        # q = ia dx^2 + 2 ib dy dx + ic dy^2 in one buffer; the order of the
        # operations fixes the bits of every map, so it stays left to right.
        # Where q overflows in every cell the density comes out NaN, which
        # rasterize_2d replaces by a point mass, so the overflow is silent.
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.multiply(2.0 * ib * dy[:, None], dx[None, :])
            np.add(ia * dx[None, :] ** 2, q, out=q)
            q += ic * dy[:, None] ** 2
            q -= q.min()  # stabilize the exponential; normalization happens downstream
            q *= -0.5
            return np.exp(q, out=q)


def _safe_cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with escalating jitter for semi-definite inputs."""
    d = cov.shape[0]
    jitter = max(float(np.trace(cov)) / d, 1.0) * 1e-14
    for _ in range(12):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(d) if jitter > 0 else cov)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10, 1e-14)
    raise InvalidInputError("covariance could not be factorized even with jitter")


def fit(samples: Sequence[Sequence[float]] | np.ndarray, dims: Sequence[str]) -> MultivariateGaussian:
    """Maximum-likelihood fit with a trace-scaled ridge.

    Requires at least d+1 samples. The covariance divides by N (not N-1) and
    gets epsilon*I added, epsilon = FIT_RIDGE * trace/d floored at
    FIT_RIDGE_FLOOR, so degenerate sample sets stay usable.
    """
    x = np.asarray(samples, dtype=float)
    dims = tuple(dims)
    d = len(dims)
    if x.ndim != 2 or x.shape[1] != d:
        raise InvalidInputError(f"samples must be (n, {d}), got {x.shape}")
    if x.shape[0] < d + 1:
        raise InsufficientDataError(
            f"insufficient data: need at least {d + 1} samples for {d} dims, got {x.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("samples contain non-finite values")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    cov = (cov + cov.T) / 2
    eps = max(FIT_RIDGE * float(np.trace(cov)) / d, FIT_RIDGE_FLOOR)
    cov += eps * np.eye(d)
    return MultivariateGaussian(dims=dims, mean=mean, cov=cov, epsilon=eps)


class _Conditional(NamedTuple):
    """What conditioning a joint on a tuple of labels does not owe to the values."""

    template: MultivariateGaussian  # the conditional, with mean mu_a
    mu_b: np.ndarray
    gain: np.ndarray  # S_ab S_bb^-1


def _conditional(dist: MultivariateGaussian, labels: tuple[str, ...]) -> _Conditional:
    obs_idx = dist.indices(labels)
    if len(obs_idx) >= dist.dim:
        raise InvalidInputError("cannot condition on every dimension")
    keep_idx = [i for i in range(dist.dim) if i not in set(obs_idx)]

    s_aa = dist.cov[np.ix_(keep_idx, keep_idx)]
    s_ab = dist.cov[np.ix_(keep_idx, obs_idx)]
    s_bb = dist.cov[np.ix_(obs_idx, obs_idx)]

    l_bb = _safe_cholesky(s_bb)
    # gain = S_ab S_bb^-1 via two triangular solves
    tmp = np.linalg.solve(l_bb, s_ab.T)
    gain = np.linalg.solve(l_bb.T, tmp).T
    new_cov = s_aa - gain @ s_ab.T
    new_cov = (new_cov + new_cov.T) / 2
    # Schur complements are PSD in exact arithmetic; clip numerical dust.
    eigmin = float(np.linalg.eigvalsh(new_cov).min()) if new_cov.size else 0.0
    if eigmin < 0:
        new_cov += (-eigmin + 1e-18) * np.eye(len(keep_idx))
    template = MultivariateGaussian(
        dims=tuple(dist.dims[i] for i in keep_idx),
        mean=dist.mean[keep_idx],
        cov=new_cov,
        epsilon=dist.epsilon,
    )
    mu_b = dist.mean[obs_idx]
    # Shared by every conditional built from this entry. The gain keeps its
    # memory layout, on which the bits of the matrix product may depend.
    return _Conditional(template, _frozen(mu_b), _frozen(gain))


def condition(dist: MultivariateGaussian, observed: Mapping[str, float]) -> MultivariateGaussian:
    """Condition on exact values for a subset of dimensions.

    Returns the Gaussian over the remaining labels, in their original order.
    A singular observed block is handled by the same trace-scaled ridge used
    at fit time; it never raises for valid labels. Everything but the mean
    is worked out once per joint and tuple of observed labels, and the
    returned distributions share those read-only arrays.
    """
    if not observed:
        raise InvalidInputError("need at least one observed dimension")
    labels = tuple(observed)
    fixed = dist._conditionals.get(labels)
    if fixed is None:
        fixed = dist._conditionals[labels] = _conditional(dist, labels)
    values = np.array([float(v) for v in observed.values()])
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("observed values must be finite")
    template = fixed.template
    with np.errstate(over="ignore"):  # an overflowing mean is rejected just below
        new_mean = template.mean + fixed.gain @ (values - fixed.mu_b)
    if not np.all(np.isfinite(new_mean)):
        raise InvalidInputError("mean and covariance must be finite")
    # The template's validated fields and cached factor, with the new mean.
    out = object.__new__(MultivariateGaussian)
    out.__dict__.update(
        dims=template.dims,
        mean=_frozen(new_mean),
        cov=template.cov,
        epsilon=template.epsilon,
        _index=template._index,
        _chol=template._chol,
    )
    return out


@dataclass(frozen=True)
class UnivariateNormal:
    """Normal over one labeled quantity (used for the log-space box priors)."""

    mean: float
    std: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.std > 0) or not math.isfinite(self.std) or not math.isfinite(self.mean):
            raise InvalidInputError(f"std must be positive and finite, got {self.std}")


def fit_univariate(values: Sequence[float] | np.ndarray, label: str = "") -> UnivariateNormal:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise InsufficientDataError("insufficient data: need at least 2 values for a univariate fit")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("values contain non-finite entries")
    mean = float(x.mean())
    var = float(((x - mean) ** 2).mean())
    std = math.sqrt(max(var, FIT_RIDGE_FLOOR))
    return UnivariateNormal(mean=mean, std=std, label=label)


def _normalize(grid: np.ndarray) -> np.ndarray:
    """Check a grid of cell weights and divide it by its total, in place."""
    if grid.ndim != 2 or grid.size == 0:
        raise InvalidInputError(f"grid must be a non-empty 2-d array, got shape {grid.shape}")
    # A NaN or negative cell fails the min; an infinite cell, or finite
    # cells whose sum overflows, fail the sum.
    with np.errstate(over="ignore"):
        total = float(grid.sum())
    if not grid.min() >= 0 or not math.isfinite(total):
        raise InvalidInputError("grid cells must be finite and non-negative with a finite sum")
    if total <= 0:
        raise InvalidInputError("grid must have positive total mass")
    grid /= total
    return grid


@dataclass(eq=False)
class LocationMap:
    """Probability distribution over image locations on a regular grid.

    grid[i, j] is the mass of the cell whose top-left corner sits at
    (-norm_width/2 + j*cell_size, -norm_height/2 + i*cell_size). Cells are
    non-negative and sum to 1. Instances are immutable in practice: the grid
    is read-only and the sampling CDF is cached. The constructor normalizes
    a copy of the grid it is given.
    """

    frame: ImageFrame
    cell_size: float
    grid: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.grid = _frozen(_normalize(np.array(self.grid, dtype=float)))

    @classmethod
    def _adopt(cls, frame: ImageFrame, cell_size: float, grid: np.ndarray):
        """A map over a grid the library has just normalized, frozen without a copy."""
        lmap = cls.__new__(cls)
        lmap.frame, lmap.cell_size, lmap.grid = frame, cell_size, _frozen(grid)
        return lmap

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _frozen(np.cumsum(self.grid.ravel()))

    def __setstate__(self, state: dict) -> None:
        _set_frozen_state(self, state, ("grid", "_cdf"))

    def sample_point(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw a cell by mass, then a uniform point inside it (clamped to frame)."""
        cdf = self._cdf
        # One call for the three uniforms the cell and the point in it take:
        # the same values, in the same order, as three rng.random() calls.
        u, ux, uy = rng.random(3).tolist()
        idx = min(int(cdf.searchsorted(u * cdf[-1], "right")), cdf.size - 1)
        row, col = divmod(idx, self.grid.shape[1])
        hx = self.frame.norm_width / 2
        hy = self.frame.norm_height / 2
        x = -hx + (col + ux) * self.cell_size
        y = -hy + (row + uy) * self.cell_size
        return min(x, hx), min(y, hy)


def grid_shape(frame: ImageFrame, cell_size: float) -> tuple[int, int]:
    """(rows, cols) of the rasterization grid covering the frame."""
    if cell_size < 1:
        raise InvalidInputError(f"cell_size must be >= 1 scaled pixel, got {cell_size}")
    if frame.norm_width < cell_size or frame.norm_height < cell_size:
        raise InvalidInputError("frame is smaller than a single grid cell")
    cols = int(math.ceil(frame.norm_width / cell_size - 1e-9))
    rows = int(math.ceil(frame.norm_height / cell_size - 1e-9))
    return rows, cols


def cell_centers(frame: ImageFrame, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y coordinates of cell centers for the rasterization grid."""
    rows, cols = grid_shape(frame, cell_size)
    xs = -frame.norm_width / 2 + (np.arange(cols) + 0.5) * cell_size
    ys = -frame.norm_height / 2 + (np.arange(rows) + 0.5) * cell_size
    return xs, ys


def uniform_map(frame: ImageFrame, cell_size: float = 1.0) -> LocationMap:
    rows, cols = grid_shape(frame, cell_size)
    grid = np.full((rows, cols), 1.0 / (rows * cols))
    return LocationMap._adopt(frame, cell_size, _normalize(grid))


def default_epsilon(num_cells: int) -> float:
    """The floor a fold adds to each cell: 1e-6 spread across the grid."""
    return 1e-6 / num_cells


def fold(grid: np.ndarray, weights: np.ndarray, epsilon: float) -> np.ndarray:
    """grid * weights + epsilon cell by cell, in the grid's own buffer.

    A map weighted by another; the result still has to be normalized.
    """
    grid *= weights
    grid += epsilon
    return grid


def rasterize_2d(
    dist: MultivariateGaussian,
    frame: ImageFrame,
    cell_size: float = 1.0,
    weights: LocationMap | None = None,
) -> LocationMap:
    """Location map with cell mass proportional to the density at cell centers.

    The distribution must be exactly 2-d with dims ordered (x, y). Mass is
    truncated to the frame and renormalized to sum 1. With ``weights`` (a
    map on the same grid, such as salience) the normalized density is folded
    with it and renormalized, in the same buffer: the map
    ``salience.combine(rasterize_2d(dist, frame, cell_size), weights)`` gives.
    """
    if dist.dim != 2:
        raise InvalidInputError(f"rasterize_2d needs a 2-d distribution, got {dist.dim}-d")
    xs, ys = cell_centers(frame, cell_size)
    if weights is not None and weights.grid.shape != (len(ys), len(xs)):
        raise InvalidInputError(f"grid shapes differ: {(len(ys), len(xs))} vs {weights.shape}")
    grid = dist.pdf_grid(xs, ys)
    try:
        _normalize(grid)
    except InvalidInputError:
        # The density is NaN or zero everywhere when the quadratic form
        # overflows in every cell (a mean far outside the frame with tiny
        # variance): the nearest cell gets all mass.
        grid.fill(0.0)
        grid[
            int(np.clip(np.argmin(np.abs(ys - dist.mean[1])), 0, len(ys) - 1)),
            int(np.clip(np.argmin(np.abs(xs - dist.mean[0])), 0, len(xs) - 1)),
        ] = 1.0
    if weights is not None:
        _normalize(fold(grid, weights.grid, default_epsilon(grid.size)))
    return LocationMap._adopt(frame, cell_size, grid)


# ---------------------------------------------------------------------------
# Serialization (bit-stable ordering for golden tests)

def gaussian_to_dict(dist: MultivariateGaussian) -> dict:
    return {
        "dims": list(dist.dims),
        "mean": [float(v) for v in dist.mean],
        "cov": [float(v) for v in dist.cov.ravel()],  # row-major
        "epsilon": float(dist.epsilon),
    }


def gaussian_from_dict(data: Mapping) -> MultivariateGaussian:
    try:
        dims = tuple(data["dims"])
        d = len(dims)
        mean = np.array(data["mean"], dtype=float)
        cov = np.array(data["cov"], dtype=float).reshape(d, d)
        epsilon = float(data.get("epsilon", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed gaussian document: {exc}") from exc
    return MultivariateGaussian(dims=dims, mean=mean, cov=cov, epsilon=epsilon)

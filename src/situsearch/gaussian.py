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

import copy
import math
import sys
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, json_number
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
        # A larger entry overflows to infinity when the covariance is
        # symmetrized or its trace is summed.
        limit = sys.float_info.max / (2 * max(d, 1))
        largest = float(np.max(np.abs(cov))) if d else 0.0
        if largest > limit:
            raise InvalidInputError(
                f"covariance entries must be at most {limit:g} in size, got {largest:g}"
            )
        asym = np.max(np.abs(cov - cov.T)) if d else 0.0
        scale = max(largest, 1.0)
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

    def pdf_grid(self, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unnormalized density of a 2-d Gaussian on the grid ys x xs.

        Row i, column j holds the density at (xs[j], ys[i]), in ``out`` when
        given. Only valid for 2-dimensional distributions; the first dimension is x.
        """
        if self.dim != 2:
            raise InvalidInputError(f"pdf_grid needs a 2-d distribution, got {self.dim}-d")
        dx = np.asarray(xs, dtype=float) - self.mean[0]
        dy = np.asarray(ys, dtype=float) - self.mean[1]
        if out is None:
            out = np.empty((len(dy), len(dx)))
        det = self.cov[0, 0] * self.cov[1, 1] - self.cov[0, 1] ** 2
        if det <= 0 or not math.isfinite(det):
            # Degenerate: all mass at the cell nearest the mean.
            out.fill(0.0)
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
            q = np.multiply(2.0 * ib * dy[:, None], dx[None, :], out=out)
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
    template._chol  # factored here, so that every copy of the template shares it
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
    # The template's validated state and cached factor, with the new mean.
    out = copy.copy(template)
    out.mean = _frozen(new_mean)
    return out


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
    is read-only and the sampling CDF, a new array, is cached. The
    constructor normalizes a copy of the grid it is given; a ``GaussianMap``
    builds its grid from its Gaussian when the grid is first read.
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

    def _cell(self, u: float) -> int:
        """The row-major index of the cell a uniform ``u`` in [0, 1) draws by mass."""
        cdf = self._cdf
        return min(int(cdf.searchsorted(u * cdf[-1], "right")), cdf.size - 1)

    def sample_point(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw a cell by mass, then a uniform point inside it (clamped to frame)."""
        # One call for the three uniforms the cell and the point in it take:
        # the same values, in the same order, as three rng.random() calls.
        u, ux, uy = rng.random(3).tolist()
        row, col = divmod(self._cell(u), self.shape[1])
        hx = self.frame.norm_width / 2
        hy = self.frame.norm_height / 2
        x = -hx + (col + ux) * self.cell_size
        y = -hy + (row + uy) * self.cell_size
        return min(x, hx), min(y, hy)


class GaussianMap(LocationMap):
    """``rasterize_2d``'s map of a 2-d ``gaussian`` on a frame's grid, folded with ``weights``.

    Its grid is built only when read, and a draw needs neither the grid nor
    its CDF, yet draws the very cell ``LocationMap._cell`` would. At its
    first draw the map keeps its Gaussian's unnormalized density p (the
    ``pdf_grid`` that ``cell_masses`` would normalize) and the running sums
    of its row totals (``density_rows``); a draw searches those for the row,
    then a cached cumulative sum of that one row for the cell, and returns
    the cell only when both neighbouring approximate prefixes clear the
    target by a certified slack. Any other draw searches the exact CDF.

    Why the cell is exact. Let x_c >= 0 be cell c's unnormalized mass in
    real arithmetic, x_c = p_c, or p_c w_c + eps t1 with weights w, where t1
    is p's float total and eps = default_epsilon(n); let X_k = x_0 + ... + x_k
    in row-major order over the n cells, and g_m = m 2^-53 / (1 - m 2^-53).
    Every term is >= 0, so a sum in any order in which no term passes
    through more than m roundings is its real value times (1 + e), |e| <= g_m
    (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).
    - Exact path: normalizing, folding and normalizing again change each
      cell to x_c / (t1 t2) (1 + e), |e| <= g_4, t2 being the folded total
      (1 without weights). So cdf_k = X_k / (t1 t2) (1 + e) with |e| <=
      g_(n+4), and the drawn value u cdf_(n-1) is u X_(n-1) / (t1 t2) (1 + e)
      with |e| <= g_(n+5). The search returns cell k exactly when
      cdf_(k-1) <= u cdf_(n-1) < cdf_k (cdf_(-1) = 0). The scales t1 and t2
      cancel, so that holds when X_(k-1) (1 + g_(n+4)) <= u X_(n-1) (1 - g_(n+5))
      and X_k (1 - g_(n+4)) > u X_(n-1) (1 + g_(n+5)).
    - Certified path: a row's end, and a row's start plus a prefix of the
      row's cumulative sum, are each some A_k = X_k (1 + e) with |e| <= g_m,
      m = rows + cols + 3, and the total T = A_(n-1). A draw returns k only
      when A_(k-1) <= u T - s and A_k > u T + s (A_(-1) = 0), with slack
      s = 4 (n + 2 cols + rows + 16) 2^-53 T. To first order the two
      conditions above need s >= (2n + 2 rows + 2 cols + 20) 2^-53 X_(n-1);
      the factor of 4 covers the higher-order terms, the roundings of u T
      and u T -+ s, and underflow, which adds at most a few n 2^-1074 while
      T >= 1e-6 (p peaks at 1, and the floor alone holds 1e-6 t1).
    A density with no finite positive total (NaN cells where the quadratic
    form overflows everywhere) is drawn from on the exact path, whose grid
    is then ``cell_masses``' point mass.

    The map owns its density: it takes the array at its first draw from the
    spare grids of its shape (``_take_grid``) and gives it back when it is
    collected. Its grid and exact CDF, built only when read, are new arrays.
    """

    def __init__(
        self,
        gaussian: MultivariateGaussian,
        frame: ImageFrame,
        cell_size: float,
        weights: LocationMap | None,
    ):
        self.gaussian, self.frame, self.cell_size = gaussian, frame, cell_size
        self.weights = weights
        self._prefixes: dict[int, np.ndarray] = {}  # per row drawn from: its start + its cumsum

    @cached_property
    def shape(self) -> tuple[int, int]:
        return grid_shape(self.frame, self.cell_size)

    def _grid_inputs(self):
        """The Gaussian, cell centres and weights ``cell_masses`` and ``density_rows`` take."""
        xs, ys = cell_centers(self.frame, self.cell_size)
        return self.gaussian, xs, ys, None if self.weights is None else self.weights.grid

    @cached_property
    def grid(self) -> np.ndarray:
        return _frozen(cell_masses(*self._grid_inputs()))

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        density = _take_grid(self.shape)
        weakref.finalize(self, _give_back, density)
        return density_rows(*self._grid_inputs(), density)

    def _cell(self, u: float) -> int:
        rows = self._rows
        if rows is not None:
            density, ends, floor = rows
            total = float(ends[-1])
            target = u * total
            slack = 4 * (density.size + 2 * density.shape[1] + ends.size + 16) * 2**-53 * total
            i = int(ends.searchsorted(target, "right"))
            if i < ends.size:
                start = float(ends[i - 1]) if i else 0.0
                prefix = self._prefixes.get(i)
                if prefix is None:
                    cells = density[i]
                    if self.weights is not None:
                        cells = cells * self.weights.grid[i] + floor
                    prefix = self._prefixes[i] = np.cumsum(cells) + start
                j = int(prefix.searchsorted(target, "right"))
                below = float(prefix[j - 1]) if j else start
                # The certificate derived above: the exact CDF draws this cell too.
                if j < prefix.size and below <= target - slack and prefix[j] > target + slack:
                    return i * prefix.size + j
        return super()._cell(u)


# The density grids no map holds, of the last shape taken only (as
# uniform_map caches the last frame): a process keeps at most as many as it
# has held drawn-from maps at once.
_SPARE_GRIDS: dict[tuple[int, int], list[np.ndarray]] = {}


def _take_grid(shape: tuple[int, int]) -> np.ndarray:
    """A writeable grid of ``shape``, a spare if there is one; other shapes' spares are dropped."""
    spares = _SPARE_GRIDS.get(shape)
    if spares is None:
        _SPARE_GRIDS.clear()
        spares = _SPARE_GRIDS[shape] = []
    return spares.pop() if spares else np.empty(shape)


def _give_back(grid: np.ndarray) -> None:
    """Keep a collected map's density as a spare, unless another shape was taken since."""
    _SPARE_GRIDS.get(grid.shape, []).append(grid)


def grid_shape(frame: ImageFrame, cell_size: float) -> tuple[int, int]:
    """(rows, cols) of the rasterization grid covering the frame."""
    if not cell_size >= 1:  # NaN too
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


@lru_cache(maxsize=1)
def uniform_map(frame: ImageFrame, cell_size: float = 1.0) -> LocationMap:
    """The uniform map on the frame's grid; only the last one built is held.

    Every run of a uniform-prior method on a frame of one size draws from it, so
    its CDF is built once. Its grid is its one cell value, read-only and broadcast.
    """
    rows, cols = grid_shape(frame, cell_size)
    grid = _normalize(np.full((rows, cols), 1.0 / (rows * cols)))
    return LocationMap._adopt(frame, cell_size, np.broadcast_to(grid[0, 0], grid.shape))


def default_epsilon(num_cells: int) -> float:
    """The floor a fold adds to each cell, 1e-6 over the grid.

    A product of two normalized maps sums to far less than 1, so once it is
    renormalized the floor holds about a sixth of a salience-folded map's
    mass; ROADMAP item 3 makes that share an explicit fraction.
    """
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
) -> GaussianMap:
    """Location map with cell mass proportional to the density at cell centers.

    The distribution must be exactly 2-d with dims ordered (x, y). Mass is
    truncated to the frame and renormalized to sum 1. With ``weights`` (a
    map on the same grid, such as salience) the normalized density is folded
    with it and renormalized, in the same buffer: the map
    ``salience.combine(rasterize_2d(dist, frame, cell_size), weights)`` gives.
    The arguments are checked here; nothing grid-sized is built until the
    map is drawn from or its grid is read, and the map keeps what it builds.
    """
    if dist.dim != 2:
        raise InvalidInputError(f"rasterize_2d needs a 2-d distribution, got {dist.dim}-d")
    check_grid(grid_shape(frame, cell_size), weights)
    return GaussianMap(dist, frame, cell_size, weights)


def check_grid(shape: tuple[int, int], weights: LocationMap | None) -> None:
    """Reject a weights map, such as salience, that is not on a grid of ``shape``."""
    if weights is not None and weights.shape != shape:
        raise InvalidInputError(f"grid shapes differ: {shape} vs {weights.shape}")


def cell_masses(
    dist: MultivariateGaussian,
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray | None,
) -> np.ndarray:
    """rasterize_2d's grid for the cells centred on ys x xs, a new array.

    Each cell's mass is proportional to the 2-d density at its centre, and
    the masses sum to 1. With ``weights``, a grid of the same shape, they
    are multiplied by it, given ``default_epsilon``'s floor, and renormalized.
    """
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
        _normalize(fold(grid, weights, default_epsilon(grid.size)))
    return grid


def density_rows(
    dist: MultivariateGaussian,
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray | None,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """What ``GaussianMap`` draws from in place of ``cell_masses``' grid, in ``out``.

    Returns the unnormalized density ``pdf_grid`` gives on ys x xs, the
    running sums of its row totals and each cell's floor. With ``weights``
    a cell's mass is density * weights + floor, the floor being
    ``default_epsilon`` times the density's total, as ``cell_masses`` folds
    it before its second normalization. None when the masses have no
    finite positive total.
    """
    density = dist.pdf_grid(xs, ys, out)
    if weights is None:
        floor, sums = 0.0, density.sum(axis=1)
    else:
        floor = default_epsilon(density.size) * float(density.sum())
        sums = np.einsum("ij,ij->i", density, weights) + density.shape[1] * floor
    ends = np.cumsum(sums)
    if not 0 < ends[-1] < math.inf:
        return None
    return density, ends, floor


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
    """A Gaussian from its document, whose ``mean`` and ``cov`` are lists of JSON numbers."""
    try:
        dims = tuple(data["dims"])
        mean = [json_number(v, f"mean[{i}]") for i, v in enumerate(data["mean"])]
        cov = [json_number(v, f"cov[{i}]") for i, v in enumerate(data["cov"])]
        cov = np.reshape(cov, (len(dims), len(dims)))
        epsilon = json_number(data.get("epsilon", 0.0), "epsilon")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed gaussian document: {exc}") from exc
    return MultivariateGaussian(dims=dims, mean=mean, cov=cov, epsilon=epsilon)


def gaussian_from_section(section: str, doc: Mapping) -> MultivariateGaussian:
    """``gaussian_from_dict`` of a file's section; its errors name the section."""
    try:
        return gaussian_from_dict(doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{section}: {exc}") from exc

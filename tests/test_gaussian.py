from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from situsearch.errors import InsufficientDataError, InvalidInputError
from situsearch.gaussian import (
    LocationMap,
    MultivariateGaussian,
    UnivariateNormal,
    cell_centers,
    condition,
    fit,
    fit_univariate,
    gaussian_from_dict,
    gaussian_to_dict,
    grid_shape,
    rasterize_2d,
    uniform_map,
)
from situsearch.geometry import normalize_frame
from situsearch.salience import SalienceMap, combine, default_epsilon


def random_gaussian(rng: np.random.Generator, d: int) -> MultivariateGaussian:
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.3 * np.eye(d)
    return MultivariateGaussian(
        dims=tuple(f"v{i}" for i in range(d)),
        mean=rng.uniform(-3, 3, size=d),
        cov=cov,
    )


def conditional_mean_by_integration(
    dist: MultivariateGaussian, target: str, observed: dict[str, float]
) -> float:
    """Brute-force E[target | observed] via a fine 1-d grid.

    Works on the sub-joint over (target, observed...) extracted by direct
    sub-indexing, evaluates the joint density along the target axis with an
    explicit matrix inverse, and integrates. Fully independent of the Schur
    complement implementation under test.
    """
    labels = [target, *observed.keys()]
    idx = [dist.dims.index(label) for label in labels]
    mu = dist.mean[idx]
    cov = dist.cov[np.ix_(idx, idx)]
    inv = np.linalg.inv(cov)
    xb = np.array([observed[label] for label in labels[1:]])
    db = xb - mu[1:]
    sd = math.sqrt(cov[0, 0])
    xs = np.linspace(mu[0] - 12 * sd, mu[0] + 12 * sd, 40_001)
    dx = xs - mu[0]
    quad = inv[0, 0] * dx**2 + 2 * dx * (inv[0, 1:] @ db) + db @ inv[1:, 1:] @ db
    weights = np.exp(-0.5 * (quad - quad.min()))
    return float(np.sum(xs * weights) / np.sum(weights))


# ---------------------------------------------------------------------------
# fit


def test_fit_identical_samples_degenerates_to_ridge():
    point = np.array([1.0, -2.0, 3.0])
    dist = fit(np.tile(point, (10, 1)), dims=("a", "b", "c"))
    assert dist.mean == pytest.approx(point)
    assert dist.cov == pytest.approx(dist.epsilon * np.eye(3))
    assert dist.epsilon > 0


def test_fit_two_points_is_mle():
    dist = fit([[1.0], [-1.0]], dims=("x",))
    assert dist.mean[0] == pytest.approx(0.0)
    assert dist.cov[0, 0] == pytest.approx(1.0)  # divide by N, not N-1


def test_fit_recovers_known_parameters():
    rng = np.random.default_rng(11)
    true = random_gaussian(rng, 4)
    draws = rng.multivariate_normal(true.mean, true.cov, size=100_000)
    fitted = fit(draws, true.dims)
    assert np.max(np.abs(fitted.mean - true.mean)) < 0.05 * max(1.0, np.max(np.abs(true.mean)))
    assert np.max(np.abs(fitted.cov - true.cov)) < 0.05 * np.max(np.abs(true.cov))


def test_fit_rejects_few_or_bad_samples():
    with pytest.raises(InsufficientDataError):
        fit([[1.0, 2.0]], dims=("a", "b"))
    with pytest.raises(InvalidInputError):
        fit([[1.0, float("nan")], [0.0, 1.0], [2.0, 0.5]], dims=("a", "b"))


# ---------------------------------------------------------------------------
# sample


def test_sample_zero_covariance_returns_mean():
    dist = fit(np.tile([2.0, 5.0], (5, 1)), dims=("a", "b"))
    draw = dist.sample(np.random.default_rng(0))
    assert draw == pytest.approx([2.0, 5.0], abs=1e-3)


def test_sample_empirical_mean_converges():
    dist = MultivariateGaussian(dims=("x", "y"), mean=np.zeros(2), cov=np.eye(2))
    rng = np.random.default_rng(123)
    draws = np.array([dist.sample(rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0))) < 0.02
    emp_cov = np.cov(draws.T)
    assert np.max(np.abs(emp_cov - np.eye(2))) < 0.03


def test_sample_is_deterministic_per_seed():
    dist = random_gaussian(np.random.default_rng(5), 3)
    a = [dist.sample(np.random.default_rng(99)) for _ in range(1)]
    b = [dist.sample(np.random.default_rng(99)) for _ in range(1)]
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# condition


def test_condition_on_independent_dims_is_identity():
    dist = MultivariateGaussian(
        dims=("a", "b"), mean=np.array([1.0, -2.0]), cov=np.diag([2.0, 3.0])
    )
    cond = condition(dist, {"b": 10.0})
    assert cond.dims == ("a",)
    assert cond.mean[0] == pytest.approx(1.0)
    assert cond.cov[0, 0] == pytest.approx(2.0)


def test_condition_textbook_two_dim_case():
    dist = MultivariateGaussian(
        dims=("a", "b"), mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.5, 1.0]])
    )
    cond = condition(dist, {"b": 2.0})
    assert cond.mean[0] == pytest.approx(1.0)
    assert cond.cov[0, 0] == pytest.approx(0.75)
    oracle = conditional_mean_by_integration(dist, "a", {"b": 2.0})
    assert cond.mean[0] == pytest.approx(oracle, abs=1e-8)


def test_condition_matches_integration_oracle_on_random_joints():
    rng = np.random.default_rng(21)
    for d in (2, 4, 6):
        for _ in range(8):
            dist = random_gaussian(rng, d)
            n_obs = int(rng.integers(1, d))
            obs_labels = list(rng.choice(dist.dims, size=n_obs, replace=False))
            observed = {label: float(rng.uniform(-2, 2)) for label in obs_labels}
            cond = condition(dist, observed)
            for i, label in enumerate(cond.dims):
                oracle = conditional_mean_by_integration(dist, label, observed)
                assert cond.mean[i] == pytest.approx(oracle, abs=1e-6)


def test_condition_marginal_commutation():
    rng = np.random.default_rng(31)
    for _ in range(25):
        dist = random_gaussian(rng, 5)
        keep = list(dist.dims[:2])
        obs_labels = list(dist.dims[3:])
        observed = {label: float(rng.uniform(-2, 2)) for label in obs_labels}
        left = marginal(condition(dist, observed), keep)
        right = condition(marginal(dist, keep + obs_labels), observed)
        assert left.dims == right.dims
        np.testing.assert_allclose(left.mean, right.mean, atol=1e-9, rtol=1e-9)
        np.testing.assert_allclose(left.cov, right.cov, atol=1e-9, rtol=1e-9)


def test_condition_at_mean_keeps_mean():
    rng = np.random.default_rng(41)
    dist = random_gaussian(rng, 4)
    observed = {dist.dims[2]: float(dist.mean[2]), dist.dims[3]: float(dist.mean[3])}
    cond = condition(dist, observed)
    np.testing.assert_allclose(cond.mean, dist.mean[:2], atol=1e-12)


def test_conditional_variance_never_grows():
    rng = np.random.default_rng(51)
    for _ in range(30):
        dist = random_gaussian(rng, 4)
        cond = condition(dist, {dist.dims[-1]: 0.5})
        for i, label in enumerate(cond.dims):
            j = dist.dims.index(label)
            assert cond.cov[i, i] <= dist.cov[j, j] + 1e-12
        eigs = np.linalg.eigvalsh(cond.cov)
        assert eigs.min() >= -1e-10 * max(np.trace(cond.cov), 1.0)


def test_condition_handles_singular_observed_block():
    # Two perfectly correlated observed dims make the observed block singular.
    base = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
    dist = MultivariateGaussian(dims=("b1", "b2", "a"), mean=np.zeros(3), cov=base)
    cond = condition(dist, {"b1": 1.0, "b2": 1.0})
    assert cond.dims == ("a",)
    assert np.isfinite(cond.mean).all()
    assert np.isfinite(cond.cov).all()


def test_condition_input_validation():
    dist = random_gaussian(np.random.default_rng(0), 3)
    with pytest.raises(InvalidInputError):
        condition(dist, {"nope": 1.0})
    with pytest.raises(InvalidInputError):
        condition(dist, {d: 0.0 for d in dist.dims})
    with pytest.raises(InvalidInputError):
        condition(dist, {})


# ---------------------------------------------------------------------------
# marginal: the oracle of the conditioning tests here and of criteria 1 and 8


def marginal(dist: MultivariateGaussian, keep: list[str]) -> MultivariateGaussian:
    """Marginal over the kept labels, preserving the distribution's own order."""
    if not keep:
        raise InvalidInputError("must keep at least one dimension")
    wanted = set(dist.indices(keep))
    idx = [i for i in range(dist.dim) if i in wanted]
    return MultivariateGaussian(
        dims=tuple(dist.dims[i] for i in idx),
        mean=dist.mean[idx],
        cov=dist.cov[np.ix_(idx, idx)],
        epsilon=dist.epsilon,
    )


def test_marginal_keep_all_is_identity():
    dist = random_gaussian(np.random.default_rng(2), 3)
    m = marginal(dist, list(dist.dims))
    assert m.dims == dist.dims
    np.testing.assert_array_equal(m.mean, dist.mean)
    np.testing.assert_array_equal(m.cov, dist.cov)


def test_marginal_of_independent_pair():
    dist = MultivariateGaussian(
        dims=("a", "b"), mean=np.array([1.0, 2.0]), cov=np.diag([4.0, 9.0])
    )
    m = marginal(dist, ["a"])
    assert m.dims == ("a",)
    assert m.mean[0] == 1.0
    assert m.cov[0, 0] == 4.0


def test_marginal_of_fit_matches_fit_of_projection():
    rng = np.random.default_rng(8)
    draws = rng.multivariate_normal([0, 1, -1], np.array([[2, 0.5, 0], [0.5, 1, 0.2], [0, 0.2, 3]]), 500)
    joint = fit(draws, ("a", "b", "c"))
    sub = fit(draws[:, [0, 2]], ("a", "c"))
    m = marginal(joint, ["a", "c"])
    np.testing.assert_allclose(m.mean, sub.mean, rtol=1e-12)
    # ridges differ between the two fits (trace-scaled), so compare loosely
    np.testing.assert_allclose(m.cov, sub.cov, rtol=1e-6, atol=1e-6)


def test_marginal_unknown_label():
    dist = random_gaussian(np.random.default_rng(0), 2)
    with pytest.raises(InvalidInputError):
        marginal(dist, ["zzz"])


# ---------------------------------------------------------------------------
# rasterize_2d


def test_rasterize_point_mass_hits_central_cell():
    frame = normalize_frame(1000, 1000)
    dist = MultivariateGaussian(
        dims=("x", "y"), mean=np.zeros(2), cov=1e-12 * np.eye(2)
    )
    grid = rasterize_2d(dist, frame, cell_size=100).grid
    assert grid.shape == (5, 5)
    assert grid[2, 2] == pytest.approx(1.0)


def test_rasterize_isotropic_is_symmetric():
    frame = normalize_frame(1000, 1000)
    dist = MultivariateGaussian(dims=("x", "y"), mean=np.zeros(2), cov=2500 * np.eye(2))
    grid = rasterize_2d(dist, frame, cell_size=100).grid
    np.testing.assert_allclose(grid, grid[::-1, :], atol=1e-9)
    np.testing.assert_allclose(grid, grid[:, ::-1], atol=1e-9)
    np.testing.assert_allclose(grid, grid.T, atol=1e-9)


def test_rasterize_matches_subsampled_integration_oracle():
    frame = normalize_frame(1000, 1000)  # normalized 500x500
    cell = 25.0
    dist = MultivariateGaussian(
        dims=("x", "y"),
        mean=np.array([40.0, -60.0]),
        cov=np.array([[300.0**2, 0.3 * 300 * 280], [0.3 * 300 * 280, 280.0**2]]),
    )
    got = rasterize_2d(dist, frame, cell_size=cell).grid

    rows, cols = grid_shape(frame, cell)
    inv = np.linalg.inv(dist.cov)
    sub = 15
    oracle = np.zeros((rows, cols))
    offsets = (np.arange(sub) + 0.5) / sub * cell
    for r in range(rows):
        ys = -frame.norm_height / 2 + r * cell + offsets - dist.mean[1]
        for c in range(cols):
            xs = -frame.norm_width / 2 + c * cell + offsets - dist.mean[0]
            gx, gy = np.meshgrid(xs, ys)
            q = inv[0, 0] * gx**2 + 2 * inv[0, 1] * gx * gy + inv[1, 1] * gy**2
            oracle[r, c] = np.exp(-0.5 * q).mean()
    oracle /= oracle.sum()
    assert np.max(np.abs(got - oracle)) < 1e-6


def test_rasterize_sums_to_one_and_nonnegative():
    frame = normalize_frame(640, 480)
    rng = np.random.default_rng(17)
    for _ in range(5):
        dist = MultivariateGaussian(
            dims=("x", "y"),
            mean=rng.uniform(-200, 200, size=2),
            cov=np.diag(rng.uniform(100, 10_000, size=2)),
        )
        grid = rasterize_2d(dist, frame, cell_size=4).grid
        assert abs(grid.sum() - 1.0) < 1e-9
        assert (grid >= 0).all()


def test_rasterize_overflowing_density_falls_back_to_the_nearest_cell():
    # The quadratic form overflows in every cell, so the density is NaN
    # everywhere; the whole mass goes to the cell nearest the mean.
    frame = normalize_frame(640, 480)
    dist = MultivariateGaussian(
        dims=("x", "y"), mean=np.array([1e4, 0.0]), cov=np.diag([1e-306, 1.0])
    )
    # No RuntimeWarning escapes: the suite turns them into errors.
    assert np.isnan(dist.pdf_grid(*cell_centers(frame, 1.0))).all()
    grid = rasterize_2d(dist, frame).grid
    expected = np.zeros((434, 578))
    expected[216, 577] = 1.0
    assert np.array_equal(grid, expected)


def test_rasterize_validates_inputs():
    frame = normalize_frame(1000, 1000)
    three = MultivariateGaussian(dims=("x", "y", "z"), mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(InvalidInputError):
        rasterize_2d(three, frame)
    flat = MultivariateGaussian(dims=("x", "y"), mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(InvalidInputError):
        rasterize_2d(flat, frame, cell_size=0.5)
    with pytest.raises(InvalidInputError):
        rasterize_2d(flat, frame, cell_size=600)


# ---------------------------------------------------------------------------
# location map sampling


def test_uniform_map_samples_cover_frame():
    frame = normalize_frame(800, 600)
    lmap = uniform_map(frame, cell_size=10)
    rng = np.random.default_rng(3)
    points = np.array([lmap.sample_point(rng) for _ in range(2000)])
    assert np.all(np.abs(points[:, 0]) <= frame.norm_width / 2)
    assert np.all(np.abs(points[:, 1]) <= frame.norm_height / 2)
    # all four quadrants hit
    assert (points[:, 0] > 0).any() and (points[:, 0] < 0).any()
    assert (points[:, 1] > 0).any() and (points[:, 1] < 0).any()


def test_point_mass_map_samples_inside_its_cell():
    frame = normalize_frame(1000, 1000)
    grid = np.zeros((5, 5))
    grid[1, 3] = 1.0
    lmap = LocationMap(frame=frame, cell_size=100, grid=grid)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = lmap.sample_point(rng)
        assert 50 <= x <= 150  # column 3 of 5: [-250+300, -250+400]
        assert -150 <= y <= -50


@pytest.mark.parametrize(
    "grid",
    [
        [[1.0, math.nan, 1.0], [1.0, 1.0, 1.0]],
        [[1.0, math.inf, 1.0], [1.0, 1.0, 1.0]],
        [[1.0, -math.inf, 1.0], [1.0, 1.0, 1.0]],
        [[1.0, -0.1, 1.0], [1.0, 1.0, 1.0]],
        np.full((2, 3), 1e308),  # finite cells whose sum overflows
    ],
    ids=["nan", "pos-inf", "neg-inf", "negative", "overflowing-sum"],
)
def test_location_map_rejects_invalid_cells(grid):
    with pytest.raises(InvalidInputError):
        LocationMap(frame=normalize_frame(1000, 1000), cell_size=250, grid=np.array(grid))


# ---------------------------------------------------------------------------
# bit-exact grid arithmetic: the in-place code against the textbook expressions


def textbook_pdf_grid(dist: MultivariateGaussian, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    dx = xs - dist.mean[0]
    dy = ys - dist.mean[1]
    det = dist.cov[0, 0] * dist.cov[1, 1] - dist.cov[0, 1] ** 2
    if det <= 0 or not math.isfinite(det):
        out = np.zeros((len(dy), len(dx)))
        out[int(np.argmin(np.abs(dy))), int(np.argmin(np.abs(dx)))] = 1.0
        return out
    ia = dist.cov[1, 1] / det
    ib = -dist.cov[0, 1] / det
    ic = dist.cov[0, 0] / det
    q = ia * dx[None, :] ** 2 + 2.0 * ib * dy[:, None] * dx[None, :] + ic * dy[:, None] ** 2
    return np.exp(-0.5 * (q - q.min()))


@st.composite
def location_gaussians(draw) -> MultivariateGaussian:
    """2-d Gaussians from wide to near-singular and exactly degenerate."""
    sx = draw(st.floats(min_value=1e-4, max_value=1e3))
    sy = draw(st.floats(min_value=1e-4, max_value=1e3))
    rho = draw(st.one_of(st.sampled_from([-1.0, 1.0, 1 - 1e-12, -1 + 1e-9]), st.floats(-1, 1)))
    mean = draw(st.tuples(st.floats(-600, 600), st.floats(-600, 600)))
    cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
    try:
        return MultivariateGaussian(dims=("x", "y"), mean=np.array(mean), cov=cov)
    except InvalidInputError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(dist=location_gaussians(), cell=st.sampled_from([1.0, 2.5, 7.0]))
def test_pdf_grid_and_location_map_are_bit_identical_to_textbook(dist, cell):
    frame = normalize_frame(640, 480)
    xs, ys = cell_centers(frame, cell)
    want = textbook_pdf_grid(dist, xs, ys)
    got = dist.pdf_grid(xs, ys)
    assert np.array_equal(got, want, equal_nan=True)
    total = want.sum()
    if total > 0 and math.isfinite(total):
        lmap = LocationMap(frame=frame, cell_size=cell, grid=got)
        assert np.array_equal(lmap.grid, want / want.sum())


# Gaussians on and near the point-mass paths of rasterize_2d.
POINT_MASS_GAUSSIANS = [
    # Exactly degenerate: pdf_grid puts all mass at the cell nearest the mean.
    MultivariateGaussian(dims=("x", "y"), mean=np.zeros(2), cov=np.ones((2, 2))),
    # The quadratic form overflows in every cell: rasterize_2d's fallback.
    MultivariateGaussian(dims=("x", "y"), mean=np.array([1e4, 0.0]), cov=np.diag([1e-306, 1.0])),
    MultivariateGaussian(
        dims=("x", "y"), mean=np.array([-3e4, 2e4]), cov=np.diag([1e-300, 1e-300])
    ),
    # Far outside the frame with a small but ordinary variance.
    MultivariateGaussian(dims=("x", "y"), mean=np.array([-5e3, 4e3]), cov=np.diag([1e-2, 1e-2])),
]


def two_step_oracle(
    dist: MultivariateGaussian, frame, cell: float, salience: SalienceMap | None
) -> np.ndarray:
    """The map as first built: a normalized density (or the nearest-cell point
    mass where it is not a valid density), then the salience product plus its
    floor, renormalized, each step in a new array."""
    xs, ys = cell_centers(frame, cell)
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle is not under test
        pdf = textbook_pdf_grid(dist, xs, ys)
        total = pdf.sum()
    if pdf.min() >= 0 and math.isfinite(total) and total > 0:
        grid = pdf / total
    else:
        grid = np.zeros_like(pdf)
        grid[np.argmin(np.abs(ys - dist.mean[1])), np.argmin(np.abs(xs - dist.mean[0]))] = 1.0
    if salience is not None:
        product = grid * salience.grid + default_epsilon(grid.size)
        grid = product / product.sum()
    return grid


@settings(max_examples=60, deadline=None)
@given(
    dist=st.one_of(location_gaussians(), st.sampled_from(POINT_MASS_GAUSSIANS)),
    cell=st.sampled_from([1.0, 2.0, 4.0]),
    salient=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rasterize_with_weights_is_bit_identical_to_the_two_step_oracle(
    dist, cell, salient, seed
):
    frame = normalize_frame(640, 480)
    salience = None
    if salient:
        raw = np.random.default_rng(seed).random(grid_shape(frame, cell)) + 1e-3
        salience = SalienceMap(frame=frame, cell_size=cell, grid=raw)
    want = two_step_oracle(dist, frame, cell, salience)
    got = rasterize_2d(dist, frame, cell, weights=salience)
    two_step = rasterize_2d(dist, frame, cell)
    if salience is not None:
        two_step = combine(two_step, salience)
    for lmap in (got, two_step):
        assert np.array_equal(lmap.grid, want)
        assert np.array_equal(lmap._cdf, np.cumsum(want.ravel()))
        assert not lmap.grid.flags.writeable


def test_rasterize_rejects_weights_on_another_grid():
    frame = normalize_frame(640, 480)
    dist = MultivariateGaussian(dims=("x", "y"), mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(InvalidInputError, match="grid shapes differ"):
        rasterize_2d(dist, frame, 4.0, weights=uniform_map(frame, 8.0))


def test_location_map_leaves_its_input_alone():
    grid = np.array([[1.0, 3.0], [2.0, 2.0]])
    lmap = LocationMap(frame=normalize_frame(1000, 1000), cell_size=250, grid=grid)
    np.testing.assert_array_equal(grid, [[1.0, 3.0], [2.0, 2.0]])
    assert lmap.grid is not grid and not lmap.grid.flags.writeable


# ---------------------------------------------------------------------------
# the conditioning memo


def reference_condition(dist: MultivariateGaussian, observed: dict) -> MultivariateGaussian:
    """condition() as first written, with no memo: the bit-for-bit oracle."""
    obs_idx = dist.indices(observed.keys())
    keep_idx = [i for i in range(dist.dim) if i not in set(obs_idx)]
    values = np.array([float(observed[dist.dims[i]]) for i in obs_idx])
    s_aa = dist.cov[np.ix_(keep_idx, keep_idx)]
    s_ab = dist.cov[np.ix_(keep_idx, obs_idx)]
    s_bb = dist.cov[np.ix_(obs_idx, obs_idx)]
    jitter = max(float(np.trace(s_bb)) / len(obs_idx), 1.0) * 1e-14
    l_bb = np.linalg.cholesky(s_bb + jitter * np.eye(len(obs_idx)))
    tmp = np.linalg.solve(l_bb, s_ab.T)
    gain = np.linalg.solve(l_bb.T, tmp).T
    new_mean = dist.mean[keep_idx] + gain @ (values - dist.mean[obs_idx])
    new_cov = s_aa - gain @ s_ab.T
    new_cov = (new_cov + new_cov.T) / 2
    eigmin = float(np.linalg.eigvalsh(new_cov).min())
    if eigmin < 0:
        new_cov += (-eigmin + 1e-18) * np.eye(len(keep_idx))
    dims = tuple(dist.dims[i] for i in keep_idx)
    return MultivariateGaussian(dims=dims, mean=new_mean, cov=new_cov, epsilon=dist.epsilon)


def assert_same_bits(got: MultivariateGaussian, want: MultivariateGaussian) -> None:
    assert got.dims == want.dims and got.epsilon == want.epsilon
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.cov, want.cov)
    assert np.array_equal(got._chol, want._chol)
    for array in (got.mean, got.cov, got._chol):
        assert not array.flags.writeable


def fresh_copy(dist: MultivariateGaussian) -> MultivariateGaussian:
    return MultivariateGaussian(dist.dims, dist.mean, dist.cov, dist.epsilon)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 4, 6]),
    data=st.data(),
)
def test_cached_conditioning_is_bit_identical_to_fresh(seed, d, data):
    rng = np.random.default_rng(seed)
    dist = random_gaussian(rng, d)
    if data.draw(st.booleans()):  # near-singular: a rank-one joint plus a tiny ridge
        v = rng.standard_normal(d)
        dist = MultivariateGaussian(dist.dims, dist.mean, np.outer(v, v) + 1e-12 * np.eye(d))
    labels = data.draw(st.permutations(dist.dims))[: data.draw(st.integers(1, d - 1))]
    results = []
    for _ in range(3):  # the first call fills the memo, the others read it
        observed = {label: float(rng.uniform(-5, 5)) for label in labels}
        got = condition(dist, observed)
        assert_same_bits(got, reference_condition(dist, observed))
        assert_same_bits(got, condition(fresh_copy(dist), observed))
        results.append(got)
    assert list(dist._conditionals) == [tuple(labels)]
    assert results[1].cov is results[0].cov and results[1]._chol is results[0]._chol


def test_each_order_of_observed_labels_has_its_own_entry():
    dist = random_gaussian(np.random.default_rng(5), 6)
    forward = {"v1": 0.5, "v4": -1.25}
    backward = {"v4": -1.25, "v1": 0.5}
    for observed in (forward, backward, forward):
        assert_same_bits(condition(dist, observed), reference_condition(dist, observed))
    assert list(dist._conditionals) == [("v1", "v4"), ("v4", "v1")]


def test_conditioning_errors_survive_the_memo():
    dist = random_gaussian(np.random.default_rng(6), 3)
    condition(dist, {"v0": 1.0})
    with pytest.raises(InvalidInputError, match="finite"):
        condition(dist, {"v0": math.nan})
    with pytest.raises(InvalidInputError, match="unknown dimension"):
        condition(dist, {"v9": 1.0})
    with pytest.raises(InvalidInputError, match="every dimension"):
        condition(dist, {"v0": 1.0, "v1": 1.0, "v2": 1.0})
    assert list(dist._conditionals) == [("v0",)]
    steep = MultivariateGaussian(("a", "b"), np.zeros(2), np.array([[1.0, 10.0], [10.0, 101.0]]))
    with pytest.raises(InvalidInputError, match="finite"):  # the mean overflows, silently
        condition(steep, {"a": 1e308})


def test_a_conditioned_joint_pickles_without_its_memo():
    dist = random_gaussian(np.random.default_rng(7), 4)
    observed = {"v2": 0.75, "v0": -2.0}
    before = condition(dist, observed)
    restored = pickle.loads(pickle.dumps(dist))
    assert "_conditionals" not in restored.__dict__
    assert gaussian_to_dict(restored) == gaussian_to_dict(dist)
    assert_same_bits(condition(restored, observed), before)


# ---------------------------------------------------------------------------
# univariate


def test_univariate_fit_and_validation():
    n = fit_univariate([1.0, 3.0], label="x")
    assert n.mean == pytest.approx(2.0)
    assert n.std == pytest.approx(1.0)
    with pytest.raises(InsufficientDataError):
        fit_univariate([1.0])
    with pytest.raises(InvalidInputError):
        UnivariateNormal(mean=0.0, std=0.0, label="x")


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_is_exact():
    dist = random_gaussian(np.random.default_rng(77), 4)
    text = json.dumps(gaussian_to_dict(dist), sort_keys=True)
    back = gaussian_from_dict(json.loads(text))
    assert back.dims == dist.dims
    np.testing.assert_array_equal(back.mean, dist.mean)
    np.testing.assert_array_equal(back.cov, dist.cov)
    assert back.epsilon == dist.epsilon
    assert json.dumps(gaussian_to_dict(back), sort_keys=True) == text  # bit-stable


def test_json_rejects_malformed_document():
    with pytest.raises(InvalidInputError):
        gaussian_from_dict({"dims": ["a"], "mean": [0.0]})


# ---------------------------------------------------------------------------
# type invariants


def test_gaussian_rejects_asymmetric_or_indefinite():
    with pytest.raises(InvalidInputError):
        MultivariateGaussian(
            dims=("a", "b"), mean=np.zeros(2), cov=np.array([[1.0, 0.9], [0.2, 1.0]])
        )
    with pytest.raises(InvalidInputError):
        MultivariateGaussian(
            dims=("a", "b"), mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]])
        )
    with pytest.raises(InvalidInputError):
        MultivariateGaussian(dims=("a", "a"), mean=np.zeros(2), cov=np.eye(2))

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from situsearch.errors import InsufficientDataError, InvalidInputError
from situsearch.gaussian import (
    LocationMap,
    MultivariateGaussian,
    UnivariateNormal,
    condition,
    fit,
    fit_univariate,
    gaussian_from_dict,
    gaussian_to_dict,
    grid_shape,
    marginal,
    rasterize_2d,
    uniform_map,
)
from situsearch.geometry import normalize_frame


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
# marginal


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

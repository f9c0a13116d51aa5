from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from situsearch import salience
from situsearch.datagen import default_generator_config, generate_synthetic, render_annotation_image
from situsearch.errors import InvalidInputError
from situsearch.gaussian import (
    LocationMap,
    MultivariateGaussian,
    grid_shape,
    rasterize_2d,
    uniform_map,
)
from situsearch.geometry import normalize_frame
from situsearch.salience import (
    CENTER_SIGMAS,
    SMOOTHING_FRACTION,
    SURROUND_FACTOR,
    WORKING_CELL,
    _resize,
    combine,
    compute_salience,
    default_epsilon,
    save_salience,
    smooth_grid,
)
from strategies import SALIENCE_THINNEST, extreme_annotations

FRAME_64 = normalize_frame(64, 64)
CELL = 10.0  # 50x50 grid on the 500x500 normalized frame


def naive_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur via explicit kernel taps (oracle-grade)."""
    radius = max(1, int(round(3 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, radius, mode="reflect")
    horiz = np.zeros_like(img, dtype=float)
    for tap, weight in enumerate(kernel):
        horiz += weight * padded[radius:-radius, tap : tap + img.shape[1]]
    padded = np.pad(horiz, radius, mode="reflect")
    out = np.zeros_like(img, dtype=float)
    for tap, weight in enumerate(kernel):
        out += weight * padded[tap : tap + img.shape[0], radius:-radius]
    return out


def square_image(low=0.1, high=0.9):
    """64x64 dark image with one bright square, plus its pixel bounds."""
    img = np.full((64, 64), low)
    img[10:26, 34:50] = high
    return img, (34, 50, 10, 26)  # x0, x1, y0, y1 in pixels


def grid_cell_to_pixels(row: int, col: int, frame, cell: float) -> tuple[float, float]:
    x = (-frame.norm_width / 2 + (col + 0.5) * cell + frame.norm_width / 2) / frame.scale
    y = (-frame.norm_height / 2 + (row + 0.5) * cell + frame.norm_height / 2) / frame.scale
    return x, y


# ---------------------------------------------------------------------------
# compute_salience


def test_constant_image_gives_uniform_map():
    img = np.full((64, 64), 0.5)
    sal = compute_salience(img, FRAME_64, cell_size=CELL)
    assert np.allclose(sal.grid, 1.0 / sal.grid.size, atol=1e-12)


def test_salience_sums_to_one_on_noise():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, size=(64, 64))
    sal = compute_salience(img, FRAME_64, cell_size=CELL)
    assert abs(sal.grid.sum() - 1.0) < 1e-9
    assert (sal.grid >= 0).all()


def test_bright_square_attracts_argmax_and_matches_convolution_oracle():
    img, (x0, x1, y0, y1) = square_image()

    # Oracle: hand-rolled DoG + center-weighting smoothing at image resolution.
    dog = np.abs(naive_blur(img, 2.0) - naive_blur(img, 8.0))
    oracle = naive_blur(dog, 0.10 * 64)
    orow, ocol = np.unravel_index(np.argmax(oracle), oracle.shape)
    assert x0 <= ocol <= x1 and y0 <= orow <= y1

    sal = compute_salience(img, FRAME_64, cell_size=CELL)
    row, col = np.unravel_index(np.argmax(sal.grid), sal.grid.shape)
    px, py = grid_cell_to_pixels(row, col, FRAME_64, CELL)
    assert x0 <= px <= x1
    assert y0 <= py <= y1


def test_color_contrast_detected_at_constant_luminance():
    gray = 0.4
    img = np.full((64, 64, 3), gray)
    # red square with the same mean luminance as the background
    img[20:40, 20:40] = (0.8, 0.2, 0.2)
    sal = compute_salience(img, FRAME_64, cell_size=CELL)
    row, col = np.unravel_index(np.argmax(sal.grid), sal.grid.shape)
    px, py = grid_cell_to_pixels(row, col, FRAME_64, CELL)
    assert 20 <= px <= 40
    assert 20 <= py <= 40


def test_salience_rejects_bad_images():
    with pytest.raises(InvalidInputError):
        compute_salience(np.zeros((0, 0)), FRAME_64, cell_size=CELL)
    with pytest.raises(InvalidInputError):
        compute_salience(np.zeros((32, 32)), FRAME_64, cell_size=CELL)  # wrong dims


# ---------------------------------------------------------------------------
# smoothing invariant


def test_smoothing_preserves_mass():
    rng = np.random.default_rng(4)
    grid = rng.uniform(0, 1, size=(40, 60))
    for sigma in (0.8, 3.0, 12.0):
        smoothed = smooth_grid(grid, sigma)
        assert smoothed.sum() == pytest.approx(grid.sum(), abs=1e-9)


# ---------------------------------------------------------------------------
# the two kernels, bit for bit against scipy


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


SALIENCE_CELLS = (1.0, 2.0, 4.0, 5.5)


def shipped_sigmas() -> list[float]:
    """Every sigma compute_salience smooths with, for 640×480 images at the tested cell sizes."""
    sigmas = set()
    for cell in SALIENCE_CELLS:
        working = max(cell, WORKING_CELL)
        per_working = working / cell
        for center in CENTER_SIGMAS:
            sigmas |= {center / per_working, center / per_working * SURROUND_FACTOR}
        sigmas.add(2.0 / per_working)
        sigmas.add(SMOOTHING_FRACTION * normalize_frame(640, 480).norm_width / working)
    return sorted(sigmas)


@st.composite
def grids(draw) -> np.ndarray:
    """Signed grids up to 130×170, 1×N and N×1 among them, some strided like an RGB channel.

    Some hold negative zeros, whose sign scipy's sums from zero drop.
    """
    rows = draw(st.one_of(st.just(1), st.integers(1, 130)))
    cols = draw(st.one_of(st.just(1), st.integers(1, 170)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rgb = rng.standard_normal((rows, cols, 3)) * scale
    if draw(st.booleans()):
        rgb[rng.random(rgb.shape) < 0.5] = -0.0
    channel = rgb[:, :, draw(st.integers(0, 2))]
    return channel if draw(st.booleans()) else np.ascontiguousarray(channel)


# Copies (sigma <= 1e-15), radius-0 kernels, and radii at 4 sigma + 0.5 = 1, 3.0 and 5.0 exactly.
EDGE_SIGMAS = [0.0, 1e-300, 1e-15, 1e-3, 0.1, 0.12, 0.125, 0.625, 1.125]
SIGMAS = st.one_of(
    st.sampled_from(shipped_sigmas() + EDGE_SIGMAS),
    st.floats(1e-3, 40.0),  # radii up to 160: longer than the line, reflected repeatedly
)


@pytest.mark.parametrize("sigma", shipped_sigmas() + EDGE_SIGMAS + [40.0])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (13, 17)])
def test_smooth_grid_matches_scipy_at_every_shipped_and_edge_sigma(sigma, shape):
    grid = np.random.default_rng(8).standard_normal(shape)
    assert same_bits(smooth_grid(grid, sigma), oracles.gaussian_filter(grid, sigma))


@settings(max_examples=300, deadline=None)
@given(grid=grids(), sigma=SIGMAS)
def test_smooth_grid_is_scipys_gaussian_filter_bit_for_bit(grid, sigma):
    smoothed = smooth_grid(grid, sigma)
    assert smoothed.flags.c_contiguous
    assert same_bits(smoothed, oracles.gaussian_filter(grid, sigma))


@settings(max_examples=300, deadline=None)
@given(
    grid=grids(),
    shape=st.tuples(
        st.one_of(st.just(1), st.integers(1, 130)), st.one_of(st.just(1), st.integers(1, 170))
    ),
    block=st.sampled_from([1, 300, salience._RESIZE_BLOCK]),  # rows resized at a time
)
def test_resize_is_scipys_zoom_bit_for_bit(grid, shape, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(salience, "_RESIZE_BLOCK", block)
        resized = _resize(grid, shape)
    if shape == grid.shape:
        assert resized is grid
        return
    assert resized.flags.c_contiguous
    assert same_bits(resized, oracles.zoom(grid, shape))


def test_resize_matches_scipy_on_the_shipped_grids():
    frame = normalize_frame(640, 480)
    image = np.random.default_rng(6).uniform(0, 1, size=(480, 640, 3))
    work = grid_shape(frame, WORKING_CELL)
    channel = _resize(image[:, :, 2], work)
    assert same_bits(channel, oracles.zoom(image[:, :, 2], work))
    final = grid_shape(frame, 1.0)
    assert same_bits(_resize(channel, final), oracles.zoom(channel, final))


def salience_through_scipy(image: np.ndarray, frame, cell_size: float) -> LocationMap:
    """compute_salience with scipy's filter and zoom in place of the two kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(salience, "smooth_grid", oracles.gaussian_filter)
        patch.setattr(
            salience, "_resize", lambda g, shape: g if g.shape == shape else oracles.zoom(g, shape)
        )
        return compute_salience(image, frame, cell_size)


SCENES = generate_synthetic(default_generator_config(), 3)


@pytest.mark.parametrize("cell_size", SALIENCE_CELLS)
@settings(max_examples=12, deadline=None)
@given(data=st.data(), rgb=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_compute_salience_is_the_scipy_path_bit_for_bit(cell_size, data, rgb, seed):
    # Below WORKING_CELL these include frames thinner than a working cell.
    extreme = extreme_annotations(max(cell_size, SALIENCE_THINNEST))
    ann = data.draw(st.one_of(st.sampled_from(SCENES), extreme))
    frame = normalize_frame(ann.width, ann.height)
    image = render_annotation_image(ann)
    if rgb:
        tint = np.random.default_rng(seed).uniform(0.5, 1.0, size=3)
        image = np.clip(image[:, :, None] * tint, 0.0, 1.0)
    got = compute_salience(image, frame, cell_size).grid
    assert same_bits(got, salience_through_scipy(image, frame, cell_size).grid)


def test_a_frame_thinner_than_the_working_cell_gets_salience_at_cell_size_one():
    # Normalized, 70,711 wide and 3.5 high: its working cells are 3.5 across.
    frame = normalize_frame(40000, 2)
    image = np.random.default_rng(4).uniform(0, 1, size=(2, 40000))
    lmap = compute_salience(image, frame, 1.0)
    assert lmap.grid.shape == grid_shape(frame, 1.0)
    assert lmap.grid.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# file round trips


def read_salience_export(path) -> np.ndarray:
    """Parse a SALIENCE v1 file with numpy, as a viewer of the export would."""
    header, shape, *rows = path.read_text().splitlines()
    assert header == "SALIENCE v1"
    return np.loadtxt(rows, ndmin=2).reshape(tuple(int(n) for n in shape.split()))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, size=(64, 64))
    sal = compute_salience(img, FRAME_64, cell_size=CELL)
    path = tmp_path / "map.sal"
    save_salience(sal, path)
    assert np.array_equal(read_salience_export(path), sal.grid)  # %.17g round-trips


# ---------------------------------------------------------------------------
# combine


def _flat_salience(frame, cell) -> LocationMap:
    base = uniform_map(frame, cell)
    return LocationMap(frame=frame, cell_size=cell, grid=np.array(base.grid))


def test_combine_with_uniform_salience_is_identity():
    frame = normalize_frame(640, 480)
    rng = np.random.default_rng(2)
    grid = rng.uniform(0.1, 1.0, size=uniform_map(frame, 20).grid.shape)
    location = LocationMap(frame=frame, cell_size=20, grid=grid)
    out = combine(location, _flat_salience(frame, 20))
    np.testing.assert_allclose(out.grid, location.grid, atol=1e-6)


def test_combine_with_uniform_location_returns_salience():
    frame = normalize_frame(640, 480)
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.1, 1.0, size=uniform_map(frame, 20).grid.shape)
    salience = LocationMap(frame=frame, cell_size=20, grid=raw)
    out = combine(uniform_map(frame, 20), salience)
    np.testing.assert_allclose(out.grid, salience.grid, atol=1e-6)


def test_combine_disjoint_supports_is_uniform():
    frame = normalize_frame(1000, 1000)
    left = np.array([[1.0, 0.0], [1.0, 0.0]])
    right = np.array([[0.0, 1.0], [0.0, 1.0]])
    location = LocationMap(frame=frame, cell_size=250, grid=left)
    salience = LocationMap(frame=frame, cell_size=250, grid=right)
    out = combine(location, salience)
    np.testing.assert_allclose(out.grid, 0.25)  # all mass from the floor


def test_combine_is_commutative_up_to_normalization():
    frame = normalize_frame(1000, 1000)
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, size=(4, 4))
    b = rng.uniform(0, 1, size=(4, 4))
    la = LocationMap(frame=frame, cell_size=125, grid=a)
    sb = LocationMap(frame=frame, cell_size=125, grid=b)
    lb = LocationMap(frame=frame, cell_size=125, grid=b)
    sa = LocationMap(frame=frame, cell_size=125, grid=a)
    np.testing.assert_allclose(combine(la, sb).grid, combine(lb, sa).grid, atol=1e-12)


def test_combine_never_emits_zero_cells():
    frame = normalize_frame(1000, 1000)
    spike = np.zeros((5, 5))
    spike[0, 0] = 1.0
    location = LocationMap(frame=frame, cell_size=100, grid=spike)
    salience = LocationMap(frame=frame, cell_size=100, grid=np.array(spike))
    out = combine(location, salience)
    assert (out.grid > 0).all()


@settings(max_examples=40, deadline=None)
@given(
    sx=st.floats(min_value=1e-4, max_value=1e3),
    sy=st.floats(min_value=1e-4, max_value=1e3),
    rho=st.one_of(st.sampled_from([-1.0, 1.0, 1 - 1e-12]), st.floats(-1, 1)),
    mean=st.tuples(st.floats(-600, 600), st.floats(-600, 600)),
    seed=st.integers(0, 2**32 - 1),
)
def test_combine_is_bit_identical_to_textbook(sx, sy, rho, mean, seed):
    frame = normalize_frame(640, 480)
    cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
    dist = MultivariateGaussian(dims=("x", "y"), mean=np.array(mean), cov=cov)
    location = rasterize_2d(dist, frame, cell_size=2.0)
    raw = np.random.default_rng(seed).uniform(0, 1, size=location.grid.shape)
    salience = LocationMap(frame=frame, cell_size=2.0, grid=raw)
    product = location.grid * salience.grid + default_epsilon(raw.size)
    assert np.array_equal(combine(location, salience).grid, product / product.sum())


def test_combine_rejects_shape_mismatch():
    frame = normalize_frame(1000, 1000)
    a = uniform_map(frame, 100)
    b = LocationMap(frame=frame, cell_size=250, grid=np.ones((2, 2)))
    with pytest.raises(InvalidInputError):
        combine(a, b)

from __future__ import annotations

import hashlib
import itertools
import math
import pickle
import re
import sys
import tracemalloc
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from situsearch.datagen import SituationAnnotation, default_generator_config, generate_synthetic
from situsearch.errors import DatasetError, InsufficientDataError, InvalidInputError
from situsearch.gaussian import (
    FIT_RIDGE_FLOOR,
    LocationMap,
    MultivariateGaussian,
    condition,
    grid_shape,
    rasterize_2d,
    uniform_map,
)
from situsearch.geometry import BoundingBox, normalize_frame, to_normalized
from situsearch.salience import combine
from situsearch.search import MethodConfig, run_image, sample_proposal
from situsearch.situation_model import (
    CATEGORY_PAIRS,
    DEFAULT_CATEGORIES,
    JOINT_CATEGORIES,
    CategorySearchDist,
    LogUniformBox,
    box_descriptor,
    box_dims,
    box_from_descriptor,
    conditioned_distribution,
    learn,
    load_model,
    loc_dims,
    model_from_dict,
    model_to_dict,
    save_model,
)

CATS = ("dog_walker", "dog", "leash")


@pytest.fixture(scope="module")
def synthetic_model():
    config = default_generator_config(seed=3)
    annotations = generate_synthetic(config, 400)
    return learn(annotations)


def fixed_annotation(image_id="fixed"):
    return SituationAnnotation(
        image_id=image_id,
        width=1000,
        height=1000,
        boxes={
            "dog_walker": (100.0, 100.0, 150.0, 350.0),
            "dog": (400.0, 500.0, 180.0, 120.0),
            "leash": (260.0, 330.0, 140.0, 150.0),
        },
    )


# ---------------------------------------------------------------------------
# learn


def test_learn_requires_enough_annotations():
    with pytest.raises(InsufficientDataError):
        learn([fixed_annotation()] * 5)


def test_learn_requires_every_category():
    incomplete = SituationAnnotation(
        image_id="x", width=100, height=100, boxes={"dog": (1.0, 1.0, 10.0, 10.0)}
    )
    with pytest.raises(DatasetError, match="dog_walker"):
        learn([incomplete] * 10)


def test_learn_duplicated_annotation_degenerates():
    ann = fixed_annotation()
    model = learn([ann] * 20)
    frame = normalize_frame(ann.width, ann.height)
    dog = to_normalized(*ann.boxes["dog"], frame)
    alpha, gamma = box_descriptor(dog, frame)
    idx = model.loc_joints[CATS].dims.index("x_dog")
    assert model.loc_joints[CATS].mean[idx] == pytest.approx(dog.cx)
    assert model.box_priors["dog"].mean.tolist() == pytest.approx([alpha, gamma])
    # covariance collapses to the ridge
    cov = model.loc_joints[CATS].cov
    assert np.max(np.abs(cov - np.diag(np.diag(cov)))) < 1e-6


def test_learn_recovers_generator_means(synthetic_model):
    config = default_generator_config(seed=3)
    rel = np.linalg.norm(synthetic_model.loc_joints[CATS].mean - config.location.mean)
    rel /= np.linalg.norm(config.location.mean)
    assert rel < 0.05


def test_box_prior_is_the_floored_ml_fit_of_each_descriptor():
    annotations = generate_synthetic(default_generator_config(seed=5), 40)
    model = learn(annotations)
    for cat in CATS:
        descriptors = []
        for ann in annotations:
            frame = normalize_frame(ann.width, ann.height)
            descriptors.append(box_descriptor(to_normalized(*ann.boxes[cat], frame), frame))
        descriptors = np.array(descriptors)
        prior = model.box_priors[cat]
        assert prior.dims == (f"alpha_{cat}", f"gamma_{cat}")
        np.testing.assert_allclose(prior.mean, descriptors.mean(axis=0), rtol=1e-12)
        # the maximum-likelihood (1/N) variance, independent across the two
        np.testing.assert_allclose(np.diag(prior.cov), descriptors.var(axis=0), rtol=1e-9)
        assert prior.cov[0, 1] == prior.cov[1, 0] == 0.0
    # identical boxes: the variance is floored, not zero
    flat = learn([fixed_annotation()] * 10).box_priors["dog"]
    assert np.diag(flat.cov).tolist() == pytest.approx([FIT_RIDGE_FLOOR] * 2)


def test_walker_area_prior_exceeds_dog(synthetic_model):
    priors = synthetic_model.box_priors
    assert priors["dog_walker"].mean[0] > priors["dog"].mean[0] > priors["leash"].mean[0]


def test_pairwise_joints_agree_with_triple_marginals(synthetic_model):
    pair = synthetic_model.loc_joints[("dog_walker", "dog")]
    idx = [0, 1, 2, 3]  # walker and dog lead the triple's dim order
    np.testing.assert_allclose(
        pair.mean, synthetic_model.loc_joints[CATS].mean[idx], rtol=1e-12
    )
    np.testing.assert_allclose(
        pair.cov, synthetic_model.loc_joints[CATS].cov[np.ix_(idx, idx)], rtol=1e-6, atol=1e-9
    )


# ---------------------------------------------------------------------------
# the search's distributions: priors, then conditioning on the Workspace


def scaled_annotation(width=640, height=480):
    """The three ground-truth boxes placed at fixed fractions of the image."""
    return SituationAnnotation(
        image_id=f"scaled_{width}x{height}",
        width=width,
        height=height,
        boxes={
            "dog_walker": (0.1 * width, 0.1 * height, 0.15 * width, 0.35 * height),
            "dog": (0.4 * width, 0.5 * height, 0.18 * width, 0.12 * height),
            "leash": (0.26 * width, 0.33 * height, 0.14 * width, 0.15 * height),
        },
    )


def dists_after_first_detection(
    model, config, annotation, score=0.3, category="dog_walker", salience=None
):
    """The distributions run_image hands its observer at its one Workspace change.

    The scripted scorer gives ``score`` to the first proposal of ``category``
    and 0 to every other proposal. Returns that proposal's box and the
    per-category distributions right after it was filed.
    """
    hits = []

    def scorer(p):
        if p.category == category and not hits:
            hits.append(p.box)
            return score
        return 0.0

    changes = []
    run_image(
        model,
        salience,
        replace(config, max_iterations=50),
        annotation,
        np.random.default_rng(0),
        scorer=scorer,
        observer=lambda t, ws, dists: changes.append(dict(dists)),
    )
    assert len(changes) == 1
    return hits[0], changes[0]


def assert_prior(model, dist, category):
    """Uniform location with the category's learned box prior."""
    grid = dist.location.grid
    assert np.allclose(grid, 1.0 / grid.size)
    assert dist.alpha_gamma is model.box_priors[category]


def test_initial_distributions_are_uniform_with_prior_boxes(synthetic_model):
    config = MethodConfig(situation_model="none", cell_size=4)
    _, dists = dists_after_first_detection(synthetic_model, config, scaled_annotation())
    for cat in CATS:
        assert_prior(synthetic_model, dists[cat], cat)


def test_initial_distributions_follow_frame_shape(synthetic_model):
    config = MethodConfig(situation_model="none", cell_size=4)
    _, wide = dists_after_first_detection(synthetic_model, config, scaled_annotation(2000, 500))
    _, tall = dists_after_first_detection(synthetic_model, config, scaled_annotation(500, 2000))
    w_grid = wide["dog"].location.grid
    t_grid = tall["dog"].location.grid
    assert w_grid.shape != t_grid.shape
    assert w_grid.shape[1] > w_grid.shape[0]
    assert abs(w_grid.sum() - 1) < 1e-9 and abs(t_grid.sum() - 1) < 1e-9


def test_empty_workspace_matches_initial(synthetic_model):
    """With no detection of another category a category keeps the method's prior."""
    frame = normalize_frame(640, 480)
    box = BoundingBox(cx=0.0, cy=0.0, w=90.0, h=200.0)
    for detections in ({}, {"dog_walker": box}):
        with pytest.raises(InvalidInputError, match="no detection of another category"):
            conditioned_distribution(synthetic_model, "dog_walker", detections, frame, 4)

    # Salience methods: the prior is the salience map, and every conditioned
    # location map is multiplied by it.
    grid = np.random.default_rng(0).random(grid_shape(frame, 4)) + 0.1
    salience = LocationMap(frame=frame, cell_size=4, grid=grid)
    config = MethodConfig(
        location_prior="salience", situation_model="learned", cell_size=4
    )
    walker, dists = dists_after_first_detection(
        synthetic_model, config, scaled_annotation(), salience=salience
    )
    assert dists["dog_walker"].location is salience
    for cat in ("dog", "leash"):
        cond = conditioned_distribution(synthetic_model, cat, {"dog_walker": walker}, frame, 4)
        np.testing.assert_array_equal(
            dists[cat].location.grid, combine(cond.location, salience).grid
        )


def test_single_detection_matches_manual_pipeline(synthetic_model):
    """The search's conditioning == condition() + rasterize_2d composed by hand."""
    frame = normalize_frame(640, 480)
    config = MethodConfig(cell_size=4)
    walker_box, dists = dists_after_first_detection(synthetic_model, config, scaled_annotation())

    alpha, gamma = box_descriptor(walker_box, frame)
    for cat in ("dog", "leash"):
        pair = synthetic_model.loc_joints[("dog_walker", cat)]
        loc = condition(pair, {"x_dog_walker": walker_box.cx, "y_dog_walker": walker_box.cy})
        expected_map = rasterize_2d(loc, frame, cell_size=4)
        np.testing.assert_allclose(dists[cat].location.grid, expected_map.grid, atol=1e-9)
        box_joint = synthetic_model.box_joints[("dog_walker", cat)]
        expected_box = condition(
            box_joint, {"alpha_dog_walker": alpha, "gamma_dog_walker": gamma}
        )
        np.testing.assert_allclose(dists[cat].alpha_gamma.mean, expected_box.mean)
        np.testing.assert_allclose(dists[cat].alpha_gamma.cov, expected_box.cov)


CONDITIONING_CASES = [
    (target, others)
    for target in CATS
    for n in (1, 2)
    for others in itertools.combinations([c for c in CATS if c != target], n)
]


@pytest.mark.parametrize(
    "target, others", CONDITIONING_CASES, ids=[f"{t}|{'+'.join(o)}" for t, o in CONDITIONING_CASES]
)
def test_conditioning_is_one_lookup_of_the_joint_over_target_and_detected(
    synthetic_model, target, others
):
    frame = normalize_frame(640, 480)
    ann = scaled_annotation()
    boxes = {cat: to_normalized(*ann.boxes[cat], frame) for cat in CATS}
    # the target's own detection is present and ignored
    detections = {cat: boxes[cat] for cat in (target, *others)}
    got = conditioned_distribution(synthetic_model, target, detections, frame, 4)

    group = tuple(cat for cat in CATS if cat == target or cat in others)
    loc_obs, box_obs = {}, {}
    for cat in others:
        loc_obs.update({f"x_{cat}": boxes[cat].cx, f"y_{cat}": boxes[cat].cy})
        alpha, gamma = box_descriptor(boxes[cat], frame)
        box_obs.update({f"alpha_{cat}": alpha, f"gamma_{cat}": gamma})
    loc = condition(synthetic_model.loc_joints[group], loc_obs)
    box = condition(synthetic_model.box_joints[group], box_obs)
    assert got.location.grid.tobytes() == rasterize_2d(loc, frame, 4).grid.tobytes()
    assert got.alpha_gamma.dims == box.dims == (f"alpha_{target}", f"gamma_{target}")
    for name in ("mean", "cov"):
        assert getattr(got.alpha_gamma, name).tobytes() == getattr(box, name).tobytes()


def assert_joint_tables(model):
    assert list(model.loc_joints) == list(model.box_joints) == list(JOINT_CATEGORIES)
    for group in JOINT_CATEGORIES:
        assert model.loc_joints[group].dims == loc_dims(group)
        assert model.box_joints[group].dims == box_dims(group)


def test_learned_and_loaded_tables_hold_one_joint_per_category_set(synthetic_model, tmp_path):
    assert JOINT_CATEGORIES == (*CATEGORY_PAIRS, CATS)
    assert_joint_tables(synthetic_model)
    save_model(synthetic_model, tmp_path / "model.json")
    assert_joint_tables(load_model(tmp_path / "model.json"))


def test_self_detection_leaves_own_distributions_alone(synthetic_model):
    config = MethodConfig(cell_size=4)
    _, dists = dists_after_first_detection(synthetic_model, config, scaled_annotation())
    assert_prior(synthetic_model, dists["dog_walker"], "dog_walker")
    assert not np.allclose(dists["dog"].location.grid, dists["dog_walker"].location.grid)


def test_two_detections_concentrate_leash_map(synthetic_model):
    frame = normalize_frame(640, 480)
    walker = BoundingBox(cx=-60.0, cy=0.0, w=85.0, h=195.0)
    dog = BoundingBox(cx=45.0, cy=70.0, w=105.0, h=70.0)
    both = conditioned_distribution(
        synthetic_model, "leash", {"dog_walker": walker, "dog": dog}, frame, cell_size=4
    )

    one_det = conditioned_distribution(
        synthetic_model, "leash", {"dog_walker": walker}, frame, cell_size=4
    )
    prior_peak = 1.0 / one_det.location.grid.size
    assert both.location.grid.max() > one_det.location.grid.max()
    assert one_det.location.grid.max() > prior_peak
    # two-detection conditional centers near the walker-dog midpoint
    grid = both.location.grid
    r, c = np.unravel_index(np.argmax(grid), grid.shape)
    x = -frame.norm_width / 2 + (c + 0.5) * 4
    y = -frame.norm_height / 2 + (r + 0.5) * 4
    assert abs(x - (-60 + 45) / 2) < 25
    assert abs(y - 35) < 25


def test_provisional_and_final_condition_identically(synthetic_model):
    # Scoring draws no randomness, so both runs file the same first box.
    config = MethodConfig(cell_size=8)
    box_a, a = dists_after_first_detection(synthetic_model, config, scaled_annotation(), 0.3)
    box_b, b = dists_after_first_detection(synthetic_model, config, scaled_annotation(), 0.9)
    assert box_a == box_b
    for cat in ("dog", "leash"):
        np.testing.assert_array_equal(a[cat].location.grid, b[cat].location.grid)
        np.testing.assert_array_equal(a[cat].alpha_gamma.mean, b[cat].alpha_gamma.mean)


# ---------------------------------------------------------------------------
# proposal sampling


def test_point_mass_distributions_give_deterministic_box(synthetic_model):
    frame = normalize_frame(1000, 1000)
    grid = np.zeros((10, 10))
    grid[5, 5] = 1.0
    loc = uniform_map(frame, cell_size=50)
    dist = CategorySearchDist(
        category="dog",
        location=type(loc)(frame=frame, cell_size=50, grid=grid),
        alpha_gamma=MultivariateGaussian(
            dims=("alpha_dog", "gamma_dog"),
            mean=np.array([math.log(0.25), 0.0]),
            cov=np.zeros((2, 2)),
        ),
    )
    rng = np.random.default_rng(0)
    proposals = [sample_proposal(dist, frame, rng) for _ in range(20)]
    for p in proposals:
        assert p.box.w == pytest.approx(250.0, abs=1e-3)
        assert p.box.h == pytest.approx(250.0, abs=1e-3)
        assert 0 <= p.box.cx <= 50 and 0 <= p.box.cy <= 50  # inside cell (5,5)


def test_quarter_area_box_on_square_frame():
    frame = normalize_frame(500, 500)
    box = box_from_descriptor(0.0, 0.0, math.log(0.25), math.log(1.0), frame)
    assert box.w == pytest.approx(250.0)
    assert box.h == pytest.approx(250.0)


def test_sampled_area_ratio_follows_alpha_marginal():
    frame = normalize_frame(1000, 1000)
    grid = np.zeros((20, 20))
    grid[10, 10] = 1.0
    dist = CategorySearchDist(
        category="dog",
        location=uniform_map(frame, cell_size=25).__class__(
            frame=frame, cell_size=25, grid=grid
        ),
        alpha_gamma=MultivariateGaussian(
            dims=("alpha_dog", "gamma_dog"),
            mean=np.array([math.log(0.01), 0.0]),
            cov=np.diag([0.2**2, 0.1**2]),
        ),
    )
    rng = np.random.default_rng(42)
    log_ratios = []
    for _ in range(20_000):
        p = sample_proposal(dist, frame, rng)
        log_ratios.append(math.log(p.box.area / frame.area))
    result = stats.kstest(log_ratios, cdf=stats.norm(math.log(0.01), 0.2).cdf)
    assert result.pvalue > 0.01


def test_sampled_proposals_stay_in_frame(synthetic_model):
    frame = normalize_frame(640, 480)
    uniform = uniform_map(frame, cell_size=4)
    dists = {
        cat: CategorySearchDist(cat, uniform, synthetic_model.box_priors[cat])
        for cat in CATS
    }
    rng = np.random.default_rng(7)
    hx, hy = frame.norm_width / 2, frame.norm_height / 2
    for _ in range(500):
        for cat in CATS:
            p = sample_proposal(dists[cat], frame, rng)
            assert p.box.x0 >= -hx - 1e-9 and p.box.x1 <= hx + 1e-9
            assert p.box.y0 >= -hy - 1e-9 and p.box.y1 <= hy + 1e-9
            assert p.box.area > 0


def test_log_uniform_box_ranges():
    box = LogUniformBox()
    rng = np.random.default_rng(0)
    draws = np.array([box.sample(rng) for _ in range(5000)])
    assert draws[:, 0].min() >= math.log(0.01) and draws[:, 0].max() <= math.log(0.5)
    assert draws[:, 1].min() >= math.log(0.25) and draws[:, 1].max() <= math.log(4.0)
    # roughly uniform: quartiles near the analytic ones
    lo, hi = math.log(0.01), math.log(0.5)
    assert np.quantile(draws[:, 0], 0.5) == pytest.approx((lo + hi) / 2, abs=0.1)


# ---------------------------------------------------------------------------
# serialization


def test_model_save_load_bit_for_bit(synthetic_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(synthetic_model, path)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(synthetic_model)
    loc, box = loaded.loc_joints[CATS], loaded.box_joints[CATS]
    np.testing.assert_array_equal(loc.mean, synthetic_model.loc_joints[CATS].mean)
    np.testing.assert_array_equal(loc.cov, synthetic_model.loc_joints[CATS].cov)
    np.testing.assert_array_equal(box.cov, synthetic_model.box_joints[CATS].cov)
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# SHA-256 of the model file learned on the shared dataset's first 50 images,
# computed while each box prior was still stored as two univariate normals.
LEARNED_MODEL_SHA256 = "5fda2c6d37e4525f5618726aeaa394c8bba2b397b6ff53649f75ebb63b25610a"


def test_learned_model_file_matches_pinned_digest(small_synthetic_dataset, tmp_path):
    save_model(learn(small_synthetic_dataset[:50]), tmp_path / "model.json")
    digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    assert digest == LEARNED_MODEL_SHA256


# The stds a box prior may have: each square a normal double, at most a
# quarter of the largest double.
PRIOR_STD_LO = math.sqrt(sys.float_info.min)
PRIOR_STD_HI = math.sqrt(sys.float_info.max / 4)


@settings(max_examples=200, deadline=None)
@given(
    stds=st.lists(
        st.one_of(
            st.floats(PRIOR_STD_LO, PRIOR_STD_HI),
            st.sampled_from([PRIOR_STD_LO, PRIOR_STD_HI, 1e-6, 1.0, 1e150]),
        ),
        min_size=6,
        max_size=6,
    ),
    means=st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6),
)
def test_box_prior_round_trips_across_the_accepted_stds(synthetic_model, stds, means):
    doc = model_to_dict(synthetic_model)
    fields = [(c, name) for c in CATS for name in ("alpha", "gamma")]
    for (cat, name), std, mean in zip(fields, stds, means):
        doc["box_priors"][cat][name] = {"mean": mean, "std": std}
    model = model_from_dict(doc)
    assert model_to_dict(model) == doc
    rng = np.random.default_rng(0)
    for prior in model.box_priors.values():  # a draw does not overflow
        assert np.isfinite(prior.sample(rng)).all()


def test_box_prior_std_outside_the_accepted_range_is_rejected(synthetic_model):
    for std in (math.nextafter(PRIOR_STD_LO, 0), math.nextafter(PRIOR_STD_HI, math.inf)):
        doc = model_to_dict(synthetic_model)
        doc["box_priors"]["dog"]["gamma"]["std"] = std
        with pytest.raises(InvalidInputError, match=re.escape("box_priors['dog'].gamma.std")):
            model_from_dict(doc)


def test_model_categories_must_be_the_shipped_three(synthetic_model):
    assert CATEGORY_PAIRS == (("dog_walker", "dog"), ("dog_walker", "leash"), ("dog", "leash"))
    for categories in (
        ["dog_walker", "dog"],
        ["dog_walker", "dog", "dog"],
        ["walker", "dog", "leash"],
        ["dog", "dog_walker", "leash"],
    ):
        doc = model_to_dict(synthetic_model)
        doc["categories"] = categories
        with pytest.raises(
            InvalidInputError,
            match=re.escape(
                f"model categories {categories} are not the situation's {list(DEFAULT_CATEGORIES)}"
            ),
        ):
            model_from_dict(doc)


def test_model_missing_box_prior_names_category(synthetic_model):
    doc = model_to_dict(synthetic_model)
    del doc["box_priors"]["leash"]
    with pytest.raises(InvalidInputError, match="box_priors: missing 'leash'"):
        model_from_dict(doc)
    doc = model_to_dict(synthetic_model)
    doc["box_priors"]["cat"] = doc["box_priors"]["dog"]
    with pytest.raises(InvalidInputError, match="box_priors: unexpected 'cat'"):
        model_from_dict(doc)
    doc["box_priors"] = list(CATS)
    with pytest.raises(InvalidInputError, match="malformed model document"):
        model_from_dict(doc)


@pytest.mark.parametrize("category", CATS)
def test_model_rejects_a_box_prior_not_diagonal_gaussian_over_its_dims(
    synthetic_model, category
):
    # Context-free search scores draws from the box priors in blocks, which
    # decode diagonal 2-d Gaussians only.
    prior = synthetic_model.box_priors[category]
    sd = np.sqrt(np.diag(prior.cov))
    alpha, gamma = box_dims((category,))
    other = next(c for c in CATS if c != category)
    for bad in (
        MultivariateGaussian(prior.dims, prior.mean, prior.cov + 0.6 * np.outer(sd, sd)),
        MultivariateGaussian(prior.dims, prior.mean, prior.cov - 0.3 * np.outer(sd, sd)),
        LogUniformBox(),
        MultivariateGaussian(("alpha", "gamma"), prior.mean, prior.cov),
        MultivariateGaussian((gamma, alpha), prior.mean, prior.cov),
        MultivariateGaussian(box_dims((other,)), prior.mean, prior.cov),
        MultivariateGaussian((alpha,), prior.mean[:1], prior.cov[:1, :1]),
    ):
        with pytest.raises(
            InvalidInputError,
            match=re.escape(f"box prior of {category!r} must be a diagonal 2-d Gaussian"),
        ):
            replace(synthetic_model, box_priors={**synthetic_model.box_priors, category: bad})


def test_model_pair_keys_must_match_category_pairs(synthetic_model):
    doc = model_to_dict(synthetic_model)
    doc["loc_pair"]["dog|dog_walker"] = doc["loc_pair"].pop("dog_walker|dog")
    with pytest.raises(
        InvalidInputError,
        match=re.escape("loc_pair: missing 'dog_walker|dog', unexpected 'dog|dog_walker'"),
    ):
        model_from_dict(doc)
    doc = model_to_dict(synthetic_model)
    del doc["box_pair"]["dog|leash"]
    with pytest.raises(InvalidInputError, match=re.escape("box_pair: missing 'dog|leash'")):
        model_from_dict(doc)


def test_model_joint_dims_must_match_categories(synthetic_model):
    doc = model_to_dict(synthetic_model)
    doc["loc_pair"]["dog_walker|leash"]["dims"] = ["x_dog_walker", "y_dog_walker", "x_dog", "y_dog"]
    with pytest.raises(InvalidInputError, match=re.escape("loc_pair['dog_walker|leash'] has dims")):
        model_from_dict(doc)
    doc = model_to_dict(synthetic_model)
    dims = doc["box_triple"]["dims"]
    dims[0], dims[1] = dims[1], dims[0]
    with pytest.raises(InvalidInputError, match="box_triple has dims"):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "path, key, message",
    [
        (("box_priors", "dog"), "gamma", "box_priors['dog']: missing 'gamma'"),
        (("box_priors", "dog", "gamma"), "std", "box_priors['dog'].gamma: missing 'std'"),
        (("loc_pair", "dog_walker|leash"), "cov", "loc_pair['dog_walker|leash']: missing 'cov'"),
        (("box_triple",), "dims", "box_triple: missing 'dims'"),
    ],
    ids=["box-prior", "box-prior-field", "pair-joint", "triple-joint"],
)
def test_model_key_missing_inside_a_section_names_the_section(
    synthetic_model, path, key, message
):
    doc = model_to_dict(synthetic_model)
    section = doc
    for name in path:
        section = section[name]
    del section[key]
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        model_from_dict(doc)


def test_model_section_keys_are_checked_but_a_joint_may_omit_its_ridge(synthetic_model):
    doc = model_to_dict(synthetic_model)
    doc["box_priors"]["leash"]["alpha"]["sd"] = doc["box_priors"]["leash"]["alpha"].pop("std")
    with pytest.raises(
        InvalidInputError, match=re.escape("box_priors['leash'].alpha: missing 'std', unexpected 'sd'")
    ):
        model_from_dict(doc)
    doc = model_to_dict(synthetic_model)
    doc["loc_triple"]["weights"] = [1.0]
    with pytest.raises(InvalidInputError, match=re.escape("loc_triple: unexpected 'weights'")):
        model_from_dict(doc)
    doc = model_to_dict(synthetic_model)
    del doc["box_pair"]["dog|leash"]["epsilon"]
    assert model_from_dict(doc).box_joints["dog", "leash"].epsilon == 0.0


# ---------------------------------------------------------------------------
# memory and memo of the conditioning step


@pytest.mark.parametrize("salient", [False, True], ids=["uniform-prior", "salience-prior"])
def test_a_conditioned_map_costs_one_grid_buffer(synthetic_model, salient):
    # The density, its normalization and the salience fold share one buffer;
    # the sampling CDF is the only other grid-sized array.
    frame = normalize_frame(640, 480)
    shape = grid_shape(frame, 1.0)
    grid_bytes = shape[0] * shape[1] * 8
    salience = None
    if salient:
        raw = np.random.default_rng(0).random(shape) + 0.1
        salience = LocationMap(frame=frame, cell_size=1.0, grid=raw)
    detections = {"dog_walker": BoundingBox(cx=-40.0, cy=10.0, w=90.0, h=200.0)}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dist = conditioned_distribution(synthetic_model, "dog", detections, frame, 1.0, salience)
        built = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        dist.location._cdf
        with_cdf = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert built <= 1.1 * grid_bytes
    assert with_cdf <= 2.1 * grid_bytes


def test_a_model_pickled_after_conditioning_round_trips(synthetic_model):
    frame = normalize_frame(640, 480)
    detections = {
        "dog_walker": BoundingBox(cx=-40.0, cy=10.0, w=90.0, h=200.0),
        "leash": BoundingBox(cx=30.0, cy=60.0, w=60.0, h=70.0),
    }
    before = conditioned_distribution(synthetic_model, "dog", detections, frame, 4)
    restored = pickle.loads(pickle.dumps(synthetic_model))
    assert model_to_dict(restored) == model_to_dict(synthetic_model)
    after = conditioned_distribution(restored, "dog", detections, frame, 4)
    assert np.array_equal(after.location.grid, before.location.grid)
    for name in ("mean", "cov", "_chol"):
        array = getattr(after.alpha_gamma, name)
        assert np.array_equal(array, getattr(before.alpha_gamma, name))
        assert not array.flags.writeable


def model_joints(model):
    return [*model.loc_joints.values(), *model.box_joints.values()]


def test_arrays_stay_read_only_in_a_worker_process(synthetic_model):
    # A jobs=2 worker gets its model through the process pool's pickler,
    # and numpy unpickles every array writeable.
    frame = normalize_frame(640, 480)
    detections = {
        "dog_walker": BoundingBox(cx=-40.0, cy=10.0, w=90.0, h=200.0),
        "leash": BoundingBox(cx=30.0, cy=60.0, w=60.0, h=70.0),
    }
    for joint in model_joints(synthetic_model):
        assert not joint._chol.flags.writeable  # frozen where it is first built
    before = conditioned_distribution(synthetic_model, "dog", detections, frame, 4)
    assert not before.location._cdf.flags.writeable
    assert not uniform_map(frame, 4)._cdf.flags.writeable

    model, lmap = pickle.loads(ForkingPickler.dumps((synthetic_model, before.location)))
    arrays = [lmap.grid, lmap.__dict__["_cdf"]]
    for joint in model_joints(model):
        arrays += [joint.mean, joint.cov, joint.__dict__["_chol"]]
    assert len(arrays) == 2 + 3 * 8
    assert not any(a.flags.writeable for a in arrays)
    assert np.array_equal(lmap.grid, before.location.grid)
    assert np.array_equal(lmap._cdf, before.location._cdf)

    after = conditioned_distribution(model, "dog", detections, frame, 4)
    for part, names in (("location", ("grid", "_cdf")), ("alpha_gamma", ("mean", "cov", "_chol"))):
        for name in names:
            array = getattr(getattr(after, part), name)
            assert np.array_equal(array, getattr(getattr(before, part), name))
            assert not array.flags.writeable

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from situsearch.datagen import (
    GeneratorConfig,
    SituationAnnotation,
    annotation_from_dict,
    default_generator_config,
    generate_synthetic,
    load_annotation,
    load_dataset,
    render_annotation_image,
    save_annotation,
    split_folds,
)
from situsearch.errors import DatasetError, GenerationError, InvalidInputError, ParseError
from situsearch.gaussian import MultivariateGaussian
from situsearch.situation_model import box_dims, learn, loc_dims


def make_annotation(image_id="img0", width=640, height=480):
    return SituationAnnotation(
        image_id=image_id,
        width=width,
        height=height,
        boxes={
            "dog_walker": (100.0, 80.0, 90.0, 200.0),
            "dog": (250.0, 300.0, 110.0, 70.0),
            "leash": (180.0, 220.0, 80.0, 60.0),
        },
    )


# ---------------------------------------------------------------------------
# annotation IO


def test_save_load_round_trip(tmp_path):
    annotations = [make_annotation(f"img{i}") for i in range(3)]
    for ann in annotations:
        save_annotation(ann, tmp_path / f"{ann.image_id}.json")
    loaded = load_dataset(tmp_path)
    assert loaded == annotations


def test_empty_directory_loads_empty_list(tmp_path):
    assert load_dataset(tmp_path) == []


def test_missing_directory_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "nope")


def test_malformed_json_reports_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="bad.json"):
        load_annotation(bad)


def test_missing_field_is_parse_error(tmp_path):
    doc = tmp_path / "short.json"
    doc.write_text(json.dumps({"image_id": "x", "width": 10}))
    with pytest.raises(ParseError, match="short.json"):
        load_annotation(doc)


def test_out_of_bounds_box_names_category():
    with pytest.raises(DatasetError, match="dog"):
        SituationAnnotation(
            image_id="x",
            width=100,
            height=100,
            boxes={"dog": (50.0, 50.0, 80.0, 20.0)},
        )


def test_duplicate_category_rejected():
    doc = {
        "image_id": "x",
        "width": 100,
        "height": 100,
        "objects": [
            {"category": "dog", "x": 0, "y": 0, "w": 10, "h": 10},
            {"category": "dog", "x": 5, "y": 5, "w": 10, "h": 10},
        ],
    }
    with pytest.raises(DatasetError, match="duplicate"):
        annotation_from_dict(doc)


def test_relative_image_path_resolves_against_annotation_dir(tmp_path):
    ann = SituationAnnotation(
        image_id="a", width=20, height=20, boxes={"dog": (1.0, 1.0, 5.0, 5.0)},
        image_path="a.pgm",
    )
    save_annotation(ann, tmp_path / "a.json")
    loaded = load_annotation(tmp_path / "a.json")
    assert loaded.image_path == str(tmp_path / "a.pgm")


# ---------------------------------------------------------------------------
# synthetic generation


def test_zero_variance_config_generates_identical_annotations():
    base = default_generator_config()
    config = GeneratorConfig(
        width=base.width,
        height=base.height,
        location=MultivariateGaussian(
            dims=loc_dims(base.categories.categories),
            mean=base.location.mean,
            cov=np.zeros((6, 6)),
        ),
        box=MultivariateGaussian(
            dims=box_dims(base.categories.categories),
            mean=base.box.mean,
            cov=np.zeros((6, 6)),
        ),
    )
    annotations = generate_synthetic(config, 5, rng=np.random.default_rng(0))
    first = annotations[0]
    for ann in annotations[1:]:
        for cat in first.boxes:
            assert ann.boxes[cat] == pytest.approx(first.boxes[cat], abs=1e-3)


def test_generated_boxes_always_in_bounds():
    config = default_generator_config()
    annotations = generate_synthetic(config, 300, rng=np.random.default_rng(5))
    for ann in annotations:
        for x, y, w, h in ann.boxes.values():
            assert x >= 0 and y >= 0
            assert x + w <= config.width + 1e-6
            assert y + h <= config.height + 1e-6
            assert w > 0 and h > 0


def test_fit_on_generated_data_recovers_generator():
    config = default_generator_config()
    annotations = generate_synthetic(config, 4000, rng=np.random.default_rng(9))
    model = learn(annotations)
    true_mean = config.location.mean
    got_mean = model.loc_triple.mean
    rel = np.linalg.norm(got_mean - true_mean) / np.linalg.norm(true_mean)
    assert rel < 0.05
    rel_box = np.linalg.norm(model.box_triple.mean - config.box.mean) / np.linalg.norm(
        config.box.mean
    )
    assert rel_box < 0.05


def test_degenerate_clamping_raises_generation_error():
    base = default_generator_config()
    huge = np.array(base.box.mean)
    huge[0] = math.log(4.0)  # walker area four times the image: can never fit
    config = GeneratorConfig(
        width=base.width,
        height=base.height,
        location=base.location,
        box=MultivariateGaussian(dims=base.box.dims, mean=huge, cov=np.zeros((6, 6))),
    )
    with pytest.raises(GenerationError):
        generate_synthetic(config, 1, rng=np.random.default_rng(0))


def test_generate_rejects_bad_n():
    with pytest.raises(InvalidInputError):
        generate_synthetic(default_generator_config(), 0)


def test_generator_config_json_round_trip(tmp_path):
    from situsearch.datagen import load_generator_config, save_generator_config

    config = default_generator_config(seed=9)
    path = tmp_path / "config.json"
    save_generator_config(config, path)
    loaded = load_generator_config(path)
    assert loaded.width == config.width and loaded.height == config.height
    assert loaded.seed == 9
    np.testing.assert_array_equal(loaded.location.mean, config.location.mean)
    np.testing.assert_array_equal(loaded.location.cov, config.location.cov)
    np.testing.assert_array_equal(loaded.box.cov, config.box.cov)
    second = tmp_path / "config2.json"
    save_generator_config(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_generator_config_file_errors(tmp_path):
    from situsearch.datagen import load_generator_config

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError):
        load_generator_config(bad)
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"width": 10}))
    with pytest.raises(ParseError):
        load_generator_config(short)


def test_config_validates_dim_labels():
    base = default_generator_config()
    with pytest.raises(InvalidInputError):
        GeneratorConfig(
            width=base.width,
            height=base.height,
            location=MultivariateGaussian(
                dims=tuple(f"w{i}" for i in range(6)), mean=np.zeros(6), cov=np.eye(6)
            ),
            box=base.box,
        )


# ---------------------------------------------------------------------------
# rendering


def test_render_is_deterministic_and_bounded():
    ann = make_annotation()
    a = render_annotation_image(ann)
    b = render_annotation_image(ann)
    assert np.array_equal(a, b)
    assert a.shape == (ann.height, ann.width)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_render_objects_brighter_than_background():
    ann = make_annotation()
    img = render_annotation_image(ann, clutter=0)
    x, y, w, h = ann.boxes["dog_walker"]
    inside = img[int(y) : int(y + h), int(x) : int(x + w)].mean()
    corner = img[:40, :40].mean()
    assert inside > corner + 0.2


# ---------------------------------------------------------------------------
# folds


def test_folds_500_by_10_gives_450_50():
    items = list(range(500))
    folds = split_folds(items, k=10, seed=0)
    assert len(folds) == 10
    for train, test in folds:
        assert len(train) == 450
        assert len(test) == 50


def test_folds_partition_all_indices():
    items = list(range(103))
    folds = split_folds(items, k=7, seed=3)
    seen = []
    sizes = []
    for train, test in folds:
        seen.extend(test)
        sizes.append(len(test))
        assert sorted(train + test) == list(range(103))
    assert sorted(seen) == list(range(103))
    assert max(sizes) - min(sizes) <= 1


def test_folds_deterministic_per_seed():
    items = list(range(40))
    assert split_folds(items, k=5, seed=11) == split_folds(items, k=5, seed=11)
    assert split_folds(items, k=5, seed=11) != split_folds(items, k=5, seed=12)


def test_folds_reject_bad_k():
    with pytest.raises(InvalidInputError):
        split_folds(list(range(5)), k=6)
    with pytest.raises(InvalidInputError):
        split_folds(list(range(5)), k=0)

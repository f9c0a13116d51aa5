from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from situsearch.datagen import (
    GeneratorConfig,
    SituationAnnotation,
    annotation_from_dict,
    annotation_to_dict,
    default_generator_config,
    generate_synthetic,
    generator_config_to_dict,
    load_annotation,
    load_dataset,
    load_generator_config,
    render_annotation_image,
    save_annotation,
    save_generator_config,
    split_folds,
)
from situsearch.errors import DatasetError, GenerationError, InvalidInputError, ParseError
from situsearch.gaussian import MultivariateGaussian
from situsearch.situation_model import DEFAULT_CATEGORIES, box_dims, learn, loc_dims


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


@pytest.mark.parametrize("field", ["x", "y", "w", "h"])
def test_non_finite_box_is_rejected_at_load(tmp_path, field):
    doc = annotation_to_dict(make_annotation("nan_img"))
    doc["objects"][1][field] = float("nan")  # json writes a bare NaN, which it parses back
    path = tmp_path / "nan_img.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="'nan_img'.*'dog_walker'.*not finite"):
        load_dataset(tmp_path)


def test_dataset_error_names_the_file(tmp_path):
    doc = annotation_to_dict(make_annotation("scene_7"))
    doc["objects"][0]["w"] = 0.0
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=r"renamed\.json: annotation 'scene_7'.*empty box"):
        load_dataset(tmp_path)


def test_two_files_with_one_image_id_are_rejected(tmp_path):
    # Their runs would share every run seed, and a fold split could put one
    # scene in its training set and its test set at once.
    save_annotation(make_annotation("scene_1"), tmp_path / "a.json")
    save_annotation(make_annotation("scene_1"), tmp_path / "copy.json")
    with pytest.raises(DatasetError, match=r"a\.json and .*copy\.json share image_id 'scene_1'"):
        load_dataset(tmp_path)


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("width", 640.7, "width must be an integer, got 640.7"),
        ("width", "640", "width must be a number, got '640'"),
        ("width", True, "width must be a number, got True"),
        ("height", None, "height must be a number, got None"),
        ("x", "12.5", "objects[1].x must be a number, got '12.5'"),
        ("w", True, "objects[1].w must be a number, got True"),
        ("h", [2.0], "objects[1].h must be a number, got [2.0]"),
        ("y", 10**400, "objects[1].y is beyond the largest double"),
    ],
    ids=["fraction", "string", "bool", "null", "box-string", "box-bool", "box-list", "box-huge"],
)
def test_annotation_reads_only_json_numbers_naming_file_and_field(tmp_path, key, value, message):
    doc = annotation_to_dict(make_annotation("scene_3"))
    if key in ("width", "height"):
        doc[key] = value
    else:
        doc["objects"][1][key] = value
    path = tmp_path / "scene_3.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"{path}: malformed annotation ({message})")):
        load_annotation(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("image_id", None, "image_id must be a string, got None"),
        ("image_id", ["scene_3"], "image_id must be a string, got ['scene_3']"),
        ("image_id", 3, "image_id must be a string, got 3"),
        ("image", 5, "image must be a string path, got 5"),
        ("image", None, "image must be a string path, got None"),
        ("image", ["a.pgm"], "image must be a string path, got ['a.pgm']"),
    ],
    ids=["id-null", "id-list", "id-number", "image-number", "image-null", "image-list"],
)
def test_annotation_reads_only_string_ids_and_paths_naming_file_and_field(
    tmp_path, key, value, message
):
    doc = annotation_to_dict(make_annotation("scene_3"))
    doc[key] = value
    path = tmp_path / "scene_3.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"{path}: malformed annotation ({message})")):
        load_annotation(path)


def test_an_annotation_without_an_image_loads_with_none(tmp_path):
    doc = annotation_to_dict(make_annotation("scene_3"))
    assert "image" not in doc
    path = tmp_path / "scene_3.json"
    path.write_text(json.dumps(doc))
    assert load_annotation(path).image_path is None
    doc["image"] = "scene_3.pgm"
    path.write_text(json.dumps(doc))
    assert load_annotation(path).image_path == str(tmp_path / "scene_3.pgm")


def test_an_integral_json_number_reads_as_an_integer(tmp_path):
    doc = annotation_to_dict(make_annotation("scene_3"))
    doc["width"], doc["objects"][0]["x"] = 640.0, int(doc["objects"][0]["x"])
    path = tmp_path / "scene_3.json"
    path.write_text(json.dumps(doc))
    assert load_annotation(path) == make_annotation("scene_3")
    config = tmp_path / "config.json"
    doc = generator_config_to_dict(default_generator_config())
    doc["seed"] = 2.0
    config.write_text(json.dumps(doc))
    seed = load_generator_config(config).seed
    assert seed == 2 and type(seed) is int


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
            dims=loc_dims(DEFAULT_CATEGORIES),
            mean=base.location.mean,
            cov=np.zeros((6, 6)),
        ),
        box=MultivariateGaussian(
            dims=box_dims(DEFAULT_CATEGORIES),
            mean=base.box.mean,
            cov=np.zeros((6, 6)),
        ),
    )
    annotations = generate_synthetic(config, 5)
    first = annotations[0]
    for ann in annotations[1:]:
        for cat in first.boxes:
            assert ann.boxes[cat] == pytest.approx(first.boxes[cat], abs=1e-3)


def test_generated_boxes_always_in_bounds():
    config = default_generator_config(seed=5)
    annotations = generate_synthetic(config, 300)
    for ann in annotations:
        for x, y, w, h in ann.boxes.values():
            assert x >= 0 and y >= 0
            assert x + w <= config.width + 1e-6
            assert y + h <= config.height + 1e-6
            assert w > 0 and h > 0


def test_fit_on_generated_data_recovers_generator():
    config = default_generator_config(seed=9)
    annotations = generate_synthetic(config, 4000)
    model = learn(annotations)
    true_mean = config.location.mean
    got_mean = model.loc_joints[DEFAULT_CATEGORIES].mean
    rel = np.linalg.norm(got_mean - true_mean) / np.linalg.norm(true_mean)
    assert rel < 0.05
    box_mean = model.box_joints[DEFAULT_CATEGORIES].mean
    rel_box = np.linalg.norm(box_mean - config.box.mean) / np.linalg.norm(config.box.mean)
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
        generate_synthetic(config, 1)


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


def test_unknown_clamping_policy_rejected(tmp_path):
    from situsearch.datagen import load_generator_config, save_generator_config

    path = tmp_path / "config.json"
    save_generator_config(default_generator_config(), path)
    doc = json.loads(path.read_text())
    assert doc["clamping"] == "translate"
    doc["clamping"] = "shrink"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match="'shrink'"):
        load_generator_config(path)


@pytest.mark.parametrize(
    "path, value, error, message",
    [
        (("seed",), 1.9, ParseError, "generator config (seed must be an integer, got 1.9)"),
        (("seed",), True, ParseError, "generator config (seed must be a number, got True)"),
        (("width",), "640", ParseError, "generator config (width must be a number, got '640')"),
        (
            ("location", "mean", 1),
            "0.1",
            InvalidInputError,
            "malformed gaussian document: mean[1] must be a number, got '0.1'",
        ),
        (
            ("box", "cov", 0),
            False,
            InvalidInputError,
            "malformed gaussian document: cov[0] must be a number, got False",
        ),
    ],
    ids=["fractional-seed", "bool-seed", "string-width", "string-mean", "bool-cov"],
)
def test_generator_config_reads_only_json_numbers_naming_file_and_field(
    tmp_path, path, value, error, message
):
    config = tmp_path / "config.json"
    save_generator_config(default_generator_config(), config)
    doc = json.loads(config.read_text())
    *parents, key = path
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    config.write_text(json.dumps(doc))
    with pytest.raises(error, match=re.escape(f"{config}: ") + ".*" + re.escape(message)):
        load_generator_config(config)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("box", "cov", 0), -1.0, "box: covariance is not PSD"),
        (
            ("location", "mean", 1),
            "0.1",
            "location: malformed gaussian document: mean[1] must be a number, got '0.1'",
        ),
    ],
    ids=["negative-box-variance", "string-location-mean"],
)
def test_generator_config_gaussian_errors_name_their_section_and_file(
    tmp_path, path, value, message
):
    config = tmp_path / "config.json"
    save_generator_config(default_generator_config(), config)
    doc = json.loads(config.read_text())
    section, name, index = path
    doc[section][name][index] = value
    config.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=re.escape(f"{config}: {message}")):
        load_generator_config(config)


def test_negative_generator_seed_is_rejected_naming_value_and_file(tmp_path):
    with pytest.raises(InvalidInputError, match="generator seed must be non-negative, got -1"):
        default_generator_config(seed=-1)
    path = tmp_path / "config.json"
    save_generator_config(default_generator_config(), path)
    doc = json.loads(path.read_text())
    doc["seed"] = -7
    path.write_text(json.dumps(doc))
    with pytest.raises(
        InvalidInputError, match=re.escape(f"{path}: generator seed must be non-negative, got -7")
    ):
        load_generator_config(path)


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
    # Objects are drawn last, in category order, over the noise and the
    # clutter: the walker's box, short of the leash drawn after it at
    # x >= 180, holds the walker's exact brightness.
    ann = make_annotation()
    img = render_annotation_image(ann)
    walker = 0.9 - 0.12 * sorted(ann.boxes).index("dog_walker")
    assert np.all(img[80:280, 100:180] == walker)
    assert np.percentile(img, 10) < walker - 0.4  # the noise background


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

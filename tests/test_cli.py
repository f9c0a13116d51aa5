from __future__ import annotations

import argparse
import hashlib
import json
import weakref

import numpy as np
import pytest

from situsearch import charts, evaluation, gaussian
from situsearch.cli import build_parser, main
from situsearch.datagen import SituationAnnotation, load_generator_config, save_annotation
from situsearch.errors import InvalidInputError
from situsearch.gaussian import GaussianMap
from situsearch.images import write_pgm
from situsearch.search import Workspace, ObjectProposal
from situsearch.geometry import BoundingBox
from situsearch.situation_model import learn, save_model

SUBCOMMANDS = ["learn", "run", "bench", "gen", "salience", "eval-proposals"]


def annotation_files(directory):
    return sorted(p for p in directory.glob("*.json") if p.name != "generator_config.json")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["gen", "--out", str(out), "--n", "24", "--seed", "4"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_path(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["learn", "--data", str(dataset_dir), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out  # flags documented


def test_gen_writes_n_annotations(dataset_dir):
    files = annotation_files(dataset_dir)
    assert len(files) == 24
    doc = json.loads(files[0].read_text())
    assert {"image_id", "width", "height", "objects"} <= set(doc)


def test_gen_with_images_writes_pgms(tmp_path):
    assert main(["gen", "--out", str(tmp_path), "--n", "3", "--seed", "1", "--images"]) == 0
    assert len(list(tmp_path.glob("*.pgm"))) == 3
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    assert "generator_config.json" in names
    doc = json.loads((tmp_path / names[-1]).read_text())
    assert doc["image"].endswith(".pgm")


@pytest.mark.parametrize("seed_args", [["--seed", "4"], []], ids=["seed", "config-seed"])
def test_gen_accepts_config_file(dataset_dir, tmp_path, seed_args):
    # Without --seed, the config's own seed (4, from the fixture) is replayed.
    out = tmp_path / "replay"
    config = dataset_dir / "generator_config.json"
    code = main(["gen", "--out", str(out), "--n", "4", *seed_args, "--config", str(config)])
    assert code == 0
    assert (out / "generator_config.json").read_bytes() == config.read_bytes()
    originals = {p.name: p.read_bytes() for p in sorted(dataset_dir.glob("synthetic_0000*.json"))}
    for name in ("synthetic_00000.json", "synthetic_00003.json"):
        assert (out / name).read_bytes() == originals[name]


def test_generator_config_rejects_other_categories(dataset_dir, tmp_path, capsys):
    # The generator draws the shipped situation, the only one `learn` fits.
    doc = json.loads((dataset_dir / "generator_config.json").read_text())
    doc["categories"] = ["walker", "dog", "leash"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=r"\['walker', 'dog', 'leash'\]"):
        load_generator_config(config)
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), "--n", "2", "--config", str(config)]) == 1
    assert "['walker', 'dog', 'leash']" in capsys.readouterr().err
    assert not out.exists()


def test_learn_then_reload_bit_identical(dataset_dir, model_path, tmp_path):
    second = tmp_path / "again.json"
    assert main(["learn", "--data", str(dataset_dir), "--out", str(second)]) == 0
    assert second.read_bytes() == model_path.read_bytes()


def test_learn_empty_dir_exits_one(tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(["learn", "--data", str(tmp_path), "--out", str(out)])
    assert code == 1
    assert "insufficient data" in capsys.readouterr().err


def test_learn_missing_dir_exits_two(tmp_path, capsys):
    code = main(["learn", "--data", str(tmp_path / "ghost"), "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_run_prints_result_json(dataset_dir, model_path, capsys):
    ann = annotation_files(dataset_dir)[0]
    code = main(
        [
            "run",
            "--model",
            str(model_path),
            "--image-annotation",
            str(ann),
            "--seed",
            "3",
            "--max-iter",
            "150",
            "--cell-size",
            "4",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"completed", "detection_order", "detections", "total_iterations"}
    assert doc["total_iterations"] <= 150


def test_run_trace_and_snapshots_counts(dataset_dir, model_path, tmp_path, capsys):
    ann_path = annotation_files(dataset_dir)[1]
    trace = tmp_path / "trace.jsonl"
    snaps = tmp_path / "snaps"
    code = main(
        [
            "run",
            "--model",
            str(model_path),
            "--image-annotation",
            str(ann_path),
            "--seed",
            "11",
            "--max-iter",
            "120",
            "--cell-size",
            "4",
            "--trace",
            str(trace),
            "--snapshots",
            str(snaps),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(lines) == doc["total_iterations"]

    # replay the trace through a fresh Workspace: snapshot count == changes
    categories = sorted({l["category"] for l in lines} | set(doc["detections"]))
    ws = Workspace(categories, True)
    changes = 0
    for line in lines:
        box = line["box"]
        prop = ObjectProposal(line["category"], BoundingBox(box["cx"], box["cy"], box["w"], box["h"]))
        if ws.observe(prop, line["score"], line["iteration"]):
            changes += 1
    assert len(list(snaps.glob("*.svg"))) == changes


def test_run_snapshots_block_sum_each_map_once(dataset_dir, model_path, tmp_path, monkeypatch):
    # A map or law unchanged since the last change is shown again: its
    # heatmap cells come from the memo, and the SVG is the one drawn
    # without it. Only prior maps are block-summed; conditioned panels are
    # drawn from their laws.
    heat_cells, law_cells = charts._heat_cells, charts._law_cells
    snapshot_svg = charts.workspace_snapshot_svg
    shown = weakref.WeakSet()
    counts = dict.fromkeys(["map panels", "law panels", "maps", "laws", "sums", "law cells"], 0)

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def uncached(location):
        if isinstance(location, GaussianMap):
            return law_cells(location)
        return heat_cells(location.grid)

    def checked_snapshot_svg(frame, ground_truth, workspace, dists, iteration):
        svg = snapshot_svg(frame, ground_truth, workspace, dists, iteration)
        for dist in dists.values():
            if dist is not None:
                kind = "law" if isinstance(dist.location, GaussianMap) else "map"
                counts[f"{kind} panels"] += 1
                counts[f"{kind}s"] += dist.location not in shown
                shown.add(dist.location)
        with monkeypatch.context() as patched:
            patched.setattr(charts, "_coarse", uncached)
            assert svg == snapshot_svg(frame, ground_truth, workspace, dists, iteration)
        return svg

    monkeypatch.setattr(charts, "_heat_cells", counting("sums", heat_cells))
    monkeypatch.setattr(charts, "_law_cells", counting("law cells", law_cells))
    monkeypatch.setattr(charts, "workspace_snapshot_svg", checked_snapshot_svg)
    for method in ("uniform-learned-learned", "salience-learned-learned"):
        for i, ann in enumerate(annotation_files(dataset_dir)[:4]):
            snaps = tmp_path / f"{method}-{i}"
            args = ["run", "--model", str(model_path), "--image-annotation", str(ann)]
            args += ["--method", method, "--cell-size", "8", "--snapshots", str(snaps)]
            assert main(args) == 0
    assert counts["sums"] == counts["maps"] < counts["map panels"]
    assert counts["law cells"] == counts["laws"] < counts["law panels"]


def test_run_trace_builds_the_densities_an_unwatched_run_builds(
    dataset_dir, model_path, tmp_path, monkeypatch, capsys
):
    # Neither a trace nor snapshots build a map's density: snapshots are
    # drawn from the laws, so each watched run builds the densities of the
    # unwatched run, in its order, from the same conditioned Gaussians.
    builds = []
    density_rows = gaussian.density_rows

    def recording_rows(dist, xs, ys, weights, out):
        builds.append((dist.mean.tobytes(), dist.cov.tobytes(), weights is None))
        return density_rows(dist, xs, ys, weights, out)

    monkeypatch.setattr(gaussian, "density_rows", recording_rows)
    schedules, outputs = [], []
    for i, watching in enumerate(([], ["--trace"], ["--trace", "--snapshots"])):
        for ann in annotation_files(dataset_dir)[:4]:
            for method in ("uniform-learned-learned", "salience-learned-learned"):
                args = ["run", "--model", str(model_path), "--image-annotation", str(ann)]
                for flag in watching:
                    args += [flag, str(tmp_path / f"{i}{flag}{ann.stem}{method}")]
                assert main([*args, "--method", method, "--cell-size", "8"]) == 0
                outputs.append(capsys.readouterr().out)
        schedules.append(builds)
        builds = []
    unwatched, traced, snapshotted = schedules
    assert unwatched and unwatched == traced == snapshotted
    assert outputs[:8] == outputs[8:16] == outputs[16:]


def test_last_snapshot_of_a_completed_run_shows_every_panel_final(
    dataset_dir, model_path, tmp_path, capsys
):
    # A category with a final detection is never drawn from again, so its
    # panel is the "final" placeholder, not its last heatmap.
    ann = annotation_files(dataset_dir)[3]
    snaps = tmp_path / "snaps"
    args = ["run", "--model", str(model_path), "--image-annotation", str(ann)]
    assert main([*args, "--cell-size", "8", "--snapshots", str(snaps)]) == 0
    assert json.loads(capsys.readouterr().out)["completed"]
    last = sorted(snaps.glob("*.svg"))[-1].read_text()
    assert last.count('text-anchor="middle">final</text>') == 3
    assert 'fill="rgb(' not in last


# SHA-256 of ``run --trace`` for a model learned on the shared dataset's first
# 50 images and its 51st image, at cell size 8, computed while the trace was
# still written from a proposal log kept by run_image.
TRACE_DIGESTS = {
    "uniform-learned-learned": "46435f03532d728e1d187fef42083f90edd3530b8939078d8b3f9b4dd989e572",
    "salience-learned-learned": "e32b09829c57bc020c23af179edfc400a0aed4f74c20429683f6e8154ea66a94",
}


@pytest.mark.parametrize("method", list(TRACE_DIGESTS))
def test_run_trace_matches_pinned_digest(small_synthetic_dataset, tmp_path, method, capsys):
    save_model(learn(small_synthetic_dataset[:50]), tmp_path / "model.json")
    save_annotation(small_synthetic_dataset[50], tmp_path / "ann.json")
    trace = tmp_path / "trace.jsonl"
    args = ["run", "--model", str(tmp_path / "model.json")]
    args += ["--image-annotation", str(tmp_path / "ann.json"), "--method", method]
    assert main([*args, "--cell-size", "8", "--trace", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_DIGESTS[method]
    doc = json.loads(capsys.readouterr().out)
    assert len(trace.read_text().splitlines()) == doc["total_iterations"]


# SHA-256 of ``run --trace --snapshots`` in TRACE_DIGESTS' setup: the trace,
# stdout, and every snapshot's name and bytes in name order, each part
# preceded by its length. The context-free runs are watched proposal by
# proposal; the conditioned ones show laws, whose panels at cell size 8
# sample every cell of their blocks and shade as the drawn maps' block sums.
WATCHED_RUN_DIGESTS = {
    "uniform-learned-none": "0eb8e974f08c05384ad604de8c643ac4c62434d3b784cd02b2c31b07b63ca975",
    "uniform-uniform-none": "2af22b50cb59076b614acb7dbd4b8f4db08139552fbb6fc41d6b6d58a3c443ec",
    "uniform-learned-learned": "880a1ba6152a4da57c171b5147e9e159bb213cb8da3f9ad533a26af5ec9a27ee",
    "salience-learned-learned": "cab97d89c8f864cdb905506eca74f59b4d0e57c1757be34c30210052f9bfeef8",
}


@pytest.mark.parametrize("method", list(WATCHED_RUN_DIGESTS))
def test_watched_run_matches_pinned_digest(small_synthetic_dataset, tmp_path, method, capsys):
    save_model(learn(small_synthetic_dataset[:50]), tmp_path / "model.json")
    save_annotation(small_synthetic_dataset[50], tmp_path / "ann.json")
    trace, snaps = tmp_path / "trace.jsonl", tmp_path / "snaps"
    args = ["run", "--model", str(tmp_path / "model.json")]
    args += ["--image-annotation", str(tmp_path / "ann.json"), "--method", method]
    args += ["--cell-size", "8", "--trace", str(trace), "--snapshots", str(snaps)]
    assert main(args) == 0
    parts = [trace.read_bytes(), capsys.readouterr().out.encode()]
    for path in sorted(snaps.iterdir()):
        parts += [path.name.encode(), path.read_bytes()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little") + part)
    assert len(parts) > 4
    assert digest.hexdigest() == WATCHED_RUN_DIGESTS[method]


def test_run_with_salience_method(dataset_dir, model_path, capsys):
    ann = annotation_files(dataset_dir)[2]
    code = main(
        [
            "run",
            "--model",
            str(model_path),
            "--image-annotation",
            str(ann),
            "--method",
            "salience-learned-learned",
            "--max-iter",
            "60",
            "--cell-size",
            "8",
        ]
    )
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_run_missing_model_exits_two(dataset_dir, tmp_path):
    ann = annotation_files(dataset_dir)[0]
    assert main(["run", "--model", str(tmp_path / "no.json"), "--image-annotation", str(ann)]) == 2


def test_run_malformed_model_exits_two(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1,')
    ann = annotation_files(dataset_dir)[0]
    assert main(["run", "--model", str(bad), "--image-annotation", str(ann)]) == 2
    assert f"error: {bad}:1: invalid JSON" in capsys.readouterr().err


def test_run_missing_image_file_exits_two(dataset_dir, model_path, tmp_path, capsys):
    # Only an annotation that names no image is rendered; a named one must exist.
    doc = json.loads(annotation_files(dataset_dir)[0].read_text())
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps({**doc, "image": "nope.pgm"}))
    args = ["run", "--model", str(model_path), "--image-annotation", str(ann)]
    assert main([*args, "--method", "salience-learned-learned", "--cell-size", "8"]) == 2
    assert str(tmp_path / "nope.pgm") in capsys.readouterr().err


def _small_image_annotation(doc, directory):
    """An annotation naming a 100x100 image while its own size is 640x480."""
    write_pgm(directory / "small.pgm", np.full((100, 100), 0.5))
    path = directory / f"{doc['image_id']}.json"
    path.write_text(json.dumps({**doc, "image": "small.pgm"}))
    return path


def test_run_image_size_mismatch_names_the_file(dataset_dir, model_path, tmp_path, capsys):
    doc = json.loads(annotation_files(dataset_dir)[0].read_text())
    ann = _small_image_annotation(doc, tmp_path)
    args = ["run", "--model", str(model_path), "--image-annotation", str(ann)]
    assert main([*args, "--method", "salience-learned-learned", "--cell-size", "8"]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'small.pgm'}: annotation {doc['image_id']!r}: image shape" in err


def test_bench_image_size_mismatch_names_the_file(dataset_dir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in annotation_files(dataset_dir):
        (data / path.name).write_bytes(path.read_bytes())
    doc = json.loads(annotation_files(dataset_dir)[5].read_text())
    _small_image_annotation(doc, data)
    args = ["bench", "--data", str(data), "--methods", "salience-uniform-none", "--folds", "2"]
    assert main([*args, "--max-iter", "5", "--cell-size", "8", "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert f"{data / 'small.pgm'}: annotation {doc['image_id']!r}: image shape" in err


def _run_with_model_doc(doc, ann, tmp_path, method="uniform-learned-none"):
    """Exit code of ``run`` with the model document written to a file, and the file."""
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    args = ["run", "--model", str(bad), "--image-annotation", str(ann), "--method", method]
    return main([*args, "--cell-size", "8"]), bad


def test_run_model_missing_box_prior_exits_one(dataset_dir, model_path, tmp_path, capsys):
    # Rejected when the model loads, for every method, not mid-search.
    doc = json.loads(model_path.read_text())
    del doc["box_priors"]["leash"]
    ann = annotation_files(dataset_dir)[0]
    for method in ("uniform-learned-learned", "uniform-uniform-none"):
        code, bad = _run_with_model_doc(doc, ann, tmp_path, method)
        assert code == 1
        assert f"{bad}: box_priors: missing 'leash'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("std", 1e200, "alpha.std must lie in"),  # its square overflows
        ("std", 0.0, "alpha.std must lie in"),
        ("std", 1e-160, "alpha.std must lie in"),  # its square is subnormal
        ("mean", float("nan"), "alpha.mean must be finite, got nan"),
    ],
    ids=["huge-std", "zero-std", "tiny-std", "nan-mean"],
)
def test_run_broken_box_prior_exits_one_naming_the_field(
    dataset_dir, model_path, tmp_path, capsys, field, value, message
):
    doc = json.loads(model_path.read_text())
    doc["box_priors"]["leash"]["alpha"][field] = value
    code, bad = _run_with_model_doc(doc, annotation_files(dataset_dir)[0], tmp_path)
    assert code == 1
    assert f"error: {bad}: box_priors['leash'].{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, index, value, message",
    [
        ("loc_triple", "cov", 0, -1e4, "loc_triple: covariance is not PSD"),
        ("box_pair/dog|leash", "cov", 1, 1234.5, "box_pair['dog|leash']: covariance is not symmetric"),
        (
            "loc_pair/dog_walker|dog",
            "mean",
            0,
            float("nan"),
            "loc_pair['dog_walker|dog']: mean and covariance must be finite",
        ),
        ("box_triple", "cov", None, [1.0], "box_triple: malformed gaussian document: cannot reshape"),
        ("loc_triple", "cov", 0, 1e308, "loc_triple: covariance entries must be at most"),
    ],
    ids=["not-psd", "asymmetric", "nan-mean", "wrong-size", "overflowing-cov"],
)
def test_run_broken_joint_exits_one_naming_section_and_file(
    dataset_dir, model_path, tmp_path, capsys, section, field, index, value, message
):
    doc = json.loads(model_path.read_text())
    joint = doc
    for key in section.split("/"):
        joint = joint[key]
    if index is None:
        joint[field] = value
    else:
        joint[field][index] = value
    code, bad = _run_with_model_doc(doc, annotation_files(dataset_dir)[0], tmp_path)
    assert code == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err


def test_bench_writes_reports_and_is_deterministic(dataset_dir, tmp_path, capsys):
    args = [
        "bench",
        "--data",
        str(dataset_dir),
        "--methods",
        "uniform-learned-learned,uniform-uniform-none",
        "--folds",
        "2",
        "--seed",
        "7",
        "--max-iter",
        "60",
        "--cell-size",
        "8",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main([*args, "--out", str(out_b)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert [m["median"] for m in first["methods"]] == [m["median"] for m in second["methods"]]
    assert {"label", "median", "failures", "t01", "t12", "t23"} <= set(first["methods"][0])
    csv_lines = (out_a / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "method,median,failures,t01,t12,t23"
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    for name in ("medians_bar.svg", "cumulative_curves.svg", "interval_bars.svg"):
        assert (out_a / name).exists()


def test_bench_max_iter_bounds_all_runs(dataset_dir, tmp_path):
    out = tmp_path / "r"
    assert (
        main(
            [
                "bench",
                "--data",
                str(dataset_dir),
                "--methods",
                "uniform-learned-learned",
                "--folds",
                "2",
                "--seed",
                "1",
                "--max-iter",
                "10",
                "--cell-size",
                "8",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads((out / "report.json").read_text())
    for method in doc["methods"]:
        for run in method["runs"]:
            assert run["total_iterations"] <= 10


def test_bench_rejects_unknown_method(dataset_dir, tmp_path, capsys):
    code = main(
        [
            "bench",
            "--data",
            str(dataset_dir),
            "--methods",
            "telepathy",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "uniform-learned-learned" in err  # lists the valid tokens


def test_run_lists_only_the_method_tokens(dataset_dir, model_path, capsys):
    # `all` names the full matrix for `bench --methods`; `run` takes one method.
    ann = annotation_files(dataset_dir)[0]
    args = ["--model", str(model_path), "--image-annotation", str(ann), "--method", "all"]
    assert main(["run", *args]) == 1
    err = capsys.readouterr().err
    assert "unknown method token 'all'; valid tokens: uniform-uniform-none, " in err
    assert "all," not in err


def test_bench_rejects_fewer_than_one_job(dataset_dir, tmp_path, capsys):
    args = ["bench", "--data", str(dataset_dir), "--out", str(tmp_path / "r"), "--jobs", "-4"]
    assert main(args) == 1
    assert "jobs must be >= 1, got -4" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("cell_size", ["nan", "inf", "0", "0.5"])
def test_bench_rejects_a_bad_cell_size_before_learning(
    dataset_dir, tmp_path, monkeypatch, capsys, cell_size, jobs
):
    def no_learning(training):
        raise AssertionError("a model was learned for a method that cannot run")

    monkeypatch.setattr(evaluation, "learn", no_learning)
    args = ["bench", "--data", str(dataset_dir), "--out", str(tmp_path / "r")]
    assert main([*args, "--cell-size", cell_size, "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert f"error: cell_size must be finite and >= 1, got {float(cell_size)}" in err
    assert not (tmp_path / "r").exists()


def test_bench_and_run_name_an_image_too_small_for_the_cell_before_learning(
    dataset_dir, model_path, tmp_path, monkeypatch, capsys
):
    def no_learning(training):
        raise AssertionError("a fold was learned for an image that cannot be searched")

    monkeypatch.setattr(evaluation, "learn", no_learning)
    data = tmp_path / "data"
    data.mkdir()
    for path in annotation_files(dataset_dir):
        (data / path.name).write_bytes(path.read_bytes())
    # Normalized, 10,000 wide and 25 high: narrower than a cell of 30.
    boxes = {"dog_walker": (100, 0, 400, 10), "dog": (1000, 2, 300, 6), "leash": (2000, 0, 200, 5)}
    save_annotation(SituationAnnotation("thin", 4000, 10, boxes), data / "thin.json")
    message = "error: annotation 'thin' at cell size 30.0: frame is smaller than a single grid cell"
    for jobs in ("1", "2"):
        args = ["bench", "--data", str(data), "--out", str(tmp_path / "r"), "--jobs", jobs]
        assert main([*args, "--cell-size", "30"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
    for method in ("uniform-learned-learned", "salience-learned-learned"):
        args = ["run", "--model", str(model_path), "--image-annotation", str(data / "thin.json")]
        assert main([*args, "--method", method, "--cell-size", "30"]) == 1
        assert message in capsys.readouterr().err


def test_salience_command_constant_image_uniform(tmp_path, capsys):
    img_path = tmp_path / "flat.pgm"
    write_pgm(img_path, np.full((64, 64), 0.5))
    out = tmp_path / "flat.sal"
    assert main(["salience", "--image", str(img_path), "--out", str(out), "--cell-size", "10"]) == 0
    header, shape, *rows = out.read_text().splitlines()
    assert header == "SALIENCE v1" and shape == "50 50"  # the 500x500 frame at cell 10
    grid = np.loadtxt(rows, ndmin=2)
    assert grid.shape == (50, 50)
    assert np.allclose(grid, 1.0 / grid.size, atol=1e-9)


def test_salience_command_names_an_image_too_small_for_the_cell(tmp_path, capsys):
    img_path = tmp_path / "small.pgm"
    write_pgm(img_path, np.full((48, 64), 0.5))
    out = tmp_path / "small.sal"
    args = ["salience", "--image", str(img_path), "--out", str(out)]
    assert main([*args, "--cell-size", "1000"]) == 1
    err = capsys.readouterr().err
    assert f"error: {img_path} at cell size 1000.0: frame is smaller than a single grid cell" in err
    assert not out.exists()


def test_eval_proposals_matches_seeded_shuffle(dataset_dir, tmp_path, capsys):
    ann_path = annotation_files(dataset_dir)[0]
    ann = json.loads(ann_path.read_text())
    junk = [{"x": 1.0, "y": 1.0, "w": 2.0, "h": 2.0} for _ in range(120)]
    gt_positions = {}
    for i, obj in enumerate(ann["objects"]):
        index = 30 + 25 * i
        junk[index] = {k: obj[k] for k in ("x", "y", "w", "h")}
        gt_positions[index] = obj["category"]
    proposals_path = tmp_path / "props.jsonl"
    proposals_path.write_text("\n".join(json.dumps(p) for p in junk) + "\n")

    code = main(
        [
            "eval-proposals",
            "--proposals",
            str(proposals_path),
            "--image-annotation",
            str(ann_path),
            "--seed",
            "13",
            "--budget",
            "1000",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["completed"]

    from situsearch.seeding import stable_seed

    perm = list(
        np.random.default_rng(stable_seed(13, "eval-proposals", ann["image_id"])).permutation(
            len(junk)
        )
    )
    expected_last = max(perm.index(idx) + 1 for idx in gt_positions)
    assert doc["total_iterations"] == expected_last


def test_eval_proposals_rejects_an_empty_box_the_budget_never_draws(
    dataset_dir, tmp_path, capsys
):
    ann_path = annotation_files(dataset_dir)[0]
    bad = tmp_path / "bad.jsonl"
    good = json.dumps({"x": 1.0, "y": 1.0, "w": 2.0, "h": 2.0})
    bad.write_text("\n".join([good] * 3 + ['{"x": 1.0, "y": 1.0, "w": 0, "h": 2.0}'] + [good] * 2))
    for seed in range(6):
        args = ["--proposals", str(bad), "--image-annotation", str(ann_path), "--budget", "3"]
        assert main(["eval-proposals", *args, "--seed", str(seed)]) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl:4: box (1.0, 1.0, 0.0, 2.0) is empty or not finite" in err


def test_eval_proposals_malformed_line_exits_two(dataset_dir, tmp_path, capsys):
    ann_path = annotation_files(dataset_dir)[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"x": 1}\n')
    code = main(
        ["eval-proposals", "--proposals", str(bad), "--image-annotation", str(ann_path)]
    )
    assert code == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"x": "12.5", "y": 1.0, "w": 2.0, "h": 2.0}', "x must be a number, got '12.5'"),
        ('{"x": 1.0, "y": 1.0, "w": true, "h": 2.0}', "w must be a number, got True"),
        ('{"x": 1.0, "y": null, "w": 2.0, "h": 2.0}', "y must be a number, got None"),
    ],
    ids=["string", "bool", "null"],
)
def test_eval_proposals_reads_only_json_numbers(dataset_dir, tmp_path, capsys, line, message):
    ann_path = annotation_files(dataset_dir)[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"x": 1.0, "y": 1.0, "w": 2.0, "h": 2.0}) + "\n" + line + "\n")
    code = main(
        ["eval-proposals", "--proposals", str(bad), "--image-annotation", str(ann_path)]
    )
    assert code == 2
    assert f"bad.jsonl:2: bad proposal line ({message})" in capsys.readouterr().err


def numeric_options():
    """(subcommand, option) for every option the CLI parses as a number."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.option_strings[-1])
        for name, subparser in sub.choices.items()
        for action in subparser._actions
        if action.type in (int, float)
    ]


NUMERIC_OPTIONS = numeric_options()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize(
    "command, option", NUMERIC_OPTIONS, ids=[" ".join(o) for o in NUMERIC_OPTIONS]
)
def test_numeric_option_never_ends_in_a_traceback(
    dataset_dir, model_path, tmp_path, capsys, command, option, value
):
    ann = annotation_files(dataset_dir)[0]
    image = tmp_path / "image.pgm"
    write_pgm(image, np.random.default_rng(0).random((48, 64)))
    proposals = tmp_path / "proposals.jsonl"
    proposals.write_text(json.dumps({"x": 1.0, "y": 1.0, "w": 20.0, "h": 20.0}) + "\n")
    base = {
        "run": [
            *("--model", model_path, "--image-annotation", ann),
            *("--max-iter", 20, "--cell-size", 8),
        ],
        "bench": [
            *("--data", dataset_dir, "--out", tmp_path / "report", "--methods"),
            *("uniform-learned-none", "--folds", 2, "--max-iter", 5, "--cell-size", 8),
        ],
        "gen": ["--out", tmp_path / "gen", "--n", 2],
        "salience": ["--image", image, "--out", tmp_path / "image.sal", "--cell-size", 8],
        "eval-proposals": ["--proposals", proposals, "--image-annotation", ann, "--budget", 10],
    }
    # The option given last wins, so the value under test overrides the base's.
    argv = [command, *map(str, base[command]), option, value]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert len([line for line in err.splitlines() if "error: " in line]) == 1, err

from __future__ import annotations

import hashlib
import json
import weakref

import numpy as np
import pytest

from situsearch import charts
from situsearch.cli import main
from situsearch.datagen import save_annotation
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


def test_gen_accepts_config_file(dataset_dir, tmp_path):
    out = tmp_path / "replay"
    code = main(
        [
            "gen",
            "--out",
            str(out),
            "--n",
            "4",
            "--seed",
            "4",
            "--config",
            str(dataset_dir / "generator_config.json"),
        ]
    )
    assert code == 0
    originals = {p.name: p.read_bytes() for p in sorted(dataset_dir.glob("synthetic_0000*.json"))}
    for name in ("synthetic_00000.json", "synthetic_00003.json"):
        assert (out / name).read_bytes() == originals[name]


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
    ws = Workspace(categories)
    changes = 0
    for line in lines:
        box = line["box"]
        prop = ObjectProposal(line["category"], BoundingBox(box["cx"], box["cy"], box["w"], box["h"]))
        if ws.observe(prop, line["score"], line["iteration"]):
            changes += 1
    assert len(list(snaps.glob("*.svg"))) == changes


def test_run_snapshots_block_sum_each_map_once(dataset_dir, model_path, tmp_path, monkeypatch):
    # A map unchanged since the last change is shown again: its heatmap
    # cells come from the memo, and the SVG is the one drawn without it.
    heat_cells, snapshot_svg = charts._heat_cells, charts.workspace_snapshot_svg
    shown = weakref.WeakSet()
    panels = distinct = block_sums = 0

    def counting_heat_cells(grid):
        nonlocal block_sums
        block_sums += 1
        return heat_cells(grid)

    def checked_snapshot_svg(frame, ground_truth, workspace, dists, iteration):
        nonlocal panels, distinct
        svg = snapshot_svg(frame, ground_truth, workspace, dists, iteration)
        for dist in dists.values():
            if dist is not None:
                panels += 1
                distinct += dist.location not in shown
                shown.add(dist.location)
        with monkeypatch.context() as patched:
            patched.setattr(charts, "_coarse", lambda location: heat_cells(location.grid))
            assert svg == snapshot_svg(frame, ground_truth, workspace, dists, iteration)
        return svg

    monkeypatch.setattr(charts, "_heat_cells", counting_heat_cells)
    monkeypatch.setattr(charts, "workspace_snapshot_svg", checked_snapshot_svg)
    for method in ("uniform-learned-learned", "salience-learned-learned"):
        for i, ann in enumerate(annotation_files(dataset_dir)[:4]):
            snaps = tmp_path / f"{method}-{i}"
            args = ["run", "--model", str(model_path), "--image-annotation", str(ann)]
            args += ["--method", method, "--cell-size", "8", "--snapshots", str(snaps)]
            assert main(args) == 0
    assert block_sums == distinct < panels


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


def test_run_model_missing_box_prior_exits_one(dataset_dir, model_path, tmp_path, capsys):
    # Rejected when the model loads, for every method, not mid-search.
    doc = json.loads(model_path.read_text())
    del doc["box_priors"]["leash"]
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    ann = annotation_files(dataset_dir)[0]
    for method in ("uniform-learned-learned", "uniform-uniform-none"):
        args = ["run", "--model", str(bad), "--image-annotation", str(ann), "--method", method]
        assert main([*args, "--cell-size", "8"]) == 1
        assert "box_priors: missing 'leash'" in capsys.readouterr().err


def test_malformed_situate_jobs_fails_only_bench(dataset_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SITUATE_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--help"])
    assert exc.value.code == 0
    out = tmp_path / "model.json"
    assert main(["learn", "--data", str(dataset_dir), "--out", str(out)]) == 0
    assert main(["bench", "--data", str(dataset_dir), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "SITUATE_JOBS" in err and "'abc'" in err and "--jobs" not in err


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


def test_eval_proposals_malformed_line_exits_two(dataset_dir, tmp_path, capsys):
    ann_path = annotation_files(dataset_dir)[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"x": 1}\n')
    code = main(
        ["eval-proposals", "--proposals", str(bad), "--image-annotation", str(ann_path)]
    )
    assert code == 2
    assert "bad.jsonl:1" in capsys.readouterr().err

from __future__ import annotations

import itertools
import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situsearch.errors import InvalidInputError
from situsearch.evaluation import (
    METHOD_TOKENS,
    ExperimentReport,
    _config_to_dict,
    config_for_token,
    cumulative_curve,
    detection_interval_stats,
    emit_report,
    expand_method_spec,
    median_iterations,
    method_label,
    report_to_dict,
    run_experiment,
    summary_csv_text,
)
from situsearch.search import MethodConfig, RunResult


def result(order: list[tuple[str, int]], total: int, completed: bool) -> RunResult:
    return RunResult(
        detections={c: t for c, t in order},
        total_iterations=total,
        completed=completed,
        detection_order=order,
    )


# ---------------------------------------------------------------------------
# method tokens


def test_all_expands_to_full_matrix_in_order():
    tokens = expand_method_spec("all")
    assert tokens == list(METHOD_TOKENS)
    assert len(tokens) == 6


def test_labels_round_trip_through_tokens():
    for token, config in METHOD_TOKENS.items():
        assert method_label(config) == token
        assert config_for_token(token) == config


def test_method_label_is_one_to_one_on_valid_configs():
    labels = {}
    for location, box, model, prov in itertools.product(
        ("uniform", "salience"), ("uniform", "learned"), ("none", "learned"), (True, False)
    ):
        config = MethodConfig(
            location_prior=location, box_prior=box, situation_model=model, provisional_enabled=prov
        )
        label = method_label(config)
        assert label not in labels, f"{label} names both {labels.get(label)} and {config}"
        labels[label] = config
    assert len(labels) == 16
    assert set(METHOD_TOKENS) <= set(labels)


def config_block(location, box, model, prov=True, max_iterations=1000, cell_size=1.0):
    return {
        "location_prior": location,
        "box_prior": box,
        "situation_model": model,
        "provisional_enabled": prov,
        "provisional_threshold": 0.25,
        "final_threshold": 0.5,
        "max_iterations": max_iterations,
        "seed": 0,
        "cell_size": cell_size,
        "record_proposals": False,
    }


# The report's config block per token, as written before the thresholds,
# seed and proposal logging left MethodConfig.
CONFIG_BLOCKS = {
    "uniform-uniform-none": config_block("uniform", "uniform", "none"),
    "uniform-learned-none": config_block("uniform", "learned", "none"),
    "salience-uniform-none": config_block("salience", "uniform", "none"),
    "uniform-learned-learned": config_block("uniform", "learned", "learned"),
    "salience-learned-learned": config_block("salience", "learned", "learned_salience"),
    "salience-learned-learned-noprov": config_block(
        "salience", "learned", "learned_salience", prov=False
    ),
}


@pytest.mark.parametrize("token", list(METHOD_TOKENS))
def test_report_config_block_is_unchanged(token):
    config = config_for_token(token)
    assert _config_to_dict(config) == CONFIG_BLOCKS[token]
    overridden = replace(config, max_iterations=150, cell_size=8.0)
    assert _config_to_dict(overridden) == {
        **CONFIG_BLOCKS[token],
        "max_iterations": 150,
        "cell_size": 8.0,
    }


def test_invalid_token_lists_valid_ones():
    with pytest.raises(InvalidInputError, match="uniform-learned-learned"):
        config_for_token("psychic-mode")
    with pytest.raises(InvalidInputError):
        expand_method_spec("")


def test_spec_mixes_tokens_and_dedupes():
    tokens = expand_method_spec("uniform-uniform-none, uniform-uniform-none,all")
    assert tokens[0] == "uniform-uniform-none"
    assert len(tokens) == 6


# ---------------------------------------------------------------------------
# median with failures


@pytest.mark.parametrize(
    "values,expected",
    [
        ([10, 20, None], 20),
        ([None, None, 5], None),
        ([7], 7),
        ([1, 2, 3, 4], 2),  # even count: lower-middle
        ([None, 1], 1),
        ([None, None], None),
        ([3, 1, 2], 2),
    ],
)
def test_median_examples(values, expected):
    assert median_iterations(values) == expected


def test_median_rejects_empty():
    with pytest.raises(InvalidInputError):
        median_iterations([])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(st.none(), st.integers(1, 500)), min_size=1, max_size=40),
    seed=st.integers(0, 2**31),
)
def test_median_is_permutation_invariant(values, seed):
    shuffled = list(values)
    np.random.default_rng(seed).shuffle(shuffled)
    assert median_iterations(shuffled) == median_iterations(values)


# ---------------------------------------------------------------------------
# intervals


def test_interval_examples():
    runs = [result([("a", 5), ("b", 9), ("c", 30)], 30, True)]
    assert detection_interval_stats(runs) == (5, 4, 21)


def test_intervals_with_missing_detections():
    runs = [result([("a", 7)], 100, False)]
    assert detection_interval_stats(runs) == (7, None, None)
    runs = [result([], 100, False)]
    assert detection_interval_stats(runs) == (None, None, None)


def test_interval_sum_equals_total_on_completed_runs():
    rng = np.random.default_rng(8)
    for _ in range(300):
        t1 = int(rng.integers(1, 50))
        t2 = t1 + int(rng.integers(1, 50))
        t3 = t2 + int(rng.integers(1, 50))
        run = result([("a", t1), ("b", t2), ("c", t3)], t3, True)
        t01, t12, t23 = detection_interval_stats([run])
        assert t01 + t12 + t23 == run.total_iterations


# ---------------------------------------------------------------------------
# cumulative curve


def test_cumulative_all_complete_at_one():
    runs = [result([("a", 1)], 1, True)] * 4
    assert cumulative_curve(runs, 3) == [4, 4, 4]


def test_cumulative_all_failures_is_zero():
    runs = [result([], 50, False)] * 3
    assert cumulative_curve(runs, 4) == [0, 0, 0, 0]


def test_cumulative_steps_at_completions():
    runs = [
        result([("a", 3)], 3, True),
        result([("a", 3)], 3, True),
        result([("a", 7)], 7, True),
    ]
    assert cumulative_curve(runs, 8) == [0, 0, 2, 2, 2, 2, 3, 3]


def test_cumulative_final_value_plus_failures_is_total():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        max_iter = int(rng.integers(5, 60))
        runs = []
        for _ in range(n):
            if rng.random() < 0.4:
                runs.append(result([], max_iter, False))
            else:
                t = int(rng.integers(1, max_iter + 1))
                runs.append(result([("a", t)], t, True))
        curve = cumulative_curve(runs, max_iter)
        failures = sum(1 for r in runs if not r.completed)
        assert curve[-1] + failures == n
        assert all(curve[i] <= curve[i + 1] for i in range(len(curve) - 1))


# ---------------------------------------------------------------------------
# run_experiment


@pytest.fixture(scope="module")
def tiny_report(small_synthetic_dataset):
    dataset = small_synthetic_dataset[:30]
    return run_experiment(
        dataset,
        ["uniform-uniform-none", "uniform-learned-learned"],
        k=3,
        master_seed=5,
        max_iterations=80,
        cell_size=8.0,
    )


def test_experiment_is_deterministic(small_synthetic_dataset, tiny_report):
    again = run_experiment(
        small_synthetic_dataset[:30],
        ["uniform-uniform-none", "uniform-learned-learned"],
        k=3,
        master_seed=5,
        max_iterations=80,
        cell_size=8.0,
    )
    assert report_to_dict(again) == report_to_dict(tiny_report)


def test_experiment_pools_all_folds(tiny_report):
    for m in tiny_report.methods:
        assert len(m.runs) == 30
        assert sorted({r.fold for r in m.runs}) == [0, 1, 2]
        assert m.failure_count == sum(1 for r in m.runs if not r.completed)
        assert len(m.cumulative) == m.config.max_iterations
        assert m.cumulative[-1] + m.failure_count == len(m.runs)


def test_experiment_parallel_matches_serial(small_synthetic_dataset, tiny_report):
    parallel = run_experiment(
        small_synthetic_dataset[:30],
        ["uniform-uniform-none", "uniform-learned-learned"],
        k=3,
        master_seed=5,
        max_iterations=80,
        cell_size=8.0,
        jobs=2,
    )
    assert report_to_dict(parallel) == report_to_dict(tiny_report)


def test_single_iteration_budget_all_fail(small_synthetic_dataset):
    report = run_experiment(
        small_synthetic_dataset[:20],
        ["uniform-uniform-none"],
        k=2,
        master_seed=1,
        max_iterations=1,
        cell_size=8.0,
    )
    method = report.methods[0]
    assert method.failure_count == 20
    assert method.median is None
    assert method.interval_medians == (None, None, None)


def test_salience_method_runs_on_rendered_images(small_synthetic_dataset):
    report = run_experiment(
        small_synthetic_dataset[:20],
        ["salience-learned-learned"],
        k=2,
        master_seed=2,
        max_iterations=40,
        cell_size=8.0,
    )
    assert len(report.methods[0].runs) == 20


def test_duplicate_methods_rejected(small_synthetic_dataset):
    with pytest.raises(InvalidInputError):
        run_experiment(
            small_synthetic_dataset[:20],
            ["uniform-uniform-none", "uniform-uniform-none"],
            k=2,
        )


# ---------------------------------------------------------------------------
# report emission


def test_report_round_trips_through_reader(tiny_report, tmp_path):
    """Reading report.json back as JSON gives exactly report_to_dict's content."""
    emit_report(tiny_report, tmp_path)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded == json.loads(json.dumps(report_to_dict(tiny_report)))


def test_emitted_files_are_byte_identical_across_runs(
    small_synthetic_dataset, tiny_report, tmp_path
):
    again = run_experiment(
        small_synthetic_dataset[:30],
        ["uniform-uniform-none", "uniform-learned-learned"],
        k=3,
        master_seed=5,
        max_iterations=80,
        cell_size=8.0,
    )
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    emit_report(tiny_report, dir_a)
    emit_report(again, dir_b)
    for name in ("report.json", "summary.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_summary_csv_shape(tiny_report):
    lines = summary_csv_text(tiny_report).strip().splitlines()
    assert lines[0] == "method,median,failures,t01,t12,t23"
    assert len(lines) == 1 + len(tiny_report.methods)
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_svgs_are_well_formed_xml(tiny_report, tmp_path):
    paths = emit_report(tiny_report, tmp_path)
    svgs = [p for p in paths if p.suffix == ".svg"]
    assert len(svgs) >= 3
    for path in svgs:
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")


def test_empty_method_list_report_is_valid(tmp_path):
    report = ExperimentReport(
        master_seed=0, folds=0, num_images=0, categories=[], methods=[]
    )
    emit_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["methods"] == []
    ET.fromstring((tmp_path / "medians_bar.svg").read_text())

"""Cross-validated benchmark harness and its summary statistics.

The headline metric is the median number of proposal evaluations per image
to a completed situation detection. Medians are taken with failures ranked
above every finite count, so a method that fails on most images reports
"Failure" rather than a misleading finite number; even-sized samples take
the lower-middle order statistic so the result is always an observed value.

Per-run seeds derive from (master seed, method label, fold, image id)
through a stable hash, so runs are independent work items: adding a method
or reordering execution never perturbs any other run's random stream.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# workspace_snapshot_svg is unused here; the benchmark tracer patches this module attribute.
from .charts import bar_chart_svg, grouped_bar_svg, line_chart_svg, workspace_snapshot_svg
from .datagen import SituationAnnotation, render_annotation_image, split_folds
from .errors import InvalidInputError
from .geometry import normalize_frame
from .images import read_pnm
from .salience import SalienceMap, compute_salience
from .search import (
    BOX_LEARNED,
    BOX_UNIFORM,
    FINAL_THRESHOLD,
    LOCATION_SALIENCE,
    LOCATION_UNIFORM,
    MODEL_LEARNED,
    MODEL_NONE,
    PROVISIONAL_THRESHOLD,
    MethodConfig,
    RunResult,
    run_image,
)
from .seeding import stable_seed
from .situation_model import learn

REPORT_FORMAT_VERSION = 1

# Canonical method tokens, ordered as reported.
METHOD_TOKENS: dict[str, MethodConfig] = {
    "uniform-uniform-none": MethodConfig(
        location_prior=LOCATION_UNIFORM, box_prior=BOX_UNIFORM, situation_model=MODEL_NONE
    ),
    "uniform-learned-none": MethodConfig(
        location_prior=LOCATION_UNIFORM, box_prior=BOX_LEARNED, situation_model=MODEL_NONE
    ),
    "salience-uniform-none": MethodConfig(
        location_prior=LOCATION_SALIENCE, box_prior=BOX_UNIFORM, situation_model=MODEL_NONE
    ),
    "uniform-learned-learned": MethodConfig(
        location_prior=LOCATION_UNIFORM, box_prior=BOX_LEARNED, situation_model=MODEL_LEARNED
    ),
    "salience-learned-learned": MethodConfig(
        location_prior=LOCATION_SALIENCE, box_prior=BOX_LEARNED, situation_model=MODEL_LEARNED
    ),
    "salience-learned-learned-noprov": MethodConfig(
        location_prior=LOCATION_SALIENCE,
        box_prior=BOX_LEARNED,
        situation_model=MODEL_LEARNED,
        provisional_enabled=False,
    ),
}


def method_label(config: MethodConfig) -> str:
    """Render a config as its Fig-style token."""
    label = f"{config.location_prior}-{config.box_prior}-{config.situation_model}"
    if not config.provisional_enabled:
        label += "-noprov"
    return label


def config_for_token(token: str) -> MethodConfig:
    if token not in METHOD_TOKENS:
        raise InvalidInputError(
            f"unknown method token {token!r}; valid tokens: "
            + ", ".join(["all", *METHOD_TOKENS])
        )
    return METHOD_TOKENS[token]


def expand_method_spec(spec: str) -> list[str]:
    """Comma-separated tokens, with "all" expanding to the full matrix."""
    tokens: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            tokens.extend(t for t in METHOD_TOKENS if t not in tokens)
        else:
            config_for_token(part)
            if part not in tokens:
                tokens.append(part)
    if not tokens:
        raise InvalidInputError("empty method spec")
    return tokens


# ---------------------------------------------------------------------------
# Statistics


def median_iterations(values: Iterable[int | None]) -> int | None:
    """Median with failures (None) ranked above every finite count.

    Even-sized inputs take the lower-middle order statistic. Returns None
    (Failure) when the median rank lands on a failure.
    """
    items = list(values)
    if not items:
        raise InvalidInputError("median of an empty result list")
    items.sort(key=lambda v: (v is None, v if v is not None else 0))
    return items[(len(items) - 1) // 2]


def _intervals(result) -> tuple[int | None, int | None, int | None]:
    order = result.detection_order
    t01 = order[0][1] if len(order) >= 1 else None
    t12 = order[1][1] - order[0][1] if len(order) >= 2 else None
    t23 = order[2][1] - order[1][1] if len(order) >= 3 else None
    return t01, t12, t23


def detection_interval_stats(results: Sequence) -> tuple[int | None, int | None, int | None]:
    """Medians of per-image times to first, first-to-second, second-to-third."""
    if not results:
        raise InvalidInputError("interval stats of an empty result list")
    per_image = [_intervals(r) for r in results]
    return (
        median_iterations(t[0] for t in per_image),
        median_iterations(t[1] for t in per_image),
        median_iterations(t[2] for t in per_image),
    )


def cumulative_curve(results: Sequence, max_iterations: int) -> list[int]:
    """curve[n-1] = number of runs completed within n or fewer iterations."""
    if not results:
        raise InvalidInputError("cumulative curve of an empty result list")
    completions = sorted(r.total_iterations for r in results if r.completed)
    curve = []
    done = 0
    for n in range(1, max_iterations + 1):
        while done < len(completions) and completions[done] <= n:
            done += 1
        curve.append(done)
    return curve


# ---------------------------------------------------------------------------
# Experiment harness


@dataclass
class RunRecord:
    """One method's outcome on one test image."""

    image_id: str
    fold: int
    width: int
    height: int
    completed: bool
    total_iterations: int
    detections: dict[str, int | None]
    detection_order: list[tuple[str, int]]


@dataclass
class MethodResult:
    label: str
    config: MethodConfig
    runs: list[RunRecord]
    median: int | None
    failure_count: int
    interval_medians: tuple[int | None, int | None, int | None]
    cumulative: list[int]


@dataclass
class ExperimentReport:
    master_seed: int
    folds: int
    num_images: int
    categories: list[str]
    methods: list[MethodResult]


def _record_from_result(ann: SituationAnnotation, fold: int, result: RunResult) -> RunRecord:
    return RunRecord(
        image_id=ann.image_id,
        fold=fold,
        width=ann.width,
        height=ann.height,
        completed=result.completed,
        total_iterations=result.total_iterations,
        detections=dict(result.detections),
        detection_order=list(result.detection_order),
    )


def salience_for_annotation(
    ann: SituationAnnotation, cell_size: float = 1.0
) -> SalienceMap:
    """Salience from the annotation's image file, or its rendering when absent."""
    frame = normalize_frame(ann.width, ann.height)
    if ann.image_path and Path(ann.image_path).exists():
        image = read_pnm(ann.image_path)
    else:
        image = render_annotation_image(ann)
    return compute_salience(image, frame, cell_size)


def _run_work_item(args) -> tuple[tuple[int, str], list[tuple[str, RunRecord]]]:
    fold_idx, ann, model, labeled_configs, master_seed = args
    salience_cache: dict[float, SalienceMap] = {}
    out = []
    for label, config in labeled_configs:
        salience = None
        if config.needs_salience:
            if config.cell_size not in salience_cache:
                salience_cache[config.cell_size] = salience_for_annotation(ann, config.cell_size)
            salience = salience_cache[config.cell_size]
        # The 0 is part of every run's seed key; the pinned reports depend on it.
        rng = np.random.default_rng(stable_seed(master_seed, 0, label, fold_idx, ann.image_id))
        result = run_image(model, salience, config, ann, rng)
        out.append((label, _record_from_result(ann, fold_idx, result)))
    return (fold_idx, ann.image_id), out


def run_experiment(
    dataset: Sequence[SituationAnnotation],
    methods: Sequence[MethodConfig | str],
    k: int = 10,
    master_seed: int = 0,
    jobs: int = 1,
    max_iterations: int | None = None,
    cell_size: float | None = None,
    progress=None,
) -> ExperimentReport:
    """Learn per fold, run every method on every test image, pool across folds.

    ``methods`` may mix MethodConfig instances and token strings.
    ``max_iterations`` and ``cell_size``, when given, override every method.
    """
    labeled: list[tuple[str, MethodConfig]] = []
    for m in methods:
        config = config_for_token(m) if isinstance(m, str) else m
        if max_iterations is not None:
            config = replace(config, max_iterations=max_iterations)
        if cell_size is not None:
            config = replace(config, cell_size=cell_size)
        label = method_label(config)
        if any(label == seen for seen, _ in labeled):
            raise InvalidInputError(f"duplicate method label {label!r}")
        labeled.append((label, config))
    if not labeled:
        raise InvalidInputError("no methods given")

    folds = split_folds(dataset, k=k, seed=master_seed)
    work = []
    categories: list[str] | None = None
    for fold_idx, (train_idx, test_idx) in enumerate(folds):
        model = learn([dataset[i] for i in train_idx])
        categories = list(model.categories)
        for i in test_idx:
            work.append((fold_idx, dataset[i], model, labeled, master_seed))

    collected: dict[tuple[int, str], list[tuple[str, RunRecord]]] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, records in pool.map(_run_work_item, work, chunksize=4):
                collected[key] = records
                if progress is not None:
                    progress(len(collected), len(work))
    else:
        for item in work:
            key, records = _run_work_item(item)
            collected[key] = records
            if progress is not None:
                progress(len(collected), len(work))

    per_method: dict[str, list[RunRecord]] = {label: [] for label, _ in labeled}
    for fold_idx, (_, test_idx) in enumerate(folds):
        for i in test_idx:
            for label, record in collected[(fold_idx, dataset[i].image_id)]:
                per_method[label].append(record)

    method_results = []
    for label, config in labeled:
        runs = per_method[label]
        values = [r.total_iterations if r.completed else None for r in runs]
        method_results.append(
            MethodResult(
                label=label,
                config=config,
                runs=runs,
                median=median_iterations(values),
                failure_count=sum(1 for r in runs if not r.completed),
                interval_medians=detection_interval_stats(runs),
                cumulative=cumulative_curve(runs, config.max_iterations),
            )
        )
    return ExperimentReport(
        master_seed=master_seed,
        folds=k,
        num_images=len(dataset),
        categories=categories or [],
        methods=method_results,
    )


# ---------------------------------------------------------------------------
# Report emission


def _config_to_dict(config: MethodConfig) -> dict:
    # The block keeps its first format: fixed values for the thresholds, the seed
    # and proposal logging, and "learned_salience" for a conditioned salience method.
    model = config.situation_model
    if model == MODEL_LEARNED and config.needs_salience:
        model = "learned_salience"
    return {
        "location_prior": config.location_prior,
        "box_prior": config.box_prior,
        "situation_model": model,
        "provisional_enabled": config.provisional_enabled,
        "provisional_threshold": PROVISIONAL_THRESHOLD,
        "final_threshold": FINAL_THRESHOLD,
        "max_iterations": config.max_iterations,
        "seed": 0,
        "cell_size": config.cell_size,
        "record_proposals": False,
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "master_seed": report.master_seed,
        "folds": report.folds,
        "num_images": report.num_images,
        "categories": report.categories,
        "methods": [
            {
                "label": m.label,
                "config": _config_to_dict(m.config),
                "median_iterations": m.median,
                "failure_count": m.failure_count,
                "interval_medians": list(m.interval_medians),
                "cumulative_curve": m.cumulative,
                "runs": [
                    {
                        "image_id": r.image_id,
                        "fold": r.fold,
                        "width": r.width,
                        "height": r.height,
                        "completed": r.completed,
                        "total_iterations": r.total_iterations,
                        "detections": r.detections,
                        "detection_order": [[c, t] for c, t in r.detection_order],
                    }
                    for r in m.runs
                ],
            }
            for m in report.methods
        ],
    }


def _fmt(value: int | None) -> str:
    return "Failure" if value is None else str(value)


def summary_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "median", "failures", "t01", "t12", "t23"])
    for m in report.methods:
        t01, t12, t23 = m.interval_medians
        writer.writerow([m.label, _fmt(m.median), m.failure_count, _fmt(t01), _fmt(t12), _fmt(t23)])
    return buf.getvalue()


def emit_report(report: ExperimentReport, directory: str | Path) -> list[Path]:
    """Write report.json, summary.csv, and the SVG plots; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    path = directory / "report.json"
    path.write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")
    written.append(path)

    path = directory / "summary.csv"
    path.write_text(summary_csv_text(report))
    written.append(path)

    path = directory / "medians_bar.svg"
    path.write_text(
        bar_chart_svg(
            [(m.label, m.median) for m in report.methods],
            title="Median proposals to a completed situation detection",
            value_label="median iterations per image",
        )
    )
    written.append(path)

    max_iter = max((m.config.max_iterations for m in report.methods), default=1)
    path = directory / "cumulative_curves.svg"
    path.write_text(
        line_chart_svg(
            [(m.label, m.cumulative) for m in report.methods],
            title="Completed situation detections within n iterations",
            x_label="iterations (n)",
            y_label="completed test images",
            y_max=max((len(m.runs) for m in report.methods), default=1),
        )
    )
    written.append(path)

    path = directory / "interval_bars.svg"
    path.write_text(
        grouped_bar_svg(
            [(m.label, list(m.interval_medians)) for m in report.methods],
            bar_names=["t01", "t12", "t23"],
            title="Median iterations between successive detections",
            value_label="median iterations",
            failure_height=max_iter,
        )
    )
    written.append(path)
    return written

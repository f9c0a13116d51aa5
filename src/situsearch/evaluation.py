"""Cross-validated benchmark harness and its summary statistics.

The headline metric is the median number of proposal evaluations per image
to a completed situation detection. Medians are taken with failures ranked
above every finite count, so a method that fails on most images reports
"Failure" rather than a misleading finite number; even-sized samples take
the lower-middle order statistic so the result is always an observed value.

Per-run seeds derive from (master seed, method token, fold, image id)
through a stable hash, so runs are independent work items: adding a method
or reordering execution never perturbs any other run's random stream.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# workspace_snapshot_svg is unused here; the benchmark tracer patches this module attribute.
from .charts import bar_chart_svg, grouped_bar_svg, line_chart_svg, workspace_snapshot_svg
from .datagen import SituationAnnotation, render_annotation_image, split_folds
from .errors import InvalidInputError
from .gaussian import LocationMap
from .geometry import normalize_frame
from .images import read_pnm
from .salience import compute_salience
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
    image_frame,
    run_image,
)
from .seeding import stable_seed
from .situation_model import DEFAULT_CATEGORIES, learn

REPORT_FORMAT_VERSION = 1

def method_label(config: MethodConfig) -> str:
    """Render a config as its Fig-style token."""
    label = f"{config.location_prior}-{config.box_prior}-{config.situation_model}"
    if not config.provisional_enabled:
        label += "-noprov"
    return label


# Canonical method tokens, ordered as reported; each token is its config's label.
METHOD_TOKENS: dict[str, MethodConfig] = {
    method_label(config): config
    for config in (
        MethodConfig(LOCATION_UNIFORM, BOX_UNIFORM, MODEL_NONE),
        MethodConfig(LOCATION_UNIFORM, BOX_LEARNED, MODEL_NONE),
        MethodConfig(LOCATION_SALIENCE, BOX_UNIFORM, MODEL_NONE),
        MethodConfig(LOCATION_UNIFORM, BOX_LEARNED, MODEL_LEARNED),
        MethodConfig(LOCATION_SALIENCE, BOX_LEARNED, MODEL_LEARNED),
        MethodConfig(LOCATION_SALIENCE, BOX_LEARNED, MODEL_LEARNED, provisional_enabled=False),
    )
}


def config_for_token(
    token: str, max_iterations: int | None = None, cell_size: float | None = None
) -> MethodConfig:
    """The token's method, with the budget and grid overridden where given."""
    if token not in METHOD_TOKENS:
        raise InvalidInputError(
            f"unknown method token {token!r}; valid tokens: "
            + ", ".join(METHOD_TOKENS)
        )
    config = METHOD_TOKENS[token]
    if max_iterations is not None:
        config = replace(config, max_iterations=max_iterations)
    if cell_size is not None:
        config = replace(config, cell_size=cell_size)
    return config


def expand_method_spec(spec: str) -> list[str]:
    """Comma-separated tokens, with "all" expanding to the full matrix."""
    tokens: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            tokens.extend(t for t in METHOD_TOKENS if t not in tokens)
        elif part not in METHOD_TOKENS:
            raise InvalidInputError(
                f"unknown method token {part!r}; valid tokens: all, " + ", ".join(METHOD_TOKENS)
            )
        elif part not in tokens:
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
class RunRecord(RunResult):
    """One method's outcome on one test image."""

    image_id: str
    fold: int
    width: int
    height: int


@dataclass
class MethodResult:
    """One method's runs, pooled across folds; its statistics derive from them."""

    config: MethodConfig
    runs: list[RunRecord]

    @property
    def label(self) -> str:
        return method_label(self.config)

    @property
    def median(self) -> int | None:
        return median_iterations(r.total_iterations if r.completed else None for r in self.runs)

    @property
    def failure_count(self) -> int:
        return sum(not r.completed for r in self.runs)

    @property
    def interval_medians(self) -> tuple[int | None, int | None, int | None]:
        return detection_interval_stats(self.runs)

    @property
    def cumulative(self) -> list[int]:
        return cumulative_curve(self.runs, self.config.max_iterations)


@dataclass
class ExperimentReport:
    """Every method's runs; a method runs each image once, in its fold, so they count both."""

    master_seed: int
    methods: list[MethodResult]

    @property
    def folds(self) -> int:
        return len({r.fold for r in self.methods[0].runs}) if self.methods else 0

    @property
    def num_images(self) -> int:
        return len(self.methods[0].runs) if self.methods else 0


def salience_for_annotation(ann: SituationAnnotation, cell_size: float = 1.0) -> LocationMap:
    """Salience from the annotation's image file, or its rendering when it names none.

    An image file that salience rejects (such as one whose size differs from
    the annotation's) is named in the error, along with the annotation.
    """
    frame = normalize_frame(ann.width, ann.height)
    if not ann.image_path:
        return compute_salience(render_annotation_image(ann), frame, cell_size)
    image = read_pnm(ann.image_path)
    try:
        return compute_salience(image, frame, cell_size)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{ann.image_path}: annotation {ann.image_id!r}: {exc}") from exc


def _run_work_item(args) -> list[RunRecord]:
    fold_idx, ann, model, configs, master_seed = args
    where = {"image_id": ann.image_id, "fold": fold_idx, "width": ann.width, "height": ann.height}
    # Every method of one experiment shares one cell size, so one map serves them all.
    salience = None
    records = []
    for token, config in configs.items():
        if config.needs_salience and salience is None:
            salience = salience_for_annotation(ann, config.cell_size)
        # The 0 is part of every run's seed key; the pinned reports depend on it.
        rng = np.random.default_rng(stable_seed(master_seed, 0, token, fold_idx, ann.image_id))
        result = run_image(model, salience, config, ann, rng)
        records.append(RunRecord(**vars(result), **where))
    return records


def run_experiment(
    dataset: Sequence[SituationAnnotation],
    methods: Sequence[str],
    k: int = 10,
    master_seed: int = 0,
    jobs: int = 1,
    max_iterations: int | None = None,
    cell_size: float | None = None,
    progress=None,
) -> ExperimentReport:
    """Learn per fold, run every method on every test image, pool across folds.

    ``methods`` are method tokens. ``max_iterations`` and ``cell_size``,
    when given, override every method.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    configs = {token: config_for_token(token, max_iterations, cell_size) for token in methods}
    if len(configs) < len(methods):
        raise InvalidInputError(f"duplicate method token in {list(methods)}")
    if not configs:
        raise InvalidInputError("no methods given")
    for ann in dataset:  # a frame too small for the methods' one cell size fails before learning
        image_frame(ann, configs[methods[0]].cell_size)

    work = []
    for fold_idx, (train_idx, test_idx) in enumerate(split_folds(dataset, k=k, seed=master_seed)):
        model = learn([dataset[i] for i in train_idx])
        work += [(fold_idx, dataset[i], model, configs, master_seed) for i in test_idx]

    # Results come back in work order, folds then test images, as they are pooled.
    runs: dict[str, list[RunRecord]] = {token: [] for token in configs}
    workers = min(jobs, len(work))  # a pool starts every worker at once
    if workers > 1:  # only a pool needs multiprocessing, which is slow to import
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = pool.map(_run_work_item, work, chunksize=4) if pool else map(_run_work_item, work)
        for done, records in enumerate(results, start=1):
            for token, record in zip(configs, records):
                runs[token].append(record)
            if progress is not None:
                progress(done, len(work))
    methods = [MethodResult(config, runs[token]) for token, config in configs.items()]
    return ExperimentReport(master_seed, methods)


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
        "categories": list(DEFAULT_CATEGORIES),
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
                        **r.to_dict(),
                        "image_id": r.image_id,
                        "fold": r.fold,
                        "width": r.width,
                        "height": r.height,
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
    texts = {
        "report.json": json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        "summary.csv": summary_csv_text(report),
        "medians_bar.svg": bar_chart_svg(
            [(m.label, m.median) for m in report.methods],
            title="Median proposals to a completed situation detection",
            value_label="median iterations per image",
        ),
        "cumulative_curves.svg": line_chart_svg(
            [(m.label, m.cumulative) for m in report.methods],
            title="Completed situation detections within n iterations",
            x_label="iterations (n)",
            y_label="completed test images",
            y_max=max((len(m.runs) for m in report.methods), default=1),
        ),
        "interval_bars.svg": grouped_bar_svg(
            [(m.label, list(m.interval_medians)) for m in report.methods],
            bar_names=["t01", "t12", "t23"],
            title="Median iterations between successive detections",
            value_label="median iterations",
            failure_height=max((m.config.max_iterations for m in report.methods), default=1),
        ),
    }
    for name, text in texts.items():
        (directory / name).write_text(text)
    return [directory / name for name in texts]

"""Span tracing of the situsearch layers from outside the library.

For the length of one traced pass, module and class attributes are replaced
at the places their callers look them up (``situsearch.search.iou`` is the
name ``score_proposal`` resolves, not ``situsearch.geometry.iou``) by timing
wrappers. Every wrapped call records a span: id, name, start, end, parent span
and the id of the search run it belongs to. Spans stay in memory and are
written out once, after the pass; calls, total time and self time (duration
minus the time covered by child spans) are aggregated as spans close.

Besides timing, a few wrappers keep counts the layers do not expose:
conditioned maps built and later sampled (by a serial number held in a
weak-keyed table, so a map's identity survives garbage collection of others),
Workspace changes, rasterized cells, report and snapshot bytes, and the
entropy of each location map grouped by how many other detections
conditioned it. Entropy is computed with the trace clock paused, so it adds
to neither the spans nor the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref
from array import array
from pathlib import Path
from statistics import median

import numpy as np

# (owner, attribute, span name). The owner is a module, or a class given as
# "module:Class"; the span name is "<defining module>.<function>".
CALL_SITES = [
    ("situsearch.cli", "main", "cli.main"),
    ("situsearch.cli", "generate_synthetic", "datagen.generate_synthetic"),
    ("situsearch.cli", "render_annotation_image", "datagen.render_annotation_image"),
    ("situsearch.cli", "learn", "situation_model.learn"),
    ("situsearch.cli", "load_annotation", "datagen.load_annotation"),
    ("situsearch.cli", "run_image", "search.run_image"),
    ("situsearch.charts", "workspace_snapshot_svg", "charts.workspace_snapshot_svg"),
    ("situsearch.datagen", "generate_synthetic", "datagen.generate_synthetic"),
    ("situsearch.datagen", "load_annotation", "datagen.load_annotation"),
    ("situsearch.evaluation", "run_experiment", "evaluation.run_experiment"),
    ("situsearch.evaluation", "emit_report", "evaluation.emit_report"),
    ("situsearch.evaluation", "split_folds", "datagen.split_folds"),
    ("situsearch.evaluation", "learn", "situation_model.learn"),
    ("situsearch.evaluation", "render_annotation_image", "datagen.render_annotation_image"),
    ("situsearch.evaluation", "read_pnm", "images.read_pnm"),
    ("situsearch.evaluation", "compute_salience", "salience.compute_salience"),
    ("situsearch.evaluation", "run_image", "search.run_image"),
    ("situsearch.evaluation", "workspace_snapshot_svg", "charts.workspace_snapshot_svg"),
    ("situsearch.search", "uniform_map", "gaussian.uniform_map"),
    ("situsearch.search", "sample_proposal", "search.sample_proposal"),
    ("situsearch.search", "score_proposal", "search.score_proposal"),
    ("situsearch.search", "box_from_descriptor", "situation_model.box_from_descriptor"),
    ("situsearch.search", "crop_to_frame", "geometry.crop_to_frame"),
    ("situsearch.search", "iou", "geometry.iou"),
    ("situsearch.search", "conditioned_distribution", "situation_model.conditioned_distribution"),
    ("situsearch.search", "combine", "salience.combine"),
    ("situsearch.situation_model", "uniform_map", "gaussian.uniform_map"),
    ("situsearch.situation_model", "condition", "gaussian.condition"),
    ("situsearch.situation_model", "rasterize_2d", "gaussian.rasterize_2d"),
    ("situsearch.gaussian:MultivariateGaussian", "pdf_grid", "gaussian.pdf_grid"),
    ("situsearch.gaussian:LocationMap", "sample_point", "gaussian.sample_point"),
]

# Functions whose spans can contain other spans; these also report self time.
NESTING = [
    "cli.main",
    "evaluation.run_experiment",
    "search.run_image",
    "search.sample_proposal",
    "search.score_proposal",
    "situation_model.conditioned_distribution",
    "gaussian.rasterize_2d",
]

TIMED = sorted({name for _, _, name in CALL_SITES})


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def entropy_bits(grid: np.ndarray) -> float:
    p = grid[grid > 0]
    return float(-(p * np.log2(p)).sum())


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = TIMED
        self._nid = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.total = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        # Span table: a span's id is its row, allocated when the call starts.
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # open spans: [time covered by children, row]
        self._pause = [0.0]  # seconds the clock has been stopped for
        self._run = [0]  # current run id; 0 means outside any search run
        self.runs = [("", "", -1, "")]  # run id -> (workload, method, fold, image id)
        self._fold_of: dict[str, int] = {}
        self._map_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.maps_built = 0
        self._sampled: set[int] = set()
        self.entropies: dict[int, list[float]] = {0: [], 1: [], 2: []}
        self.workspace_changes = 0
        self.cells_rasterized = 0
        self.report_bytes = 0
        self.snapshot_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._pause[0]

    def _paused(self, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._pause[0] += time.perf_counter() - t

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from situsearch import evaluation, search

        self._method_label = evaluation.method_label
        posts = {
            "datagen.split_folds": self._post_split_folds,
            "situation_model.conditioned_distribution": self._post_conditioned,
            "salience.combine": self._post_combine,
            "gaussian.sample_point": self._post_sample_point,
            "gaussian.rasterize_2d": self._post_rasterize,
            "gaussian.uniform_map": self._post_prior_map,
            "salience.compute_salience": self._post_prior_map,
            "charts.workspace_snapshot_svg": self._post_snapshot,
            "evaluation.emit_report": self._post_emit_report,
        }
        for spec, attr, name in CALL_SITES:
            owner = _owner(spec)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if name == "search.run_image":
                wrapper = self._wrap_run_image(self._nid[name], original)
            else:
                wrapper = self._wrap(self._nid[name], original, posts.get(name))
            setattr(owner, attr, wrapper)
        observe = search.Workspace.observe
        self._saved.append((search.Workspace, "observe", observe))
        search.Workspace.observe = self._count_changes(observe)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers --------------------------------------------------------

    def _wrap(self, nid: int, fn, post=None):
        stack, pause, run, perf = self._stack, self._pause, self._run, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            row = len(names)
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            runs.append(run[0])
            frame = [0.0, row]
            stack.append(frame)
            t0 = perf() - pause[0]
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf() - pause[0]
                ends[row] = t1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[0]
            if post is not None:
                post(result, args, kwargs)
            return result

        return wrapper

    def _wrap_run_image(self, nid: int, fn):
        inner = self._wrap(nid, fn)

        def run_image(model, salience, config, annotation, rng, *args, **kwargs):
            self.runs.append(
                (
                    self.workload,
                    self._method_label(config),
                    self._fold_of.get(annotation.image_id, -1),
                    annotation.image_id,
                )
            )
            self._run[0] = len(self.runs) - 1
            try:
                return inner(model, salience, config, annotation, rng, *args, **kwargs)
            finally:
                self._run[0] = 0

        return run_image

    def _count_changes(self, observe):
        def wrapper(*args, **kwargs):
            changed = observe(*args, **kwargs)
            if changed:
                self.workspace_changes += 1
            return changed

        return wrapper

    # -- per-call bookkeeping -------------------------------------------

    # The wrapped call sites pass these arguments positionally.

    def _post_split_folds(self, folds, args, kwargs):
        dataset = args[0]
        self._fold_of = {
            dataset[i].image_id: fold for fold, (_, test) in enumerate(folds) for i in test
        }

    def _post_conditioned(self, dist, args, kwargs):
        _, category, detections = args[:3]
        given = sum(1 for c in detections if c != category)
        self.maps_built += 1
        self._map_serial[dist.location] = self.maps_built
        self.entropies[min(given, 2)].append(self._paused(entropy_bits, dist.location.grid))

    def _post_combine(self, combined, args, kwargs):
        serial = self._map_serial.get(args[0])
        if serial is not None:
            self._map_serial[combined] = serial

    def _post_sample_point(self, point, args, kwargs):
        serial = self._map_serial.get(args[0])
        if serial is not None:
            self._sampled.add(serial)

    def _post_rasterize(self, location, args, kwargs):
        self.cells_rasterized += location.grid.size

    def _post_prior_map(self, location, args, kwargs):
        self.entropies[0].append(self._paused(entropy_bits, location.grid))

    def _post_snapshot(self, svg, args, kwargs):
        self.snapshot_bytes += len(svg.encode())

    def _post_emit_report(self, written, args, kwargs):
        self.report_bytes += sum(p.stat().st_size for p in written if p.name == "report.json")

    # -- results ---------------------------------------------------------

    @property
    def maps_sampled(self) -> int:
        return len(self._sampled)

    def layer_metrics(self, proposals: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.names:
            i = self._nid[name]
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.s"] = (self.total[i], "s")
            if name in NESTING:
                out[f"{name}.self_s"] = (self.self_time[i], "s")
        sample_score = out["search.sample_proposal.s"][0] + out["search.score_proposal.s"][0]
        raster_overhead = out["gaussian.rasterize_2d.s"][0] - out["gaussian.pdf_grid.s"][0]
        built, sampled = self.maps_built, self.maps_sampled
        out.update({
            "search.proposals": (proposals, "count"),
            "search.workspace_changes": (self.workspace_changes, "count"),
            "search.proposal_us": (1e6 * sample_score / proposals if proposals else 0.0, "us"),
            "gaussian.rasterize_overhead_s": (raster_overhead, "s"),
            "gaussian.cells_rasterized_computed": (self.cells_rasterized, "count"),
            "situation_model.maps_built": (built, "count"),
            "situation_model.maps_sampled": (sampled, "count"),
            "situation_model.map_use_ratio": (sampled / built if built else 0.0, "ratio"),
            "evaluation.report_bytes": (self.report_bytes, "bytes"),
            "charts.workspace_snapshot_svg.bytes": (self.snapshot_bytes, "bytes"),
        })  # fmt: skip
        for given, values in self.entropies.items():
            out[f"situation_model.entropy_maps.given{given}"] = (len(values), "count")
            out[f"situation_model.entropy_bits_p50.given{given}"] = (
                median(values) if values else 0.0,
                "bits",
            )
        return out

    def write(self, path: Path) -> None:
        """Write the span table and the run table as one .npz file.

        Row i is span i; ``parent`` is a row or -1, ``run`` indexes ``runs``
        (workload, method, fold, image id), times are trace-clock seconds.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names),
            runs=np.array([json.dumps(r) for r in self.runs]),
        )

"""The benchmark's workloads, their inputs, and the checks on their outputs.

Every workload is a fixed pool of inputs made from the seed, and a closed
loop over it: one call into the library is issued only after the previous
one returned. Batch workloads call ``evaluation.run_experiment`` and
``evaluation.emit_report`` once per dataset of the pool; ``inspect`` calls
``cli.main(["run", ...])`` once per (image, method). Each call yields a
digest of its output and the search runs it made, which are checked here.

All workloads use ``default_generator_config`` scenes, 10 folds,
``max_iterations=1000`` and ``cell_size=1.0``, the acceptance-suite setting.
Pool sizes make one pass last 11-22 s on a 2-vCPU Xeon, about one 20 s run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from situsearch import cli, datagen, evaluation

FOLDS = 10
MAX_ITERATIONS = 1000
CELL_SIZE = 1.0


@dataclass
class CallResult:
    """What one call into the library produced."""

    key: str  # stable name of the input, used to look up its pinned digest
    digest: str
    runs: list[dict]  # one per search run: method, completed, total_iterations, ...
    failed: int  # runs that broke an invariant
    problems: list[str]  # what they broke


def median_with_failures(values: list[int | None]) -> int | None:
    """Lower-middle order statistic with failures (None) ranked last."""
    items = sorted(values, key=lambda v: (v is None, v or 0))
    return items[(len(items) - 1) // 2]


def run_problems(run: dict, budget: int) -> list[str]:
    """Invariants every search run must satisfy, as a list of violations."""
    problems = []
    detections = run["detections"]
    order = run["detection_order"]
    found = all(v is not None for v in detections.values())
    if run["completed"] != found:
        problems.append("completed disagrees with the detections")
    if not 1 <= run["total_iterations"] <= budget:
        problems.append(f"total_iterations {run['total_iterations']} outside 1..{budget}")
    times = [t for _, t in order]
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("detection_order is not strictly increasing")
    if sorted(map(tuple, order)) != sorted((c, t) for c, t in detections.items() if t is not None):
        problems.append("detection_order differs from detections")
    if any(t > run["total_iterations"] for t in times):
        problems.append("a detection falls after the last iteration")
    return problems


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class BatchWorkload:
    """Cross-validated experiments over datasets of synthetic annotations."""

    def __init__(self, name: str, tokens: list[str], jobs: int, datasets: int, images: int):
        self.name = name
        self.tokens = tokens
        self.jobs = jobs
        self.datasets = datasets
        self.images = images  # per dataset

    def setup(self, seed: int, workdir: Path) -> list:
        config = datagen.default_generator_config(seed=seed)
        scenes = datagen.generate_synthetic(config, self.datasets * self.images)
        n = self.images
        return [(f"dataset{i}", scenes[i * n : (i + 1) * n]) for i in range(self.datasets)]

    def call(self, item, seed: int, workdir: Path, jobs: int | None = None):
        """The timed call; returns what ``check`` needs."""
        key, dataset = item
        report = evaluation.run_experiment(
            dataset,
            self.tokens,
            k=FOLDS,
            master_seed=seed,
            jobs=self.jobs if jobs is None else jobs,
            max_iterations=MAX_ITERATIONS,
            cell_size=CELL_SIZE,
        )
        evaluation.emit_report(report, workdir / "report")
        return key

    def check(self, key: str, workdir: Path) -> CallResult:
        report_bytes = (workdir / "report" / "report.json").read_bytes()
        csv_bytes = (workdir / "report" / "summary.csv").read_bytes()
        doc = json.loads(report_bytes)
        runs, problems, failed = [], [], 0
        for method in doc["methods"]:
            label = method["label"]
            budget = method["config"]["max_iterations"]
            values, method_failed = [], 0
            for run in method["runs"]:
                runs.append({"method": label, **run})
                found = run_problems(run, budget)
                problems += [f"{label} {run['image_id']}: {p}" for p in found]
                method_failed += bool(found)
                values.append(run["total_iterations"] if run["completed"] else None)
            summary = [
                ("median", method["median_iterations"], median_with_failures(values)),
                ("failure count", method["failure_count"], values.count(None)),
            ]
            for what, stored, recomputed in summary:
                if stored != recomputed:
                    problems.append(f"{label}: stored {what} {stored}, runs give {recomputed}")
                    method_failed = len(values)
            failed += method_failed
        missing = self.runs_per_call() - len(runs)
        if missing:
            problems.append(f"report holds {len(runs)} runs, expected {self.runs_per_call()}")
            failed += abs(missing)
        return CallResult(key, _sha256(report_bytes, csv_bytes), runs, failed, problems)

    def runs_per_call(self) -> int:
        return self.images * len(self.tokens)

    def prepare(self, workdir: Path) -> None:
        shutil.rmtree(workdir / "report", ignore_errors=True)


class InspectWorkload:
    """Watching single searches: ``situsearch run --trace --snapshots``."""

    jobs = 1

    def __init__(self, name: str, tokens: list[str], images: int):
        self.name = name
        self.tokens = tokens
        self.images = images

    def setup(self, seed: int, workdir: Path) -> list:
        data = workdir / "data"
        shutil.rmtree(data, ignore_errors=True)
        model = workdir / "model.json"
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["gen", "--out", str(data), "--n", str(self.images), "--seed", str(seed), "--images"]
            if cli.main(argv) != 0:
                raise RuntimeError("situsearch gen failed")
            if cli.main(["learn", "--data", str(data), "--out", str(model)]) != 0:
                raise RuntimeError("situsearch learn failed")
        annotations = sorted(p for p in data.glob("synthetic_*.json"))
        return [(ann, token) for ann in annotations for token in self.tokens]

    def call(self, item, seed: int, workdir: Path, jobs: int | None = None):
        ann, token = item
        out = io.StringIO()
        argv = [
            "run",
            "--model", str(workdir / "model.json"),
            "--image-annotation", str(ann),
            "--seed", str(seed),
            "--method", token,
            "--trace", str(workdir / "trace.jsonl"),
            "--snapshots", str(workdir / "snapshots"),
        ]  # fmt: skip
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"situsearch run exited with {code}")
        return f"{ann.stem}/{token}", out.getvalue()

    def check(self, key_and_stdout, workdir: Path) -> CallResult:
        key, stdout = key_and_stdout
        trace_bytes = (workdir / "trace.jsonl").read_bytes()
        snapshots = workdir / "snapshots"
        snapshot_count = len(list(snapshots.glob("*.svg")))
        run = json.loads(stdout)
        problems = run_problems(run, MAX_ITERATIONS)
        lines = trace_bytes.decode().splitlines()
        if [json.loads(line)["iteration"] for line in lines] != list(range(1, run["total_iterations"] + 1)):
            problems.append("trace does not hold one proposal per iteration")
        if snapshot_count < len(run["detection_order"]):
            problems.append("fewer snapshots than final detections")
        runs = [{"method": key.split("/")[1], **run}]
        return CallResult(key, _sha256(trace_bytes, stdout.encode()), runs, int(bool(problems)), problems)

    def runs_per_call(self) -> int:
        return 1

    def prepare(self, workdir: Path) -> None:
        shutil.rmtree(workdir / "snapshots", ignore_errors=True)


WORKLOADS = {
    # Loop-bound: nearly every run spends the whole budget and never
    # conditions, so the per-proposal step and the per-run uniform map do
    # the work. A conditioning change must leave this workload unchanged.
    "context_free": BatchWorkload(
        "context_free",
        ["uniform-uniform-none", "uniform-learned-none"],
        jobs=1,
        datasets=5,
        images=40,
    ),
    # Conditioning-bound: about 10x fewer proposals, but rasterizing,
    # combining and sampling conditioned maps take most of the time.
    "situation": BatchWorkload(
        "situation",
        ["uniform-learned-learned", "salience-learned-learned", "salience-learned-learned-noprov"],
        jobs=1,
        datasets=2,
        images=34,
    ),
    # The paper table as produced with --jobs: the only workload that drives
    # the process fan-out and the only one that runs salience-uniform-none.
    "matrix_jobs2": BatchWorkload(
        "matrix_jobs2", list(evaluation.METHOD_TOKENS), jobs=2, datasets=2, images=40
    ),
    # Write-heavy watching of single searches: observer hook, proposal
    # recording, SVG snapshots, PGM reads and model JSON loads.
    "inspect": InspectWorkload(
        "inspect", ["uniform-learned-learned", "salience-learned-learned"], images=50
    ),
}

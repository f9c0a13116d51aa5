"""situsearch benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload situation --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. The process makes the workload's pool of inputs from the
seed (three times; ``setup_s`` is the import time plus the median set-up),
then calls the library on the pool's inputs in order, in a closed loop, for
at least one full pass and until ``--seconds`` have elapsed. ``wall_s`` is
the time of one pass, summed from each input's median call time.

With ``--trace 1`` it then sets up and passes once more, serially, under the
span tracer (``tracer.py``), and reports per-layer figures instead of the
end-to-end ones.

Every call's output is checked: the run invariants on every seed, equal
digests for every call on the same input (traced or not), and at seed 0 the
digests pinned in ``pins.json``. A call that raises or fails a check counts
its search runs as failed operations. The last line of standard output is
the result object; the line before it holds provenance, latency
percentiles, digests and the paper's quality figures. Spans and the full
record are written under ``.bench_out/``.

``--pin`` rewrites ``pins.json`` from a seed-0 pass of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"
SETUPS = 3
DEFAULT_SEED = 0


def _import_library() -> float:
    """Import situsearch from the checkout's src/; returns the seconds taken."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import situsearch.cli  # noqa: F401  (pulls in every layer, numpy and scipy)

    elapsed = time.perf_counter() - start
    if Path(situsearch.__file__).resolve().parent != ROOT / "src" / "situsearch":
        raise ImportError(f"situsearch came from {situsearch.__file__}")
    return elapsed


def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" without one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


class Calls:
    """Every call made on a pool: its input, time and checked result."""

    def __init__(self):
        self.records: list[tuple[int, float, object]] = []  # (input index, seconds, CallResult)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def call(self, workload, index: int, item, seed: int, workdir: Path, clock, jobs=None) -> None:
        workload.prepare(workdir)
        runs = workload.runs_per_call()
        self.attempted += runs
        cpu0 = _cpu_seconds()
        t0 = clock()
        try:
            handle = workload.call(item, seed, workdir, jobs=jobs)
            elapsed = clock() - t0
            self.cpu_s += _cpu_seconds() - cpu0
            result = workload.check(handle, workdir)
        except Exception:  # a failing call is counted and reported, not fatal
            self.failed += runs
            self.problems.append(traceback.format_exc(limit=4))
            return
        self.wall_s += elapsed
        self.failed += result.failed
        self.problems += result.problems[:5]
        self.records.append((index, elapsed, result))

    def first(self) -> dict[int, object]:
        """Each input's first checked result."""
        out: dict[int, object] = {}
        for index, _, result in self.records:
            out.setdefault(index, result)
        return out

    def pass_seconds(self) -> float:
        """One pass over the pool: the sum of each input's median call time."""
        times: dict[int, list[float]] = {}
        for index, seconds, _ in self.records:
            times.setdefault(index, []).append(seconds)
        return sum(median(t) for t in times.values())

    def proposals(self) -> int:
        return sum(run["total_iterations"] for r in self.first().values() for run in r.runs)

    def check_digests(self, pinned: dict | None, reference: dict[str, str] | None = None) -> None:
        """Fail every run whose call output differs from its pin or reference."""
        expected = dict(reference or {})
        for _, _, r in self.records:
            want = expected.setdefault(r.key, r.digest)
            if pinned is not None:
                want = pinned.get(r.key, "no pin")
            if r.digest != want:
                self.failed += len(r.runs)
                self.problems.append(f"{r.key}: digest {r.digest[:16]} != {want[:16]}")

    def digests(self) -> dict[str, str]:
        return {r.key: r.digest for r in self.first().values()}


def timed_section(workload, pool, seed: int, workdir: Path, seconds: float) -> Calls:
    """One full pass over the pool, then more calls while they fit in ``seconds``.

    A further call starts only if a call of the longest duration seen so far
    would still end within ``seconds`` of the start.
    """
    calls = Calls()
    start = time.perf_counter()
    i = 0
    while True:
        index = i % len(pool)
        calls.call(workload, index, pool[index], seed, workdir, time.perf_counter)
        i += 1
        longest = max((t for _, t, _ in calls.records), default=0.0)
        if i >= len(pool) and time.perf_counter() - start + longest > seconds:
            return calls


def quality(calls: Calls) -> dict:
    """The paper's figures over one pass: failure share and median proposals."""
    from workloads import median_with_failures

    runs = [run for r in calls.first().values() for run in r.runs]
    by_method: dict[str, list] = {}
    for run in runs:
        by_method.setdefault(run["method"], []).append(
            run["total_iterations"] if run["completed"] else None
        )
    return {
        "runs": len(runs),
        "incomplete_rate": sum(not run["completed"] for run in runs) / max(1, len(runs)),
        **{f"median_iters.{m}": median_with_failures(v) for m, v in by_method.items()},
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def traced_layers(workload, seed: int, workdir: Path, untraced: Calls, pass_s: float):
    """Set up and pass once under the tracer; per-layer metrics and the calls made."""
    from tracer import Tracer

    tracer = Tracer(workload.name)
    traced = Calls()
    with tracer:
        t0 = tracer.now()
        pool = workload.setup(seed, workdir)
        setup_s = tracer.now() - t0
        for index, item in enumerate(pool):
            traced.call(workload, index, item, seed, workdir, tracer.now, jobs=1)
    tracer.write(OUT / f"spans-{workload.name}.npz")
    traced.check_digests(None, reference=untraced.digests())
    # The traced pass is serial: compare it with the untraced pass's time, or
    # with its CPU time where the untraced pass ran on several workers.
    reference = pass_s
    if workload.jobs > 1 and untraced.wall_s:
        reference = untraced.cpu_s * pass_s / untraced.wall_s
    cpu_util = untraced.cpu_s / (untraced.wall_s * workload.jobs) if untraced.wall_s else 0.0
    layers = tracer.layer_metrics(traced.proposals())
    layers["evaluation.cpu_util"] = (cpu_util, "ratio")
    layers["tracing.setup_s"] = (setup_s, "s")
    layers["tracing.pass_s"] = (traced.wall_s, "s")
    layers["tracing.overhead_pct"] = (100 * (traced.wall_s / reference - 1) if reference else 0.0, "%")
    return layers, traced, len(tracer.span_name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json at seed 0")
    args = parser.parse_args(argv)

    try:
        import_s = _import_library()
    except ImportError as exc:
        print(f"error: cannot import situsearch from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.pin:
        return write_pins(WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = OUT / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stamp = provenance(args.seed)

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        pool = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    calls = timed_section(workload, pool, args.seed, workdir, args.seconds)
    peak_rss = _peak_rss_mb()
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads(PINS.read_text()).get(workload.name, {}) if PINS.exists() else {}
    calls.check_digests(pinned)
    pass_s = calls.pass_seconds()
    latencies = [seconds for _, seconds, _ in calls.records]

    info = {
        "workload": workload.name,
        "provenance": stamp,
        "pool_inputs": len(pool),
        "calls": len(latencies),
        "call_ms_p50": 1e3 * median(latencies) if latencies else None,
        "call_ms_p90": 1e3 * percentile(latencies, 90) if latencies else None,
        "runs_per_pass": len(pool) * workload.runs_per_call(),
        "proposals_per_pass": calls.proposals(),
        "timed_s": calls.wall_s,
        "import_s": import_s,
        "setup_s_each": setup_times,
        "quality": quality(calls),
        "digests": calls.digests(),
    }
    attempted, failed, problems = calls.attempted, calls.failed, calls.problems

    if args.trace == 0:
        metrics = {
            "setup_s": (import_s + median(setup_times), "s"),
            "wall_s": (pass_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        layers, traced, info["spans"] = traced_layers(workload, args.seed, workdir, calls, pass_s)
        # Untraced figures that belong to one layer.
        cli_runs = latencies if workload.name == "inspect" else []
        metrics = {
            **layers,
            "search.proposals_per_s": (calls.proposals() / pass_s if pass_s else 0.0, "1/s"),
            "search.incomplete_rate": (info["quality"]["incomplete_rate"], "ratio"),
            "cli.run_samples": (len(cli_runs), "count"),
            "cli.run_ms_p50": (1e3 * median(cli_runs) if cli_runs else 0.0, "ms"),
            "cli.run_ms_p90": (1e3 * percentile(cli_runs, 90) if cli_runs else 0.0, "ms"),
        }
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems

    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    info["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    shutil.rmtree(workdir, ignore_errors=True)
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def write_pins(workloads) -> int:
    """Record every workload's call digests at the default seed in pins.json."""
    pins = {}
    for name, workload in workloads.items():
        workdir = OUT / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        calls = timed_section(workload, workload.setup(DEFAULT_SEED, workdir), DEFAULT_SEED, workdir, 0)
        if calls.failed:
            print(f"error: {name}: {calls.problems[:3]}", file=sys.stderr)
            return 1
        pins[name] = calls.digests()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

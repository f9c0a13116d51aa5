"""Acceptance suite: one test per criterion, each printing a PASS line.

The end-to-end criteria (4-6, 9) share one full benchmark run: the synthetic
500-image dataset, 10-fold cross-validation, master seed 0, 1000-iteration
budget, full method matrix. Criterion 9 repeats it with two worker
processes and checks both executions against pinned digests. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines and
timings.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from situsearch import search
from situsearch.datagen import (
    SituationAnnotation,
    default_generator_config,
    generate_synthetic,
    split_folds,
)
from situsearch.evaluation import (
    cumulative_curve,
    emit_report,
    median_iterations,
    run_experiment,
)
from situsearch.gaussian import MultivariateGaussian, condition
from situsearch.geometry import BoundingBox, iou
from situsearch.search import (
    FINAL,
    PROVISIONAL,
    MethodConfig,
    ObjectProposal,
    RunResult,
    Workspace,
    run_image,
)
from situsearch.situation_model import DEFAULT_CATEGORIES, learn
from oracles import marginal

BENCH_METHODS = [
    "uniform-uniform-none",
    "uniform-learned-none",
    "salience-uniform-none",
    "uniform-learned-learned",
    "salience-learned-learned",
    "salience-learned-learned-noprov",
]

# SHA-256 of the emitted benchmark files (500 images, 10 folds, master seed 0,
# 1000 iterations, cell size 1.0, BENCH_METHODS). Any change to them means the
# random stream or the search changed and must be declared as such.
PINNED_SHA256 = {
    "report.json": "92398608fce116e2938105c68ed06ba3173136a992b6be872a2f91c53cdf4209",
    "summary.csv": "82fcb8b56bdcce38b1505727272004161f0e33907dfa23898479c95cb911817e",
}


def report_line(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def synthetic_500():
    config = default_generator_config(seed=0)
    return generate_synthetic(config, 500)


@pytest.fixture(scope="module")
def benchmark_report(synthetic_500):
    start = time.perf_counter()
    report = run_experiment(
        synthetic_500,
        BENCH_METHODS,
        k=10,
        master_seed=0,
        max_iterations=1000,
        cell_size=1.0,
    )
    report._wall_seconds = time.perf_counter() - start
    return report


def method(report, label: str):
    return next(m for m in report.methods if m.label == label)


# ---------------------------------------------------------------------------
# Criterion 1: Gaussian conditioning correctness


def conditional_mean_by_integration(dist, target, observed) -> float:
    """1-d brute-force integration over the sub-joint (target, observed...)."""
    labels = [target, *observed.keys()]
    idx = [dist.dims.index(label) for label in labels]
    mu = dist.mean[idx]
    cov = dist.cov[np.ix_(idx, idx)]
    inv = np.linalg.inv(cov)
    db = np.array([observed[label] for label in labels[1:]]) - mu[1:]
    sd = float(np.sqrt(cov[0, 0]))
    xs = np.linspace(mu[0] - 12 * sd, mu[0] + 12 * sd, 40_001)
    dx = xs - mu[0]
    quad = inv[0, 0] * dx**2 + 2 * dx * (inv[0, 1:] @ db) + db @ inv[1:, 1:] @ db
    weights = np.exp(-0.5 * (quad - quad.min()))
    return float(np.sum(xs * weights) / np.sum(weights))


def test_criterion_1_conditioning_against_integration_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked_means = 0
    joints = 0
    max_mean_err = 0.0
    max_commute_err = 0.0
    for d in (2, 4, 6):
        for _ in range(67 if d < 6 else 66):
            joints += 1
            a = rng.standard_normal((d, d))
            dist = MultivariateGaussian(
                dims=tuple(f"v{i}" for i in range(d)),
                mean=rng.uniform(-3, 3, size=d),
                cov=a @ a.T + 0.3 * np.eye(d),
            )
            n_obs = int(rng.integers(1, d))
            obs_labels = list(rng.choice(dist.dims, size=n_obs, replace=False))
            observed = {label: float(rng.uniform(-2, 2)) for label in obs_labels}
            cond = condition(dist, observed)
            for i, label in enumerate(cond.dims):
                oracle = conditional_mean_by_integration(dist, label, observed)
                max_mean_err = max(max_mean_err, abs(cond.mean[i] - oracle))
                checked_means += 1

            keep = [cond.dims[0]]
            left = marginal(cond, keep)
            right = condition(marginal(dist, keep + obs_labels), observed)
            max_commute_err = max(
                max_commute_err,
                float(np.max(np.abs(left.mean - right.mean))),
                float(np.max(np.abs(left.cov - right.cov))),
            )
    elapsed = time.perf_counter() - start
    assert joints == 200
    assert max_mean_err <= 1e-6
    assert max_commute_err <= 1e-9
    assert elapsed < 10.0
    report_line(
        1,
        f"200 joints, {checked_means} conditional means vs integration oracle "
        f"(max err {max_mean_err:.2e}), commutation max err {max_commute_err:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: IOU analytic vs pixel-count oracle


def test_criterion_2_iou_exact_on_integer_boxes():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        ax, ay, bx, by = (int(v) for v in rng.integers(0, 40, size=4))
        aw, ah, bw, bh = (int(v) for v in rng.integers(1, 30, size=4))
        a_cells = {(i, j) for i in range(ax, ax + aw) for j in range(ay, ay + ah)}
        b_cells = {(i, j) for i in range(bx, bx + bw) for j in range(by, by + bh)}
        counted = len(a_cells & b_cells) / len(a_cells | b_cells)
        analytic = iou(
            BoundingBox(ax + aw / 2, ay + ah / 2, aw, ah),
            BoundingBox(bx + bw / 2, by + bh / 2, bw, bh),
        )
        assert analytic == counted
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_line(2, f"1000 random integer box pairs exactly match the pixel-count oracle, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: model recovery from 10,000 synthetic annotations


def test_criterion_3_model_recovery_from_generator():
    start = time.perf_counter()
    config = default_generator_config(seed=1)
    annotations = generate_synthetic(config, 10_000)
    model = learn(annotations)

    cats = DEFAULT_CATEGORIES
    pair_cols = {
        (cats[0], cats[1]): [0, 1, 2, 3],
        (cats[0], cats[2]): [0, 1, 4, 5],
        (cats[1], cats[2]): [2, 3, 4, 5],
    }
    worst_mean = 0.0
    worst_cov = 0.0

    def check(fitted, true_mean, true_cov):
        nonlocal worst_mean, worst_cov
        mean_err = np.linalg.norm(fitted.mean - true_mean) / np.linalg.norm(true_mean)
        cov_err = np.linalg.norm(fitted.cov - true_cov) / np.linalg.norm(true_cov)
        worst_mean = max(worst_mean, mean_err)
        worst_cov = max(worst_cov, cov_err)

    check(model.loc_joints[cats], config.location.mean, config.location.cov)
    check(model.box_joints[cats], config.box.mean, config.box.cov)
    for pair, cols in pair_cols.items():
        sub = np.ix_(cols, cols)
        check(model.loc_joints[pair], config.location.mean[cols], config.location.cov[sub])
        check(model.box_joints[pair], config.box.mean[cols], config.box.cov[sub])

    elapsed = time.perf_counter() - start
    assert worst_mean <= 0.05
    assert worst_cov <= 0.10
    assert elapsed < 30.0
    report_line(
        3,
        f"8 joints recovered from 10k annotations: worst mean err "
        f"{worst_mean:.3f} (<=0.05), worst cov Frobenius err {worst_cov:.3f} "
        f"(<=0.10), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: end-to-end benefit of the situation model


@pytest.mark.slow
def test_criterion_4_situation_model_beats_uniform_baseline(benchmark_report):
    situation = method(benchmark_report, "uniform-learned-learned")
    baseline = method(benchmark_report, "uniform-uniform-none")
    assert situation.median is not None, "situation-model method must have a finite median"
    ok = baseline.median is None or baseline.median >= 5 * situation.median
    assert ok, f"baseline median {baseline.median} not Failure nor >=5x {situation.median}"
    report_line(
        4,
        f"situation-model median {situation.median}, uniform baseline "
        f"{'Failure' if baseline.median is None else baseline.median} "
        f"({benchmark_report._wall_seconds:.0f}s for the full benchmark)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: provisional-detection ablation


@pytest.mark.slow
def test_criterion_5_disabling_provisionals_at_least_doubles_median(benchmark_report):
    with_prov = method(benchmark_report, "salience-learned-learned")
    without = method(benchmark_report, "salience-learned-learned-noprov")
    assert with_prov.median is not None
    ok = without.median is None or without.median >= 2 * with_prov.median
    assert ok, f"noprov median {without.median} < 2x {with_prov.median}"
    ratio = "Failure" if without.median is None else f"{without.median / with_prov.median:.2f}x"
    report_line(
        5,
        f"provisional {with_prov.median} vs noprov "
        f"{'Failure' if without.median is None else without.median} ({ratio})",
    )


# ---------------------------------------------------------------------------
# Criterion 6: interval structure


@pytest.mark.slow
def test_criterion_6_interval_structure(benchmark_report):
    for label in ("uniform-learned-learned", "salience-learned-learned"):
        t01, t12, t23 = method(benchmark_report, label).interval_medians
        assert t01 is not None and t12 is not None and t23 is not None
        assert t12 < t01, f"{label}: t12={t12} not < t01={t01}"
        assert t23 < t01, f"{label}: t23={t23} not < t01={t01}"

    for label in ("uniform-uniform-none", "uniform-learned-none", "salience-uniform-none"):
        t01, t12, t23 = method(benchmark_report, label).interval_medians
        rev12 = t12 is None or (t01 is not None and t12 > t01)
        rev23 = t23 is None or (t01 is not None and t23 > t01)
        assert rev12 and rev23, f"{label}: intervals {t01},{t12},{t23} not reversed/Failure"

    pretty = {
        m.label: m.interval_medians
        for m in benchmark_report.methods
    }
    report_line(6, f"interval medians (t01,t12,t23) per method: {pretty}")


# ---------------------------------------------------------------------------
# Criterion 7: loop protocol conformance


def test_criterion_7_loop_protocol_state_machine():
    checks = 0

    # Threshold boundaries at exactly 0.25 and 0.5, inclusive.
    ws = Workspace(("a", "b", "c"), True)
    box = BoundingBox(0, 0, 10, 10)
    assert not ws.observe(ObjectProposal("a", box), 0.2499, 1)
    assert ws.slots["a"] is None
    assert ws.observe(ObjectProposal("a", box), 0.25, 2)
    assert ws.slots["a"].kind == PROVISIONAL
    assert ws.observe(ObjectProposal("a", box), 0.499, 3)
    assert ws.slots["a"].kind == PROVISIONAL
    assert not ws.observe(ObjectProposal("a", box), 0.30, 4)  # worse provisional
    assert ws.slots["a"].score == 0.499
    assert ws.observe(ObjectProposal("a", box), 0.5, 5)
    assert ws.slots["a"].kind == FINAL
    checks += 6

    # Final absorption.
    assert not ws.observe(ObjectProposal("a", box), 0.99, 6)
    assert ws.slots["a"].iteration == 5
    checks += 2

    # Monotone provisional replacement under 2000 random streams.
    rng = np.random.default_rng(99)
    for _ in range(2000):
        ws = Workspace(("a", "b", "c"), True)
        last: dict[str, float] = {}
        for t in range(40):
            cat = ("a", "b", "c")[int(rng.integers(3))]
            score = float(rng.random())
            was_final = ws.slots[cat] is not None and ws.slots[cat].kind == FINAL
            ws.observe(ObjectProposal(cat, box), score, t)
            slot = ws.slots[cat]
            if slot is not None:
                assert last.get(cat, -1.0) <= slot.score
                last[cat] = slot.score
                if was_final:
                    assert slot.kind == FINAL
        checks += 1

    # Max-iteration failure with a hopeless oracle, via the full loop.
    annotation = SituationAnnotation(
        image_id="protocol",
        width=1000,
        height=1000,
        boxes={
            "dog_walker": (10.0, 10.0, 200.0, 400.0),
            "dog": (300.0, 500.0, 200.0, 150.0),
            "leash": (250.0, 300.0, 120.0, 120.0),
        },
    )
    model = learn([annotation] * 10)
    config = MethodConfig(max_iterations=64, cell_size=20)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "score_proposal", lambda gt, p: 0.0)
        result = run_image(model, None, config, annotation, np.random.default_rng(0))
    assert not result.completed
    assert result.total_iterations == 64
    assert all(v is None for v in result.detections.values())
    checks += 3

    # Provisional machinery fully disabled in the ablation.
    states = []

    def watch(t, proposal, score, workspace, shown):
        if shown is not None:
            states.append(dict(workspace.slots))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "score_proposal", lambda gt, p: 0.45)  # above provisional, below final
        result = run_image(
            model,
            None,
            MethodConfig(provisional_enabled=False, max_iterations=64, cell_size=20),
            annotation,
            np.random.default_rng(1),
            watch,
        )
    assert states == []  # no workspace change can happen
    assert not result.completed
    checks += 2

    report_line(7, f"{checks} state-machine checks passed (thresholds 0.25/0.5, absorption, monotone replacement, budget failure)")


# ---------------------------------------------------------------------------
# Criterion 8: evaluation statistics property suites


def test_criterion_8_statistics_properties():
    rng = np.random.default_rng(1234)
    cases = 0

    # Median: permutation invariance and failure ranking (4000 cases).
    for _ in range(4000):
        n = int(rng.integers(1, 25))
        values = [None if rng.random() < 0.3 else int(rng.integers(1, 999)) for _ in range(n)]
        med = median_iterations(values)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert median_iterations(shuffled) == med
        # failures rank above every finite value; lower-middle order statistic
        finite = sorted(v for v in values if v is not None)
        middle = (n - 1) // 2
        if middle < len(finite):
            assert med == finite[middle]
        else:
            assert med is None
        cases += 1

    # Cumulative curve: monotone, bounded, and curve[max] + failures == N (3000 cases).
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        max_iter = int(rng.integers(1, 80))
        runs = []
        for _ in range(n):
            if rng.random() < 0.35:
                runs.append(RunResult({"a": None}, max_iter))
            else:
                t = int(rng.integers(1, max_iter + 1))
                runs.append(RunResult({"a": t}, t))
        curve = cumulative_curve(runs, max_iter)
        failures = sum(1 for r in runs if not r.completed)
        assert len(curve) == max_iter
        assert all(0 <= curve[i] <= n for i in range(max_iter))
        assert all(curve[i] <= curve[i + 1] for i in range(max_iter - 1))
        assert curve[-1] + failures == n
        cases += 1

    # Fold partition: coverage, disjointness, balance (3000 cases).
    for _ in range(3000):
        n = int(rng.integers(1, 120))
        k = int(rng.integers(1, min(n, 12) + 1))
        folds = split_folds(list(range(n)), k=k, seed=int(rng.integers(0, 10_000)))
        seen = []
        sizes = []
        for train, test in folds:
            seen.extend(test)
            sizes.append(len(test))
            assert set(train).isdisjoint(test)
            assert sorted(train + test) == list(range(n))
        assert sorted(seen) == list(range(n))
        assert max(sizes) - min(sizes) <= 1
        cases += 1

    assert cases == 10_000
    report_line(8, f"{cases} randomized statistics cases passed (median, curve, folds)")


# ---------------------------------------------------------------------------
# Criterion 9: benchmark determinism


@pytest.mark.slow
def test_criterion_9_full_benchmark_byte_identical(
    synthetic_500, benchmark_report, tmp_path
):
    second = run_experiment(
        synthetic_500,
        BENCH_METHODS,
        k=10,
        master_seed=0,
        max_iterations=1000,
        cell_size=1.0,
        jobs=2,
    )
    for name, report in (("serial", benchmark_report), ("jobs2", second)):
        emit_report(report, tmp_path / name)
        for filename, expected in PINNED_SHA256.items():
            digest = hashlib.sha256((tmp_path / name / filename).read_bytes()).hexdigest()
            assert digest == expected, f"{name} {filename} digest {digest} != pinned {expected}"
    report_line(
        9,
        "serial and jobs=2 benchmark executions both match the pinned "
        "report.json and summary.csv digests",
    )

"""The exact law of a context-free run, checked against block-scored runs.

A method without a situation model never changes its distributions, so its
run is a Markov chain on the set of categories still lacking a final: each
iteration picks one of them uniformly and finalizes it with that category's
hit probability p_c, the chance that one draw from its priors scores at
least the final threshold. Dynamic programming over the subsets of
remaining categories gives the law of (completed, total_iterations). The
law does not depend on the random stream the runs draw from, so these
checks hold across any change of stream that keeps the distributions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from scipy import stats

from situsearch import search
from situsearch.evaluation import method_label, salience_for_annotation
from situsearch.gaussian import uniform_map
from situsearch.geometry import normalize_frame
from situsearch.search import BOX_UNIFORM, FINAL_THRESHOLD, MethodConfig, ground_truth, run_image
from situsearch.situation_model import (
    DEFAULT_CATEGORIES,
    LOG_AREA_RANGE,
    LOG_ASPECT_RANGE,
    learn,
)

BUDGET = 300
CELL_SIZE = 8.0
DRAWS = 2**20  # prior draws per hit probability
CHUNK = 2**16
IMAGES = 2
SEEDS = 200  # runs per image and method
METHODS = [
    MethodConfig(location, box, "none", max_iterations=BUDGET, cell_size=CELL_SIZE)
    for location in ("uniform", "salience")
    for box in ("uniform", "learned")
]
# Each method gets a failure-count test and a binned test of its outcomes.
LEVEL = 1e-3 / (2 * len(METHODS))


@pytest.fixture(scope="module")
def held_out(small_synthetic_dataset):
    return learn(small_synthetic_dataset[:50]), small_synthetic_dataset[50 : 50 + IMAGES]


def hit_probabilities(model, config: MethodConfig, annotation, salience, rng) -> list[float]:
    """Each category's chance that one draw from its priors scores a final,
    from DRAWS draws scored by the block arithmetic."""
    frame = normalize_frame(annotation.width, annotation.height)
    location = uniform_map(frame, CELL_SIZE) if salience is None else salience
    (a0, a1), (g0, g1) = LOG_AREA_RANGE, LOG_ASPECT_RANGE
    probabilities = []
    for cat, truth in ground_truth(annotation, DEFAULT_CATEGORIES, frame).items():
        prior = model.box_priors[cat]
        mean, scale = prior.mean, np.sqrt(np.diag(prior.cov))
        truths = np.broadcast_to([truth.cx, truth.cy, truth.w, truth.h], (CHUNK, 4))
        hits = 0
        for _ in range(DRAWS // CHUNK):
            uniforms = rng.random((CHUNK, 3))
            if config.box_prior == BOX_UNIFORM:
                descriptors = [a0, g0] + [a1 - a0, g1 - g0] * rng.random((CHUNK, 2))
            else:
                descriptors = mean + scale * rng.standard_normal((CHUNK, 2))
            _, scores = search._score_block(location, frame, truths, uniforms, descriptors)
            hits += int(np.count_nonzero(scores >= FINAL_THRESHOLD))
        probabilities.append(hits / DRAWS)
    return probabilities


def outcome_law(p: Sequence[float], budget: int) -> np.ndarray:
    """The law of a run's outcome from its categories' hit probabilities.

    Entry t - 1 is the chance that the run completes at iteration t, for t up
    to ``budget``; the last len(p) entries are the chances that it fails with
    len(p) - 1, ..., 1, 0 finals. A state is the bitmask of the categories
    that still lack a final.
    """
    n = len(p)
    transition = np.zeros((2**n, 2**n))
    for state in range(1, 2**n):
        remaining = [k for k in range(n) if state >> k & 1]
        for k in remaining:
            transition[state, state & ~(1 << k)] += p[k] / len(remaining)
            transition[state, state] += (1 - p[k]) / len(remaining)
    mass = np.zeros(2**n)
    mass[-1] = 1.0
    completed = np.empty(budget)
    for t in range(budget):
        mass = mass @ transition
        completed[t], mass[0] = mass[0], 0.0
    failed = np.zeros(n)
    for state in range(1, 2**n):
        failed[n - bin(state).count("1")] += mass[state]
    return np.concatenate([completed, failed[::-1]])


def merged(expected: np.ndarray, observed: np.ndarray, least: float = 10.0):
    """Adjacent cells merged, in order, until each expects at least ``least``."""
    cells, counts, e, o = [], [], 0.0, 0
    for e_cell, o_cell in zip(expected, observed):
        e, o = e + e_cell, o + o_cell
        if e >= least:
            cells.append(e)
            counts.append(o)
            e, o = 0.0, 0
    if cells:
        cells[-1] += e
        counts[-1] += o
    return np.array(cells), np.array(counts)


def test_outcome_law_of_sure_and_hopeless_categories():
    # Every pick finalizes: three categories complete at iteration 3.
    assert outcome_law([1.0, 1.0, 1.0], 5).tolist() == [0, 0, 1, 0, 0, 0, 0, 0]
    # Categories that never score fail without a final.
    assert outcome_law([0.0, 0.0], 4).tolist() == [0, 0, 0, 0, 0, 1]


def test_outcome_law_matches_the_geometric_law_of_one_category():
    p, budget = 0.1, 50
    law = outcome_law([p], budget)
    t = np.arange(1, budget + 1)
    np.testing.assert_allclose(law[:budget], p * (1 - p) ** (t - 1), rtol=1e-12)
    np.testing.assert_allclose(law[-1], (1 - p) ** budget, rtol=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize("config", METHODS, ids=method_label)
def test_context_free_runs_follow_the_exact_law(held_out, config):
    model, annotations = held_out
    rng = np.random.default_rng(2**40)  # apart from the runs' seeds
    runs = IMAGES * SEEDS
    laws, observed = [], np.zeros(BUDGET + len(DEFAULT_CATEGORIES), dtype=int)
    for i, ann in enumerate(annotations):
        salience = salience_for_annotation(ann, CELL_SIZE) if config.needs_salience else None
        laws.append(outcome_law(hit_probabilities(model, config, ann, salience, rng), BUDGET))
        for seed in range(i * SEEDS, (i + 1) * SEEDS):
            result = run_image(model, salience, config, ann, np.random.default_rng(seed))
            if result.completed:
                observed[result.total_iterations - 1] += 1
            else:
                finals = sum(t is not None for t in result.detections.values())
                observed[-1 - finals] += 1

    # The failure count is a sum of one binomial per image.
    pmf = np.ones(1)
    for law in laws:
        pmf = np.convolve(pmf, stats.binom.pmf(np.arange(SEEDS + 1), SEEDS, law[BUDGET:].sum()))
    failures = int(observed[BUDGET:].sum())
    assert 2 * min(pmf[: failures + 1].sum(), pmf[failures:].sum()) > LEVEL, failures

    # Pearson's statistic over completion times and failures by finals found,
    # each run's law weighted alike; pooling images only lowers its variance.
    expected, counts = merged(SEEDS * np.sum(laws, axis=0), observed)
    assert counts.sum() == runs
    if len(expected) > 1:
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, len(expected) - 1) > LEVEL, (expected, counts)

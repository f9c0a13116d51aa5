from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import defaultdict, namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import SALIENCE_THINNEST, extreme_annotations
from situsearch import gaussian, search
from situsearch.datagen import SituationAnnotation, default_generator_config, generate_synthetic
from situsearch.errors import InvalidInputError
from situsearch.evaluation import (
    METHOD_TOKENS,
    config_for_token,
    method_label,
    salience_for_annotation,
)
from situsearch.gaussian import (
    GaussianMap,
    LocationMap,
    MultivariateGaussian,
    grid_shape,
    rasterize_2d,
    uniform_map,
)
from situsearch.geometry import (
    BoundingBox,
    crop_to_frame,
    normalize_frame,
    to_normalized,
)
from situsearch.search import (
    FINAL,
    PROVISIONAL,
    Detection,
    MethodConfig,
    ObjectProposal,
    Workspace,
    evaluate_proposal_set,
    run_image,
    sample_proposal,
    score_proposal,
)
from situsearch.situation_model import (
    MIN_BOX_SIDE,
    CategorySearchDist,
    LogUniformBox,
    box_from_descriptor,
    conditioned_distribution,
    learn,
    model_from_dict,
    model_to_dict,
)

CATS = ("dog_walker", "dog", "leash")


def easy_annotation(image_id="img", width=1000, height=1000):
    """All three ground-truth boxes large so oracle hits are common."""
    return SituationAnnotation(
        image_id=image_id,
        width=width,
        height=height,
        boxes={
            "dog_walker": (60.0, 60.0, 860.0, 860.0),
            "dog": (70.0, 80.0, 850.0, 840.0),
            "leash": (80.0, 60.0, 840.0, 850.0),
        },
    )


@pytest.fixture(scope="module")
def degenerate_model():
    """Model learned from one annotation repeated: all conditionals point-mass."""
    return learn([easy_annotation()] * 20)


def proposal(category: str) -> ObjectProposal:
    return ObjectProposal(category, BoundingBox(0, 0, 10, 10))


# ---------------------------------------------------------------------------
# Workspace state machine


def test_threshold_sequence_prov_replace_final():
    ws = Workspace(CATS, True)
    assert ws.observe(proposal("dog"), 0.3, 1) is True
    assert ws.slots["dog"].kind == PROVISIONAL
    assert ws.slots["dog"].score == 0.3

    assert ws.observe(proposal("dog"), 0.4, 2) is True  # better provisional replaces
    assert ws.slots["dog"].kind == PROVISIONAL
    assert ws.slots["dog"].score == 0.4

    assert ws.observe(proposal("dog"), 0.35, 3) is False  # worse provisional ignored
    assert ws.slots["dog"].score == 0.4

    assert ws.observe(proposal("dog"), 0.55, 4) is True
    assert ws.slots["dog"].kind == FINAL


def test_final_is_absorbing():
    ws = Workspace(CATS, True)
    ws.observe(proposal("dog"), 0.9, 1)
    assert ws.slots["dog"].kind == FINAL
    assert ws.observe(proposal("dog"), 1.0, 2) is False
    assert ws.slots["dog"].score == 0.9
    assert ws.slots["dog"].iteration == 1


def test_below_provisional_threshold_ignored():
    ws = Workspace(CATS, True)
    assert ws.observe(proposal("dog"), 0.2, 1) is False
    assert ws.slots["dog"] is None


def test_noprov_mode_only_finals():
    ws = Workspace(CATS, False)
    assert ws.observe(proposal("dog"), 0.45, 1) is False
    assert ws.slots["dog"] is None
    assert ws.observe(proposal("dog"), 0.5, 2) is True
    assert ws.slots["dog"].kind == FINAL


def test_slot_scores_never_decrease_under_random_streams():
    rng = np.random.default_rng(12)
    for _ in range(200):
        ws = Workspace(CATS, True)
        history = defaultdict(list)
        for t in range(60):
            cat = CATS[int(rng.integers(3))]
            score = float(rng.random())
            before = ws.slots[cat]
            ws.observe(proposal(cat), score, t + 1)
            after = ws.slots[cat]
            if after is not None:
                history[cat].append((after.kind, after.score))
            if before is not None and before.kind == FINAL:
                assert after is before  # frozen once final
        for cat, entries in history.items():
            scores = [s for _, s in entries]
            assert scores == sorted(scores)
            kinds = [k for k, _ in entries]
            if FINAL in kinds:
                assert kinds.index(FINAL) == len(kinds) - 1 or set(
                    kinds[kinds.index(FINAL) :]
                ) == {FINAL}


@given(
    score=st.one_of(
        st.sampled_from([0.25, math.nextafter(0.5, 0.0), 0.5, 1.0]), st.floats(0.25, 1.0)
    )
)
def test_detection_kind_is_final_exactly_from_half(score):
    # The Workspace files nothing under the provisional threshold, 0.25.
    assert (Detection(proposal("dog"), score, 1).kind == FINAL) is (score >= 0.5)
    ws = Workspace(CATS, True)
    assert ws.observe(proposal("dog"), score, 1)
    assert ws.slots["dog"].kind == (FINAL if score >= 0.5 else PROVISIONAL)


def test_workspace_rejects_unknown_category():
    ws = Workspace(CATS, True)
    with pytest.raises(InvalidInputError):
        ws.observe(proposal("cat"), 0.9, 1)


def test_detected_boxes_in_category_order():
    ws = Workspace(CATS, True)
    ws.observe(proposal("leash"), 0.3, 1)
    ws.observe(proposal("dog_walker"), 0.6, 2)
    assert [c for c, _ in ws.detected_boxes()] == ["dog_walker", "leash"]
    assert ws.remaining() == ["dog", "leash"]


# ---------------------------------------------------------------------------
# MethodConfig validation


def test_method_config_validates_fields():
    with pytest.raises(InvalidInputError):
        MethodConfig(location_prior="sideways")
    with pytest.raises(InvalidInputError):
        MethodConfig(box_prior="guessed")
    with pytest.raises(InvalidInputError):
        MethodConfig(situation_model="psychic")
    with pytest.raises(InvalidInputError):
        MethodConfig(max_iterations=0)
    for cell_size in (math.nan, math.inf, -math.inf, 0.0, -1.0, 0.999):
        message = f"cell_size must be finite and >= 1, got {cell_size}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            MethodConfig(cell_size=cell_size)
    assert MethodConfig(cell_size=1.0).cell_size == 1.0


def test_method_config_salience_follows_the_location_prior():
    # Whether a situation model folds salience into its maps is the location
    # prior's to say, so the model field names no salience variant.
    with pytest.raises(InvalidInputError, match="situation model"):
        MethodConfig(location_prior="salience", situation_model="learned_salience")
    assert MethodConfig(location_prior="salience", situation_model="learned").needs_salience
    assert MethodConfig(location_prior="salience", situation_model="none").needs_salience
    assert not MethodConfig(location_prior="uniform", situation_model="learned").needs_salience


# ---------------------------------------------------------------------------
# score_proposal


def test_score_proposal_oracle_values():
    frame = normalize_frame(1000, 1000)
    ann = easy_annotation()
    gt = {c: to_normalized(*ann.boxes[c], frame) for c in CATS}
    exact = ObjectProposal("dog", gt["dog"])
    assert score_proposal(gt, exact) == 1.0
    disjoint = ObjectProposal("dog", BoundingBox(cx=-490, cy=-490, w=2, h=2))
    assert score_proposal(gt, disjoint) == 0.0
    with pytest.raises(InvalidInputError):
        score_proposal(gt, ObjectProposal("unicorn", gt["dog"]))


def test_score_proposal_half_overlap():
    gt = {"dog": BoundingBox(cx=5, cy=5, w=10, h=10)}
    shifted = ObjectProposal("dog", BoundingBox(cx=10, cy=5, w=10, h=10))
    assert score_proposal(gt, shifted) == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# run_image


def run_config(**kw) -> MethodConfig:
    base = dict(
        location_prior="uniform",
        box_prior="learned",
        situation_model="learned",
        max_iterations=200,
        cell_size=20,
    )
    base.update(kw)
    return MethodConfig(**base)


Scored = namedtuple("Scored", "iteration category box score")


def logging_watch(eager: bool = False):
    """A watch for run_image that logs every proposal it is shown; an
    ``eager`` one also asks for every category's law at each change."""
    log: list[Scored] = []

    def watch(iteration, proposal, score, workspace, shown):
        log.append(Scored(iteration, proposal.category, proposal.box, score))
        if eager and shown is not None:
            shown()

    return watch, log


def script_scores(monkeypatch, scorer) -> None:
    """Score each proposal of run_image's per-proposal loop with ``scorer``."""
    monkeypatch.setattr(search, "score_proposal", lambda gt, proposal: float(scorer(proposal)))


def test_impossible_oracle_fails_after_exactly_max_iterations(degenerate_model, monkeypatch):
    ann = easy_annotation()
    config = run_config(max_iterations=37)
    script_scores(monkeypatch, lambda p: 0.0)
    watch, log = logging_watch()
    result = run_image(degenerate_model, None, config, ann, np.random.default_rng(0), watch)
    assert not result.completed
    assert result.total_iterations == 37
    assert all(v is None for v in result.detections.values())
    assert result.detection_order == []
    assert len(log) == 37


def test_always_perfect_scorer_completes_in_exactly_three(degenerate_model, monkeypatch):
    # Hand simulation: every proposal finalizes its category immediately, so
    # the loop picks each category exactly once: three iterations total.
    ann = easy_annotation()
    script_scores(monkeypatch, lambda p: 1.0)
    watch, log = logging_watch()
    result = run_image(degenerate_model, None, run_config(), ann, np.random.default_rng(5), watch)
    assert result.completed
    assert result.total_iterations == 3
    assert sorted(result.detections.values()) == [1, 2, 3]
    assert [c for c, _ in result.detection_order] != []
    picked = [p.category for p in log]
    assert len(set(picked)) == 3


def test_degenerate_model_completes_quickly_with_real_oracle(degenerate_model):
    result = run_image(
        degenerate_model,
        None,
        run_config(),
        easy_annotation(),
        np.random.default_rng(11),
    )
    assert result.completed
    assert result.total_iterations <= 60


def test_scripted_scores_honor_thresholds(degenerate_model, monkeypatch):
    # Dog proposals score 0.3, 0.4, 0.55 in sequence; everything else 0.
    per_category = defaultdict(int)
    dog_scores = [0.3, 0.4, 0.55]

    def scorer(p):
        if p.category != "dog":
            return 0.0
        idx = min(per_category["dog"], len(dog_scores) - 1)
        per_category["dog"] += 1
        return dog_scores[idx]

    states = []
    dog_dists = []

    def watch(iteration, proposal, score, workspace, shown):
        if shown is not None:
            slot = workspace.slots["dog"]
            states.append((iteration, slot.kind, slot.score))
            dog_dists.append(shown()["dog"])

    script_scores(monkeypatch, scorer)
    result = run_image(
        degenerate_model,
        None,
        run_config(max_iterations=50),
        easy_annotation(),
        np.random.default_rng(3),
        watch,
    )
    kinds = [k for _, k, _ in states]
    scores = [s for _, _, s in states]
    assert kinds == [PROVISIONAL, PROVISIONAL, FINAL]
    assert scores == [0.3, 0.4, 0.55]
    assert [d is None for d in dog_dists] == [False, False, True]  # a final is never drawn again
    assert result.detections["dog"] == states[-1][0]
    assert result.detections["dog_walker"] is None


def test_never_samples_finalized_categories(degenerate_model):
    ann = easy_annotation()
    watch, log = logging_watch()
    config = run_config(max_iterations=120)
    result = run_image(degenerate_model, None, config, ann, np.random.default_rng(17), watch)
    for category, final_at in result.detections.items():
        if final_at is None:
            continue
        later = [p for p in log if p.category == category and p.iteration > final_at]
        assert later == []


def test_noprov_config_never_stores_provisionals(degenerate_model):
    seen_kinds = []

    def watch(iteration, proposal, score, workspace, shown):
        if shown is not None:
            seen_kinds.extend(slot.kind for slot in workspace.slots.values() if slot is not None)

    run_image(
        degenerate_model,
        None,
        run_config(provisional_enabled=False, max_iterations=150),
        easy_annotation(),
        np.random.default_rng(23),
        watch,
    )
    assert set(seen_kinds) <= {FINAL}


def test_run_is_deterministic_per_seed(degenerate_model):
    ann = easy_annotation()
    config = run_config(max_iterations=80)
    (watch_a, log_a), (watch_b, log_b) = logging_watch(), logging_watch()
    a = run_image(degenerate_model, None, config, ann, np.random.default_rng(9), watch_a)
    b = run_image(degenerate_model, None, config, ann, np.random.default_rng(9), watch_b)
    assert a.to_dict() == b.to_dict()
    assert log_a == log_b


def test_proposals_always_inside_frame(degenerate_model, monkeypatch):
    ann = easy_annotation()
    frame = normalize_frame(ann.width, ann.height)
    hx, hy = frame.norm_width / 2, frame.norm_height / 2
    script_scores(monkeypatch, lambda p: 0.0)  # scripted, so the loop makes the run
    watch, log = logging_watch()
    run_image(
        degenerate_model,
        None,
        run_config(box_prior="uniform", situation_model="none", max_iterations=300),
        ann,
        oracles.loop_only(np.random.default_rng(31)),
        watch,
    )
    assert len(log) == 300
    for p in log:
        assert p.box.x0 >= -hx - 1e-9 and p.box.x1 <= hx + 1e-9
        assert p.box.y0 >= -hy - 1e-9 and p.box.y1 <= hy + 1e-9


def test_salience_method_requires_map(degenerate_model):
    with pytest.raises(InvalidInputError):
        run_image(
            degenerate_model,
            None,
            run_config(location_prior="salience"),
            easy_annotation(),
            np.random.default_rng(0),
        )


def test_run_requires_full_ground_truth(degenerate_model):
    partial = SituationAnnotation(
        image_id="partial",
        width=1000,
        height=1000,
        boxes={"dog": (10.0, 10.0, 100.0, 100.0)},
    )
    with pytest.raises(InvalidInputError):
        run_image(degenerate_model, None, run_config(), partial, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# lazy conditioning


@pytest.fixture(scope="module")
def held_out(small_synthetic_dataset):
    """A model learned on most of the shared dataset, and six images it did not see."""
    return learn(small_synthetic_dataset[:50]), small_synthetic_dataset[50:56]


def held_out_runs(held_out, token, eager=False):
    """Each held-out image's run result and the log of its proposals, watched by
    ``logging_watch(eager)``."""
    model, annotations = held_out
    config = replace(config_for_token(token), cell_size=8.0)
    for ann in annotations:
        salience = salience_for_annotation(ann, config.cell_size) if config.needs_salience else None
        watch, log = logging_watch(eager)
        rng = np.random.default_rng(3)
        yield run_image(model, salience, config, ann, rng, watch), log


@pytest.mark.parametrize("token", list(METHOD_TOKENS))
def test_lazy_conditioning_matches_eager(held_out, token):
    # A watch that asks for every category's law at each change conditions
    # each stale category at every Workspace change, and changes no draw.
    lazy = list(held_out_runs(held_out, token))
    eager = list(held_out_runs(held_out, token, eager=True))
    for (a, log_a), (b, log_b) in zip(lazy, eager):
        assert a.to_dict() == b.to_dict()
        assert log_a == log_b


@pytest.mark.parametrize(
    "token", [t for t, c in METHOD_TOKENS.items() if c.situation_model != search.MODEL_NONE]
)
def test_every_density_built_is_drawn_from_before_the_next_change(held_out, token, monkeypatch):
    # A map's density is built by the first draw from its law, never before:
    # each build is followed by the draw from the Gaussian's map it was
    # built for. An exact grid, and its CDF, only by a failed certificate.
    events: list[tuple[str, object]] = []
    laws, exact_grids = [], []
    fell_back = set()
    conditioned, sample, observe = (
        search.conditioned_distribution,
        search.sample_proposal,
        Workspace.observe,
    )
    density_rows, cell_masses, exact_cell = (
        gaussian.density_rows,
        gaussian.cell_masses,
        LocationMap._cell,
    )

    def counting_conditioned(*args):
        laws.append(conditioned(*args))
        return laws[-1]

    def counting_rows(dist, *args):
        events.append(("built", dist))
        return density_rows(dist, *args)

    def counting_masses(*args):
        exact_grids.append(args)
        return cell_masses(*args)

    def recording_exact_cell(lmap, u):
        if isinstance(lmap, GaussianMap):
            fell_back.add(lmap)
        return exact_cell(lmap, u)

    def counting_sample(category, dist, frame, rng):
        proposal = sample(category, dist, frame, rng)
        events.append(("drawn", getattr(dist.location, "gaussian", None)))
        return proposal

    def counting_observe(self, *args, **kwargs):
        changed = observe(self, *args, **kwargs)
        if changed:
            events.append(("change", None))
        return changed

    monkeypatch.setattr(search, "conditioned_distribution", counting_conditioned)
    monkeypatch.setattr(gaussian, "density_rows", counting_rows)
    monkeypatch.setattr(gaussian, "cell_masses", counting_masses)
    monkeypatch.setattr(LocationMap, "_cell", recording_exact_cell)
    monkeypatch.setattr(search, "sample_proposal", counting_sample)
    monkeypatch.setattr(Workspace, "observe", counting_observe)

    for _ in held_out_runs(held_out, token):
        pass
    built = [i for i, (kind, _) in enumerate(events) if kind == "built"]
    assert built and len(built) == len(laws)  # unwatched, a law is made only to be drawn
    for i in built:  # by the draw that needs it, so before any later change
        assert events[i + 1][0] == "drawn" and events[i + 1][1] is events[i][1]
    exact = [law.location for law in laws if "_cdf" in vars(law.location)]
    assert set(exact) == fell_back
    assert len(exact_grids) == len(fell_back)

    # A watch shown every law at each change builds nothing grid-sized: the
    # runs build the same densities in the same order, while more laws are
    # shown than built.
    def schedule():
        return [(kind, None if law is None else law.mean.tobytes()) for kind, law in events]

    lazy = schedule()
    events.clear()
    laws.clear()
    fell_back.clear()
    for _ in held_out_runs(held_out, token, eager=True):
        pass
    assert schedule() == lazy
    assert len(laws) > len(built)


SITUATION_TOKENS = [t for t, c in METHOD_TOKENS.items() if c.situation_model != search.MODEL_NONE]


@pytest.mark.parametrize("token", SITUATION_TOKENS)
def test_every_draw_uses_the_maps_of_the_current_workspace(held_out, token, monkeypatch):
    # The schedule oracle: each draw's maps have the bits of the ones built
    # fresh on the Workspace as it stands, and no category is built twice in
    # a row from the same other-category boxes.
    model, annotations = held_out
    config = replace(config_for_token(token), cell_size=8.0)
    conditioned, sample = search.conditioned_distribution, search.sample_proposal
    workspaces: list[Workspace] = []
    builds: dict[tuple[int, str], list[dict]] = defaultdict(list)
    drawn_conditioned = 0

    class WatchedWorkspace(Workspace):
        def __init__(self, categories, provisional_enabled):
            super().__init__(categories, provisional_enabled)
            workspaces.append(self)

    def recording_conditioned(model, category, detected, *args):
        others = {c: box for c, box in detected.items() if c != category}
        builds[len(workspaces), category].append(others)
        return conditioned(model, category, detected, *args)

    def checked_sample(category, dist, frame, rng):
        nonlocal drawn_conditioned
        detected = dict(workspaces[-1].detected_boxes())
        if detected.keys() - {category}:
            fresh = conditioned(model, category, detected, frame, 8.0, salience)
            drawn_conditioned += 1
        else:  # only its own detection, if any: the method's priors
            fresh = CategorySearchDist(
                salience if config.needs_salience else uniform_map(frame, 8.0),
                model.box_priors[category],
            )
        for name in ("grid", "_cdf"):
            assert np.array_equal(getattr(dist.location, name), getattr(fresh.location, name))
        for name in ("mean", "cov"):
            assert np.array_equal(getattr(dist.alpha_gamma, name), getattr(fresh.alpha_gamma, name))
        return sample(category, dist, frame, rng)

    monkeypatch.setattr(search, "Workspace", WatchedWorkspace)
    monkeypatch.setattr(search, "conditioned_distribution", recording_conditioned)
    monkeypatch.setattr(search, "sample_proposal", checked_sample)
    for ann in annotations:
        salience = salience_for_annotation(ann, 8.0) if config.needs_salience else None
        run_image(model, salience, config, ann, np.random.default_rng(3))
    assert drawn_conditioned > len(annotations)
    for sequence in builds.values():
        assert all(a != b for a, b in itertools.pairwise(sequence))


# ---------------------------------------------------------------------------
# spare grids, and the watch


def conditioned_run(held_out, ann, seed, watch=None, token="uniform-learned-learned", cell=8.0):
    model, _ = held_out
    config = replace(config_for_token(token), cell_size=cell)
    return run_image(model, None, config, ann, np.random.default_rng(seed), watch)


def record_densities(monkeypatch) -> list[np.ndarray]:
    """The array each density is built in, in build order."""
    built = []
    density_rows = gaussian.density_rows

    def recording_rows(dist, xs, ys, weights, out):
        built.append(out)
        return density_rows(dist, xs, ys, weights, out)

    monkeypatch.setattr(gaussian, "density_rows", recording_rows)
    return built


def test_two_conditioned_runs_build_every_density_in_at_most_three_arrays(held_out, monkeypatch):
    # A run holds at most one drawn-from map per category, and a map gives
    # its density back when it is released, so a process keeps no more
    # arrays than that however many maps its runs build.
    ann = held_out[1][0]
    built = record_densities(monkeypatch)
    first = conditioned_run(held_out, ann, 3)
    assert conditioned_run(held_out, ann, 3).to_dict() == first.to_dict()
    assert len(built) > 3 and len({id(out) for out in built}) <= 3


def test_shown_builds_no_density_and_a_drawn_map_builds_its_grid_apart(held_out, monkeypatch):
    # A density is built when its law is first drawn from, in the array
    # density_rows is given, and shown() builds none. A map's exact grid is
    # built only when read, in an array of its own.
    ann = held_out[1][0]
    laws, shown_laws = [], 0
    built = record_densities(monkeypatch)
    conditioned = search.conditioned_distribution

    def recording_conditioned(*args):
        dist = conditioned(*args)
        laws.append(dist.location)
        return dist

    def watch(iteration, proposal, score, workspace, shown):
        nonlocal shown_laws
        if shown is not None:
            before = len(built)
            for dist in shown().values():
                if dist is not None:
                    assert isinstance(dist.location, LocationMap)
                    shown_laws += isinstance(dist.location, GaussianMap)
            assert len(built) == before

    monkeypatch.setattr(search, "conditioned_distribution", recording_conditioned)
    conditioned_run(held_out, ann, 3, watch)
    drawn = [location for location in laws if "_rows" in vars(location)]
    assert drawn and len(drawn) == len(built) < len(laws) <= shown_laws
    for location, out in zip(drawn, built):
        assert location._rows[0] is out
        assert "grid" not in vars(location) and "_cdf" not in vars(location)
    grid = drawn[-1].grid
    assert not grid.flags.writeable
    assert not any(np.shares_memory(grid, out) for out in built)


@pytest.mark.parametrize("token", ["uniform-uniform-none", "uniform-learned-none"])
def test_a_context_free_run_takes_no_spare_grid(held_out, token):
    # Its laws are never conditioned, so the process takes no density grid:
    # a context-free process's peak memory stays its own.
    gaussian._SPARE_GRIDS.clear()
    for ann in held_out[1]:
        conditioned_run(held_out, ann, 3, logging_watch(eager=True)[0], token)
    assert gaussian._SPARE_GRIDS == {}


def test_a_kept_law_draws_what_a_fresh_copy_of_it_draws(held_out):
    # The conditioned laws shown at each run's first change are kept while
    # the runs go on: later maps of the same category must not change the
    # cells they draw.
    kept = []
    for ann in held_out[1]:
        first = []

        def keep_first(iteration, proposal, score, workspace, shown):
            if shown is not None and not first:
                first.extend(dist.location for dist in shown().values() if dist is not None)

        conditioned_run(held_out, ann, 3, keep_first, cell=1.0)
        kept += [law for law in first if isinstance(law, GaussianMap)]
    assert any("_rows" in vars(law) for law in kept)  # some were drawn from in their run
    uniforms = np.random.default_rng(29).random(300)
    for law in kept:
        fresh = rasterize_2d(law.gaussian, law.frame, law.cell_size, law.weights)
        assert [law._cell(u) for u in uniforms] == [fresh._cell(u) for u in uniforms]


@pytest.mark.parametrize(
    "token", ["uniform-learned-learned", "uniform-learned-none"], ids=["loop", "block"]
)
def test_a_run_whose_watch_raises_leaves_the_next_runs_unchanged(held_out, token, monkeypatch):
    def results():
        tokens = ("uniform-learned-learned", "uniform-learned-none")
        return [
            json.dumps(conditioned_run(held_out, ann, 3, token=t).to_dict())
            for t in tokens
            for ann in held_out[1]
        ]

    expected = results()
    calls = itertools.count()

    def raising(iteration, proposal, score, workspace, shown):
        if next(calls) == 7:
            raise RuntimeError("watch failed")

    with monkeypatch.context() as patched:
        if token == "uniform-learned-none":  # raised from inside the first block
            patched.setattr(search, "sample_proposal", no_draws)
        else:  # a provisional first: the others are conditioned
            first = itertools.count()
            script_scores(patched, lambda p: 0.3 if next(first) == 0 else 0.0)
        with pytest.raises(RuntimeError, match="watch failed"):
            conditioned_run(held_out, held_out[1][0], 3, raising, token)
    assert results() == expected


@pytest.mark.parametrize("token", ["uniform-uniform-none", "uniform-learned-none"])
def test_a_watched_context_free_run_is_scored_in_blocks(held_out, token, monkeypatch):
    draw, draws = search._draw, []

    def recording_draw(*args):
        draws.append(args[2])
        return draw(*args)

    monkeypatch.setattr(search, "_draw", recording_draw)
    monkeypatch.setattr(search, "sample_proposal", no_draws)
    for run, log in held_out_runs(held_out, token, eager=True):
        assert [record.iteration for record in log] == list(range(1, run.total_iterations + 1))
    assert draws


# ---------------------------------------------------------------------------
# evaluate_proposal_set


def far_corner_annotation():
    return SituationAnnotation(
        image_id="corner",
        width=1000,
        height=1000,
        boxes={
            "dog_walker": (0.0, 0.0, 200.0, 200.0),
            "dog": (300.0, 0.0, 150.0, 150.0),
            "leash": (0.0, 300.0, 120.0, 120.0),
        },
    )


def test_proposal_set_of_ground_truth_completes_fast():
    ann = far_corner_annotation()
    proposals = [ann.boxes[c] for c in sorted(ann.boxes)]
    result = evaluate_proposal_set(proposals, ann, rng=np.random.default_rng(0))
    assert result.completed
    assert result.total_iterations <= 3


def test_disjoint_proposals_fail():
    ann = far_corner_annotation()
    junk = [(900.0 + (i % 50), 900.0 + (i // 50), 2.0, 2.0) for i in range(1500)]
    result = evaluate_proposal_set(junk, ann, budget=1000, rng=np.random.default_rng(1))
    assert not result.completed
    assert result.total_iterations == 1000
    assert all(v is None for v in result.detections.values())


def test_planted_ground_truth_matches_shuffle_replay():
    ann = far_corner_annotation()
    junk = [(700.0, 700.0, 3.0, 3.0)] * 200
    proposals = list(junk)
    planted = {50: "dog_walker", 120: "dog", 180: "leash"}
    for index, cat in planted.items():
        proposals[index] = ann.boxes[cat]

    seed = 77
    result = evaluate_proposal_set(
        proposals, ann, budget=1000, rng=np.random.default_rng(seed)
    )
    # oracle: replay the same seeded shuffle and find the planted positions
    perm = list(np.random.default_rng(seed).permutation(len(proposals)))
    draw_positions = {cat: perm.index(idx) + 1 for idx, cat in planted.items()}
    assert result.completed
    assert result.total_iterations == max(draw_positions.values())
    for cat, pos in draw_positions.items():
        assert result.detections[cat] == pos


def test_budget_cuts_off_search():
    ann = far_corner_annotation()
    proposals = [(700.0, 700.0, 3.0, 3.0)] * 50 + [ann.boxes["dog"]]
    result = evaluate_proposal_set(proposals, ann, budget=5, rng=np.random.default_rng(3))
    assert result.total_iterations == 5
    assert not result.completed


def test_one_draw_finalizing_two_objects_orders_them_by_category():
    ann = SituationAnnotation(
        image_id="shared",
        width=1000,
        height=1000,
        boxes={
            "leash": (0.0, 300.0, 120.0, 120.0),
            "dog_walker": (0.0, 0.0, 200.0, 200.0),
            "dog": (10.0, 10.0, 190.0, 190.0),
        },
    )
    proposals = [(700.0, 700.0, 3.0, 3.0)] * 8 + [ann.boxes["dog_walker"], ann.boxes["leash"]]
    result = evaluate_proposal_set(proposals, ann, rng=np.random.default_rng(4))
    # Printed when the order was still appended draw by draw, category by category.
    assert result.to_dict() == {
        "completed": True,
        "total_iterations": 6,
        "detections": {"dog": 6, "dog_walker": 6, "leash": 5},
        "detection_order": [["leash", 5], ["dog", 6], ["dog_walker", 6]],
    }


def test_empty_proposals_rejected():
    with pytest.raises(InvalidInputError):
        evaluate_proposal_set([], far_corner_annotation(), rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the per-proposal step, bit for bit against its first-written bodies


def reference_sample_point(lmap: LocationMap, rng) -> tuple[float, float]:
    """LocationMap.sample_point as first written: np.searchsorted, three rng.random() calls."""
    cdf = np.cumsum(lmap.grid.ravel())
    u = rng.random() * cdf[-1]
    idx = int(np.searchsorted(cdf, u, side="right"))
    idx = min(idx, lmap.grid.size - 1)
    row, col = divmod(idx, lmap.grid.shape[1])
    hx = lmap.frame.norm_width / 2
    hy = lmap.frame.norm_height / 2
    x = -hx + (col + rng.random()) * lmap.cell_size
    y = -hy + (row + rng.random()) * lmap.cell_size
    return min(x, hx), min(y, hy)


def reference_box_from_descriptor(cx, cy, alpha, gamma, frame) -> BoundingBox:
    """box_from_descriptor as first written, with no bounds on the sides."""
    root_area = math.sqrt(frame.area)
    w = root_area * math.exp((alpha + gamma) / 2)
    h = root_area * math.exp((alpha - gamma) / 2)
    return BoundingBox(cx=cx, cy=cy, w=w, h=h)


def reference_sample_proposal(
    category: str, dist: CategorySearchDist, frame, rng
) -> ObjectProposal:
    cx, cy = reference_sample_point(dist.location, rng)
    if isinstance(dist.alpha_gamma, LogUniformBox):
        alpha, gamma = dist.alpha_gamma.sample(rng)
    else:
        a, g = dist.alpha_gamma.sample(rng)
        alpha, gamma = float(a), float(g)
    box = crop_to_frame(reference_box_from_descriptor(cx, cy, alpha, gamma, frame), frame)
    return ObjectProposal(category=category, box=box)


def hexes(*values: float) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def box_hexes(box: BoundingBox) -> tuple[str, ...]:
    return hexes(box.cx, box.cy, box.w, box.h)


def inside(box: BoundingBox, frame) -> bool:
    hx, hy = frame.norm_width / 2, frame.norm_height / 2
    slack = 1e-9 * max(hx, hy)  # corners are recomputed from the cropped centre and size
    return (
        box.x0 >= -hx - slack
        and box.x1 <= hx + slack
        and box.y0 >= -hy - slack
        and box.y1 <= hy + slack
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), before=st.integers(0, 3))
def test_three_uniforms_in_one_call_match_three_calls(seed, before):
    one, three = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (one, three):
        rng.standard_normal(before)  # start from any point of the stream
    assert hexes(*one.random(3).tolist()) == hexes(*(three.random() for _ in range(3)))
    assert one.bit_generator.state == three.bit_generator.state


@st.composite
def location_maps(draw):
    """Small maps on frames of any shape; weights sparse, dense or all in the last cell."""
    frame = normalize_frame(draw(st.integers(1, 3000)), draw(st.integers(1, 3000)))
    cell = draw(st.sampled_from([4.0, 7.0, 19.5, 33.3]))
    if min(frame.norm_width, frame.norm_height) < cell:
        cell = 1.0
    rows, cols = grid_shape(frame, cell)
    assume(rows * cols <= 40_000)
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, cols))
    kind = draw(st.sampled_from(["dense", "sparse", "last"]))
    if kind == "sparse":
        weights[weights < 0.9] = 0.0
        weights[0, 0] += 1e-300
    elif kind == "last":  # the clamped edge cells, where x or y would pass the frame
        weights = np.zeros((rows, cols))
        weights[-1, -1] = 1.0
    return LocationMap(frame=frame, cell_size=cell, grid=weights)


@settings(max_examples=60, deadline=None)
@given(lmap=location_maps(), seed=st.integers(0, 2**32 - 1))
def test_sample_point_is_bit_identical_to_reference(lmap, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(25):
        assert hexes(*lmap.sample_point(rng)) == hexes(*reference_sample_point(lmap, reference))
        assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=400, deadline=None)
@given(
    size=st.tuples(st.integers(1, 4000), st.integers(1, 4000)),
    fx=st.one_of(st.floats(-1, 1), st.sampled_from([-1.0, 1.0])),
    fy=st.one_of(st.floats(-1, 1), st.sampled_from([-1.0, 1.0])),
    alpha=st.one_of(st.floats(-12, 2), st.floats(-3000, 3000)),
    gamma=st.one_of(st.floats(-4, 4), st.floats(-3000, 3000)),
)
def test_box_from_descriptor_matches_reference_inside_its_bounds(size, fx, fy, alpha, gamma):
    frame = normalize_frame(*size)
    cx, cy = fx * frame.norm_width / 2, fy * frame.norm_height / 2  # centres reach the edges
    box = box_from_descriptor(cx, cy, alpha, gamma, frame)
    assert MIN_BOX_SIDE <= box.w <= 2 * frame.norm_width
    assert MIN_BOX_SIDE <= box.h <= 2 * frame.norm_height
    cropped = crop_to_frame(box, frame)  # never raises
    assert inside(cropped, frame)
    try:
        reference = reference_box_from_descriptor(cx, cy, alpha, gamma, frame)
    except (OverflowError, InvalidInputError):  # e^x overflowed, or a side underflowed to 0
        return
    if reference.w < MIN_BOX_SIDE or reference.h < MIN_BOX_SIDE:
        return  # a side under the floor, raised to MIN_BOX_SIDE by the new body
    if reference.w <= 2 * frame.norm_width and reference.h <= 2 * frame.norm_height:
        assert box_hexes(box) == box_hexes(reference)
    # A side cut to twice the frame's crops exactly as the unbounded one.
    assert box_hexes(cropped) == box_hexes(crop_to_frame(reference, frame))


def test_box_from_descriptor_still_rejects_nan():
    frame = normalize_frame(640, 480)
    with pytest.raises(InvalidInputError):
        box_from_descriptor(0.0, 0.0, float("nan"), 0.0, frame)


@pytest.fixture(scope="module")
def step_dists(held_out):
    """Uniform, learned-prior and conditioned search distributions on three frames."""
    model, annotations = held_out
    out = []
    for width, height in ((640, 480), (1, 900), (3000, 40)):
        frame = normalize_frame(width, height)
        cell = min(8.0, frame.norm_width, frame.norm_height)
        uniform = uniform_map(frame, cell)
        out.append((frame, "dog", CategorySearchDist(uniform, LogUniformBox())))
        out.append((frame, "dog", CategorySearchDist(uniform, model.box_priors["dog"])))
        ann = annotations[0]
        detected = {"dog_walker": to_normalized(*ann.boxes["dog_walker"], frame)}
        leash = conditioned_distribution(model, "leash", detected, frame, cell)
        out.append((frame, "leash", leash))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**31 + 5])
def test_sample_proposal_is_bit_identical_to_reference(step_dists, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for frame, category, dist in step_dists:
        for _ in range(200):
            got = sample_proposal(category, dist, frame, rng)
            want = reference_sample_proposal(category, dist, frame, reference)
            assert got.category == want.category
            assert box_hexes(got.box) == box_hexes(want.box)
            assert rng.bit_generator.state == reference.bit_generator.state


# SHA-256 of every run's to_dict() and proposal log, per token, over the
# six held-out images (cell_size 8, rng seed 3), computed before the
# per-proposal step was trimmed: the random stream and every float must stay.
PROPOSAL_STREAM_DIGESTS = {
    "uniform-uniform-none": "347e1ce48e5d06e4e5801ca7cd50106ae70662e88c6894bdc6de84d0186a6327",
    "uniform-learned-none": "570affc77f906bcdb47f9249c01f9c93207aac8269e6b572a0938cb0831f3224",
    "salience-uniform-none": "5779c8b024af0046afbb0eff22b3c67a2485708cee6db18786ddcfb3ae9e92b1",
    "uniform-learned-learned": "f53e77d17831cf353d4894bd016269b1ba7e2f9bf4656cca8b948b12bb0110f7",
    "salience-learned-learned": "7d300f80ac74c96cce4a2c3abd65d1409bd9f8ec64f1733f5a8e13c1b14f10c3",
    "salience-learned-learned-noprov": (
        "e57694c1f38fd8750a8f875ed97295ed32b85cf263d52bc020470be0be1c86f3"
    ),
}


@pytest.mark.parametrize("token", list(METHOD_TOKENS))
def test_proposal_stream_matches_pinned_digest(held_out, token):
    digest = hashlib.sha256()
    for run, log in held_out_runs(held_out, token):
        records = [[i, c, b.cx, b.cy, b.w, b.h, score] for i, c, b, score in log]
        digest.update(json.dumps([run.to_dict(), records]).encode())
    assert digest.hexdigest() == PROPOSAL_STREAM_DIGESTS[token]


# ---------------------------------------------------------------------------
# block scoring of context-free runs


def run_logging_changes(*args):
    """run_image's result, and each Workspace change it made: iteration, slot and box bits."""
    changes = []

    class LoggingWorkspace(Workspace):
        def observe(self, proposal, score, iteration):
            changed = super().observe(proposal, score, iteration)
            if changed:
                slot = self.slots[proposal.category]
                box = box_hexes(slot.proposal.box)
                changes.append((iteration, proposal.category, slot.kind, hexes(score), box))
            return changed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "Workspace", LoggingWorkspace)
        return run_image(*args), changes


def assert_blocks_match_the_loop(
    model, config, annotation, seeds, make_rng=np.random.default_rng
):
    """run_image makes the changes, result and generator state of the per-proposal
    loop, which makes the run on the same stream through ``oracles.loop_only``."""
    salience = (
        salience_for_annotation(annotation, config.cell_size) if config.needs_salience else None
    )
    for seed in seeds:
        blocks, loop = make_rng(seed), oracles.loop_only(make_rng(seed))
        got = run_logging_changes(model, salience, config, annotation, blocks)
        want = run_logging_changes(model, salience, config, annotation, loop)
        assert got == want
        assert generator_state(blocks) == generator_state(loop)


def generator_state(rng) -> str:
    """The bit generator's state but for its class name, comparable also where it
    holds arrays (MT19937, Philox)."""
    state = {**rng.bit_generator.state, "bit_generator": None}
    return json.dumps(state, default=np.ndarray.tolist)


CONTEXT_FREE = [
    *(c for c in METHOD_TOKENS.values() if c.situation_model == search.MODEL_NONE),
    MethodConfig("salience", "learned", "none"),
    MethodConfig("salience", "learned", "none", provisional_enabled=False),
]


@pytest.mark.parametrize("config", CONTEXT_FREE, ids=method_label)
@pytest.mark.parametrize("budget", [1, 63, 64, 65, 1000])
def test_block_scoring_matches_the_per_proposal_loop(held_out, config, budget):
    model, annotations = held_out
    config = replace(config, max_iterations=budget, cell_size=8.0)
    for i, ann in enumerate(annotations):
        assert_blocks_match_the_loop(model, config, ann, seeds=[i, 100 + i])


def test_block_scoring_rewinds_at_finals_mid_block(degenerate_model):
    # Box priors fitted to the easy boxes find each object within a few
    # dozen proposals, so most finals fall inside a block, which is then
    # rewound and redrawn up to them.
    config = replace(config_for_token("uniform-learned-none"), cell_size=8.0)
    assert_blocks_match_the_loop(degenerate_model, config, easy_annotation(), seeds=range(20))
    results = [
        run_image(degenerate_model, None, config, easy_annotation(), np.random.default_rng(seed))
        for seed in range(20)
    ]
    assert all(r.completed for r in results)
    finals = [t for r in results for t in r.detections.values()]
    assert any(t % search.BLOCK_SIZE for t in finals)


@pytest.mark.parametrize("size", [(1, 900), (3000, 40)], ids=["1x900", "3000x40"])
@pytest.mark.parametrize("config", CONTEXT_FREE, ids=method_label)
def test_block_scoring_matches_the_loop_on_extreme_frames(held_out, size, config):
    width, height = size
    ann = SituationAnnotation(
        image_id=f"{width}x{height}",
        width=width,
        height=height,
        boxes={
            "dog_walker": (0.0, 0.0, width * 0.5, height * 0.6),
            "dog": (width * 0.3, height * 0.2, width * 0.7, height * 0.4),
            "leash": (width * 0.1, height * 0.5, width * 0.2, height * 0.5),
        },
    )
    config = replace(config, max_iterations=300, cell_size=4.0)
    assert_blocks_match_the_loop(held_out[0], config, ann, seeds=range(4))


def no_draws(*args):
    raise AssertionError("a block decoded words the per-proposal loop must draw")


def record_block_side(monkeypatch) -> list[tuple]:
    """The draws of runs on a generator other than ``oracles.loop_only``'s, in order:
    ("draw", first rejected pick) per ``_draw``, ("block", iterations made,
    proposals returned) per ``_block`` and ("single", category) per
    ``sample_proposal``."""
    events = []
    draw, block, sample = search._draw, search._block, search.sample_proposal

    def recording_draw(*args):
        draws, rejected = draw(*args)
        events.append(("draw", rejected))
        return draws, rejected

    def recording_block(*args):
        made, filed = block(*args)
        events.append(("block", made, len(filed)))
        return made, filed

    def recording_sample(category, dist, frame, rng):
        if not isinstance(rng.bit_generator, oracles.LoopPCG64):
            events.append(("single", category))
        return sample(category, dist, frame, rng)

    monkeypatch.setattr(search, "_draw", recording_draw)
    monkeypatch.setattr(search, "_block", recording_block)
    monkeypatch.setattr(search, "sample_proposal", recording_sample)
    return events


@pytest.mark.parametrize(
    "mean", [(1.7e308, 1.7e308), (1.7e308, -1.7e308), (-1.7e308, -1.7e308)]
)
def test_block_scoring_matches_the_loop_on_an_overflowing_descriptor(
    held_out, mean, monkeypatch
):
    # A model file may give a box prior any finite mean. Every leash draw's
    # alpha + gamma or alpha - gamma overflows to an infinite log-side, which
    # clamps to the ceiling or to MIN_BOX_SIDE in the arrays as in the
    # per-proposal step, so blocks make the whole run: no draw is single.
    model, annotations = held_out
    doc = model_to_dict(model)
    doc["box_priors"]["leash"] = {
        name: {"mean": m, "std": 0.5} for name, m in zip(("alpha", "gamma"), mean)
    }
    model = model_from_dict(doc)
    config = replace(config_for_token("uniform-learned-none"), cell_size=8.0)
    events = record_block_side(monkeypatch)
    for ann in annotations:
        assert_blocks_match_the_loop(model, config, ann, seeds=[0, 1])
    assert any(kind == "block" for kind, *_ in events)
    assert all(kind != "single" for kind, *_ in events)


def buffered_rng(seed: int, has_uint32: int, uinteger: int, zero_word: int | None = None):
    """A PCG64 generator with the given half-word buffer.

    With ``zero_word``, the stream's ``zero_word``-th word from here is 0:
    PCG64 outputs the xor of its new 128-bit state's halves, rotated, so a
    state with equal halves gives a word whose two half-words numpy rejects
    for three categories.
    """
    bitgen = np.random.PCG64(seed)
    if zero_word is not None:
        state = bitgen.state
        state["state"]["state"] = (seed << 64) | seed
        bitgen.state = state
        bitgen.advance(-zero_word)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    bitgen.state = state
    return np.random.Generator(bitgen)


def box_priors(kind: str, n: int) -> list:
    """``n`` categories' box priors: log-uniform, or diagonal Gaussians apart per category."""
    if kind == "log-uniform":
        return [LogUniformBox()] * n
    return [
        MultivariateGaussian(("alpha", "gamma"), [-2.0 - k, 0.5 * k], np.diag([0.3, 0.4 / (k + 1)]))
        for k in range(n)
    ]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    has_uint32=st.integers(0, 1),
    uinteger=st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
    n=st.integers(1, 3),
    size=st.integers(1, 64),
    kind=st.sampled_from(["log-uniform", "diagonal"]),
    zero_word=st.one_of(st.none(), st.integers(1, 300)),
)
def test_block_draws_decode_the_per_call_draws(
    seed, has_uint32, uinteger, n, size, kind, zero_word
):
    location = uniform_map(normalize_frame(640, 480), 8.0)
    searched = [CategorySearchDist(location, box) for box in box_priors(kind, n)]
    blocks = buffered_rng(seed, has_uint32, uinteger, zero_word)
    calls = buffered_rng(seed, has_uint32, uinteger, zero_word)
    got, rejected = search._draw(blocks, searched, size)
    want, want_rejected = oracles.draw(calls, searched, size)
    assert rejected == want_rejected
    drawn = size if rejected is None else rejected
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert hexes(*g[:drawn].ravel().tolist()) == hexes(*w[:drawn].ravel().tolist())
    if rejected is None:
        assert blocks.bit_generator.state == calls.bit_generator.state


def single_draws(events: list[tuple]) -> list[int]:
    """Where a run recorded by ``record_block_side`` drew singly: each index into
    ``events``, checked to follow a block that made no iteration at a rejected pick."""
    singles = [i for i, (kind, *_) in enumerate(events) if kind == "single"]
    for i in singles:
        blocks = [e for e in events[:i] if e[0] == "block"]
        draws = [e for e in events[:i] if e[0] == "draw"]
        assert blocks[-1][1] == 0 and draws[-2][1] == 0
    return singles


@pytest.mark.parametrize(
    "token, zero_word", [("uniform-uniform-none", 441), ("uniform-learned-none", 801)]
)
def test_block_scoring_matches_the_loop_from_a_rejected_pick(
    held_out, token, zero_word, monkeypatch
):
    # The planted zero word is read for a pick among three in the middle of a
    # later block: numpy rejects both of its half-words. Blocks file what
    # came before it, the pick's iteration is drawn alone, and blocks go on.
    model, annotations = held_out
    config = replace(config_for_token(token), cell_size=8.0)
    events = record_block_side(monkeypatch)
    handoffs = []
    for ann in annotations:
        events.clear()
        assert_blocks_match_the_loop(
            model, config, ann, [0], lambda seed: buffered_rng(seed, 0, 0, zero_word)
        )
        rejected = any(kind == "draw" and at is not None for kind, at, *_ in events)
        singles = single_draws(events)
        assert len(singles) == rejected  # a rejected pick costs one single draw
        for i in singles:
            blocks = [e for e in events[:i] if e[0] == "block"]
            made, filed = sum(e[1] for e in blocks), sum(e[2] for e in blocks)
            handoffs.append((made, filed, events[i + 1 :]))
    assert any(
        search.BLOCK_SIZE < t < config.max_iterations and t % search.BLOCK_SIZE and filed
        for t, filed, _ in handoffs
    )
    # _draw runs again after the single draw: blocks resume.
    assert any(after and after[0][0] == "draw" for *_, after in handoffs)


@pytest.mark.parametrize("token", ["uniform-uniform-none", "uniform-learned-none"])
def test_a_block_whose_first_pick_is_rejected_makes_no_iteration(held_out, token, monkeypatch):
    # The run's first word is zero, so numpy rejects its first pick: the
    # first block makes no iteration, the pick's iteration is drawn alone,
    # and every later draw is a block's.
    model, annotations = held_out
    config = replace(config_for_token(token), cell_size=8.0)
    events = record_block_side(monkeypatch)
    for ann in annotations:
        events.clear()
        assert_blocks_match_the_loop(
            model, config, ann, [0], lambda seed: buffered_rng(seed, 0, 0, zero_word=1)
        )
        assert single_draws(events) == [3]
        assert events[:3] == [("draw", 0), ("draw", None), ("block", 0, 0)]
        assert events[4][0] == "draw"


def test_a_watched_run_sees_every_iteration_across_a_rejected_pick(held_out, monkeypatch):
    # Watched, a block shows every proposal it makes; the single draw at the
    # rejected pick fills its iteration, so the watch sees 1..N with no gap,
    # with the proposals and scores of the per-proposal loop.
    model, annotations = held_out
    config = replace(config_for_token("uniform-uniform-none"), cell_size=8.0)
    events = record_block_side(monkeypatch)
    drew_singly = 0
    for ann in annotations:
        events.clear()
        logs = []
        for rng in (buffered_rng(0, 0, 0, 441), oracles.loop_only(buffered_rng(0, 0, 0, 441))):
            watch, log = logging_watch()
            run = run_image(model, None, config, ann, rng, watch)
            assert [record.iteration for record in log] == list(range(1, run.total_iterations + 1))
            logs.append(log)
        assert logs[0] == logs[1]
        drew_singly += len(single_draws(events))
    assert drew_singly


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, oracles.LoopPCG64]
)
@pytest.mark.parametrize("config", CONTEXT_FREE, ids=method_label)
def test_runs_on_other_bit_generators_keep_the_per_proposal_loop(
    held_out, config, bit_generator, monkeypatch
):
    # Blocks decode PCG64's words; MT19937, for one, makes a double from two
    # 32-bit outputs. The tests' PCG64 subclass is declined too, which makes
    # it the loop's side of every block-against-loop check.
    monkeypatch.setattr(search, "_draw", no_draws)
    model, annotations = held_out
    config = replace(config, max_iterations=300, cell_size=8.0)
    for ann in annotations[:3]:
        assert_blocks_match_the_loop(
            model, config, ann, [0, 1], lambda seed: np.random.Generator(bit_generator(seed))
        )


# ---------------------------------------------------------------------------
# the loop never raises on a valid model


def wide_box_model(model, std: float):
    """The model with box priors of the given std and box joints widened to match."""

    def widen(joint):
        return MultivariateGaussian(joint.dims, joint.mean, joint.cov * std**2, joint.epsilon)

    return replace(
        model,
        box_priors={
            c: MultivariateGaussian(p.dims, p.mean, np.diag([std**2, std**2]))
            for c, p in model.box_priors.items()
        },
        box_joints={group: widen(j) for group, j in model.box_joints.items()},
    )


def test_tiny_box_from_a_wide_prior_does_not_crash_the_run(held_out):
    # With std 50 a proposal's side fell below what the frame's floats could
    # crop, and run_image raised NoOverlapError mid-run.
    ann = generate_synthetic(default_generator_config(seed=1), 1)[0]
    model = wide_box_model(held_out[0], 50.0)
    config = config_for_token("uniform-learned-none")
    result = run_image(model, None, config, ann, np.random.default_rng(0))
    assert result.total_iterations == config.max_iterations


@pytest.mark.parametrize("token", list(METHOD_TOKENS))
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    std=st.one_of(st.floats(1.0, 1e6), st.sampled_from([50.0, 1e3, 1e150])),
    seed=st.integers(0, 2**32 - 1),
    image=st.integers(0, 5),
    scripted=st.booleans(),
)
def test_run_image_never_raises_on_huge_box_variance(held_out, token, std, seed, image, scripted):
    model, annotations = held_out
    ann = annotations[image]
    config = replace(config_for_token(token), cell_size=8.0, max_iterations=150)
    salience = salience_for_annotation(ann, config.cell_size) if config.needs_salience else None
    watch, log = logging_watch()
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        if scripted:  # a detection every few proposals, so the wide joints get conditioned
            scores = itertools.cycle([0.0] * 6 + [0.3] + [0.0] * 6 + [0.6])
            script_scores(patch, lambda proposal: next(scores))
            rng = oracles.loop_only(rng)
        run_image(wide_box_model(model, std), salience, config, ann, rng, watch)
    frame = normalize_frame(ann.width, ann.height)
    assert log
    for record in log:
        assert inside(record.box, frame)


def near_singular_location_model(model, scale: float, rank_one: bool):
    """The model with every location joint shrunk by ``scale`` in std, and
    optionally squeezed onto its principal axis plus a ridge 1e-12 its size."""

    def squeeze(joint):
        cov = joint.cov * scale**2
        if rank_one:
            w, v = np.linalg.eigh(cov)
            cov = w[-1] * (np.outer(v[:, -1], v[:, -1]) + 1e-12 * np.eye(joint.dim))
        return MultivariateGaussian(joint.dims, joint.mean, cov, joint.epsilon)

    return replace(
        model,
        loc_joints={group: squeeze(j) for group, j in model.loc_joints.items()},
    )


@pytest.mark.parametrize("token", list(METHOD_TOKENS))
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    data=st.data(),
    cell_size=st.sampled_from([1.0, 4.0, 8.0]),
    scale=st.one_of(st.sampled_from([1e-150, 1e-8, 1.0]), st.floats(1e-6, 10.0)),
    rank_one=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scripted=st.booleans(),
)
def test_run_image_never_raises_on_extreme_frames_and_near_singular_joints(
    held_out, token, data, cell_size, scale, rank_one, seed, scripted
):
    model = near_singular_location_model(held_out[0], scale, rank_one)
    config = replace(config_for_token(token), cell_size=cell_size, max_iterations=120)
    # At cell size 1, the salience methods' frames include ones thinner than a working cell.
    thinnest = max(cell_size, SALIENCE_THINNEST) if config.needs_salience else cell_size
    ann = data.draw(extreme_annotations(thinnest))
    salience = salience_for_annotation(ann, cell_size) if config.needs_salience else None
    watch, log = logging_watch()
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        if scripted:  # a detection every few proposals, so the location joints get conditioned
            scores = itertools.cycle([0.0] * 4 + [0.3] + [0.0] * 4 + [0.6])
            script_scores(patch, lambda proposal: next(scores))
            rng = oracles.loop_only(rng)
        run_image(model, salience, config, ann, rng, watch)
    frame = normalize_frame(ann.width, ann.height)
    assert log
    for record in log:
        assert inside(record.box, frame)

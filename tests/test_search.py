from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from situsearch.datagen import SituationAnnotation
from situsearch.errors import InvalidInputError
from situsearch.geometry import BoundingBox, normalize_frame, to_normalized
from situsearch.search import (
    FINAL,
    PROVISIONAL,
    MethodConfig,
    ObjectProposal,
    Workspace,
    evaluate_proposal_set,
    run_image,
    score_proposal,
)
from situsearch.situation_model import learn

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


def proposal(category: str, score: float | None = None) -> ObjectProposal:
    return ObjectProposal(category, BoundingBox(0, 0, 10, 10), score)


# ---------------------------------------------------------------------------
# Workspace state machine


def test_threshold_sequence_prov_replace_final():
    ws = Workspace(CATS)
    assert ws.observe(proposal("dog"), 0.3, 1) is True
    assert ws.slots["dog"].kind == PROVISIONAL
    assert ws.slots["dog"].proposal.score == 0.3

    assert ws.observe(proposal("dog"), 0.4, 2) is True  # better provisional replaces
    assert ws.slots["dog"].kind == PROVISIONAL
    assert ws.slots["dog"].proposal.score == 0.4

    assert ws.observe(proposal("dog"), 0.35, 3) is False  # worse provisional ignored
    assert ws.slots["dog"].proposal.score == 0.4

    assert ws.observe(proposal("dog"), 0.55, 4) is True
    assert ws.slots["dog"].kind == FINAL


def test_final_is_absorbing():
    ws = Workspace(CATS)
    ws.observe(proposal("dog"), 0.9, 1)
    assert ws.slots["dog"].kind == FINAL
    assert ws.observe(proposal("dog"), 1.0, 2) is False
    assert ws.slots["dog"].proposal.score == 0.9
    assert ws.slots["dog"].iteration == 1


def test_below_provisional_threshold_ignored():
    ws = Workspace(CATS)
    assert ws.observe(proposal("dog"), 0.2, 1) is False
    assert ws.slots["dog"] is None


def test_noprov_mode_only_finals():
    ws = Workspace(CATS)
    assert ws.observe(proposal("dog"), 0.45, 1, provisional_enabled=False) is False
    assert ws.slots["dog"] is None
    assert ws.observe(proposal("dog"), 0.5, 2, provisional_enabled=False) is True
    assert ws.slots["dog"].kind == FINAL


def test_slot_scores_never_decrease_under_random_streams():
    rng = np.random.default_rng(12)
    for _ in range(200):
        ws = Workspace(CATS)
        history = defaultdict(list)
        for t in range(60):
            cat = CATS[int(rng.integers(3))]
            score = float(rng.random())
            before = ws.slots[cat]
            ws.observe(proposal(cat, score), score, t + 1)
            after = ws.slots[cat]
            if after is not None:
                history[cat].append((after.kind, after.proposal.score))
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


def test_workspace_rejects_unknown_category():
    ws = Workspace(CATS)
    with pytest.raises(InvalidInputError):
        ws.observe(proposal("cat"), 0.9, 1)


def test_detected_boxes_in_category_order():
    ws = Workspace(CATS)
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
        MethodConfig(provisional_threshold=0.7, final_threshold=0.5)
    with pytest.raises(InvalidInputError):
        MethodConfig(provisional_threshold=0.0)
    with pytest.raises(InvalidInputError):
        MethodConfig(max_iterations=0)


def test_method_config_rejects_salience_mismatch():
    # A situation model combines with salience exactly when the location
    # prior is salience; either mismatch would run a different method than
    # its label names.
    with pytest.raises(InvalidInputError, match="location prior"):
        MethodConfig(location_prior="salience", situation_model="learned")
    with pytest.raises(InvalidInputError, match="location prior"):
        MethodConfig(location_prior="uniform", situation_model="learned_salience")
    assert MethodConfig(location_prior="salience", situation_model="learned_salience").needs_salience
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
        record_proposals=True,
    )
    base.update(kw)
    return MethodConfig(**base)


def test_impossible_oracle_fails_after_exactly_max_iterations(degenerate_model):
    ann = easy_annotation()
    config = run_config(max_iterations=37)
    result = run_image(
        degenerate_model,
        None,
        config,
        ann,
        np.random.default_rng(0),
        scorer=lambda p: 0.0,
    )
    assert not result.completed
    assert result.total_iterations == 37
    assert all(v is None for v in result.detections.values())
    assert result.detection_order == []
    assert len(result.proposals) == 37


def test_always_perfect_scorer_completes_in_exactly_three(degenerate_model):
    # Hand simulation: every proposal finalizes its category immediately, so
    # the loop picks each category exactly once: three iterations total.
    result = run_image(
        degenerate_model,
        None,
        run_config(),
        easy_annotation(),
        np.random.default_rng(5),
        scorer=lambda p: 1.0,
    )
    assert result.completed
    assert result.total_iterations == 3
    assert sorted(result.detections.values()) == [1, 2, 3]
    assert [c for c, _ in result.detection_order] != []
    picked = [p.category for p in result.proposals]
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


def test_scripted_scores_honor_thresholds(degenerate_model):
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

    def observer(iteration, workspace, dists):
        slot = workspace.slots["dog"]
        states.append((iteration, slot.kind, slot.proposal.score))

    result = run_image(
        degenerate_model,
        None,
        run_config(max_iterations=50),
        easy_annotation(),
        np.random.default_rng(3),
        scorer=scorer,
        observer=observer,
    )
    kinds = [k for _, k, _ in states]
    scores = [s for _, _, s in states]
    assert kinds == [PROVISIONAL, PROVISIONAL, FINAL]
    assert scores == [0.3, 0.4, 0.55]
    assert result.detections["dog"] == states[-1][0]
    assert result.detections["dog_walker"] is None


def test_never_samples_finalized_categories(degenerate_model):
    result = run_image(
        degenerate_model,
        None,
        run_config(max_iterations=120),
        easy_annotation(),
        np.random.default_rng(17),
    )
    for category, final_at in result.detections.items():
        if final_at is None:
            continue
        later = [p for p in result.proposals if p.category == category and p.iteration > final_at]
        assert later == []


def test_noprov_config_never_stores_provisionals(degenerate_model):
    seen_kinds = []

    def observer(iteration, workspace, dists):
        seen_kinds.extend(
            slot.kind for slot in workspace.slots.values() if slot is not None
        )

    run_image(
        degenerate_model,
        None,
        run_config(provisional_enabled=False, max_iterations=150),
        easy_annotation(),
        np.random.default_rng(23),
        observer=observer,
    )
    assert set(seen_kinds) <= {FINAL}


def test_run_is_deterministic_per_seed(degenerate_model):
    ann = easy_annotation()
    config = run_config(max_iterations=80)
    a = run_image(degenerate_model, None, config, ann, np.random.default_rng(9))
    b = run_image(degenerate_model, None, config, ann, np.random.default_rng(9))
    assert a.to_dict() == b.to_dict()
    assert [(p.iteration, p.category, p.score, p.box) for p in a.proposals] == [
        (p.iteration, p.category, p.score, p.box) for p in b.proposals
    ]


def test_proposals_always_inside_frame(degenerate_model):
    ann = easy_annotation()
    frame = normalize_frame(ann.width, ann.height)
    hx, hy = frame.norm_width / 2, frame.norm_height / 2
    result = run_image(
        degenerate_model,
        None,
        run_config(box_prior="uniform", situation_model="none", max_iterations=300),
        ann,
        np.random.default_rng(31),
        scorer=lambda p: 0.0,
    )
    for p in result.proposals:
        assert p.box.x0 >= -hx - 1e-9 and p.box.x1 <= hx + 1e-9
        assert p.box.y0 >= -hy - 1e-9 and p.box.y1 <= hy + 1e-9


def test_salience_method_requires_map(degenerate_model):
    with pytest.raises(InvalidInputError):
        run_image(
            degenerate_model,
            None,
            run_config(location_prior="salience", situation_model="learned_salience"),
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


def test_empty_proposals_rejected():
    with pytest.raises(InvalidInputError):
        evaluate_proposal_set([], far_corner_annotation())

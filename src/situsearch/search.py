"""The active-localization engine.

One run on one image repeatedly: picks a category that still lacks a final
detection, samples an object proposal from that category's current location
and box distributions, scores it against ground truth with the IOU oracle,
and files it in the Workspace. A score at or above the final threshold makes
the detection final and absorbing; a score at or above the provisional
threshold parks the proposal as provisional, replaceable only by a higher
scoring one. A changed Workspace re-conditions each remaining category, so
every detection (even a mediocre provisional one) steers the remaining
search. Methods with the salience location prior multiply every conditioned
location map by the salience map.

Conditioning draws no random numbers, so a category's conditioned map is
built only when that category is next drawn from, or shown to an observer,
on the Workspace as it stood at its last change; a map replaced by a later
change before any draw is never built. Between changes the loop is a tight
sample/score/file cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .gaussian import LocationMap, grid_shape, uniform_map
from .geometry import BoundingBox, ImageFrame, crop_to_frame, iou, normalize_frame, to_normalized
from .salience import SalienceMap, combine
from .situation_model import (
    CategorySearchDist,
    LogUniformBox,
    SituationModel,
    box_from_descriptor,
    conditioned_distribution,
    prior_alpha_gamma,
)

LOCATION_UNIFORM = "uniform"
LOCATION_SALIENCE = "salience"
BOX_UNIFORM = "uniform"
BOX_LEARNED = "learned"
MODEL_NONE = "none"
MODEL_LEARNED = "learned"
MODEL_LEARNED_SALIENCE = "learned_salience"  # the learned model with the salience prior

PROVISIONAL = "provisional"
FINAL = "final"

DEFAULT_PROVISIONAL_THRESHOLD = 0.25
DEFAULT_FINAL_THRESHOLD = 0.5
DEFAULT_MAX_ITERATIONS = 1000


@dataclass(eq=False, slots=True)
class ObjectProposal:
    """A candidate detection: category plus box; score filled in when scored."""

    category: str
    box: BoundingBox
    score: float | None = None


@dataclass(frozen=True)
class ProposalRecord:
    iteration: int
    category: str
    box: BoundingBox
    score: float


@dataclass(frozen=True)
class Detection:
    proposal: ObjectProposal
    kind: str  # PROVISIONAL or FINAL
    iteration: int


class Workspace:
    """Per-image detection slots: empty, provisional, or final per category.

    Finals are absorbing; provisional scores within a slot never decrease.
    """

    def __init__(self, categories: Iterable[str]):
        self.categories = tuple(categories)
        self.slots: dict[str, Detection | None] = {c: None for c in self.categories}

    def observe(
        self,
        proposal: ObjectProposal,
        score: float,
        iteration: int,
        provisional_enabled: bool = True,
        provisional_threshold: float = DEFAULT_PROVISIONAL_THRESHOLD,
        final_threshold: float = DEFAULT_FINAL_THRESHOLD,
    ) -> bool:
        """File a scored proposal; True when the Workspace changed."""
        category = proposal.category
        if category not in self.slots:
            raise InvalidInputError(f"unknown category {category!r}")
        proposal.score = score
        slot = self.slots[category]
        if slot is not None and slot.kind == FINAL:
            return False
        if score >= final_threshold:
            self.slots[category] = Detection(proposal, FINAL, iteration)
            return True
        if (
            provisional_enabled
            and score >= provisional_threshold
            and (slot is None or score > slot.proposal.score)
        ):
            self.slots[category] = Detection(proposal, PROVISIONAL, iteration)
            return True
        return False

    def detected_boxes(self) -> list[tuple[str, BoundingBox]]:
        """(category, box) for every provisional or final detection."""
        return [
            (c, slot.proposal.box) for c in self.categories if (slot := self.slots[c]) is not None
        ]

    def remaining(self) -> list[str]:
        """Categories without a final detection, in canonical order."""
        return [
            c for c in self.categories if self.slots[c] is None or self.slots[c].kind != FINAL
        ]


@dataclass(frozen=True)
class MethodConfig:
    """One row of the method matrix: priors, model use, and loop settings."""

    location_prior: str = LOCATION_UNIFORM
    box_prior: str = BOX_LEARNED
    situation_model: str = MODEL_LEARNED
    provisional_enabled: bool = True
    provisional_threshold: float = DEFAULT_PROVISIONAL_THRESHOLD
    final_threshold: float = DEFAULT_FINAL_THRESHOLD
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    seed: int = 0
    cell_size: float = 1.0
    record_proposals: bool = False

    def __post_init__(self) -> None:
        if self.location_prior not in (LOCATION_UNIFORM, LOCATION_SALIENCE):
            raise InvalidInputError(f"unknown location prior {self.location_prior!r}")
        if self.box_prior not in (BOX_UNIFORM, BOX_LEARNED):
            raise InvalidInputError(f"unknown box prior {self.box_prior!r}")
        if self.situation_model not in (MODEL_NONE, MODEL_LEARNED, MODEL_LEARNED_SALIENCE):
            raise InvalidInputError(f"unknown situation model mode {self.situation_model!r}")
        if not (0 < self.provisional_threshold <= self.final_threshold <= 1):
            raise InvalidInputError(
                "thresholds must satisfy 0 < provisional <= final <= 1, got "
                f"{self.provisional_threshold} and {self.final_threshold}"
            )
        if self.max_iterations < 1:
            raise InvalidInputError(f"max_iterations must be >= 1, got {self.max_iterations}")
        # A situation model folds salience into its conditioned maps exactly
        # when the location prior is salience.
        if self.situation_model != MODEL_NONE and (
            (self.situation_model == MODEL_LEARNED_SALIENCE)
            != (self.location_prior == LOCATION_SALIENCE)
        ):
            raise InvalidInputError(
                f"situation model {self.situation_model!r} does not match location prior "
                f"{self.location_prior!r}: use {MODEL_LEARNED_SALIENCE!r} with the "
                f"{LOCATION_SALIENCE!r} prior and {MODEL_LEARNED!r} otherwise"
            )

    @property
    def needs_salience(self) -> bool:
        return self.location_prior == LOCATION_SALIENCE


@dataclass
class RunResult:
    """Outcome of one search run; failure is a value, not an error."""

    detections: dict[str, int | None]  # category -> iteration of its final detection
    total_iterations: int
    completed: bool
    detection_order: list[tuple[str, int]]
    proposals: list[ProposalRecord] | None = None

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "total_iterations": self.total_iterations,
            "detections": dict(self.detections),
            "detection_order": [[c, t] for c, t in self.detection_order],
        }


def score_proposal(ground_truth: Mapping[str, BoundingBox], proposal: ObjectProposal) -> float:
    """The oracle scorer: IOU with the proposal category's ground-truth box."""
    if proposal.category not in ground_truth:
        raise InvalidInputError(f"no ground truth for category {proposal.category!r}")
    return iou(proposal.box, ground_truth[proposal.category])


def sample_proposal(
    dist: CategorySearchDist, frame: ImageFrame, rng: np.random.Generator
) -> ObjectProposal:
    """Draw location, area-ratio, and aspect-ratio, then crop to the frame."""
    cx, cy = dist.location.sample_point(rng)
    alpha, gamma = dist.sample_alpha_gamma(rng)
    box = crop_to_frame(box_from_descriptor(cx, cy, alpha, gamma, frame), frame)
    return ObjectProposal(dist.category, box)


def _conditioned(
    model: SituationModel,
    salience: SalienceMap | None,
    config: MethodConfig,
    category: str,
    detected: Mapping[str, BoundingBox],
    frame: ImageFrame,
) -> CategorySearchDist:
    """A category's distributions given the detections of the Workspace."""
    cond = conditioned_distribution(model, category, detected, frame, config.cell_size)
    if config.location_prior == LOCATION_SALIENCE:
        cond = CategorySearchDist(
            category=category,
            location=combine(cond.location, salience),
            alpha_gamma=cond.alpha_gamma,
        )
    return cond


def _ground_truth(annotation, model: SituationModel, frame: ImageFrame) -> dict[str, BoundingBox]:
    gt = {}
    for cat in model.categories:
        if cat not in annotation.boxes:
            raise InvalidInputError(
                f"annotation {annotation.image_id!r} lacks ground truth for {cat!r}"
            )
        gt[cat] = to_normalized(*annotation.boxes[cat], frame)
    return gt


def run_image(
    model: SituationModel,
    salience: SalienceMap | None,
    config: MethodConfig,
    annotation,
    rng: np.random.Generator,
    scorer: Callable[[ObjectProposal], float] | None = None,
    observer: Callable[[int, Workspace, dict[str, CategorySearchDist]], None] | None = None,
) -> RunResult:
    """Run the full search loop on one annotated image.

    ``scorer`` defaults to the IOU oracle against the annotation's ground
    truth; tests inject scripted scorers to pin down the loop protocol.
    ``observer`` fires after every Workspace change with the iteration, the
    Workspace, and the current per-category distributions.
    """
    frame = normalize_frame(annotation.width, annotation.height)
    gt = _ground_truth(annotation, model, frame)

    if config.needs_salience:
        if salience is None:
            raise InvalidInputError(f"method {config} needs a salience map")
        if salience.grid.shape != grid_shape(frame, config.cell_size):
            raise InvalidInputError("salience grid does not match the rasterization grid")

    if config.location_prior == LOCATION_SALIENCE:
        prior_location: LocationMap = salience
    else:
        prior_location = uniform_map(frame, config.cell_size)
    if config.box_prior == BOX_LEARNED:
        prior_boxes = {c: prior_alpha_gamma(model, c) for c in model.categories}
    else:
        prior_boxes = {c: LogUniformBox() for c in model.categories}
    dists = {
        c: CategorySearchDist(category=c, location=prior_location, alpha_gamma=prior_boxes[c])
        for c in model.categories
    }
    workspace = Workspace(model.categories)
    # Categories whose distributions lag the Workspace, and the detections
    # at its last change that they are to be conditioned on.
    stale: set[str] = set()
    detected: dict[str, BoundingBox] = {}
    records: list[ProposalRecord] | None = [] if config.record_proposals else None
    detections: dict[str, int | None] = {c: None for c in model.categories}
    order: list[tuple[str, int]] = []

    iterations = 0
    remaining = workspace.remaining()  # refreshed at each Workspace change
    for t in range(1, config.max_iterations + 1):
        iterations = t
        category = remaining[int(rng.integers(len(remaining)))]
        if category in stale:
            stale.discard(category)
            dists[category] = _conditioned(model, salience, config, category, detected, frame)
        proposal = sample_proposal(dists[category], frame, rng)
        if scorer is None:
            score = score_proposal(gt, proposal)
        else:
            score = float(scorer(proposal))
        if records is not None:
            records.append(ProposalRecord(t, category, proposal.box, score))
        changed = workspace.observe(
            proposal,
            score,
            t,
            provisional_enabled=config.provisional_enabled,
            provisional_threshold=config.provisional_threshold,
            final_threshold=config.final_threshold,
        )
        if not changed:
            continue
        remaining = workspace.remaining()
        slot = workspace.slots[category]
        if slot is not None and slot.kind == FINAL:
            detections[category] = t
            order.append((category, t))
        if config.situation_model != MODEL_NONE:
            detected = dict(workspace.detected_boxes())
            # A category with only its own detection so far keeps the prior.
            stale = {cat for cat in remaining if detected.keys() - {cat}}
        if observer is not None:
            for cat in remaining:
                if cat in stale:
                    dists[cat] = _conditioned(model, salience, config, cat, detected, frame)
            stale.clear()
            observer(t, workspace, dists)
        if not remaining:
            break

    return RunResult(
        detections=detections,
        total_iterations=iterations,
        completed=not remaining,
        detection_order=order,
        proposals=records,
    )


def evaluate_proposal_set(
    proposals: Sequence[tuple[float, float, float, float]],
    annotation,
    budget: int = 1000,
    rng: np.random.Generator | None = None,
    iou_threshold: float = DEFAULT_FINAL_THRESHOLD,
) -> RunResult:
    """Score an externally supplied, category-free proposal set.

    Proposals are (x, y, w, h) corner boxes in original pixels. They are
    drawn one at a time without replacement (seeded shuffle) up to the
    budget; a drawn box finalizes every not-yet-found object whose ground
    truth it overlaps at or above the IOU threshold.
    """
    if not proposals:
        raise InvalidInputError("proposal set is empty")
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    if rng is None:
        rng = np.random.default_rng(0)
    frame = normalize_frame(annotation.width, annotation.height)
    categories = sorted(annotation.boxes)
    gt = {c: to_normalized(*annotation.boxes[c], frame) for c in categories}

    shuffle = rng.permutation(len(proposals))
    detections: dict[str, int | None] = {c: None for c in categories}
    order: list[tuple[str, int]] = []
    drawn = 0
    for index in shuffle[:budget]:
        drawn += 1
        box = to_normalized(*proposals[int(index)], frame)
        for cat in categories:
            if detections[cat] is None and iou(box, gt[cat]) >= iou_threshold:
                detections[cat] = drawn
                order.append((cat, drawn))
        if all(v is not None for v in detections.values()):
            break

    return RunResult(
        detections=detections,
        total_iterations=drawn,
        completed=all(v is not None for v in detections.values()),
        detection_order=order,
        proposals=None,
    )

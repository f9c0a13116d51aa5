"""The active-localization engine.

One run on one image repeatedly: picks a category that still lacks a final
detection, samples an object proposal from that category's current location
and box distributions, scores it against ground truth with the IOU oracle,
and files it in the Workspace. A score at or above the final threshold makes
the detection final and absorbing; a score at or above the provisional
threshold parks the proposal as provisional, replaceable only by a higher
scoring one. A changed Workspace re-conditions every remaining category
except the one whose own slot changed, since a category's own detection
never conditions its own maps; so every detection (even a mediocre
provisional one) steers the search for the others. Methods with the
salience location prior multiply every conditioned location map by the
salience map as it is rasterized.

Conditioning draws no random numbers, so a category's conditioned map is
built only when that category is next drawn from, or shown to an observer,
on the Workspace as it stood at its last change; a map replaced by a later
change before any draw is never built. Between changes the loop is a tight
sample/score/file cycle. A category's superseded map is released before its
successor is built, so the two never hold memory at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .gaussian import LocationMap, grid_shape, uniform_map
from .geometry import BoundingBox, ImageFrame, crop_to_frame, iou, normalize_frame, to_normalized
from .salience import (
    SalienceMap,
    combine,  # unused here; the benchmark tracer patches this module attribute
)
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

PROVISIONAL = "provisional"
FINAL = "final"

PROVISIONAL_THRESHOLD = 0.25
FINAL_THRESHOLD = 0.5
DEFAULT_MAX_ITERATIONS = 1000


@dataclass(eq=False, slots=True)
class ObjectProposal:
    """A candidate detection: category plus box; score filled in when scored."""

    category: str
    box: BoundingBox
    score: float | None = None


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
    ) -> bool:
        """File a scored proposal; True when the Workspace changed."""
        category = proposal.category
        if category not in self.slots:
            raise InvalidInputError(f"unknown category {category!r}")
        proposal.score = score
        slot = self.slots[category]
        if slot is not None and slot.kind == FINAL:
            return False
        if score >= FINAL_THRESHOLD:
            self.slots[category] = Detection(proposal, FINAL, iteration)
            return True
        if (
            provisional_enabled
            and score >= PROVISIONAL_THRESHOLD
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
    """One search method, by the knowledge it uses, plus its budget and grid.

    Every combination of the four method fields is a valid method. With the
    salience location prior, the situation model's conditioned maps are
    multiplied by the salience map too.
    """

    location_prior: str = LOCATION_UNIFORM
    box_prior: str = BOX_LEARNED
    situation_model: str = MODEL_LEARNED
    provisional_enabled: bool = True
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        if self.location_prior not in (LOCATION_UNIFORM, LOCATION_SALIENCE):
            raise InvalidInputError(f"unknown location prior {self.location_prior!r}")
        if self.box_prior not in (BOX_UNIFORM, BOX_LEARNED):
            raise InvalidInputError(f"unknown box prior {self.box_prior!r}")
        if self.situation_model not in (MODEL_NONE, MODEL_LEARNED):
            raise InvalidInputError(f"unknown situation model mode {self.situation_model!r}")
        if self.max_iterations < 1:
            raise InvalidInputError(f"max_iterations must be >= 1, got {self.max_iterations}")

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
    observer: Callable[[int, Workspace, dict[str, CategorySearchDist | None]], None] | None = None,
) -> RunResult:
    """Run the full search loop on one annotated image.

    ``scorer`` defaults to the IOU oracle against the annotation's ground
    truth and is called once per iteration, in order: ``run --trace`` logs
    each proposal from it, and tests inject scripted scorers to pin down the
    loop protocol. ``observer`` fires after every Workspace change with the
    iteration, the Workspace, and the current per-category distributions,
    where a category with a final detection maps to None.
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
    fold_salience = salience if config.location_prior == LOCATION_SALIENCE else None
    workspace = Workspace(model.categories)
    # Categories whose distributions lag the Workspace, and the detections
    # at its last change that they are to be conditioned on.
    stale: set[str] = set()
    detected: dict[str, BoundingBox] = {}
    detections: dict[str, int | None] = {c: None for c in model.categories}
    order: list[tuple[str, int]] = []

    iterations = 0
    remaining = workspace.remaining()  # refreshed at each Workspace change
    for t in range(1, config.max_iterations + 1):
        iterations = t
        category = remaining[int(rng.integers(len(remaining)))]
        if category in stale:
            stale.discard(category)
            dists[category] = None  # release the superseded map before building its successor
            dists[category] = conditioned_distribution(
                model, category, detected, frame, config.cell_size, fold_salience
            )
        proposal = sample_proposal(dists[category], frame, rng)
        if scorer is None:
            score = score_proposal(gt, proposal)
        else:
            score = float(scorer(proposal))
        changed = workspace.observe(
            proposal, score, t, provisional_enabled=config.provisional_enabled
        )
        if not changed:
            continue
        remaining = workspace.remaining()
        if workspace.slots[category].kind == FINAL:
            detections[category] = t
            order.append((category, t))
            dists[category] = None  # never drawn from again
        if config.situation_model != MODEL_NONE:
            detected = dict(workspace.detected_boxes())
            # The change is in this category's own slot, which never
            # conditions its own maps: only the others go stale.
            stale.update(cat for cat in remaining if cat != category)
        if observer is not None:
            for cat in remaining:
                if cat in stale:
                    dists[cat] = None
                    dists[cat] = conditioned_distribution(
                        model, cat, detected, frame, config.cell_size, fold_salience
                    )
            stale.clear()
            observer(t, workspace, dists)
        if not remaining:
            break

    return RunResult(
        detections=detections,
        total_iterations=iterations,
        completed=not remaining,
        detection_order=order,
    )


def evaluate_proposal_set(
    proposals: Sequence[tuple[float, float, float, float]],
    annotation,
    budget: int = 1000,
    rng: np.random.Generator | None = None,
) -> RunResult:
    """Score an externally supplied, category-free proposal set.

    Proposals are (x, y, w, h) corner boxes in original pixels. They are
    drawn one at a time without replacement (seeded shuffle) up to the
    budget; a drawn box finalizes every not-yet-found object whose ground
    truth it overlaps at or above the final threshold.
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
            if detections[cat] is None and iou(box, gt[cat]) >= FINAL_THRESHOLD:
                detections[cat] = drawn
                order.append((cat, drawn))
        if all(v is not None for v in detections.values()):
            break

    return RunResult(
        detections=detections,
        total_iterations=drawn,
        completed=all(v is not None for v in detections.values()),
        detection_order=order,
    )

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
sample/score/file cycle. A category's out-of-date map is released at the
change that supersedes it, so it never holds memory beside its successor.

A context-free run (situation model ``none``) with no scoring or observing
hook is drawn and scored BLOCK_SIZE proposals at a time. A block reads the
generator's raw 64-bit PCG64 words and decodes them as the per-proposal
loop's random calls would, then scores every draw with the loop's
floating-point arithmetic, so it gives the same result and leaves the
generator where the loop would. A block stops at its first final, after
which the next block goes on, or at its first pick numpy rejects, after
which the per-proposal loop finishes the run. On a bit generator other
than PCG64 the loop makes the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .gaussian import LocationMap, grid_shape, uniform_map
from .geometry import BoundingBox, ImageFrame, crop_to_frame, iou, normalize_frame, to_normalized
from .salience import combine  # unused here; the benchmark tracer patches this module attribute
from .situation_model import (
    DEFAULT_CATEGORIES,
    LOG_AREA_RANGE,
    LOG_ASPECT_RANGE,
    MAX_LOG_SIDE,
    MIN_BOX_SIDE,
    CategorySearchDist,
    LogUniformBox,
    SituationModel,
    box_from_descriptor,
    conditioned_distribution,
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

# Proposals a context-free run draws and scores at once.
BLOCK_SIZE = 64
# A PCG64 word's low 32-bit half, and the scale of its top 53 bits to a
# uniform in [0, 1).
_LOW_HALF = 0xFFFFFFFF
_WORD_UNIT = 1.0 / 9007199254740992.0


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
        if not 1 <= self.cell_size < math.inf:  # NaN too
            raise InvalidInputError(f"cell_size must be finite and >= 1, got {self.cell_size}")

    @property
    def needs_salience(self) -> bool:
        return self.location_prior == LOCATION_SALIENCE


@dataclass
class RunResult:
    """Outcome of one search run; failure is a value, not an error.

    A run is completed when every category has a final detection, and its
    detection order lists the finals by iteration, ties in ``detections``
    order.
    """

    detections: dict[str, int | None]  # category -> iteration of its final detection
    total_iterations: int

    @property
    def completed(self) -> bool:
        return all(t is not None for t in self.detections.values())

    @property
    def detection_order(self) -> list[tuple[str, int]]:
        found = [(c, t) for c, t in self.detections.items() if t is not None]
        return sorted(found, key=lambda item: item[1])

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


def ground_truth(
    annotation, categories: Iterable[str], frame: ImageFrame
) -> dict[str, BoundingBox]:
    """Each category's annotated box, normalized to the frame."""
    gt = {}
    for cat in categories:
        if cat not in annotation.boxes:
            raise InvalidInputError(
                f"annotation {annotation.image_id!r} lacks ground truth for {cat!r}"
            )
        gt[cat] = to_normalized(*annotation.boxes[cat], frame)
    return gt


def run_image(
    model: SituationModel,
    salience: LocationMap | None,
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
    where a category with a final detection maps to None. A context-free
    method run with neither hook is scored in blocks where its draws can be
    decoded (``_search_in_blocks``), to the same result.
    """
    frame = normalize_frame(annotation.width, annotation.height)
    gt = ground_truth(annotation, DEFAULT_CATEGORIES, frame)

    if not config.needs_salience:
        salience = None  # conditioned maps are folded with salience only under its prior
        prior_location: LocationMap = uniform_map(frame, config.cell_size)
    elif salience is None:
        raise InvalidInputError(f"method {config} needs a salience map")
    elif salience.grid.shape != grid_shape(frame, config.cell_size):
        raise InvalidInputError("salience grid does not match the rasterization grid")
    else:
        prior_location = salience
    if config.box_prior == BOX_LEARNED:
        prior_boxes = model.box_priors
    else:
        prior_boxes = dict.fromkeys(DEFAULT_CATEGORIES, LogUniformBox())
    # A category's entry is None from the change that puts it out of date
    # until it is next drawn from or shown.
    dists: dict[str, CategorySearchDist | None] = {
        c: CategorySearchDist(category=c, location=prior_location, alpha_gamma=prior_boxes[c])
        for c in DEFAULT_CATEGORIES
    }
    workspace = Workspace(DEFAULT_CATEGORIES)
    detected: dict[str, BoundingBox] = {}  # the detections at the Workspace's last change

    def current(cat: str) -> CategorySearchDist:
        if dists[cat] is None:
            dists[cat] = conditioned_distribution(
                model, cat, detected, frame, config.cell_size, salience
            )
        return dists[cat]

    iterations = 0
    if config.situation_model == MODEL_NONE and scorer is None and observer is None:
        iterations = _search_in_blocks(workspace, dists, frame, gt, config, rng)
    remaining = workspace.remaining()  # refreshed at each Workspace change
    while remaining and iterations < config.max_iterations:
        iterations = t = iterations + 1
        category = remaining[int(rng.integers(len(remaining)))]
        proposal = sample_proposal(current(category), frame, rng)
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
            dists[category] = None  # never drawn from again
        if config.situation_model != MODEL_NONE:
            detected = dict(workspace.detected_boxes())
            # The change is in this category's own slot, which never
            # conditions its own maps: only the others go out of date.
            for cat in remaining:
                if cat != category:
                    dists[cat] = None
        if observer is not None:
            observer(t, workspace, {c: current(c) if c in remaining else None for c in dists})

    finals = {
        c: slot.iteration if slot is not None and slot.kind == FINAL else None
        for c, slot in workspace.slots.items()
    }
    return RunResult(finals, iterations)


def _draw(rng: np.random.Generator, searched: Sequence[CategorySearchDist], size: int):
    """The random draws of ``size`` iterations of the loop over ``searched``, in its order.

    For a PCG64 ``rng`` and box priors all ``LogUniformBox`` or all diagonal
    Gaussians: the values of the loop's ``rng.integers(len(searched))``,
    ``rng.random(3)`` and ``searched[k].sample_alpha_gamma(rng)`` calls, read
    as raw 64-bit words and decoded as numpy decodes them, as if numpy
    rejected no pick. A pick takes PCG64's buffered half-word, or else reads
    a word, takes its low half and buffers its high half; a pick among one
    category reads nothing. A uniform is a word's top 53 bits times 2**-53.
    Returns each iteration's index into ``searched``, its three location
    uniforms and its (alpha, gamma) draw, as arrays, and the first iteration
    whose pick numpy rejects (for three categories, one half-word in 2**32),
    or None. With None, the generator, its half-word buffer included, is
    where those calls would leave it; the draws from a rejected pick on are
    not the loop's.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    has, value = state["has_uint32"], state["uinteger"]
    n = len(searched)
    fresh = (np.arange(size) + has) % 2 == 0 if n > 1 else np.zeros(size, dtype=bool)
    boxes = [dist.alpha_gamma for dist in searched]
    log_uniform = isinstance(boxes[0], LogUniformBox)
    width = 5 if log_uniform else 3  # the words an iteration reads after its pick's
    if log_uniform:
        words = bitgen.random_raw(int(fresh.sum()) + width * size)
    else:
        # A standard normal reads a varying number of words.
        rows, normals = [], []
        for takes in fresh.tolist():
            rows.append(bitgen.random_raw(width + takes))
            normals.append(rng.standard_normal(2))
        words = np.concatenate(rows or [np.empty(0, dtype=np.uint64)])
    first = np.cumsum(fresh + width) - width  # each iteration's first word after its pick's
    doubles = (words[first[:, None] + np.arange(width)] >> 11) * _WORD_UNIT

    picks, rejected = np.zeros(size, dtype=np.intp), None
    if n > 1:
        # The half-words in the order picks take them: the buffered one, then
        # each word read for a pick, low half first.
        pick_words = words[first[fresh] - 1]
        halves = np.empty(2 * pick_words.size + 1, dtype=np.uint64)
        halves[0] = value
        halves[1::2] = pick_words & _LOW_HALF
        halves[2::2] = pick_words >> 32
        after = 1 - has + size
        if after < halves.size:
            has, value = 1, int(halves[after])
        else:
            has, value = 0, int(halves[after - 1])
        scaled = halves[after - size : after] * n
        picks = (scaled >> 32).astype(np.intp)
        kept = (scaled & _LOW_HALF) >= (2**32 - n) % n
        if not kept.all():
            rejected = int(np.argmin(kept))
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has, value
    bitgen.state = state

    if log_uniform:
        (a0, a1), (g0, g1) = LOG_AREA_RANGE, LOG_ASPECT_RANGE
        descriptors = np.array([a0, g0]) + np.array([a1 - a0, g1 - g0]) * doubles[:, 3:]
    else:
        # mean + chol @ z, whose off-diagonal products are exact zeros
        means = np.array([box.mean for box in boxes])
        scales = np.array([box._chol.diagonal() for box in boxes])
        descriptors = means[picks] + scales[picks] * np.reshape(normals, (size, 2))
    return (picks, doubles[:, :3], descriptors), rejected


def _score_block(
    location: LocationMap,
    frame: ImageFrame,
    truths: np.ndarray,
    uniforms: np.ndarray,
    descriptors: np.ndarray,
):
    """Each drawn proposal's box and IOU, with the per-proposal step's arithmetic.

    ``truths`` holds the ground truth (cx, cy, w, h) of each proposal's
    category. Each step of ``sample_point``, ``box_from_descriptor``,
    ``crop_to_frame`` and ``iou`` is done on arrays by the same IEEE
    operations in the same order, and each exponential by ``math.exp``, so
    every bit agrees; a log-side that overflows is infinite and clamps as
    the Python floats do. Every crop has area: each centre lies in the
    frame, whose half-sides are at most 125,000, and each side is at least
    MIN_BOX_SIDE, far above the spacing of floats there. Returns the
    (cx, cy, w, h) rows of the cropped boxes and the scores.
    """
    cdf = location._cdf
    cells = np.minimum(cdf.searchsorted(uniforms[:, 0] * cdf[-1], "right"), cdf.size - 1)
    row, col = np.divmod(cells, location.grid.shape[1])
    hx = frame.norm_width / 2
    hy = frame.norm_height / 2
    cx = np.minimum(-hx + (col + uniforms[:, 1]) * location.cell_size, hx)
    cy = np.minimum(-hy + (row + uniforms[:, 2]) * location.cell_size, hy)

    alpha, gamma = descriptors.T
    with np.errstate(over="ignore"):
        log_sides = np.stack([alpha + gamma, alpha - gamma]) / 2
    ceilings = np.array([[2 * frame.norm_width], [2 * frame.norm_height]])
    capped = np.minimum(log_sides, MAX_LOG_SIDE)
    grown = np.reshape(list(map(math.exp, capped.ravel().tolist())), capped.shape)
    sides = np.where(log_sides > MAX_LOG_SIDE, ceilings, math.sqrt(frame.area) * grown)
    w, h = np.minimum(np.maximum(sides, MIN_BOX_SIDE), ceilings)

    x0 = np.maximum(cx - w / 2, -hx)
    x1 = np.minimum(cx + w / 2, hx)
    y0 = np.maximum(cy - h / 2, -hy)
    y1 = np.minimum(cy + h / 2, hy)
    acx, acy, aw, ah = (x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0

    bcx, bcy, bw, bh = truths.T
    ix = np.minimum(acx + aw / 2, bcx + bw / 2) - np.maximum(acx - aw / 2, bcx - bw / 2)
    iy = np.minimum(acy + ah / 2, bcy + bh / 2) - np.maximum(acy - ah / 2, bcy - bh / 2)
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    scores = np.divide(inter, union, out=np.zeros(len(inter)), where=(ix > 0) & (iy > 0))
    return np.stack([acx, acy, aw, ah], axis=1), scores


def _search_in_blocks(
    workspace: Workspace,
    dists: Mapping[str, CategorySearchDist],
    frame: ImageFrame,
    gt: Mapping[str, BoundingBox],
    config: MethodConfig,
    rng: np.random.Generator,
) -> int:
    """The per-proposal loop of a context-free run, BLOCK_SIZE iterations at a time.

    Without conditioning, an iteration's random calls depend on earlier
    scores only through the number of remaining categories, which changes
    only at a final detection. So a block reads the raw PCG64 words of the
    loop's random calls and decodes them as those calls would (``_draw``),
    scores the proposals as arrays, and files in order those that can change
    the Workspace. A block stops at its first final or its first pick numpy
    rejects; there it rewinds the generator and redraws the block up to the
    stop. After a final the next block starts where the loop would; at a
    rejected pick the loop takes the rest of the run. Returns the iterations
    made: all of the run, those up to the rejected pick, or 0 on a bit
    generator other than PCG64, whose words the blocks cannot decode.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        return 0
    iterations = 0
    remaining = workspace.remaining()
    while remaining and iterations < config.max_iterations:
        searched = [dists[c] for c in remaining]
        size = min(BLOCK_SIZE, config.max_iterations - iterations)
        start = rng.bit_generator.state
        draws, rejected = _draw(rng, searched, size)
        drawn = size if rejected is None else rejected
        picks, uniforms, descriptors = (a[:drawn] for a in draws)
        truths = np.array([[gt[c].cx, gt[c].cy, gt[c].w, gt[c].h] for c in remaining])[picks]
        # Every category of a context-free run draws from the one prior map.
        boxes, scores = _score_block(searched[0].location, frame, truths, uniforms, descriptors)
        finals = np.flatnonzero(scores >= FINAL_THRESHOLD)
        kept = int(finals[0]) + 1 if finals.size else drawn
        # A proposal scoring under the provisional threshold leaves the
        # Workspace as it is.
        for i in np.flatnonzero(scores[:kept] >= PROVISIONAL_THRESHOLD).tolist():
            proposal = ObjectProposal(remaining[picks[i]], BoundingBox(*boxes[i].tolist()))
            workspace.observe(
                proposal,
                float(scores[i]),
                iterations + i + 1,
                provisional_enabled=config.provisional_enabled,
            )
        iterations += kept
        if kept < size:
            rng.bit_generator.state = start
            _draw(rng, searched, kept)
            if not finals.size:
                return iterations
        remaining = workspace.remaining()
    return iterations


def evaluate_proposal_set(
    proposals: Sequence[tuple[float, float, float, float]],
    annotation,
    budget: int = 1000,
    *,
    rng: np.random.Generator,
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
    frame = normalize_frame(annotation.width, annotation.height)
    gt = ground_truth(annotation, sorted(annotation.boxes), frame)

    shuffle = rng.permutation(len(proposals))
    result = RunResult(dict.fromkeys(gt), 0)
    for index in shuffle[:budget]:
        result.total_iterations += 1
        box = to_normalized(*proposals[int(index)], frame)
        for cat, truth in gt.items():
            if result.detections[cat] is None and iou(box, truth) >= FINAL_THRESHOLD:
                result.detections[cat] = result.total_iterations
        if result.completed:
            break
    return result

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

Each category has one law at a time. Conditioning draws no random
numbers, so a category's conditioned law is made only when that category
is next drawn from or shown, on the Workspace as it stood at its last
change, and its location map's density is built only at its first draw; a
law replaced by a later change before any draw builds nothing grid-sized.
A draw needs the density alone, not the normalized grid or its CDF
(``gaussian.GaussianMap``). A watch is shown the laws the run draws from,
so watching a run builds nothing grid-sized. Between changes the loop is
a tight sample/score/file cycle. A category's out-of-date law is released
at the change that supersedes it, so it never holds memory beside its
successor, and its density goes back to ``gaussian``'s spare grids for the
next map to reuse.

Each turn of the loop draws one proposal or, in a context-free run
(situation model ``none``) on PCG64, watched or not, a block of up to
BLOCK_SIZE, and files what it drew. A block decodes the generator's raw
64-bit words as single draws' random calls would and scores every draw
with their floating-point arithmetic, so it gives the same proposals and
leaves the generator where single draws would. It stops at its first final
or before its first pick numpy rejects; a pick rejected first in its block
is drawn alone, and blocks go on after it.
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
    """A candidate detection: category plus box."""

    category: str
    box: BoundingBox


@dataclass(frozen=True)
class Detection:
    """A filed proposal, its score and iteration; none is filed under the provisional threshold."""

    proposal: ObjectProposal
    score: float
    iteration: int

    @property
    def kind(self) -> str:
        return FINAL if self.score >= FINAL_THRESHOLD else PROVISIONAL


class Workspace:
    """Per-image detection slots: empty, provisional, or final per category.

    Finals are absorbing; provisional scores within a slot never decrease.
    Without ``provisional_enabled`` only finals are filed.
    """

    def __init__(self, categories: Iterable[str], provisional_enabled: bool):
        self.categories = tuple(categories)
        self.provisional_enabled = provisional_enabled
        self.slots: dict[str, Detection | None] = {c: None for c in self.categories}

    def observe(self, proposal: ObjectProposal, score: float, iteration: int) -> bool:
        """File a scored proposal; True when the Workspace changed."""
        category = proposal.category
        if category not in self.slots:
            raise InvalidInputError(f"unknown category {category!r}")
        slot = self.slots[category]
        if slot is not None and slot.kind == FINAL:
            return False
        if score >= FINAL_THRESHOLD or (
            self.provisional_enabled
            and score >= PROVISIONAL_THRESHOLD
            and (slot is None or score > slot.score)
        ):
            self.slots[category] = Detection(proposal, score, iteration)
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
    category: str, dist: CategorySearchDist, frame: ImageFrame, rng: np.random.Generator
) -> ObjectProposal:
    """Draw location, area-ratio, and aspect-ratio from the category's dist, then crop."""
    cx, cy = dist.location.sample_point(rng)
    alpha, gamma = dist.alpha_gamma.sample(rng).tolist()
    box = crop_to_frame(box_from_descriptor(cx, cy, alpha, gamma, frame), frame)
    return ObjectProposal(category, box)


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


def image_frame(annotation, cell_size: float) -> ImageFrame:
    """The annotated image's normalized frame, which must hold a grid cell of ``cell_size``."""
    frame = normalize_frame(annotation.width, annotation.height)
    try:
        grid_shape(frame, cell_size)
    except InvalidInputError as exc:
        raise InvalidInputError(
            f"annotation {annotation.image_id!r} at cell size {cell_size}: {exc}"
        ) from exc
    return frame


def run_image(
    model: SituationModel,
    salience: LocationMap | None,
    config: MethodConfig,
    annotation,
    rng: np.random.Generator,
    watch: Callable[..., None] | None = None,
) -> RunResult:
    """Run the full search loop on one annotated image.

    ``watch(iteration, proposal, score, workspace, shown)`` is called after
    every proposal is filed, in iteration order. ``shown`` is None unless
    that proposal changed the Workspace; then ``shown()`` returns each
    category's law, None for a category with a final detection: the
    method's priors until another category is detected, then the
    category's ``conditioned_distribution``. These are the laws the run
    draws from. Showing one builds nothing grid-sized, so a watched run
    builds the densities an unwatched one builds. A shown law is current
    only until the next Workspace change, but it stays the same law for as
    long as it is kept: each map owns what it builds.
    Watched or not, a context-free run on PCG64 draws in blocks (``_block``).
    """
    frame = image_frame(annotation, config.cell_size)
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
    # A category's law is None from the change that puts it out of date
    # until it is next drawn from or shown.
    laws: dict[str, CategorySearchDist | None] = {
        c: CategorySearchDist(location=prior_location, alpha_gamma=prior_boxes[c])
        for c in DEFAULT_CATEGORIES
    }
    workspace = Workspace(DEFAULT_CATEGORIES, config.provisional_enabled)
    detected: dict[str, BoundingBox] = {}  # the detections at the Workspace's last change

    def law(cat: str) -> CategorySearchDist:
        if laws[cat] is None:
            laws[cat] = conditioned_distribution(
                model, cat, detected, frame, config.cell_size, salience
            )
        return laws[cat]

    def shown() -> dict[str, CategorySearchDist | None]:
        remaining = workspace.remaining()
        return {c: law(c) if c in remaining else None for c in laws}

    blocks = config.situation_model == MODEL_NONE and type(rng.bit_generator) is np.random.PCG64
    iterations = 0
    remaining = workspace.remaining()  # refreshed at each Workspace change
    while remaining and iterations < config.max_iterations:
        budget = config.max_iterations - iterations
        made, drawn = _block(laws, remaining, frame, gt, budget, rng, watch) if blocks else (0, ())
        if not made:
            category = remaining[int(rng.integers(len(remaining)))]
            proposal = sample_proposal(category, law(category), frame, rng)
            made, drawn = 1, [(1, proposal, score_proposal(gt, proposal))]
        for offset, proposal, score in drawn:
            t, category = iterations + offset, proposal.category
            changed = workspace.observe(proposal, score, t)
            if changed:
                remaining = workspace.remaining()
                if workspace.slots[category].kind == FINAL:
                    laws[category] = None  # never drawn from again
                if config.situation_model != MODEL_NONE:
                    detected = dict(workspace.detected_boxes())
                    # The change is in this category's own slot, which never
                    # conditions its own maps: only the others go out of date.
                    for cat in remaining:
                        if cat != category:
                            laws[cat] = None
            if watch is not None:
                watch(t, proposal, score, workspace, shown if changed else None)
        iterations += made

    finals = {
        c: slot.iteration if slot is not None and slot.kind == FINAL else None
        for c, slot in workspace.slots.items()
    }
    return RunResult(finals, iterations)


def _draw(rng: np.random.Generator, searched: Sequence[CategorySearchDist], size: int):
    """The random draws of ``size`` iterations of the loop over ``searched``, in its order.

    For a PCG64 ``rng`` and box priors all ``LogUniformBox`` or all diagonal
    Gaussians: the values of the loop's ``rng.integers(len(searched))``,
    ``rng.random(3)`` and ``searched[k].alpha_gamma.sample(rng)`` calls, read
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
        descriptors = boxes[0].low + boxes[0].span * doubles[:, 3:]
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


def _block(
    laws: Mapping[str, CategorySearchDist],
    remaining: Sequence[str],
    frame: ImageFrame,
    gt: Mapping[str, BoundingBox],
    budget: int,
    rng: np.random.Generator,
    watch: Callable[..., None] | None,
) -> tuple[int, list[tuple[int, ObjectProposal, float]]]:
    """Up to BLOCK_SIZE iterations of a context-free run, drawn and scored at once.

    Without conditioning, an iteration's random calls depend on earlier
    scores only through the remaining categories, which change only at a
    final. So a block decodes those calls from raw PCG64 words (``_draw``),
    scores them as arrays, stops at its first final or before its first
    rejected pick, and rewinds and redraws up to there. Returns the
    iterations made, 0 if the first pick is rejected, and their (offset from
    1, proposal, score); unwatched, only those that can change a Workspace.
    """
    searched = [laws[c] for c in remaining]
    size = min(BLOCK_SIZE, budget)
    start = rng.bit_generator.state
    draws, rejected = _draw(rng, searched, size)
    drawn = size if rejected is None else rejected
    picks, uniforms, descriptors = (a[:drawn] for a in draws)
    truths = np.array([[gt[c].cx, gt[c].cy, gt[c].w, gt[c].h] for c in remaining])[picks]
    # Every category of a context-free run draws from the one prior map.
    boxes, scores = _score_block(searched[0].location, frame, truths, uniforms, descriptors)
    finals = np.flatnonzero(scores >= FINAL_THRESHOLD)
    made = int(finals[0]) + 1 if finals.size else drawn
    if made < size:
        rng.bit_generator.state = start
        _draw(rng, searched, made)
    kept = range(made)
    if watch is None:  # a proposal under the provisional threshold changes nothing
        kept = np.flatnonzero(scores[:made] >= PROVISIONAL_THRESHOLD).tolist()
    filed = []
    for i in kept:
        proposal = ObjectProposal(remaining[picks[i]], BoundingBox(*boxes[i].tolist()))
        filed.append((i + 1, proposal, float(scores[i])))
    return made, filed


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

"""Learned situation knowledge and its conditioning on detections.

A situation model holds, for the three categories of DEFAULT_CATEGORIES:

* per-category priors over log area-ratio and log aspect-ratio, each a
  diagonal 2-d Gaussian (the box is never modeled in raw units: logs keep
  the quantities positive and weight small boxes more),
* one location joint (over box centers) and one size/shape joint (over log
  area-ratio and log aspect-ratio) per pair of categories and over all
  three, each table keyed by the categories its joint spans.

At search time each category is given a location map plus a box-descriptor
distribution. Until another category is detected these are the search
method's priors; after that, the joint over the category and the detected
others is conditioned on the others' boxes.
A category's own detection never conditions its own distributions, and
provisional detections condition exactly like final ones.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DatasetError, InsufficientDataError, InvalidInputError, read_json
from .gaussian import (
    FIT_RIDGE_FLOOR,
    LocationMap,
    MultivariateGaussian,
    condition,
    fit,
    gaussian_from_dict,
    gaussian_to_dict,
    rasterize_2d,
    uniform_map,  # unused here; the benchmark tracer patches this module attribute
)
from .geometry import BoundingBox, ImageFrame, normalize_frame, to_normalized

DEFAULT_CATEGORIES = ("dog_walker", "dog", "leash")
# Every unordered pair of categories, each in category order.
CATEGORY_PAIRS = tuple(itertools.combinations(DEFAULT_CATEGORIES, 2))
# The category sets the model holds joints over, in the order it fits,
# stores and serializes them: every pair, then all three.
JOINT_CATEGORIES = CATEGORY_PAIRS + (DEFAULT_CATEGORIES,)

MODEL_FORMAT_VERSION = 1

# Category-independent box sampling ranges used when no box prior is learned:
# area ratio uniform in log space over [1%, 50%] of the image, aspect ratio
# over [0.25, 4].
LOG_AREA_RANGE = (math.log(0.01), math.log(0.5))
LOG_ASPECT_RANGE = (math.log(0.25), math.log(4.0))

# The floor on the sides of a box made from a descriptor, in normalized-frame
# units: far below any box a fitted model draws, it keeps the crop of a box
# centred in the frame from rounding to zero width.
MIN_BOX_SIDE = 1e-6
# math.exp overflows above ~709.78; a side of sqrt(frame area) * e^700 is far
# beyond the ceiling of twice the frame's side anyway.
MAX_LOG_SIDE = 700.0

# The stds a box prior may have: each square a normal double, at most a
# quarter of the largest one, so that the 2-d Gaussian's symmetrized
# covariance and trace cannot overflow.
_PRIOR_STD_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 4))


@dataclass(frozen=True)
class LogUniformBox:
    """Uniform draws of (ln area-ratio, ln aspect-ratio) over the fixed ranges."""

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        (a0, a1), (g0, g1) = LOG_AREA_RANGE, LOG_ASPECT_RANGE
        return a0 + (a1 - a0) * rng.random(), g0 + (g1 - g0) * rng.random()


@dataclass(eq=False)
class SituationModel:
    """All learned distributions over the situation's categories.

    ``box_priors`` holds each category's diagonal 2-d Gaussian over
    (alpha_c, gamma_c), which construction checks: context-free search
    scores draws from these in blocks. ``loc_joints`` and ``box_joints`` map
    each category set of ``JOINT_CATEGORIES`` to its joint, with dims
    ``loc_dims`` and ``box_dims`` of the set.
    """

    box_priors: dict[str, MultivariateGaussian]
    loc_joints: dict[tuple[str, ...], MultivariateGaussian]
    box_joints: dict[tuple[str, ...], MultivariateGaussian]

    def __post_init__(self) -> None:
        for cat, prior in self.box_priors.items():
            dims = box_dims((cat,))
            if not (
                isinstance(prior, MultivariateGaussian)
                and prior.dims == dims
                and prior.cov[0, 1] == 0
            ):
                raise InvalidInputError(
                    f"box prior of {cat!r} must be a diagonal 2-d Gaussian over {list(dims)}"
                )


@dataclass(eq=False)
class CategorySearchDist:
    """Current search distributions for one category on one image, filed under the category."""

    location: LocationMap
    alpha_gamma: MultivariateGaussian | LogUniformBox

    def sample_alpha_gamma(self, rng: np.random.Generator) -> tuple[float, float]:
        if isinstance(self.alpha_gamma, LogUniformBox):
            return self.alpha_gamma.sample(rng)
        a, g = self.alpha_gamma.sample(rng).tolist()
        return a, g


def loc_dims(categories: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{axis}_{c}" for c in categories for axis in ("x", "y"))


def box_dims(categories: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{name}_{c}" for c in categories for name in ("alpha", "gamma"))


def box_descriptor(box: BoundingBox, frame: ImageFrame) -> tuple[float, float]:
    """(ln area-ratio, ln aspect-ratio) of a box within a frame."""
    return math.log(box.area_ratio(frame)), math.log(box.aspect_ratio)


def box_from_descriptor(
    cx: float, cy: float, alpha: float, gamma: float, frame: ImageFrame
) -> BoundingBox:
    """Invert (area-ratio, aspect-ratio) into a width/height box.

    With A the frame area: w*h = e^alpha * A and w/h = e^gamma, so
    w = sqrt(A) * exp((alpha+gamma)/2) and h = sqrt(A) * exp((alpha-gamma)/2).
    Each side is clamped to [MIN_BOX_SIDE, twice the frame's side], so every
    finite descriptor gives a box. A box centred in the frame crops to the
    same box whether or not its sides were clamped to the ceiling.
    """
    root_area = math.sqrt(frame.area)
    max_w = 2 * frame.norm_width
    max_h = 2 * frame.norm_height
    log_w = (alpha + gamma) / 2
    log_h = (alpha - gamma) / 2
    w = max_w if log_w > MAX_LOG_SIDE else root_area * math.exp(log_w)
    h = max_h if log_h > MAX_LOG_SIDE else root_area * math.exp(log_h)
    if not (MIN_BOX_SIDE <= w <= max_w and MIN_BOX_SIDE <= h <= max_h):
        w = min(max(w, MIN_BOX_SIDE), max_w)  # NaN stays NaN, for BoundingBox to reject
        h = min(max(h, MIN_BOX_SIDE), max_h)
    return BoundingBox(cx, cy, w, h)


def _box_prior(category: str, fits: Sequence[tuple[float, float]]) -> MultivariateGaussian:
    """A category's box prior: independent normals over alpha_c and gamma_c, by (mean, std)."""
    mean = np.array([m for m, _ in fits])
    return MultivariateGaussian(box_dims((category,)), mean, np.diag([s**2 for _, s in fits]))


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """The ML mean and std of one column, its variance floored at FIT_RIDGE_FLOOR."""
    mean = float(x.mean())
    return mean, math.sqrt(max(float(((x - mean) ** 2).mean()), FIT_RIDGE_FLOOR))


def learn(training: Sequence) -> SituationModel:
    """Fit box priors and all location and size/shape joints from annotations.

    Each training item must expose image_id, width, height and a ``boxes``
    mapping of category -> (x, y, w, h) corner box in original pixels, with
    exactly one box per shipped category.
    """
    cats = DEFAULT_CATEGORIES
    if len(training) < 8:
        raise InsufficientDataError(
            f"insufficient data: need at least 8 annotations to learn, got {len(training)}"
        )

    n = len(training)
    locs = np.empty((n, 6))
    boxes = np.empty((n, 6))
    for row, ann in enumerate(training):
        frame = normalize_frame(ann.width, ann.height)
        for k, cat in enumerate(cats):
            if cat not in ann.boxes:
                raise DatasetError(f"annotation {ann.image_id!r} is missing category {cat!r}")
            x, y, w, h = ann.boxes[cat]
            norm = to_normalized(x, y, w, h, frame)
            locs[row, 2 * k] = norm.cx
            locs[row, 2 * k + 1] = norm.cy
            alpha, gamma = box_descriptor(norm, frame)
            boxes[row, 2 * k] = alpha
            boxes[row, 2 * k + 1] = gamma

    box_priors = {
        cat: _box_prior(cat, [_mean_std(boxes[:, 2 * k]), _mean_std(boxes[:, 2 * k + 1])])
        for k, cat in enumerate(cats)
    }

    loc_joints, box_joints = {}, {}
    for group in JOINT_CATEGORIES:
        # A column copy is laid out differently from the arrays themselves, and
        # fits other bits; the joint over every category is fitted on the arrays.
        cols = [2 * cats.index(cat) + i for cat in group for i in (0, 1)]
        loc = locs if group == cats else locs[:, cols]
        box = boxes if group == cats else boxes[:, cols]
        loc_joints[group] = fit(loc, loc_dims(group))
        box_joints[group] = fit(box, box_dims(group))
    return SituationModel(box_priors, loc_joints, box_joints)


def conditioned_distribution(
    model: SituationModel,
    category: str,
    detections: Mapping[str, BoundingBox],
    frame: ImageFrame,
    cell_size: float = 1.0,
    salience: LocationMap | None = None,
    out: np.ndarray | None = None,
) -> CategorySearchDist:
    """Search distributions for one category given current detections.

    Detections of the category itself are ignored; at least one other
    category must be detected. The joints over the category and the detected
    others are conditioned on the others' boxes. A ``salience`` map is folded
    into the location map as it is rasterized (in ``out``, see rasterize_2d).
    """
    if category not in DEFAULT_CATEGORIES:
        raise InvalidInputError(f"unknown category {category!r}")
    group = tuple(cat for cat in DEFAULT_CATEGORIES if cat == category or cat in detections)
    others = tuple(cat for cat in group if cat != category)
    if not others:
        raise InvalidInputError(f"no detection of another category to condition {category!r} on")
    boxes = [detections[cat] for cat in others]
    loc_obs = dict(zip(loc_dims(others), [v for box in boxes for v in (box.cx, box.cy)]))
    box_obs = dict(zip(box_dims(others), [v for box in boxes for v in box_descriptor(box, frame)]))
    loc_dist = condition(model.loc_joints[group], loc_obs)
    location = rasterize_2d(loc_dist, frame, cell_size, salience, out)
    return CategorySearchDist(location, condition(model.box_joints[group], box_obs))


# ---------------------------------------------------------------------------
# Serialization

def model_to_dict(model: SituationModel) -> dict:
    def prior_dict(prior: MultivariateGaussian) -> dict:
        return {
            name: {"mean": float(prior.mean[i]), "std": math.sqrt(prior.cov[i, i])}
            for i, name in enumerate(("alpha", "gamma"))
        }

    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "categories": list(DEFAULT_CATEGORIES),
        "box_priors": {c: prior_dict(model.box_priors[c]) for c in DEFAULT_CATEGORIES},
    }
    for kind, joints in (("loc", model.loc_joints), ("box", model.box_joints)):
        *pairs, triple = (gaussian_to_dict(joints[group]) for group in JOINT_CATEGORIES)
        doc[f"{kind}_pair"] = {"|".join(g): pair for g, pair in zip(CATEGORY_PAIRS, pairs)}
        doc[f"{kind}_triple"] = triple
    return doc


def _check_keys(section: str, found: Iterable[str], expected: Sequence[str]) -> None:
    """Reject a model section that lacks an expected key or has one it does not use."""
    found = list(found)
    culprits = [f"missing {k!r}" for k in expected if k not in found]
    culprits += [f"unexpected {k!r}" for k in found if k not in expected]
    if culprits:
        raise InvalidInputError(f"{section}: {', '.join(culprits)}")


def _box_prior_from_dict(category: str, doc: Mapping) -> MultivariateGaussian:
    """A category's box prior from its document, each bad field named."""
    lo, hi = _PRIOR_STD_RANGE
    section = f"box_priors[{category!r}]"
    _check_keys(section, doc, ("alpha", "gamma"))
    fits = []
    for name in ("alpha", "gamma"):
        field = f"{section}.{name}"
        _check_keys(field, doc[name], ("mean", "std"))
        mean, std = doc[name]["mean"], doc[name]["std"]
        if not math.isfinite(mean):
            raise InvalidInputError(f"{field}.mean must be finite, got {mean}")
        if not lo <= std <= hi:
            raise InvalidInputError(f"{field}.std must lie in [{lo:g}, {hi:g}], got {std}")
        fits.append((mean, std))
    return _box_prior(category, fits)


def _joint_from_dict(section: str, doc: Mapping, dims: tuple[str, ...]) -> MultivariateGaussian:
    """One joint of a model document; its errors name its section."""
    _check_keys(section, [k for k in doc if k != "epsilon"], ("dims", "mean", "cov"))
    try:
        joint = gaussian_from_dict(doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{section}: {exc}") from exc
    if joint.dims != dims:
        raise InvalidInputError(f"{section} has dims {list(joint.dims)}, expected {list(dims)}")
    return joint


def model_from_dict(data: Mapping) -> SituationModel:
    """Parse a model document of the shipped categories; an error names its section."""
    cats = DEFAULT_CATEGORIES
    try:
        version = data["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise InvalidInputError(f"unsupported model format version {version}")
        categories = list(data["categories"])
        if categories != list(cats):
            raise InvalidInputError(
                f"model categories {categories} are not the situation's {list(cats)}"
            )
        _check_keys("box_priors", data["box_priors"], cats)
        box_priors = {c: _box_prior_from_dict(c, data["box_priors"][c]) for c in cats}

        tables = []
        for kind, dims in (("loc", loc_dims), ("box", box_dims)):
            pairs = data[f"{kind}_pair"]
            _check_keys(f"{kind}_pair", pairs, ["|".join(pair) for pair in CATEGORY_PAIRS])
            joints = {}
            for group in JOINT_CATEGORIES:
                if group == cats:
                    section, doc = f"{kind}_triple", data[f"{kind}_triple"]
                else:
                    key = "|".join(group)
                    section, doc = f"{kind}_pair[{key!r}]", pairs[key]
                joints[group] = _joint_from_dict(section, doc, dims(group))
            tables.append(joints)
        return SituationModel(box_priors, *tables)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed model document: {exc}") from exc


def save_model(model: SituationModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> SituationModel:
    """The model a file holds; a rejected document's error names the file."""
    try:
        return model_from_dict(read_json(path))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc

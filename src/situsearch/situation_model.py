"""Learned situation knowledge and its conditioning on detections.

A situation model holds, for a fixed three-category scene type:

* per-category priors over log area-ratio and log aspect-ratio (the box is
  never modeled in raw units: logs keep the quantities positive and weight
  small boxes more),
* pairwise 4-d and one three-way 6-d joint Gaussian over box centers,
* the same pair/triple structure over (log area-ratio, log aspect-ratio).

At search time each category is given a location map plus a box-descriptor
distribution. Until another category is detected these are the search
method's priors; with one detection of another category the pairwise joint
is conditioned on it; with two, the three-way joint is conditioned on both.
A category's own detection never conditions its own distributions, and
provisional detections condition exactly like final ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DatasetError, InsufficientDataError, InvalidInputError, read_json
from .gaussian import (
    LocationMap,
    MultivariateGaussian,
    UnivariateNormal,
    condition,
    fit,
    fit_univariate,
    gaussian_from_dict,
    gaussian_to_dict,
    rasterize_2d,
    uniform_map,  # unused here; the benchmark tracer patches this module attribute
)
from .geometry import BoundingBox, ImageFrame, normalize_frame, to_normalized

DEFAULT_CATEGORIES = ("dog_walker", "dog", "leash")

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
_MAX_LOG_SIDE = 700.0


@dataclass(frozen=True)
class CategorySet:
    """The ordered object categories of a situation (exactly three)."""

    categories: tuple[str, ...] = DEFAULT_CATEGORIES

    def __post_init__(self) -> None:
        cats = tuple(self.categories)
        if len(cats) != 3:
            raise InvalidInputError(f"a situation has exactly 3 categories, got {cats}")
        if len(set(cats)) != len(cats):
            raise InvalidInputError(f"category names must be unique, got {cats}")
        object.__setattr__(self, "categories", cats)

    def pairs(self) -> list[tuple[str, str]]:
        c = self.categories
        return [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]

    def pair_key(self, a: str, b: str) -> tuple[str, str]:
        """The unordered pair (a, b) in canonical category order."""
        if a == b or a not in self.categories or b not in self.categories:
            raise InvalidInputError(f"bad category pair ({a!r}, {b!r})")
        return (a, b) if self.categories.index(a) < self.categories.index(b) else (b, a)


@dataclass(frozen=True)
class BoxPrior:
    """Per-category normals over ln(area ratio) and ln(aspect ratio)."""

    alpha: UnivariateNormal
    gamma: UnivariateNormal


@dataclass(frozen=True)
class LogUniformBox:
    """Uniform draws of (ln area-ratio, ln aspect-ratio) over the fixed ranges."""

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        (a0, a1), (g0, g1) = LOG_AREA_RANGE, LOG_ASPECT_RANGE
        return a0 + (a1 - a0) * rng.random(), g0 + (g1 - g0) * rng.random()


@dataclass(eq=False)
class SituationModel:
    """All learned distributions for one situation."""

    category_set: CategorySet
    box_priors: dict[str, BoxPrior]
    loc_pair: dict[tuple[str, str], MultivariateGaussian]
    loc_triple: MultivariateGaussian
    box_pair: dict[tuple[str, str], MultivariateGaussian]
    box_triple: MultivariateGaussian

    @property
    def categories(self) -> tuple[str, ...]:
        return self.category_set.categories


@dataclass(eq=False)
class CategorySearchDist:
    """Current search distributions for one category on one image."""

    category: str
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
    w = max_w if log_w > _MAX_LOG_SIDE else root_area * math.exp(log_w)
    h = max_h if log_h > _MAX_LOG_SIDE else root_area * math.exp(log_h)
    if not (MIN_BOX_SIDE <= w <= max_w and MIN_BOX_SIDE <= h <= max_h):
        w = min(max(w, MIN_BOX_SIDE), max_w)  # NaN stays NaN, for BoundingBox to reject
        h = min(max(h, MIN_BOX_SIDE), max_h)
    return BoundingBox(cx, cy, w, h)


def learn(training: Sequence) -> SituationModel:
    """Fit box priors and all location and size/shape joints from annotations.

    Each training item must expose image_id, width, height and a ``boxes``
    mapping of category -> (x, y, w, h) corner box in original pixels, with
    exactly one box per shipped category.
    """
    category_set = CategorySet(DEFAULT_CATEGORIES)
    cats = category_set.categories
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

    priors = {}
    for k, cat in enumerate(cats):
        priors[cat] = BoxPrior(
            alpha=fit_univariate(boxes[:, 2 * k]),
            gamma=fit_univariate(boxes[:, 2 * k + 1]),
        )

    loc_pair = {}
    box_pair = {}
    for a, b in category_set.pairs():
        ia, ib = cats.index(a), cats.index(b)
        cols = [2 * ia, 2 * ia + 1, 2 * ib, 2 * ib + 1]
        loc_pair[(a, b)] = fit(locs[:, cols], loc_dims((a, b)))
        box_pair[(a, b)] = fit(boxes[:, cols], box_dims((a, b)))

    return SituationModel(
        category_set=category_set,
        box_priors=priors,
        loc_pair=loc_pair,
        loc_triple=fit(locs, loc_dims(cats)),
        box_pair=box_pair,
        box_triple=fit(boxes, box_dims(cats)),
    )


def prior_alpha_gamma(model: SituationModel, category: str) -> MultivariateGaussian:
    """Independent product of a category's two box priors as a 2-d Gaussian."""
    prior = model.box_priors[category]
    return MultivariateGaussian(
        dims=(f"alpha_{category}", f"gamma_{category}"),
        mean=np.array([prior.alpha.mean, prior.gamma.mean]),
        cov=np.diag([prior.alpha.std**2, prior.gamma.std**2]),
    )


def conditioned_distribution(
    model: SituationModel,
    category: str,
    detections: Mapping[str, BoundingBox],
    frame: ImageFrame,
    cell_size: float = 1.0,
    salience: LocationMap | None = None,
) -> CategorySearchDist:
    """Search distributions for one category given current detections.

    Detections of the category itself are ignored; at least one other
    category must be detected. With one other detection the pairwise joints
    are conditioned on it; with two, the three-way joints are conditioned on
    both. A ``salience`` map is folded into the location map as it is
    rasterized.
    """
    if category not in model.categories:
        raise InvalidInputError(f"unknown category {category!r}")
    others = [cat for cat in model.categories if cat != category and cat in detections]
    if not others:
        raise InvalidInputError(f"no detection of another category to condition {category!r} on")
    if len(others) == 1:
        pair = model.category_set.pair_key(category, others[0])
        loc_joint, box_joint = model.loc_pair[pair], model.box_pair[pair]
    else:
        loc_joint, box_joint = model.loc_triple, model.box_triple

    loc_obs: dict[str, float] = {}
    box_obs: dict[str, float] = {}
    for other_cat in others:
        box = detections[other_cat]
        loc_obs[f"x_{other_cat}"] = box.cx
        loc_obs[f"y_{other_cat}"] = box.cy
        alpha, gamma = box_descriptor(box, frame)
        box_obs[f"alpha_{other_cat}"] = alpha
        box_obs[f"gamma_{other_cat}"] = gamma
    loc_cond = condition(loc_joint, loc_obs)
    box_cond = condition(box_joint, box_obs)

    return CategorySearchDist(
        category=category,
        location=rasterize_2d(loc_cond, frame, cell_size, salience),
        alpha_gamma=box_cond,
    )


# ---------------------------------------------------------------------------
# Serialization

def model_to_dict(model: SituationModel) -> dict:
    def prior_dict(p: BoxPrior) -> dict:
        return {
            "alpha": {"mean": p.alpha.mean, "std": p.alpha.std},
            "gamma": {"mean": p.gamma.mean, "std": p.gamma.std},
        }

    return {
        "format_version": MODEL_FORMAT_VERSION,
        "categories": list(model.categories),
        "box_priors": {c: prior_dict(p) for c, p in model.box_priors.items()},
        "loc_pair": {f"{a}|{b}": gaussian_to_dict(g) for (a, b), g in model.loc_pair.items()},
        "loc_triple": gaussian_to_dict(model.loc_triple),
        "box_pair": {f"{a}|{b}": gaussian_to_dict(g) for (a, b), g in model.box_pair.items()},
        "box_triple": gaussian_to_dict(model.box_triple),
    }


def _check_keys(section: str, found: Iterable[str], expected: Sequence[str]) -> None:
    """Reject a model section whose keys differ from the ones the categories imply."""
    found = list(found)
    culprits = [f"missing {k!r}" for k in expected if k not in found]
    culprits += [f"unexpected {k!r}" for k in found if k not in expected]
    if culprits:
        raise InvalidInputError(f"model {section}: {', '.join(culprits)}")


def _check_dims(section: str, joint: MultivariateGaussian, expected: tuple[str, ...]) -> None:
    if joint.dims != expected:
        raise InvalidInputError(
            f"model {section} has dims {list(joint.dims)}, expected {list(expected)}"
        )


def model_from_dict(data: Mapping) -> SituationModel:
    """Parse a model document, checking every section against its category set."""
    try:
        version = data["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise InvalidInputError(f"unsupported model format version {version}")
        category_set = CategorySet(tuple(data["categories"]))
        cats = category_set.categories
        _check_keys("box_priors", data["box_priors"], cats)
        priors = {
            c: BoxPrior(
                alpha=UnivariateNormal(p["alpha"]["mean"], p["alpha"]["std"]),
                gamma=UnivariateNormal(p["gamma"]["mean"], p["gamma"]["std"]),
            )
            for c, p in data["box_priors"].items()
        }

        def pair_map(name: str, dims) -> dict[tuple[str, str], MultivariateGaussian]:
            section = data[name]
            _check_keys(name, section, [f"{a}|{b}" for a, b in category_set.pairs()])
            out = {}
            for a, b in category_set.pairs():
                key = f"{a}|{b}"
                out[(a, b)] = gaussian_from_dict(section[key])
                _check_dims(f"{name}[{key!r}]", out[(a, b)], dims((a, b)))
            return out

        def triple(name: str, dims) -> MultivariateGaussian:
            joint = gaussian_from_dict(data[name])
            _check_dims(name, joint, dims(cats))
            return joint

        return SituationModel(
            category_set=category_set,
            box_priors=priors,
            loc_pair=pair_map("loc_pair", loc_dims),
            loc_triple=triple("loc_triple", loc_dims),
            box_pair=pair_map("box_pair", box_dims),
            box_triple=triple("box_triple", box_dims),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed model document: {exc}") from exc


def save_model(model: SituationModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> SituationModel:
    return model_from_dict(read_json(path))

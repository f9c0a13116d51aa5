"""Dataset ingestion, fold splitting, and the synthetic situation generator.

Annotations are one JSON file per image:

    {"image_id": ..., "width": ..., "height": ...,
     "objects": [{"category": ..., "x": ..., "y": ..., "w": ..., "h": ...}, ...]}

with corner coordinates in original pixels, top-left origin. The synthetic
generator draws object centers and log size/shape descriptors from explicit
6-d Gaussians, so the generating parameters double as exact oracles for
model-recovery tests. Boxes that would poke out of the frame are translated
inward (never shrunk), preserving the drawn area and aspect ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DatasetError, GenerationError, InvalidInputError, ParseError
from .gaussian import MultivariateGaussian, gaussian_from_dict, gaussian_to_dict
from .geometry import normalize_frame, to_original
from .seeding import rng_for, stable_seed
from .situation_model import (
    DEFAULT_CATEGORIES,
    CategorySet,
    box_dims,
    box_from_descriptor,
    loc_dims,
)


@dataclass(frozen=True)
class SituationAnnotation:
    """Ground truth for one image: exactly one box per category."""

    image_id: str
    width: int
    height: int
    boxes: dict[str, tuple[float, float, float, float]]
    image_path: str | None = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise DatasetError(
                f"annotation {self.image_id!r}: image size {self.width}x{self.height} invalid"
            )
        for category, (x, y, w, h) in self.boxes.items():
            if w <= 0 or h <= 0:
                raise DatasetError(
                    f"annotation {self.image_id!r}: category {category!r} has empty box"
                )
            if x < 0 or y < 0 or x + w > self.width + 1e-6 or y + h > self.height + 1e-6:
                raise DatasetError(
                    f"annotation {self.image_id!r}: category {category!r} box "
                    f"({x}, {y}, {w}, {h}) lies outside the {self.width}x{self.height} image"
                )


def annotation_to_dict(ann: SituationAnnotation) -> dict:
    doc = {
        "image_id": ann.image_id,
        "width": ann.width,
        "height": ann.height,
        "objects": [
            {"category": c, "x": x, "y": y, "w": w, "h": h}
            for c, (x, y, w, h) in sorted(ann.boxes.items())
        ],
    }
    if ann.image_path is not None:
        doc["image"] = ann.image_path
    return doc


def annotation_from_dict(doc: dict, source: str = "<memory>") -> SituationAnnotation:
    try:
        boxes = {}
        for i, obj in enumerate(doc["objects"]):
            category = obj["category"]
            if category in boxes:
                raise DatasetError(f"{source}: duplicate category {category!r}")
            boxes[category] = (
                float(obj["x"]),
                float(obj["y"]),
                float(obj["w"]),
                float(obj["h"]),
            )
        return SituationAnnotation(
            image_id=str(doc["image_id"]),
            width=int(doc["width"]),
            height=int(doc["height"]),
            boxes=boxes,
            image_path=doc.get("image"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{source}: malformed annotation ({exc})") from exc


def save_annotation(ann: SituationAnnotation, path: str | Path) -> None:
    Path(path).write_text(json.dumps(annotation_to_dict(ann), indent=2, sort_keys=True) + "\n")


def load_annotation(path: str | Path) -> SituationAnnotation:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    ann = annotation_from_dict(doc, source=str(path))
    if ann.image_path is not None and not Path(ann.image_path).is_absolute():
        ann = replace(ann, image_path=str(path.parent / ann.image_path))
    return ann


GENERATOR_CONFIG_NAME = "generator_config.json"


def load_dataset(directory: str | Path) -> list[SituationAnnotation]:
    """Load and validate every *.json annotation under a directory (sorted).

    A generator_config.json left behind by the synthetic generator is
    provenance, not an annotation, and is skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ParseError(f"{directory}: not a directory")
    return [
        load_annotation(p)
        for p in sorted(directory.glob("*.json"))
        if p.name != GENERATOR_CONFIG_NAME
    ]


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class GeneratorConfig:
    """Frame size plus the generating location and box-descriptor Gaussians.

    ``location`` is 6-d over normalized-frame centers (x, y per category in
    category order); ``box`` is 6-d over (ln area-ratio, ln aspect-ratio) per
    category. ``clamping`` names the policy for boxes that cross the frame
    edge; only "translate" is implemented.
    """

    width: int
    height: int
    location: MultivariateGaussian
    box: MultivariateGaussian
    categories: CategorySet = field(default_factory=CategorySet)
    clamping: str = "translate"
    seed: int = 0

    def __post_init__(self) -> None:
        cats = self.categories.categories
        if self.location.dims != loc_dims(cats):
            raise InvalidInputError(
                f"location dims {self.location.dims} do not match categories {cats}"
            )
        if self.box.dims != box_dims(cats):
            raise InvalidInputError(f"box dims {self.box.dims} do not match categories {cats}")
        if self.clamping != "translate":
            raise InvalidInputError(f"unknown clamping policy {self.clamping!r}")


def _structural_gaussian(
    dims: Sequence[str], means: Sequence[float], rows: Sequence[Sequence[float]]
) -> MultivariateGaussian:
    """Gaussian of a linear map A u + m of iid standard normals u."""
    a = np.array(rows, dtype=float)
    return MultivariateGaussian(dims=tuple(dims), mean=np.array(means, dtype=float), cov=a @ a.T)


def generator_config_to_dict(config: GeneratorConfig) -> dict:
    return {
        "width": config.width,
        "height": config.height,
        "categories": list(config.categories.categories),
        "location": gaussian_to_dict(config.location),
        "box": gaussian_to_dict(config.box),
        "clamping": config.clamping,
        "seed": config.seed,
    }


def generator_config_from_dict(doc: dict, source: str = "<memory>") -> GeneratorConfig:
    try:
        return GeneratorConfig(
            width=int(doc["width"]),
            height=int(doc["height"]),
            location=gaussian_from_dict(doc["location"]),
            box=gaussian_from_dict(doc["box"]),
            categories=CategorySet(tuple(doc.get("categories", DEFAULT_CATEGORIES))),
            clamping=doc.get("clamping", "translate"),
            seed=int(doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{source}: malformed generator config ({exc})") from exc


def save_generator_config(config: GeneratorConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(generator_config_to_dict(config), indent=2, sort_keys=True) + "\n"
    )


def load_generator_config(path: str | Path) -> GeneratorConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return generator_config_from_dict(doc, source=str(path))


def default_generator_config(width: int = 640, height: int = 480, seed: int = 0) -> GeneratorConfig:
    """A scene family with the qualitative structure of real dog-walking photos.

    The walker is the largest object and roams widely; the dog sits at a
    noisy offset from the walker; the leash lies near the walker-dog midpoint
    with small positional noise but high shape variance. Sizes are correlated
    so that conditioning on one detection genuinely pins down the others.
    """
    cats = CategorySet(DEFAULT_CATEGORIES)
    # Structural equations on iid standard normals u1..u6 (normalized pixels):
    #   walker = (-40, 22) + (82 u1, 42 u2)
    #   dog    = (0.9 wx + 78 + 30 u3, 0.8 wy + 62 + 24 u4)
    #   leash  = midpoint(walker, dog) + (12 u5, 12 u6)
    # Spreads stay shy of the frame edge so center clamping is rare and the
    # generating parameters remain unbiased oracles for recovery tests.
    location = _structural_gaussian(
        loc_dims(cats.categories),
        means=[-40.0, 22.0, 0.9 * -40.0 + 78.0, 0.8 * 22.0 + 62.0, 1.0, 50.8],
        rows=[
            [82.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 42.0, 0.0, 0.0, 0.0, 0.0],
            [0.9 * 82.0, 0.0, 30.0, 0.0, 0.0, 0.0],
            [0.0, 0.8 * 42.0, 0.0, 24.0, 0.0, 0.0],
            [0.95 * 82.0, 0.0, 15.0, 0.0, 12.0, 0.0],
            [0.0, 0.9 * 42.0, 0.0, 12.0, 0.0, 12.0],
        ],
    )
    # Same trick in log box space (v1..v6): walker area drives dog and leash
    # areas; aspect ratios are category-specific, the leash's widely spread.
    # Dogs and leashes are small and variable enough that prior-only search
    # stalls on them, while conditioning on one detection pins them down.
    box = _structural_gaussian(
        box_dims(cats.categories),
        means=[
            math.log(0.06),
            math.log(0.42),
            math.log(0.018),
            math.log(1.5),
            math.log(0.012),
            math.log(1.3),
        ],
        rows=[
            [0.20, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.15, 0.0, 0.0, 0.0, 0.0],
            [0.10, 0.0, 0.30, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.25, 0.0, 0.0],
            [0.11, 0.0, 0.06, 0.0, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.40],
        ],
    )
    return GeneratorConfig(width=width, height=height, location=location, box=box, seed=seed)


def generate_synthetic(
    config: GeneratorConfig, n: int, rng: np.random.Generator | None = None
) -> list[SituationAnnotation]:
    """Draw n annotations from the generating Gaussians, clamped into frame.

    A draw is rejected when some box cannot fit in the frame at all (wider or
    taller than the image); more than 1000 consecutive rejections raise
    GenerationError.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    frame = normalize_frame(config.width, config.height)
    cats = config.categories.categories
    half_w = frame.norm_width / 2
    half_h = frame.norm_height / 2

    annotations = []
    rejections = 0
    while len(annotations) < n:
        if rejections > 1000:
            raise GenerationError(
                "more than 1000 consecutive draws could not be clamped into the frame"
            )
        locs = config.location.sample(rng)
        descs = config.box.sample(rng)
        boxes: dict[str, tuple[float, float, float, float]] = {}
        ok = True
        for k, cat in enumerate(cats):
            box = box_from_descriptor(
                locs[2 * k], locs[2 * k + 1], descs[2 * k], descs[2 * k + 1], frame
            )
            if box.w > frame.norm_width or box.h > frame.norm_height:
                ok = False
                break
            # Translate the center inward; size is preserved.
            cx = min(max(box.cx, -half_w + box.w / 2), half_w - box.w / 2)
            cy = min(max(box.cy, -half_h + box.h / 2), half_h - box.h / 2)
            x, y, w, h = to_original(replace(box, cx=cx, cy=cy), frame)
            x = min(max(x, 0.0), config.width - w)
            y = min(max(y, 0.0), config.height - h)
            boxes[cat] = (x, y, w, h)
        if not ok:
            rejections += 1
            continue
        rejections = 0
        annotations.append(
            SituationAnnotation(
                image_id=f"synthetic_{len(annotations):05d}",
                width=config.width,
                height=config.height,
                boxes=boxes,
            )
        )
    return annotations


def render_annotation_image(ann: SituationAnnotation, clutter: int = 14) -> np.ndarray:
    """Deterministic luminance rendering of an annotation's scene.

    Objects appear as bright rectangles over a dark noisy background with a
    few clutter rectangles, so salience computed on the rendering highlights
    object-sized regions without giving their categories away. Determinism
    comes from seeding with the image id alone.
    """
    rng = rng_for("render", ann.image_id)
    img = 0.25 + 0.03 * rng.standard_normal((ann.height, ann.width))
    for _ in range(clutter):
        w = int(ann.width * rng.uniform(0.08, 0.30))
        h = int(ann.height * rng.uniform(0.08, 0.30))
        x = rng.integers(0, max(1, ann.width - w))
        y = rng.integers(0, max(1, ann.height - h))
        img[y : y + h, x : x + w] = rng.uniform(0.45, 0.80)
    brightness = {cat: 0.9 - 0.12 * i for i, cat in enumerate(sorted(ann.boxes))}
    for cat, (x, y, w, h) in sorted(ann.boxes.items()):
        x0, y0 = int(round(x)), int(round(y))
        x1 = min(ann.width, int(round(x + w)))
        y1 = min(ann.height, int(round(y + h)))
        img[y0:y1, x0:x1] = brightness[cat]
    return np.clip(img, 0.0, 1.0)


def split_folds(
    annotations: Sequence, k: int = 10, seed: int = 0
) -> list[tuple[list[int], list[int]]]:
    """k disjoint test folds covering every index exactly once.

    Folds are contiguous blocks of one seeded shuffle; test sizes differ by
    at most 1 and the train side is the complement.
    """
    n = len(annotations)
    if k < 1 or k > n:
        raise InvalidInputError(f"need 1 <= k <= {n}, got k={k}")
    perm = np.random.default_rng(stable_seed("folds", seed)).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = sorted(int(j) for j in perm[start : start + size])
        test_set = set(test)
        train = [j for j in range(n) if j not in test_set]
        folds.append((train, test))
        start += size
    return folds

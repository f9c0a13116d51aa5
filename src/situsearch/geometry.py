"""Image-frame normalization and bounding-box arithmetic.

All search-time geometry lives in a normalized frame: every image is rescaled
so its area is TARGET_AREA pixels (aspect ratio preserved exactly) and the
coordinate origin sits at the image center, x to the right and y downward.
Boxes are stored center+size in that frame; corner format (top-left origin)
appears only at the ingestion boundary.

Normalized dimensions are kept as real numbers; nothing is rounded to integer
pixels except when maps are rasterized elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, NoOverlapError

TARGET_AREA = 250_000.0


@dataclass(frozen=True)
class ImageFrame:
    """An image's original size plus its normalized-frame geometry."""

    orig_width: float
    orig_height: float
    scale: float
    norm_width: float
    norm_height: float

    @property
    def area(self) -> float:
        return self.norm_width * self.norm_height


def normalize_frame(orig_width: float, orig_height: float) -> ImageFrame:
    """Build the normalized frame for an image of the given pixel size.

    The scale factor is sqrt(TARGET_AREA / (w*h)), applied to both axes, so the
    normalized area is exactly TARGET_AREA and the aspect ratio is untouched.
    """
    if orig_width < 1 or orig_height < 1:
        raise InvalidInputError(
            f"image dimensions must be >= 1 pixel, got {orig_width}x{orig_height}"
        )
    if not (math.isfinite(orig_width) and math.isfinite(orig_height)):
        raise InvalidInputError("image dimensions must be finite")
    scale = math.sqrt(TARGET_AREA / (orig_width * orig_height))
    return ImageFrame(
        orig_width=float(orig_width),
        orig_height=float(orig_height),
        scale=scale,
        norm_width=orig_width * scale,
        norm_height=orig_height * scale,
    )


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: center (cx, cy) and size (w, h), normalized-frame units."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise InvalidInputError(f"box must have positive size, got w={self.w}, h={self.h}")
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h)):
            raise InvalidInputError("box coordinates must be finite")

    @property
    def x0(self) -> float:
        return self.cx - self.w / 2

    @property
    def x1(self) -> float:
        return self.cx + self.w / 2

    @property
    def y0(self) -> float:
        return self.cy - self.h / 2

    @property
    def y1(self) -> float:
        return self.cy + self.h / 2

    @property
    def area(self) -> float:
        return self.w * self.h

    def area_ratio(self, frame: ImageFrame) -> float:
        return self.area / frame.area

    @property
    def aspect_ratio(self) -> float:
        return self.w / self.h


def to_normalized(x: float, y: float, w: float, h: float, frame: ImageFrame) -> BoundingBox:
    """Convert a corner-format box in original pixels to the normalized frame.

    Input is (x, y) top-left corner plus (w, h), top-left origin, y down.
    """
    if w <= 0 or h <= 0:
        raise InvalidInputError(f"corner box must have positive size, got w={w}, h={h}")
    s = frame.scale
    return BoundingBox(
        cx=(x + w / 2) * s - frame.norm_width / 2,
        cy=(y + h / 2) * s - frame.norm_height / 2,
        w=w * s,
        h=h * s,
    )


def to_original(box: BoundingBox, frame: ImageFrame) -> tuple[float, float, float, float]:
    """Inverse of to_normalized: (x, y, w, h) corner format in original pixels."""
    s = frame.scale
    w = box.w / s
    h = box.h / s
    x = (box.cx + frame.norm_width / 2) / s - w / 2
    y = (box.cy + frame.norm_height / 2) / s - h / 2
    return x, y, w, h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def crop_to_frame(box: BoundingBox, frame: ImageFrame) -> BoundingBox:
    """Intersect a box with the frame rectangle.

    Raises NoOverlapError when the box lies entirely outside the frame;
    callers treat such a proposal as score 0.
    """
    hx = frame.norm_width / 2
    hy = frame.norm_height / 2
    x0 = max(box.x0, -hx)
    x1 = min(box.x1, hx)
    y0 = max(box.y0, -hy)
    y1 = min(box.y1, hy)
    if x1 <= x0 or y1 <= y0:
        raise NoOverlapError("box lies entirely outside the image frame")
    return BoundingBox(cx=(x0 + x1) / 2, cy=(y0 + y1) / 2, w=x1 - x0, h=y1 - y0)

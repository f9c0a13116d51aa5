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
from dataclasses import dataclass, field

from .errors import InvalidInputError, NoOverlapError

TARGET_AREA = 250_000.0


@dataclass(frozen=True)
class ImageFrame:
    """An image's original size, and the normalized-frame geometry it determines.

    The scale factor is sqrt(TARGET_AREA / (w*h)), applied to both axes, so the
    normalized area is exactly TARGET_AREA and the aspect ratio is untouched.
    """

    orig_width: float
    orig_height: float
    scale: float = field(init=False)
    norm_width: float = field(init=False)
    norm_height: float = field(init=False)

    def __post_init__(self) -> None:
        w, h = self.orig_width, self.orig_height
        if w < 1 or h < 1:
            raise InvalidInputError(f"image dimensions must be >= 1 pixel, got {w}x{h}")
        if not (math.isfinite(w) and math.isfinite(h)):
            raise InvalidInputError("image dimensions must be finite")
        scale = math.sqrt(TARGET_AREA / (w * h))
        object.__setattr__(self, "orig_width", float(w))
        object.__setattr__(self, "orig_height", float(h))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "norm_width", w * scale)
        object.__setattr__(self, "norm_height", h * scale)

    @property
    def area(self) -> float:
        return self.norm_width * self.norm_height


def normalize_frame(orig_width: float, orig_height: float) -> ImageFrame:
    """The normalized frame of an image of the given pixel size."""
    return ImageFrame(orig_width, orig_height)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box: center (cx, cy) and size (w, h), normalized-frame units."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        w, h = self.w, self.h
        if not (w > 0 and h > 0):
            raise InvalidInputError(f"box must have positive size, got w={w}, h={h}")
        isfinite = math.isfinite
        if not (isfinite(self.cx) and isfinite(self.cy) and isfinite(w) and isfinite(h)):
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
    # The corners and areas are formed as the properties form them, so the
    # result is bit-for-bit the same as through x0/x1/y0/y1/area.
    acx, acy, aw, ah = a.cx, a.cy, a.w, a.h
    bcx, bcy, bw, bh = b.cx, b.cy, b.w, b.h
    ix = min(acx + aw / 2, bcx + bw / 2) - max(acx - aw / 2, bcx - bw / 2)
    iy = min(acy + ah / 2, bcy + bh / 2) - max(acy - ah / 2, bcy - bh / 2)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union


def crop_to_frame(box: BoundingBox, frame: ImageFrame) -> BoundingBox:
    """Intersect a box with the frame rectangle.

    Raises NoOverlapError when the box lies entirely outside the frame, or
    when its intersection with the frame has no width or height in floating
    point. The search never passes such a box: ``box_from_descriptor``
    bounds the sides of every box it makes, and proposals are centred in
    the frame.
    """
    cx, cy, w, h = box.cx, box.cy, box.w, box.h
    hx = frame.norm_width / 2
    hy = frame.norm_height / 2
    x0 = max(cx - w / 2, -hx)
    x1 = min(cx + w / 2, hx)
    y0 = max(cy - h / 2, -hy)
    y1 = min(cy + h / 2, hy)
    if x1 <= x0 or y1 <= y0:
        raise NoOverlapError("box lies entirely outside the image frame")
    return BoundingBox(cx=(x0 + x1) / 2, cy=(y0 + y1) / 2, w=x1 - x0, h=y1 - y0)

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situsearch.errors import InvalidInputError, NoOverlapError
from situsearch.geometry import (
    TARGET_AREA,
    BoundingBox,
    ImageFrame,
    crop_to_frame,
    iou,
    normalize_frame,
    to_normalized,
    to_original,
)


def corner_box(x: float, y: float, w: float, h: float) -> BoundingBox:
    """Corner format to center format without any frame transform."""
    return BoundingBox(cx=x + w / 2, cy=y + h / 2, w=w, h=h)


def pixel_count_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Brute-force IOU for integer corner boxes by counting grid pixels."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    a_cells = {(i, j) for i in range(ax, ax + aw) for j in range(ay, ay + ah)}
    b_cells = {(i, j) for i in range(bx, bx + bw) for j in range(by, by + bh)}
    union = a_cells | b_cells
    if not union:
        return 0.0
    return len(a_cells & b_cells) / len(union)


# ---------------------------------------------------------------------------
# normalize_frame


def test_normalize_frame_downscales_to_target_area():
    frame = normalize_frame(1000, 1000)
    assert frame.scale == pytest.approx(0.5)
    assert frame.norm_width == pytest.approx(500)
    assert frame.norm_height == pytest.approx(500)


def test_normalize_frame_identity_at_target_area():
    frame = normalize_frame(500, 500)
    assert frame.scale == pytest.approx(1.0)
    assert frame.norm_width == pytest.approx(500)


def test_normalize_frame_preserves_aspect():
    frame = normalize_frame(2000, 500)
    assert frame.scale == pytest.approx(0.5)
    assert frame.norm_width == pytest.approx(1000)
    assert frame.norm_height == pytest.approx(250)


@pytest.mark.parametrize("w,h", [(123, 456), (1, 1), (4000, 3000), (799, 601)])
def test_normalize_frame_invariants(w, h):
    frame = normalize_frame(w, h)
    assert frame.norm_width * frame.norm_height == pytest.approx(250_000, rel=1e-9)
    assert frame.norm_width / frame.norm_height == pytest.approx(w / h, rel=1e-9)


@pytest.mark.parametrize("w,h", [(0, 100), (100, 0), (-5, 100), (100, -1)])
def test_normalize_frame_rejects_bad_dims(w, h):
    with pytest.raises(InvalidInputError):
        normalize_frame(w, h)


def first_frame_values(w, h) -> tuple[float, ...]:
    """normalize_frame's fields as first written: scale from the given sizes, then each side."""
    scale = math.sqrt(TARGET_AREA / (w * h))
    return float(w), float(h), scale, w * scale, h * scale


FRAME_SIDES = st.one_of(
    st.sampled_from([1, 1.0, 2, 640, 480, 2**53 + 1, 10**18, 1e300]),
    st.integers(1, 2**64),
    st.floats(1.0, 1e300),
)


@settings(max_examples=500)
@given(w=FRAME_SIDES, h=FRAME_SIDES)
def test_frame_derives_the_first_formulas_bit_for_bit(w, h):
    frame = normalize_frame(w, h)
    got = (frame.orig_width, frame.orig_height, frame.scale, frame.norm_width, frame.norm_height)
    assert [v.hex() for v in got] == [v.hex() for v in first_frame_values(w, h)]
    assert frame == ImageFrame(w, h)


def test_a_frame_is_built_from_its_size_alone():
    with pytest.raises(TypeError):
        ImageFrame(640, 480, scale=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        normalize_frame(640, 480).norm_width = 1.0
    with pytest.raises(InvalidInputError, match="finite"):
        ImageFrame(math.inf, 480)


# ---------------------------------------------------------------------------
# to_normalized / to_original


def test_full_image_box_is_centered():
    frame = normalize_frame(1000, 1000)
    box = to_normalized(0, 0, 1000, 1000, frame)
    assert box.cx == pytest.approx(0)
    assert box.cy == pytest.approx(0)
    assert box.w == pytest.approx(500)
    assert box.h == pytest.approx(500)


def test_quarter_box_lands_in_upper_left():
    frame = normalize_frame(1000, 1000)
    box = to_normalized(0, 0, 500, 500, frame)
    assert box.cx == pytest.approx(-125)
    assert box.cy == pytest.approx(-125)
    assert box.w == pytest.approx(250)
    assert box.h == pytest.approx(250)


def test_degenerate_corner_box_rejected():
    frame = normalize_frame(1000, 1000)
    with pytest.raises(InvalidInputError):
        to_normalized(10, 10, 0, 5, frame)


@settings(max_examples=200, deadline=None)
@given(
    ow=st.integers(100, 4000),
    oh=st.integers(100, 4000),
    fx=st.floats(0, 0.9),
    fy=st.floats(0, 0.9),
    fw=st.floats(0.01, 1.0),
    fh=st.floats(0.01, 1.0),
)
def test_round_trip_within_tolerance(ow, oh, fx, fy, fw, fh):
    frame = normalize_frame(ow, oh)
    x = fx * ow
    y = fy * oh
    w = max(fw * (ow - x), 1e-3)
    h = max(fh * (oh - y), 1e-3)
    box = to_normalized(x, y, w, h, frame)
    rx, ry, rw, rh = to_original(box, frame)
    for got, want in ((rx, x), (ry, y), (rw, w), (rh, h)):
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# iou


def test_iou_identical_boxes():
    box = corner_box(3, 4, 10, 12)
    assert iou(box, box) == 1.0


def test_iou_disjoint_boxes():
    assert iou(corner_box(0, 0, 10, 10), corner_box(20, 20, 5, 5)) == 0.0


def test_iou_half_overlap_is_one_third():
    a = corner_box(0, 0, 10, 10)
    b = corner_box(5, 0, 10, 10)  # corners (5,0) to (15,10)
    assert iou(a, b) == pytest.approx(1 / 3)
    assert iou(a, b) == pixel_count_iou((0, 0, 10, 10), (5, 0, 10, 10))


def test_iou_matches_pixel_count_oracle_on_random_integer_boxes():
    rng = np.random.default_rng(42)
    for _ in range(300):
        ax, ay = rng.integers(0, 30, size=2)
        aw, ah = rng.integers(1, 25, size=2)
        bx, by = rng.integers(0, 30, size=2)
        bw, bh = rng.integers(1, 25, size=2)
        analytic = iou(corner_box(ax, ay, aw, ah), corner_box(bx, by, bw, bh))
        counted = pixel_count_iou(
            (int(ax), int(ay), int(aw), int(ah)), (int(bx), int(by), int(bw), int(bh))
        )
        assert analytic == counted  # exact, both are ratios of the same integers


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = corner_box(*rng.uniform(0, 50, size=2), *rng.uniform(0.5, 30, size=2))
        b = corner_box(*rng.uniform(0, 50, size=2), *rng.uniform(0.5, 30, size=2))
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# crop_to_frame


def test_crop_leaves_interior_box_unchanged():
    frame = normalize_frame(1000, 1000)
    box = BoundingBox(cx=10, cy=-20, w=50, h=40)
    assert crop_to_frame(box, frame) == box


def test_crop_half_off_right_edge():
    frame = normalize_frame(1000, 1000)  # normalized half-width 250
    box = BoundingBox(cx=250, cy=0, w=100, h=80)
    cropped = crop_to_frame(box, frame)
    assert cropped.w == pytest.approx(50)
    assert cropped.cx == pytest.approx(250 - 100 / 4)
    assert cropped.h == pytest.approx(80)


def test_crop_fully_outside_raises():
    frame = normalize_frame(1000, 1000)
    with pytest.raises(NoOverlapError):
        crop_to_frame(BoundingBox(cx=400, cy=0, w=20, h=20), frame)


def test_crop_output_contained_in_box_and_frame():
    frame = normalize_frame(800, 600)
    rng = np.random.default_rng(3)
    hx, hy = frame.norm_width / 2, frame.norm_height / 2
    for _ in range(300):
        box = BoundingBox(
            cx=rng.uniform(-hx - 50, hx + 50),
            cy=rng.uniform(-hy - 50, hy + 50),
            w=rng.uniform(1, 200),
            h=rng.uniform(1, 200),
        )
        try:
            cropped = crop_to_frame(box, frame)
        except NoOverlapError:
            assert box.x1 <= -hx or box.x0 >= hx or box.y1 <= -hy or box.y0 >= hy
            continue
        assert cropped.x0 >= max(box.x0, -hx) - 1e-12
        assert cropped.x1 <= min(box.x1, hx) + 1e-12
        assert cropped.y0 >= max(box.y0, -hy) - 1e-12
        assert cropped.y1 <= min(box.y1, hy) + 1e-12


# ---------------------------------------------------------------------------
# The per-proposal geometry, bit for bit against the property-based bodies


def property_crop_to_frame(box: BoundingBox, frame) -> BoundingBox:
    """crop_to_frame written through the corner properties, as the oracle."""
    hx = frame.norm_width / 2
    hy = frame.norm_height / 2
    x0 = max(box.x0, -hx)
    x1 = min(box.x1, hx)
    y0 = max(box.y0, -hy)
    y1 = min(box.y1, hy)
    if x1 <= x0 or y1 <= y0:
        raise NoOverlapError("box lies entirely outside the image frame")
    return BoundingBox(cx=(x0 + x1) / 2, cy=(y0 + y1) / 2, w=x1 - x0, h=y1 - y0)


def property_iou(a: BoundingBox, b: BoundingBox) -> float:
    """iou written through the corner and area properties, as the oracle."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def bits(box: BoundingBox) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in (box.cx, box.cy, box.w, box.h))


def outcome(fn, *args):
    """(kind, value): the exception type and message, or the result's bits."""
    try:
        result = fn(*args)
    except (InvalidInputError, NoOverlapError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", bits(result) if isinstance(result, BoundingBox) else float(result).hex()


@st.composite
def frame_and_box(draw):
    """A frame and a box near it: inside, crossing or touching an edge, or outside.

    Centres are drawn in and beyond the frame, and also exactly at its edges
    (the clamp ``sample_point`` applies); sides run from far below a pixel to
    several frame sides, and a box may end exactly on a frame edge.
    """
    frame = normalize_frame(draw(st.integers(1, 4000)), draw(st.integers(1, 4000)))
    hx, hy = frame.norm_width / 2, frame.norm_height / 2
    sides = st.one_of(
        st.floats(1e-9, 1.0),
        st.floats(1.0, 4 * max(hx, hy)),
        st.sampled_from([hx, hy, 2 * hx, 2 * hy]),
    )
    w, h = draw(sides), draw(sides)
    cx = draw(
        st.one_of(
            st.floats(-2 * hx, 2 * hx),
            st.sampled_from([-hx, hx, 0.0, -hx - w / 2, hx + w / 2, -hx + w / 2, hx - w / 2]),
        )
    )
    cy = draw(
        st.one_of(
            st.floats(-2 * hy, 2 * hy),
            st.sampled_from([-hy, hy, 0.0, -hy - h / 2, hy + h / 2, -hy + h / 2, hy - h / 2]),
        )
    )
    return frame, BoundingBox(cx, cy, w, h)


@settings(max_examples=400, deadline=None)
@given(case=frame_and_box())
def test_crop_to_frame_is_bit_identical_to_property_form(case):
    frame, box = case
    assert outcome(crop_to_frame, box, frame) == outcome(property_crop_to_frame, box, frame)


@settings(max_examples=400, deadline=None)
@given(first=frame_and_box(), second=frame_and_box(), near=st.booleans())
def test_iou_is_bit_identical_to_property_form(first, second, near):
    a, b = first[1], second[1]
    if near:  # centres within 50 units of each other, so the boxes mostly overlap
        a = BoundingBox(a.cx % 50, a.cy % 50, a.w, a.h)
        b = BoundingBox(b.cx % 50, b.cy % 50, b.w, b.h)
    for x, y in ((a, b), (b, a), (a, a)):
        assert outcome(iou, x, y) == outcome(property_iou, x, y)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0.0, 0.0, 0.0, 1.0), "box must have positive size, got w=0.0, h=1.0"),
        ((0.0, 0.0, 1.0, -2.0), "box must have positive size, got w=1.0, h=-2.0"),
        ((0.0, 0.0, float("nan"), 1.0), "box must have positive size, got w=nan, h=1.0"),
        ((0.0, 0.0, float("inf"), 1.0), "box coordinates must be finite"),
        ((0.0, 0.0, 1.0, float("inf")), "box coordinates must be finite"),
        ((float("nan"), 0.0, 1.0, 1.0), "box coordinates must be finite"),
        ((0.0, float("-inf"), 1.0, 1.0), "box coordinates must be finite"),
    ],
)
def test_bounding_box_rejects_bad_fields_by_name(fields, message):
    with pytest.raises(InvalidInputError) as info:
        BoundingBox(*fields)
    assert str(info.value) == message


def test_bounding_box_is_a_frozen_picklable_dataclass():
    box = BoundingBox(1.5, -2.0, 3.0, 4.25)
    assert pickle.loads(pickle.dumps(box)) == box
    with pytest.raises(dataclasses.FrozenInstanceError):
        box.cx = 0.0
    moved = dataclasses.replace(box, cx=7.0, cy=8.0)
    assert (moved.cx, moved.cy, moved.w, moved.h) == (7.0, 8.0, 3.0, 4.25)
    with pytest.raises(InvalidInputError):
        dataclasses.replace(box, w=0.0)
    assert hash(box) == hash(BoundingBox(1.5, -2.0, 3.0, 4.25))

"""Hypothesis strategies that more than one test module draws from.

A plain module, not a test module, like ``oracles``.
"""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from situsearch.datagen import SituationAnnotation
from situsearch.geometry import TARGET_AREA, normalize_frame
from situsearch.situation_model import DEFAULT_CATEGORIES


# The thinnest normalized short side drawn for the salience methods. Salience
# works a frame thinner than WORKING_CELL in cells of its short side, and the
# time to smooth a wide one grows as the fourth power of 1/short side: about
# 1 s at 3 scaled pixels, 5 s at 2 and 16 times that at 1 (2-vCPU host).
SALIENCE_THINNEST = 3.0


@st.composite
def extreme_annotations(draw, cell_size: float) -> SituationAnnotation:
    """1×N and N×1 images, and images whose short side is just above one cell."""
    short = draw(st.integers(1, 3))
    # the normalized short side over the cell size
    ratio = draw(st.one_of(st.sampled_from([1.0, 1.0 + 1e-6, 1.01]), st.floats(1.0, 4.0)))
    long = int(TARGET_AREA * short / (ratio * cell_size) ** 2)
    assume(long >= short)
    width, height = (long, short) if draw(st.booleans()) else (short, long)
    frame = normalize_frame(width, height)
    assume(min(frame.norm_width, frame.norm_height) >= cell_size)
    boxes = {}
    for cat in DEFAULT_CATEGORIES:
        fx, fy = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9))
        fw, fh = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
        x, y = fx * width, fy * height
        boxes[cat] = (x, y, (width - x) * fw, (height - y) * fh)
    return SituationAnnotation(image_id=f"{width}x{height}", width=width, height=height, boxes=boxes)

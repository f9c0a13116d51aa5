"""Snapshot heatmap panels against the per-cell loop they were first drawn with."""

from __future__ import annotations

from xml.sax.saxutils import escape as sax_escape

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from situsearch import charts
from situsearch.charts import _heat_rects, workspace_snapshot_svg
from situsearch.evaluation import config_for_token, salience_for_annotation
from situsearch.geometry import normalize_frame, to_normalized
from situsearch.search import run_image
from situsearch.situation_model import learn


def loop_heat_rects(coarse, peak, left, top, cw, ch) -> list[str]:
    """The per-cell loop, as the oracle; ``top`` is the panel's y plus 18."""
    out = []
    for r in range(coarse.shape[0]):
        for c in range(coarse.shape[1]):
            level = coarse[r, c] / peak
            if level < 0.02:
                continue
            shade = int(255 * min(level, 1.0))
            out.append(
                f'<rect x="{left + c * cw:.1f}" y="{top + r * ch:.1f}" '
                f'width="{cw + 0.5:.1f}" height="{ch + 0.5:.1f}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    return out


coarse_grids = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 48)),
    elements=st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, 0.02, 0.0199999, 0.0200001, 1.0, 1.5])
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    coarse=coarse_grids,
    peak=st.one_of(st.none(), st.sampled_from([1.0, 0.5, 0.01]), st.floats(1e-6, 10.0)),
    left=st.floats(0.0, 600.0),
    top=st.floats(0.0, 900.0),
    cw=st.floats(0.1, 150.0),
    ch=st.floats(0.1, 150.0),
)
def test_heat_rects_equal_the_per_cell_loop(coarse, peak, left, top, cw, ch):
    # peak None is the snapshot's own peak; a smaller one gives levels above 1.
    if peak is None:
        peak = float(coarse.max()) or 1.0
    assert _heat_rects(coarse, peak, left, top, cw, ch) == loop_heat_rects(
        coarse, peak, left, top, cw, ch
    )


def test_heat_rects_edge_levels():
    coarse = np.array([[0.02, 0.0199999999, 1.0, 3.0], [0.0, 0.5, 0.02000001, 2.0]])
    rects = _heat_rects(coarse, 1.0, 190.0, 62.0, 3.125, 3.125)
    assert rects == loop_heat_rects(coarse, 1.0, 190.0, 62.0, 3.125, 3.125)
    assert len(rects) == 6  # 0.02 itself is drawn; levels above 1 are drawn white
    assert sum('fill="rgb(255,255,255)"' in r for r in rects) == 3
    assert _heat_rects(np.zeros((9, 48)), 1.0, 0.0, 0.0, 1.0, 1.0) == []


def test_snapshots_equal_the_per_cell_loop(small_synthetic_dataset, monkeypatch):
    model = learn(small_synthetic_dataset[:50])
    snapshots = 0
    for token in ("uniform-learned-learned", "salience-learned-learned"):
        config = config_for_token(token)
        for ann in small_synthetic_dataset[50:53]:
            frame = normalize_frame(ann.width, ann.height)
            truth = {c: to_normalized(*box, frame) for c, box in sorted(ann.boxes.items())}

            def observer(iteration, workspace, dists):
                nonlocal snapshots
                svg = workspace_snapshot_svg(frame, truth, workspace, dists, iteration)
                with monkeypatch.context() as patched:
                    patched.setattr(charts, "_heat_rects", loop_heat_rects)
                    assert svg == workspace_snapshot_svg(frame, truth, workspace, dists, iteration)
                snapshots += 1

            salience = None
            if config.needs_salience:
                salience = salience_for_annotation(ann, config.cell_size)
            run_image(model, salience, config, ann, np.random.default_rng(1), observer=observer)
    assert snapshots > 0


@given(st.text(alphabet=st.sampled_from("&<>;amplgt# \"'x\u00e9\n")) | st.text())
def test_escape_is_saxutils_escape(text):
    assert charts.escape(text) == sax_escape(text)

"""Snapshot heatmap panels against the per-cell loop they were first drawn with."""

from __future__ import annotations

from dataclasses import replace
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from situsearch import charts, search
from situsearch.charts import _heat_rects, workspace_snapshot_svg
from situsearch.evaluation import config_for_token, salience_for_annotation
from situsearch.gaussian import GaussianMap
from situsearch.geometry import normalize_frame, to_normalized
from situsearch.search import run_image
from situsearch.situation_model import DEFAULT_CATEGORIES, conditioned_distribution, learn


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

            salience = None
            if config.needs_salience:
                salience = salience_for_annotation(ann, config.cell_size)

            def watch(iteration, proposal, score, workspace, shown):
                nonlocal snapshots
                if shown is None:
                    return
                dists = shown()
                svg = workspace_snapshot_svg(frame, truth, workspace, dists, iteration)
                with monkeypatch.context() as patched:
                    patched.setattr(charts, "_heat_rects", loop_heat_rects)
                    assert svg == workspace_snapshot_svg(frame, truth, workspace, dists, iteration)
                snapshots += 1

            run_image(model, salience, config, ann, np.random.default_rng(1), watch)
    assert snapshots > 0


def panel_shades(coarse: np.ndarray) -> np.ndarray:
    """Each panel cell's shade as _heat_rects draws it; 0 where it draws none."""
    levels = coarse / (float(coarse.max()) or 1.0)
    return np.where(levels >= 0.02, (255 * np.minimum(levels, 1.0)).astype(int), 0)


def test_conditioned_panels_shade_the_maps_the_run_draws_from(
    small_synthetic_dataset, monkeypatch
):
    # A conditioned panel is drawn from the category's law at heat-cell
    # resolution, without building its grid. Its shades stay within 10 of
    # 255 of the block sums of the law's grid, and the run draws from the
    # very law it showed.
    model = learn(small_synthetic_dataset[:40])
    sample = search.sample_proposal
    shown_laws, drawn, worst, panels = {}, set(), 0, 0

    def checked_sample(category, dist, frame, rng):
        if isinstance(dist.location, GaussianMap):
            assert shown_laws[id(dist.location)] is dist.location
            drawn.add(id(dist.location))
        return sample(category, dist, frame, rng)

    monkeypatch.setattr(search, "sample_proposal", checked_sample)

    for token in ("uniform-learned-learned", "salience-learned-learned"):
        config = replace(config_for_token(token), max_iterations=300)
        assert config.cell_size == 1.0  # panels of 13 x 13 cells on these frames
        for ann in small_synthetic_dataset[40:60]:
            salience = None
            if config.needs_salience:
                salience = salience_for_annotation(ann, config.cell_size)

            def watch(iteration, proposal, score, workspace, shown):
                nonlocal worst, panels
                if shown is None:
                    return
                for category, law in shown().items():
                    if law is None or not isinstance(law.location, GaussianMap):
                        continue
                    location = law.location
                    assert location.weights is salience
                    built = "grid" in vars(location)  # drawn from before this change
                    cells = charts._law_cells(location)
                    assert ("grid" in vars(location)) == built
                    shown_laws[id(location)] = location
                    block_sums = charts._heat_cells(location.grid)
                    difference = panel_shades(cells) - panel_shades(block_sums)
                    worst = max(worst, int(np.abs(difference).max()))
                    panels += 1

            run_image(model, salience, config, ann, np.random.default_rng(1), watch)
    assert panels > len(drawn) > 100
    assert worst <= 10


@pytest.fixture(scope="module")
def dog_given_walker(small_synthetic_dataset):
    """A held-out image's frame and salience, a model, and the walker's true box."""
    ann = small_synthetic_dataset[40]
    frame = normalize_frame(ann.width, ann.height)
    walker = to_normalized(*ann.boxes["dog_walker"], frame)
    model = learn(small_synthetic_dataset[:40])
    return frame, salience_for_annotation(ann, 1.0), model, {"dog_walker": walker}


def dog_panel_svg(dog_given_walker, cell_size, salience) -> str:
    """The snapshot of an empty Workspace showing only the dog's law given the walker."""
    frame, _, model, detected = dog_given_walker
    law = conditioned_distribution(model, "dog", detected, frame, cell_size, salience)
    workspace = search.Workspace(DEFAULT_CATEGORIES, True)
    svg = workspace_snapshot_svg(frame, {}, workspace, {"dog": law}, 1)
    assert svg == workspace_snapshot_svg(frame, {}, workspace, {"dog": law}, 1)  # from the memo
    assert "grid" not in vars(law.location)
    return svg


def test_a_laws_panel_is_drawn_at_its_own_cell_size(dog_given_walker):
    coarse = dog_panel_svg(dog_given_walker, 8.0, None)
    fine = dog_panel_svg(dog_given_walker, 1.0, None)
    assert coarse == dog_panel_svg(dog_given_walker, 8.0, None)
    assert fine == dog_panel_svg(dog_given_walker, 1.0, None) != coarse


def test_a_laws_panel_is_drawn_with_its_own_salience_map(dog_given_walker):
    salience = dog_given_walker[1]
    plain = dog_panel_svg(dog_given_walker, 1.0, None)
    folded = dog_panel_svg(dog_given_walker, 1.0, salience)
    assert folded == dog_panel_svg(dog_given_walker, 1.0, salience) != plain


@given(st.text(alphabet=st.sampled_from("&<>;amplgt# \"'x\u00e9\n")) | st.text())
def test_escape_is_saxutils_escape(text):
    assert charts.escape(text) == sax_escape(text)

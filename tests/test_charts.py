"""Snapshot heatmap panels against the per-cell loop they were first drawn with."""

from __future__ import annotations

import re
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
from situsearch.errors import InvalidInputError
from situsearch.gaussian import LocationMap, MultivariateGaussian, grid_shape, rasterize_2d
from situsearch.geometry import normalize_frame, to_normalized
from situsearch.search import run_image
from situsearch.situation_model import DEFAULT_CATEGORIES, conditioned_law, learn


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
            drawing = (config.cell_size, salience)

            def watch(iteration, proposal, score, workspace, shown):
                nonlocal snapshots
                if shown is None:
                    return
                dists = shown()
                svg = workspace_snapshot_svg(frame, truth, workspace, dists, iteration, *drawing)
                with monkeypatch.context() as patched:
                    patched.setattr(charts, "_heat_rects", loop_heat_rects)
                    assert svg == workspace_snapshot_svg(
                        frame, truth, workspace, dists, iteration, *drawing
                    )
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
    # resolution. Its shades stay within 10 of 255 of the block sums of the
    # law's map, and that map is, bit for bit, the one the run builds and
    # draws from when it next draws the category.
    model = learn(small_synthetic_dataset[:40])
    conditioned = search.conditioned_distribution
    shown_laws, drawn, worst, panels = {}, 0, 0, 0

    def checked_conditioned(model, category, detected, frame, cell_size, salience, out):
        nonlocal drawn
        dist = conditioned(model, category, detected, frame, cell_size, salience, out)
        law = shown_laws[category]
        expected = rasterize_2d(law.location, frame, cell_size, salience)
        assert dist.location.grid.tobytes() == expected.grid.tobytes()
        for name in ("mean", "cov"):
            got, shown = getattr(dist.alpha_gamma, name), getattr(law.alpha_gamma, name)
            assert got.tobytes() == shown.tobytes()
        drawn += 1
        return dist

    monkeypatch.setattr(search, "conditioned_distribution", checked_conditioned)
    for token in ("uniform-learned-learned", "salience-learned-learned"):
        config = replace(config_for_token(token), max_iterations=300)
        assert config.cell_size == 1.0  # panels of 13 x 13 cells on these frames
        for ann in small_synthetic_dataset[40:60]:
            frame = normalize_frame(ann.width, ann.height)
            salience = None
            if config.needs_salience:
                salience = salience_for_annotation(ann, config.cell_size)

            def watch(iteration, proposal, score, workspace, shown):
                nonlocal worst, panels
                if shown is None:
                    return
                shown_laws.clear()
                for category, law in shown().items():
                    if law is None or isinstance(law.location, LocationMap):
                        continue
                    shown_laws[category] = law
                    cells = charts._law_cells(law.location, frame, config.cell_size, salience)
                    grid = rasterize_2d(law.location, frame, config.cell_size, salience).grid
                    difference = panel_shades(cells) - panel_shades(charts._heat_cells(grid))
                    worst = max(worst, int(np.abs(difference).max()))
                    panels += 1

            run_image(model, salience, config, ann, np.random.default_rng(1), watch)
    assert panels > drawn > 100
    assert worst <= 10


@pytest.fixture(scope="module")
def dog_law_given_walker(small_synthetic_dataset):
    """A held-out image's frame and salience, and the dog's law given the walker's true box."""
    ann = small_synthetic_dataset[40]
    frame = normalize_frame(ann.width, ann.height)
    walker = to_normalized(*ann.boxes["dog_walker"], frame)
    law = conditioned_law(learn(small_synthetic_dataset[:40]), "dog", {"dog_walker": walker}, frame)
    return frame, salience_for_annotation(ann, 1.0), law


def dog_panel_svg(frame, law, cell_size, salience) -> str:
    """The snapshot of an empty Workspace showing only the dog's law."""
    workspace = search.Workspace(DEFAULT_CATEGORIES, True)
    return workspace_snapshot_svg(frame, {}, workspace, {"dog": law}, 1, cell_size, salience)


def fresh(law):
    """The same law in a new location Gaussian, which no panel has been drawn from."""
    location = law.location
    return replace(law, location=MultivariateGaussian(location.dims, location.mean, location.cov))


def test_a_laws_panel_is_redrawn_at_another_cell_size(dog_law_given_walker):
    frame, _, law = dog_law_given_walker
    coarse, fine = dog_panel_svg(frame, law, 8.0, None), dog_panel_svg(frame, law, 1.0, None)
    assert coarse == dog_panel_svg(frame, fresh(law), 8.0, None)
    assert fine == dog_panel_svg(frame, fresh(law), 1.0, None) != coarse


def test_a_laws_panel_is_redrawn_with_another_salience_map(dog_law_given_walker):
    frame, salience, law = dog_law_given_walker
    plain, folded = dog_panel_svg(frame, law, 1.0, None), dog_panel_svg(frame, law, 1.0, salience)
    assert plain == dog_panel_svg(frame, fresh(law), 1.0, None)
    assert folded == dog_panel_svg(frame, fresh(law), 1.0, salience) != plain
    assert dog_panel_svg(frame, law, 1.0, None) == plain


@pytest.mark.parametrize(
    "salience_cell, cell_size", [(1.0, 8.0), (8.0, 1.0)], ids=["finer", "coarser"]
)
def test_a_salience_map_on_another_grid_is_rejected_naming_both_shapes(
    dog_law_given_walker, small_synthetic_dataset, salience_cell, cell_size
):
    frame, _, law = dog_law_given_walker
    salience = salience_for_annotation(small_synthetic_dataset[40], salience_cell)
    shapes = f"grid shapes differ: {grid_shape(frame, cell_size)} vs {salience.shape}"
    with pytest.raises(InvalidInputError, match=re.escape(shapes)):
        dog_panel_svg(frame, law, cell_size, salience)


@given(st.text(alphabet=st.sampled_from("&<>;amplgt# \"'x\u00e9\n")) | st.text())
def test_escape_is_saxutils_escape(text):
    assert charts.escape(text) == sax_escape(text)

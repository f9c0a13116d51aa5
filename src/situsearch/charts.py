"""Hand-built SVG output for benchmark reports and run snapshots.

Everything is emitted as plain SVG 1.1 strings; no plotting library. Failure
entries (no median within the iteration budget) render as hatched gray bars
labeled "Failure".
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .gaussian import GaussianMap, LocationMap, cell_centers, cell_masses

PALETTE = [
    "#d94a4a",
    "#4a90d9",
    "#3dae6b",
    "#c98a2b",
    "#8a5ad9",
    "#2bbac9",
    "#96623b",
]

_FAIL_FILL = "#b8b8b8"
TICK_COUNT = 5  # roughly this many tick steps span a value axis
HEAT_COLUMNS = 48  # a snapshot's location panel is at most this many cells wide
HEAT_SAMPLES = 3  # a location Gaussian's panel samples this many cells per block side


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` of a string: its three replacements, in its order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _svg_open(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _chart_open(width: int, height: int, title: str) -> list[str]:
    """``_svg_open`` and a report chart's title, centred above the chart."""
    return [
        *_svg_open(width, height),
        f'<text x="{width / 2}" y="26" text-anchor="middle" font-size="16" '
        f'fill="#333">{escape(title)}</text>',
    ]


def _axis_label(x: float, y: float, label: str, upright: bool) -> str:
    """An axis's label centred at (x, y); an ``upright`` one is turned to read upward."""
    turn = f' transform="rotate(-90, {x}, {y})"' if upright else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="middle" font-size="12" '
        f'fill="#666"{turn}>{escape(label)}</text>'
    )


def _axis_ticks(max_value: float) -> list[float]:
    if max_value <= 0:
        return [0.0]
    step = max_value / TICK_COUNT
    magnitude = 10 ** math.floor(math.log10(step))
    for mult in (1, 2, 5, 10):
        if magnitude * mult >= step:
            step = magnitude * mult
            break
    ticks = []
    v = 0.0
    while v <= max_value + 1e-9:
        ticks.append(v)
        v += step
    return ticks


def bar_chart_svg(entries: list[tuple[str, int | None]], title: str, value_label: str) -> str:
    """Horizontal bar chart; None values render as full-width Failure bars."""
    left, right, top, row_h = 240, 60, 50, 34
    chart_w = 560
    height = top + row_h * max(len(entries), 1) + 50
    width = left + chart_w + right
    finite = [v for _, v in entries if v is not None]
    vmax = max(finite) * 1.1 if finite else 1.0

    svg = _chart_open(width, height, title)
    for tick in _axis_ticks(vmax):
        x = left + (tick / vmax) * chart_w
        svg.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{height - 40}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        svg.append(
            f'<text x="{x:.1f}" y="{height - 24}" text-anchor="middle" font-size="11" '
            f'fill="#666">{tick:g}</text>'
        )
    for i, (label, value) in enumerate(entries):
        y = top + i * row_h + 5
        svg.append(
            f'<text x="{left - 8}" y="{y + row_h / 2}" text-anchor="end" font-size="12" '
            f'fill="#333">{escape(label)}</text>'
        )
        if value is None:
            svg.append(
                f'<rect x="{left}" y="{y}" width="{chart_w}" height="{row_h - 12}" '
                f'fill="{_FAIL_FILL}" opacity="0.5"/>'
            )
            svg.append(
                f'<text x="{left + chart_w / 2}" y="{y + row_h / 2}" text-anchor="middle" '
                f'font-size="11" fill="#555">Failure</text>'
            )
        else:
            bar_w = (value / vmax) * chart_w
            color = PALETTE[i % len(PALETTE)]
            svg.append(
                f'<rect x="{left}" y="{y}" width="{bar_w:.1f}" height="{row_h - 12}" '
                f'fill="{color}"/>'
            )
            svg.append(
                f'<text x="{left + bar_w + 6:.1f}" y="{y + row_h / 2}" font-size="11" '
                f'fill="#333">{value:g}</text>'
            )
    svg.append(_axis_label(left + chart_w / 2, height - 6, value_label, False))
    svg.append("</svg>")
    return "\n".join(svg)


def line_chart_svg(
    series: list[tuple[str, list[int]]], title: str, x_label: str, y_label: str, y_max: int
) -> str:
    """One polyline per labeled series; x is the 1-based index."""
    left, right, top, bottom = 70, 30, 50, 60
    chart_w, chart_h = 640, 360
    width = left + chart_w + right
    height = top + chart_h + bottom
    n = max((len(values) for _, values in series), default=1)
    y_max = max(y_max, 1)

    svg = _chart_open(width, height, title)
    for tick in _axis_ticks(y_max):
        y = top + chart_h - (tick / y_max) * chart_h
        svg.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + chart_w}" y2="{y:.1f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        svg.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11" '
            f'fill="#666">{tick:g}</text>'
        )
    for tick in _axis_ticks(n):
        x = left + (tick / n) * chart_w
        svg.append(
            f'<text x="{x:.1f}" y="{top + chart_h + 18}" text-anchor="middle" '
            f'font-size="11" fill="#666">{tick:g}</text>'
        )
    for i, (label, values) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # cap the polyline at ~400 vertices; the curves are step-like anyway
        stride = max(1, len(values) // 400)
        points = []
        for j in range(0, len(values), stride):
            x = left + ((j + 1) / n) * chart_w
            y = top + chart_h - (values[j] / y_max) * chart_h
            points.append(f"{x:.1f},{y:.1f}")
        if values:
            x = left + (len(values) / n) * chart_w
            y = top + chart_h - (values[-1] / y_max) * chart_h
            points.append(f"{x:.1f},{y:.1f}")
        svg.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{" ".join(points)}"/>'
        )
        ly = top + 16 + 16 * i
        svg.append(
            f'<rect x="{left + 12}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        svg.append(
            f'<text x="{left + 30}" y="{ly + 1}" font-size="11" fill="#333">{escape(label)}</text>'
        )
    svg.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + chart_h}" stroke="#333"/>'
    )
    svg.append(
        f'<line x1="{left}" y1="{top + chart_h}" x2="{left + chart_w}" '
        f'y2="{top + chart_h}" stroke="#333"/>'
    )
    svg.append(_axis_label(left + chart_w / 2, height - 12, x_label, False))
    svg.append(_axis_label(18, top + chart_h / 2, y_label, True))
    svg.append("</svg>")
    return "\n".join(svg)


def grouped_bar_svg(
    groups: list[tuple[str, list[int | None]]],
    bar_names: list[str],
    title: str,
    value_label: str,
    failure_height: int,
) -> str:
    """Vertical grouped bars; None entries render as hatched Failure columns.

    The value axis reaches at least ``failure_height``, the iteration budget.
    """
    left, right, top, bottom = 70, 30, 50, 110
    chart_w = max(90 * len(groups), 300)
    chart_h = 320
    width = left + chart_w + right
    height = top + chart_h + bottom
    finite = [v for _, values in groups for v in values if v is not None]
    vmax = max(max(finite) * 1.15 if finite else 1.0, failure_height * 1.05)

    svg = _chart_open(width, height, title)
    for tick in _axis_ticks(vmax):
        y = top + chart_h - (tick / vmax) * chart_h
        svg.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + chart_w}" y2="{y:.1f}" '
            f'stroke="#e0e0e0"/>'
        )
        svg.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11" '
            f'fill="#666">{tick:g}</text>'
        )
    group_w = chart_w / max(len(groups), 1)
    bar_w = group_w * 0.8 / max(len(bar_names), 1)
    for gi, (label, values) in enumerate(groups):
        gx = left + gi * group_w + group_w * 0.1
        for bi, value in enumerate(values):
            x = gx + bi * bar_w
            color = PALETTE[bi % len(PALETTE)]
            if value is None:
                svg.append(
                    f'<rect x="{x:.1f}" y="{top}" width="{bar_w * 0.9:.1f}" '
                    f'height="{chart_h}" fill="{_FAIL_FILL}" opacity="0.45"/>'
                )
                svg.append(
                    f'<text x="{x + bar_w / 2:.1f}" y="{top + 14}" text-anchor="middle" '
                    f'font-size="9" fill="#555" transform="rotate(-90, {x + bar_w / 2:.1f}, '
                    f'{top + 14})">Failure</text>'
                )
            else:
                h = (value / vmax) * chart_h
                y = top + chart_h - h
                svg.append(
                    f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.9:.1f}" '
                    f'height="{h:.1f}" fill="{color}"/>'
                )
        svg.append(
            f'<text x="{gx + group_w * 0.4:.1f}" y="{top + chart_h + 14}" font-size="10" '
            f'fill="#333" text-anchor="end" transform="rotate(-35, {gx + group_w * 0.4:.1f}, '
            f'{top + chart_h + 14})">{escape(label)}</text>'
        )
    for bi, name in enumerate(bar_names):
        color = PALETTE[bi % len(PALETTE)]
        x = left + 12 + bi * 90
        svg.append(f'<rect x="{x}" y="{top - 22}" width="12" height="12" fill="{color}"/>')
        svg.append(
            f'<text x="{x + 16}" y="{top - 12}" font-size="11" fill="#333">{escape(name)}</text>'
        )
    svg.append(_axis_label(18, top + chart_h / 2, value_label, True))
    svg.append("</svg>")
    return "\n".join(svg)


def _heat_factor(cols: int) -> int:
    """The side of the blocks that bring a grid of ``cols`` columns to at most HEAT_COLUMNS."""
    return max(1, math.ceil(cols / HEAT_COLUMNS))


def _heat_cells(grid: np.ndarray) -> np.ndarray:
    """Block-sum a probability grid down to at most HEAT_COLUMNS columns."""
    factor = _heat_factor(grid.shape[1])
    rows = math.ceil(grid.shape[0] / factor)
    cols = math.ceil(grid.shape[1] / factor)
    padded = np.zeros((rows * factor, cols * factor))
    padded[: grid.shape[0], : grid.shape[1]] = grid
    return padded.reshape(rows, factor, cols, factor).sum(axis=(1, 3))


def _block_samples(n: int, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells a panel samples along a grid axis of ``n`` cells cut into blocks of ``factor``.

    Each block samples HEAT_SAMPLES cells, or ``factor`` if fewer, spread
    evenly over its extent; a partial block at the edge may sample a cell
    more than once. Returns the sampled cells, block by block, and the
    number of cells each of a block's samples stands for.
    """
    samples = min(HEAT_SAMPLES, factor)
    starts = np.arange(0, n, factor)
    extents = np.minimum(factor, n - starts)
    offsets = (np.arange(samples) + 0.5) * extents[:, None] // samples
    return (starts[:, None] + offsets.astype(int)).ravel(), extents / samples


def _law_cells(location: GaussianMap) -> np.ndarray:
    """``_heat_cells`` of a Gaussian's map, estimated from a few of each block's cells.

    The map is evaluated from its Gaussian, folded with its weights if any,
    only at the cells ``_block_samples`` picks, and each block sums its
    samples, each weighted by the cells it stands for. Its grid is not built.
    """
    xs, ys = cell_centers(location.frame, location.cell_size)
    factor = _heat_factor(len(xs))
    rows, row_spans = _block_samples(len(ys), factor)
    cols, col_spans = _block_samples(len(xs), factor)
    weights = None if location.weights is None else location.weights.grid[np.ix_(rows, cols)]
    masses = cell_masses(location.gaussian, xs[cols], ys[rows], weights)
    samples = min(HEAT_SAMPLES, factor)
    blocks = sum(masses[:, j::samples] for j in range(samples))
    blocks = sum(blocks[j::samples] for j in range(samples))
    return blocks * row_spans[:, None] * col_spans


# Each location map's heat cells, held only as long as the map is: a run's
# snapshots show an unchanged law again at every later change.
_coarse_of: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _coarse(location: LocationMap) -> np.ndarray:
    """A panel's heat cells, once per location map.

    A Gaussian's map is shaded from its Gaussian (``_law_cells``); any other
    map block-sums its grid (``_heat_cells``).
    """
    coarse = _coarse_of.get(location)
    if coarse is None:
        if isinstance(location, GaussianMap):
            coarse = _law_cells(location)
        else:
            coarse = _heat_cells(location.grid)
        coarse.flags.writeable = False
        _coarse_of[location] = coarse
    return coarse


def _heat_rects(
    coarse: np.ndarray, peak: float, left: float, top: float, cw: float, ch: float
) -> list[str]:
    """A gray <rect> for each coarse cell at 2% of the peak or more, row by row.

    Each column's x and each row's y are formatted once; the cell's shade is
    int(255 * min(level, 1)).
    """
    levels = coarse / peak
    rows, cols = np.nonzero(levels >= 0.02)
    shades = (255 * np.minimum(levels[rows, cols], 1.0)).astype(int).tolist()
    xs = [f'<rect x="{left + c * cw:.1f}" y="' for c in range(coarse.shape[1])]
    size = f'" width="{cw + 0.5:.1f}" height="{ch + 0.5:.1f}" fill="rgb('
    ys = [f"{top + r * ch:.1f}{size}" for r in range(coarse.shape[0])]
    return [
        f'{xs[c]}{ys[r]}{s},{s},{s})"/>'
        for r, c, s in zip(rows.tolist(), cols.tolist(), shades)
    ]


def workspace_snapshot_svg(
    frame,
    ground_truth: dict,
    workspace,
    dists: dict | None,
    iteration: int,
) -> str:
    """One frame of a run: the Workspace plus per-category location heatmaps.

    ``dists`` holds each category's law as ``run_image``'s ``shown()`` gives
    it. A prior map's panel block-sums its grid; a conditioned Gaussian's
    map's panel is evaluated at the panel's cells, and builds no grid.
    """
    scale = 320.0 / frame.norm_width
    main_w = frame.norm_width * scale
    main_h = frame.norm_height * scale
    panel_w = 150.0
    categories = list(workspace.categories)
    width = int(main_w + 40 + panel_w + 30)
    height = int(max(main_h, len(categories) * (panel_w * 0.85 + 26)) + 70)

    colors = {c: PALETTE[i % len(PALETTE)] for i, c in enumerate(categories)}
    svg = _svg_open(width, height)
    svg.append(
        f'<text x="20" y="26" font-size="14" fill="#333">Workspace after iteration '
        f"{iteration}</text>"
    )
    ox, oy = 20.0, 44.0
    svg.append(
        f'<rect x="{ox}" y="{oy}" width="{main_w:.1f}" height="{main_h:.1f}" '
        f'fill="#1a1a1a"/>'
    )

    def rect_for(box) -> tuple[float, float, float, float]:
        x = ox + (box.x0 + frame.norm_width / 2) * scale
        y = oy + (box.y0 + frame.norm_height / 2) * scale
        return x, y, box.w * scale, box.h * scale

    for category, box in sorted(ground_truth.items()):
        x, y, w, h = rect_for(box)
        svg.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" fill="none" '
            f'stroke="#888" stroke-width="1" stroke-dasharray="2,3"/>'
        )
    for category in categories:
        slot = workspace.slots.get(category)
        if slot is None:
            continue
        x, y, w, h = rect_for(slot.proposal.box)
        dash = "" if slot.kind == "final" else ' stroke-dasharray="6,4"'
        svg.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" fill="none" '
            f'stroke="{colors[category]}" stroke-width="2"{dash}/>'
        )
        svg.append(
            f'<text x="{x + 2:.1f}" y="{y - 3:.1f}" font-size="10" '
            f'fill="{colors[category]}">{escape(category)} {slot.score:.2f} '
            f"({slot.kind})</text>"
        )

    px = ox + main_w + 40
    py = oy
    for category in categories:
        svg.append(
            f'<text x="{px}" y="{py + 12}" font-size="11" '
            f'fill="{colors[category]}">{escape(category)} location</text>'
        )
        dist = (dists or {}).get(category)
        map_h = panel_w * frame.norm_height / frame.norm_width
        if dist is None:
            svg.append(
                f'<rect x="{px}" y="{py + 18}" width="{panel_w}" height="{map_h:.1f}" '
                f'fill="#303030"/>'
            )
            svg.append(
                f'<text x="{px + panel_w / 2}" y="{py + 18 + map_h / 2:.1f}" font-size="9" '
                f'fill="#999" text-anchor="middle">final</text>'
            )
        else:
            coarse = _coarse(dist.location)
            peak = float(coarse.max()) or 1.0
            cw = panel_w / coarse.shape[1]
            ch = map_h / coarse.shape[0]
            svg.append(
                f'<rect x="{px}" y="{py + 18}" width="{panel_w}" height="{map_h:.1f}" '
                f'fill="#000000"/>'
            )
            svg.extend(_heat_rects(coarse, peak, px, py + 18, cw, ch))
        py += map_h + 26
    svg.append("</svg>")
    return "\n".join(svg)

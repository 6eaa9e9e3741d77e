"""Per-chart-type SVG fragment renderers.

Every renderer draws into a fixed-size box and honors the spec's bindings and
alignment annotations: categorical axes follow the bound domain order, numeric
shared axes use the stamped [lo, hi] domain, and color-aligned charts use the
stamped palette. Colored marks carry a data-category attribute so coordination
can be verified on the output.
"""

from __future__ import annotations

import base64
import math
from datetime import date
from pathlib import Path

from .chartspec import ChartSpec
from .combine import build_palette
from .errors import DataMismatch, UnsupportedChartType
from .entitygraph import EntityGraph
from .ingest import (GENOMIC, IMAGE, NETWORK, SPATIAL, TABULAR, TREE, Dataset, Field, TreeNode,
                     extent, present)
from .svg import SvgBuilder, fmt

CELL_W = 320.0
CELL_H = 280.0

MARGIN_L = 64.0
MARGIN_R = 14.0
MARGIN_T = 34.0
MARGIN_B = 46.0

PLOT_W = CELL_W - MARGIN_L - MARGIN_R
PLOT_H = CELL_H - MARGIN_T - MARGIN_B

AXIS_COLOR = "#444444"
MARK_COLOR = "#4e79a7"
TEXT_COLOR = "#222222"

RAMP5 = ("#eff3ff", "#bdd7e7", "#6baed6", "#3182bd", "#08519c")

BASE_COLORS = {"A": "#59a14f", "C": "#4e79a7", "G": "#edc948", "T": "#e15759"}

MAX_LEAF_LABELS = 60
HIST_BINS = 10
TABLE_MAX_ROWS = 12
TABLE_MAX_COLS = 4
ALIGN_MAX_POSITIONS = 40


def _at(field: Field | None, row: int):
    """The field's entry at `row`; None when the field is unbound, the entry
    is missing, or the row is past the field's column."""
    if field is None or row >= len(field.column):
        return None
    return field.column[row]


class _PerKey(dict):
    """key -> make(key), each made on its first lookup: a renderer's
    attribute suffix per category or base."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _iso_day(value: str) -> str | None:
    try:
        return date.fromisoformat(value[:10]).isoformat()
    except ValueError:
        return None


def _number_labels(values: list[float]) -> list[str]:
    """Labels for the numbers along one axis: `fmt`'s short fixed-point form
    while every label is at most 10 characters and no two print alike, else 4
    significant digits (`1e+300`, `0.00156`)."""
    labels = [fmt(v) for v in values]
    if all(len(text) <= 10 for text in labels) and len(set(labels)) == len(labels):
        return labels
    return [f"{v:.4g}" for v in values]


def _lerp(lo: float, span: float, i: int, n: int) -> float:
    """lo + span * i / n, without overflow for a span near the float maximum.
    Scaling by 1/16 and back is exact while span / 16 is a normal float, so
    the result has the bits of the direct form wherever that is finite."""
    return lo + span / 16 * i / n * 16


class LinearScale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            hi = lo + 1.0
            if hi == lo:  # 1 is below the resolution of a huge value: span 0..lo
                lo, hi = min(lo, 0.0), max(lo, 0.0)
        self.lo, self.hi, self.out_lo, self.out_hi = lo, hi, out_lo, out_hi

    def __call__(self, value: float) -> float:
        t = (value - self.lo) / (self.hi - self.lo)
        return self.out_lo + t * (self.out_hi - self.out_lo)

    position = __call__  # the position of a present value of a numeric field

    def tick_marks(self, max_labels: int) -> list[tuple[float, str | None]]:
        """Five evenly spaced ticks, always labeled."""
        values = [_lerp(self.lo, self.hi - self.lo, i, 4) for i in range(5)]
        return [(self(v), label) for v, label in zip(values, _number_labels(values))]


class BandScale:
    """One band per key in `domain`; a band's tick shows its entry in
    `labels`, or the key itself when no labels are given."""

    def __init__(self, domain: list, out_lo: float, out_hi: float,
                 labels: list[str] | None = None):
        self.domain = list(domain)
        self.labels = dict(zip(self.domain, self.domain if labels is None else labels))
        self.out_lo, self.out_hi = out_lo, out_hi
        self.step = (out_hi - out_lo) / max(1, len(self.domain))
        self.index = {cat: i for i, cat in enumerate(self.domain)}

    def position(self, key) -> float | None:
        """Center of the key's band, or None for a key outside the domain."""
        i = self.index.get(key)
        if i is None:
            return None
        return self.out_lo + self.step * (i + 0.5)

    def tick_marks(self, max_labels: int) -> list[tuple[float, str | None]]:
        """One tick per category; labels only when at most `max_labels` categories."""
        show = len(self.domain) <= max_labels
        return [(self.position(key), _clip(self.labels[key], 9) if show else None)
                for key in self.domain]


def _palette_for(spec: ChartSpec, color: Field | None) -> dict[str, str]:
    if color is None:
        return {}
    stamped = spec.annotations.get("palette")
    if stamped:
        return dict(stamped)
    return build_palette(sorted(color.values or ()))


def _frame(svg: SvgBuilder, spec: ChartSpec) -> None:
    svg.rect(0, 0, CELL_W, CELL_H, fill="#ffffff", stroke="#cccccc", stroke_width=1)
    svg.text(10, 18, f"{spec.chart_type} · {spec.dataset_id}", font_size=12,
             fill=TEXT_COLOR, font_family="sans-serif", font_weight="bold")


def _axis_label(svg: SvgBuilder, spec: ChartSpec, channel: str, label: str | None = None) -> None:
    """The channel's title: `label`, else the name of the field bound to it."""
    if label is None:
        binding = spec.bindings.get(channel)
        if binding is None:
            return
        label = binding.field
    if channel == "x":
        svg.text(MARGIN_L + PLOT_W / 2, CELL_H - 8, label, font_size=10, fill=AXIS_COLOR,
                 text_anchor="middle", font_family="sans-serif", **{"class": "axis-label-x"})
    else:
        svg.text(14, MARGIN_T + PLOT_H / 2, label, font_size=10, fill=AXIS_COLOR,
                 text_anchor="middle", font_family="sans-serif",
                 transform=f"rotate(-90 14 {fmt(MARGIN_T + PLOT_H / 2)})",
                 **{"class": "axis-label-y"})


def _axes(svg: SvgBuilder, xs: LinearScale | BandScale, ys: LinearScale | BandScale,
          x_labels: int = 20, y_labels: int = 20) -> None:
    """Both axis lines, then the x ticks and the y ticks."""
    svg.line(MARGIN_L, MARGIN_T, MARGIN_L, MARGIN_T + PLOT_H, stroke=AXIS_COLOR, stroke_width=1)
    svg.line(MARGIN_L, MARGIN_T + PLOT_H, MARGIN_L + PLOT_W, MARGIN_T + PLOT_H,
             stroke=AXIS_COLOR, stroke_width=1)
    _ticks(svg, xs, "x", x_labels)
    _ticks(svg, ys, "y", y_labels)


def _ticks(svg: SvgBuilder, scale: LinearScale | BandScale, axis: str, max_labels: int) -> None:
    """Each tick's line, then its label if it has one: a run of unlabeled
    ticks is written in one call."""
    tick = svg.attrs(stroke=AXIS_COLOR, stroke_width=1)
    run = []
    for pos, label in scale.tick_marks(max_labels):
        if axis == "x":
            run.append((pos, MARGIN_T + PLOT_H, pos, MARGIN_T + PLOT_H + 4, tick))
        else:
            run.append((MARGIN_L - 4, pos, MARGIN_L, pos, tick))
        if label is None:
            continue
        svg.lines(run)
        run.clear()
        if axis == "x":
            svg.text(pos, MARGIN_T + PLOT_H + 15, label, font_size=8, fill=AXIS_COLOR,
                     text_anchor="middle", font_family="sans-serif", **{"class": "tick-x"})
        else:
            svg.text(MARGIN_L - 6, pos + 2.5, label, font_size=8, fill=AXIS_COLOR,
                     text_anchor="end", font_family="sans-serif", **{"class": "tick-y"})
    svg.lines(run)


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _shared(spec: ChartSpec, channel: str, key: str):
    """The spec's stamped annotation `key` if `channel` is its shared axis."""
    if spec.annotations.get("shared_axis") == channel:
        return spec.annotations.get(key)
    return None


def _domain_for(spec: ChartSpec, channel: str, field: Field) -> list[str]:
    """Categorical domain: the stamped shared ordering when this channel is the
    shared axis, otherwise sorted distinct values."""
    order = _shared(spec, channel, "domain_order")
    return list(order) if order else sorted(field.values)


def _axis_numeric_domain(spec: ChartSpec, channel: str, values: list[float]) -> tuple[float, float]:
    domain = _shared(spec, channel, "axis_domain")
    return (float(domain[0]), float(domain[1])) if domain else extent(values)


def _plot_range(channel: str) -> tuple[float, float]:
    if channel == "x":
        return MARGIN_L, MARGIN_L + PLOT_W
    return MARGIN_T, MARGIN_T + PLOT_H


def _scale_for(spec: ChartSpec, channel: str, field: Field):
    """Numeric fields get a linear scale, non-numeric a band scale."""
    out_lo, out_hi = _plot_range(channel)
    if field.numeric:
        lo, hi = _axis_numeric_domain(spec, channel, present(field.column))
        return LinearScale(lo, hi, out_lo, out_hi)
    return BandScale(_domain_for(spec, channel, field), out_lo, out_hi)


def _legend(svg: SvgBuilder, palette: dict[str, str]) -> None:
    """Swatches of the first six categories, sorted; none for an empty palette."""
    x = MARGIN_L + 4
    y = MARGIN_T - 10
    for cat in sorted(palette)[:6]:
        svg.rect(x, y - 7, 8, 8, fill=palette[cat], **{"class": "legend-swatch", "data-category": cat})
        svg.text(x + 11, y, _clip(cat, 10), font_size=8, fill=AXIS_COLOR, font_family="sans-serif")
        x += 11 + 6.5 * min(len(cat), 10) + 10


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _xy_axes(svg, spec, bound):
    """Scale both positional channels and draw their axes and ticks."""
    x, y = bound.get("x"), bound.get("y")
    xs = _scale_for(spec, "x", x)
    ys = _scale_for(spec, "y", y)
    _axes(svg, xs, ys)
    return x, y, xs, ys


def _xy_points(x: Field, y: Field, xs, ys):
    """(row, x value, px, py) for every row with both values present and placeable."""
    for i, (xv, yv) in enumerate(zip(x.column, y.column)):
        if xv is None or yv is None:
            continue
        px, py = xs.position(xv), ys.position(yv)
        if px is not None and py is not None:
            yield i, xv, px, py


def _render_scatter(svg, spec, dataset, bound, graph):
    x, y, xs, ys = _xy_axes(svg, spec, bound)
    color = bound.get("color")
    palette = _palette_for(spec, color)
    plain = svg.attrs(fill=MARK_COLOR, class_="mark")
    colored = _PerKey(lambda cat: svg.attrs(fill=palette.get(cat, MARK_COLOR), data_category=cat,
                                            class_="mark"))
    marks = []
    for i, _, px, py in _xy_points(x, y, xs, ys):
        cat = _at(color, i)
        marks.append((px, py, 3, plain if cat is None else colored[cat]))
    svg.circles(marks)
    _legend(svg, palette)
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y")


def _render_bar(svg, spec, dataset, bound, graph):
    x = bound.get("x")
    color = bound.get("color")
    palette = _palette_for(spec, color)
    domain = _domain_for(spec, "x", x)
    xs = BandScale(domain, MARGIN_L, MARGIN_L + PLOT_W)

    # bar height is always the row count per category
    counts = {cat: 0 for cat in domain}
    stacks: dict[str, dict[str, int]] = {cat: {} for cat in domain}
    for i, cat in enumerate(x.column):
        if cat is None or cat not in counts:
            continue
        counts[cat] += 1
        sub = _at(color, i)
        if sub is not None:
            stacks[cat][sub] = stacks[cat].get(sub, 0) + 1
    top = max(counts.values(), default=0) or 1
    ys = LinearScale(0, top, MARGIN_T + PLOT_H, MARGIN_T)
    _axes(svg, xs, ys)
    width = xs.step * 0.7
    bars = []
    for cat in domain:
        center = xs.position(cat)
        if center is None or counts[cat] == 0:
            continue
        if stacks[cat]:
            base = MARGIN_T + PLOT_H
            for sub in sorted(stacks[cat]):
                h = (MARGIN_T + PLOT_H) - ys(stacks[cat][sub])
                bars.append((center - width / 2, base - h, width, h,
                             svg.attrs(fill=palette.get(sub, MARK_COLOR), stroke="#ffffff",
                                       stroke_width=0.5, class_="mark", data_category=sub)))
                base -= h
        else:
            h = (MARGIN_T + PLOT_H) - ys(counts[cat])
            bars.append((center - width / 2, MARGIN_T + PLOT_H - h, width, h,
                         svg.attrs(fill=MARK_COLOR, class_="mark", data_category=cat)))
    svg.rects(bars)
    _legend(svg, palette)
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y", "count")


def _render_histogram(svg, spec, dataset, bound, graph):
    x = bound.get("x")
    values = present(x.column) if x.numeric else []
    lo, hi = _axis_numeric_domain(spec, "x", values)
    xs = LinearScale(lo, hi, MARGIN_L, MARGIN_L + PLOT_W)
    counts = [0] * HIST_BINS
    span = (xs.hi - xs.lo) or 1.0
    for v in values:
        idx = min(HIST_BINS - 1, max(0, int((v - xs.lo) / span * HIST_BINS)))
        counts[idx] += 1
    top = max(counts) or 1
    ys = LinearScale(0, top, MARGIN_T + PLOT_H, MARGIN_T)
    _axes(svg, xs, ys)
    bin_w = PLOT_W / HIST_BINS
    mark = svg.attrs(fill=MARK_COLOR, class_="mark")
    bars = []
    for i, count in enumerate(counts):
        if count == 0:
            continue
        h = (MARGIN_T + PLOT_H) - ys(count)
        bars.append((MARGIN_L + i * bin_w, MARGIN_T + PLOT_H - h, bin_w - 1, h, mark))
    svg.rects(bars)
    _axis_label(svg, spec, "x")


def _render_line(svg, spec, dataset, bound, graph):
    x, y, xs, ys = _xy_axes(svg, spec, bound)
    # band positions grow with the category index; numbers sort by value, which
    # stays exact where nearby values round to one position
    points = [(xv if x.numeric else px, px, py)
              for _, xv, px, py in _xy_points(x, y, xs, ys)]
    points.sort(key=lambda p: (p[0], p[1]))
    if points:
        svg.polyline([(px, py) for _, px, py in points], stroke=MARK_COLOR, stroke_width=1.5,
                     **{"class": "mark"})
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y")


def _heatmap_axis(field: Field, spec: ChartSpec, channel: str) -> tuple[BandScale, list]:
    """The band scale of a heatmap axis and each row's band key (None for a
    missing value).

    ISO dates bin by day; other non-numeric values bin by category; numeric
    values split into 5 equal bins keyed by index and labeled by range.
    """
    column = field.column
    out_lo, out_hi = _plot_range(channel)
    order = _shared(spec, channel, "domain_order")
    if order:
        return BandScale(order, out_lo, out_hi), column
    if not field.numeric:
        days = {v: _iso_day(v) for v in present(column)}
        if days and None not in days.values():
            keys = [None if v is None else days[v] for v in column]
            return BandScale(sorted(set(days.values())), out_lo, out_hi), keys
        return BandScale(sorted(field.values), out_lo, out_hi), column
    lo, hi = extent(present(column))
    span = (hi - lo) or 1.0
    edges = _number_labels([_lerp(lo, span, i, 5) for i in range(6)])
    labels = [f"{edges[i]}–{edges[i + 1]}" for i in range(5)]
    keys = [None if v is None else min(4, max(0, int((v - lo) / span * 5))) for v in column]
    return BandScale(range(5), out_lo, out_hi, labels), keys


def _render_heatmap(svg, spec, dataset, bound, graph):
    xs, x_keys = _heatmap_axis(bound.get("x"), spec, "x")
    ys, y_keys = _heatmap_axis(bound.get("y"), spec, "y")
    counts: dict[tuple, int] = {}
    for cx, cy in zip(x_keys, y_keys):
        if cx not in xs.index or cy not in ys.index:
            continue
        counts[(cx, cy)] = counts.get((cx, cy), 0) + 1
    top = max(counts.values(), default=1)
    _axes(svg, xs, ys, x_labels=12, y_labels=30)
    # cells are drawn in the order of their labels, then of their keys
    cells = sorted(counts.items(), key=lambda c: (xs.labels[c[0][0]], ys.labels[c[0][1]], c[0]))
    ramp = [svg.attrs(fill=color, class_="mark") for color in RAMP5]
    svg.rects([(xs.position(cx) - xs.step / 2, ys.position(cy) - ys.step / 2, xs.step, ys.step,
                ramp[min(4, (5 * count - 1) // top)])
               for (cx, cy), count in cells])
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y")


def _tree_positions(root: TreeNode, domain: list[str], y_lo: float, y_hi: float):
    """Node id -> (depth, y), and the depth extent, which holds 0. Leaf y
    positions follow the bound domain order; inner nodes sit at the mean of
    their children."""
    order = {label: i for i, label in enumerate(domain)}
    step = (y_hi - y_lo) / max(1, len(domain))
    coords: dict[int, tuple[float, float]] = {}
    has_lengths = any(leaf.length is not None for leaf in root.leaf_order)

    def walk(unit: float) -> list[tuple[TreeNode, float]]:
        """(node, depth in branch lengths / unit) in pre-order with children
        right to left; reversed, it is the post-order (children left to
        right, then their parent) without recursion."""
        def depth_of(node: TreeNode, acc: float) -> float:
            return acc + ((node.length or 0.0) / unit if has_lengths else 1.0)

        visits = []
        stack = [(root, depth_of(root, 0.0))]
        while stack:
            node, d = stack.pop()
            visits.append((node, d))
            for child in node.children:
                stack.append((child, depth_of(child, d)))
        return visits

    visits = walk(1.0)
    lo, hi = extent([0.0] + [d for _, d in visits])
    if not math.isfinite(hi - lo):
        # finite lengths near the float maximum overflow their sums: measure
        # depth in units of the longest branch, so it stays within the node count
        visits = walk(max(abs(node.length or 0.0) for node, _ in visits))
        lo, hi = extent([0.0] + [d for _, d in visits])
    pending: list[float] = []  # y of each visited subtree whose parent is not yet visited
    for node, d in reversed(visits):
        if node.children:
            ys = pending[-len(node.children):]
            del pending[-len(node.children):]
            y = sum(ys) / len(ys)
        else:
            y = y_lo + step * (order.get((node.name or "").strip(), 0) + 0.5)
        pending.append(y)
        coords[id(node)] = (d, y)
    return coords, lo, hi if hi > lo else lo + 1.0


def _render_tree(svg, spec, dataset, bound, graph):
    root: TreeNode = dataset.payload
    leaves = root.leaf_labels()
    domain = spec.annotations.get("domain_order") or [label.strip() for label in leaves]
    coords, lo, hi = _tree_positions(root, domain, MARGIN_T, MARGIN_T + PLOT_H)
    xs = LinearScale(lo, hi, MARGIN_L, MARGIN_L + PLOT_W - 70)

    color = bound.get("color")
    palette = _palette_for(spec, color)
    leaf_color: dict[str, str | None] = {}
    if color is not None:
        # the colour field's rows follow the associated key column, or else the tip ids
        on_tips = dataset.associated is None or color.name in root.raw_columns
        keys = dataset.primary_ids() if on_tips else dataset.associated.raw_columns[dataset.associated_key]
        leaf_color = {k.strip(): v for k, v in zip(keys, color.column)}

    # Each branch's two lines, depth first, left to right: (parent x, y, child).
    branch = svg.attrs(stroke=AXIS_COLOR, stroke_width=1)
    lines = []
    nx, ny = coords[id(root)]
    branches = [(nx, ny, child) for child in reversed(root.children)]
    while branches:
        nx, ny, child = branches.pop()
        cx, cy = coords[id(child)]
        px = xs(nx)
        lines.append((px, ny, px, cy, branch))
        lines.append((px, cy, xs(cx), cy, branch))
        for grandchild in reversed(child.children):
            branches.append((cx, cy, grandchild))
    svg.lines(lines)
    show_labels = len(leaves) <= MAX_LEAF_LABELS
    leaf_mark = _PerKey(lambda cat: svg.attrs(fill=palette.get(cat, MARK_COLOR), class_="mark",
                                              data_category=cat))
    # emit leaf marks top-to-bottom so document order matches the domain order;
    # a run of marks is written in one call, before the next label
    marks = []
    for leaf in sorted(root.leaf_order, key=lambda lf: coords[id(lf)][1]):
        lx, ly = coords[id(leaf)]
        label = (leaf.name or "").strip()
        cat = leaf_color.get(label)
        if cat is not None:
            marks.append((xs(lx) + 3, ly, 2.5, leaf_mark[cat]))
        if show_labels:
            svg.circles(marks)
            marks.clear()
            svg.text(xs(lx) + 8, ly + 2.5, _clip(label, 12), font_size=8, fill=TEXT_COLOR,
                     font_family="sans-serif", **{"class": "tick-y"})
    svg.circles(marks)
    _legend(svg, palette)


def _render_map(svg, spec, dataset, bound, graph):
    region = bound.get("x") or bound.get("y")
    color = bound.get("color")
    palette = _palette_for(spec, color)

    points = [pt for feat in dataset.payload.features for poly in feat.polygons for pt in poly]
    if not points:
        raise DataMismatch(f"{spec.id}: spatial dataset has no coordinates")
    lons = [p[0] for p in points]
    lats = [p[1] for p in points]
    xs = LinearScale(min(lons), max(lons), MARGIN_L, MARGIN_L + PLOT_W)
    ys = LinearScale(min(lats), max(lats), MARGIN_T + PLOT_H, MARGIN_T)

    ramp = None
    if color is None:
        # fall back to a numeric property ramp when no categorical color bound
        numeric_props = [f for f in graph.spokes(dataset.id) if f.numeric]
        if numeric_props:
            ramp = min(numeric_props, key=lambda f: f.name)
            lo, hi = extent(present(ramp.column))

    features = dataset.payload.features
    for i in sorted(range(len(features)), key=lambda k: str(sorted(features[k].properties.items()))):
        feat = features[i]
        fill = "#e8e8e8"
        attrs = {}
        cat = _at(color, i)
        v = _at(ramp, i)
        if cat is not None:
            fill = palette.get(cat, "#e8e8e8")
            attrs["data-category"] = cat
        elif v is not None:
            t = (v - lo) / ((hi - lo) or 1.0)
            fill = RAMP5[min(4, int(t * 5))]
        for poly in feat.polygons:
            svg.polygon([(xs(lon), ys(lat)) for lon, lat in poly], fill=fill,
                        stroke="#666666", stroke_width=0.7, **{"class": "mark"}, **attrs)
    _legend(svg, palette)
    if region is not None:
        _axis_label(svg, spec, "x", region.name)


def _render_table(svg, spec, dataset, bound, graph):
    key = bound.get("y") or bound.get("x")
    table = dataset.payload if dataset.dtype == TABULAR else dataset.associated
    if table is not None:
        columns = table.columns[:TABLE_MAX_COLS]
        rows = [row[:TABLE_MAX_COLS] for row in table.rows]
    else:
        columns = [key.name if key else "value"]
        rows = [[v] for v in (dataset.raw_columns[key.name] if key else [])]

    order = spec.annotations.get("domain_order")
    if order and key is not None and key.name in columns:
        key_idx = columns.index(key.name)
        rank = {cat: i for i, cat in enumerate(order)}
        rows = sorted(rows, key=lambda r: rank.get(r[key_idx].strip(), len(rank)))
    rows = rows[:TABLE_MAX_ROWS]

    col_w = PLOT_W / max(1, len(columns))
    svg.line(MARGIN_L, MARGIN_T + 14, MARGIN_L + PLOT_W, MARGIN_T + 14, stroke=AXIS_COLOR, stroke_width=1)
    for j, col in enumerate(columns):
        svg.text(MARGIN_L + j * col_w + 3, MARGIN_T + 10, _clip(col, 12), font_size=9,
                 fill=TEXT_COLOR, font_family="sans-serif", font_weight="bold")
    for i, row in enumerate(rows):
        y = MARGIN_T + 28 + i * 16
        for j, cell in enumerate(row):
            svg.text(MARGIN_L + j * col_w + 3, y, _clip(cell.strip(), 12), font_size=8,
                     fill=TEXT_COLOR, font_family="sans-serif", **{"class": "cell"})


def _render_alignment(svg, spec, dataset, bound, graph):
    records = list(dataset.payload.records)
    order = spec.annotations.get("domain_order")
    if order:
        rank = {cat: i for i, cat in enumerate(order)}
        records.sort(key=lambda rec: rank.get(rec[0].strip(), len(rank)))
    n_pos = min(ALIGN_MAX_POSITIONS, max((len(seq) for _, seq in records), default=0))
    rows = len(records)  # never 0: a FASTA file holds at least one record
    # records with no bases still get their id labels, and no cells
    cell_w = (PLOT_W - 60) / max(1, n_pos)
    cell_h = min(14.0, PLOT_H / rows)
    show_labels = rows <= MAX_LEAF_LABELS
    cell = _PerKey(lambda base: svg.attrs(fill=BASE_COLORS.get(base, "#bbbbbb"), class_="mark"))
    for i, (rec_id, seq) in enumerate(records):
        y = MARGIN_T + i * cell_h
        if show_labels:
            svg.text(MARGIN_L - 4, y + cell_h * 0.75, _clip(rec_id, 10), font_size=7,
                     fill=TEXT_COLOR, text_anchor="end", font_family="sans-serif",
                     **{"class": "tick-y"})
        svg.rects([(MARGIN_L + j * cell_w, y, cell_w, cell_h - 1, cell[seq[j].upper()])
                   for j in range(min(n_pos, len(seq)))])


def _render_image(svg, spec, dataset, bound, graph):
    data = base64.standard_b64encode(Path(dataset.payload.path).read_bytes()).decode("ascii")
    svg.image(MARGIN_L, MARGIN_T, PLOT_W, PLOT_H - 20, f"data:image/png;base64,{data}",
              preserveAspectRatio="none")
    lanes = dataset.primary_ids()
    if lanes and len(lanes) <= 24:
        step = PLOT_W / len(lanes)
        for i, lane in enumerate(lanes):
            svg.text(MARGIN_L + step * (i + 0.5), MARGIN_T + PLOT_H - 6, _clip(lane.strip(), 6),
                     font_size=7, fill=AXIS_COLOR, text_anchor="middle",
                     font_family="sans-serif", **{"class": "tick-x"})


def _render_node_link(svg, spec, dataset, bound, graph):
    nodes = sorted(dataset.payload.node_ids())
    cx, cy = MARGIN_L + PLOT_W / 2, MARGIN_T + PLOT_H / 2
    radius = min(PLOT_W, PLOT_H) / 2 - 16
    pos = {}
    for i, node in enumerate(nodes):
        angle = 2 * math.pi * i / max(1, len(nodes)) - math.pi / 2
        pos[node] = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    edge = svg.attrs(stroke="#999999", stroke_width=0.8)
    edges = []
    for row in dataset.payload.rows:
        a, b = row[0].strip(), row[1].strip()
        if a in pos and b in pos:
            edges.append((*pos[a], *pos[b], edge))
    svg.lines(edges)
    show_labels = len(nodes) <= 24
    mark = svg.attrs(fill=MARK_COLOR, class_="mark")
    marks = []
    for node in nodes:
        x, y = pos[node]
        marks.append((x, y, 3.5, mark))
        if show_labels:
            svg.circles(marks)
            marks.clear()
            svg.text(x, y - 6, _clip(node, 8), font_size=7, fill=AXIS_COLOR,
                     text_anchor="middle", font_family="sans-serif")
    svg.circles(marks)


# chart type -> (renderer, the data type whose payload it reads or None when
# it reads only bound fields, the channels it draws)
_RENDERERS = {
    "phylogenetic tree": (_render_tree, TREE, ()),
    "scatter chart": (_render_scatter, None, ("x", "y")),
    "bar chart": (_render_bar, None, ("x",)),
    "histogram": (_render_histogram, None, ("x",)),
    "heatmap": (_render_heatmap, None, ("x", "y")),
    "line chart": (_render_line, None, ("x", "y")),
    "geographic map": (_render_map, SPATIAL, ()),
    "table": (_render_table, None, ()),
    "genomic alignment table": (_render_alignment, GENOMIC, ()),
    "image": (_render_image, IMAGE, ()),
    "node-link": (_render_node_link, NETWORK, ()),
}

# chart type -> (data type or None, drawn channels): a template for the type
# must be for that data type and require those channels
DRAWABLE = {chart_type: (dtype, channels)
            for chart_type, (_, dtype, channels) in _RENDERERS.items()}


def render_chart(spec: ChartSpec, datasets: dict[str, Dataset], graph: EntityGraph) -> str:
    """Render one finalized chart spec to an SVG fragment (fixed-size box).
    Each bound channel's field is looked up in `graph` once, here; the
    renderer gets the spec's dataset and channel -> field."""
    if spec.chart_type not in _RENDERERS:
        raise UnsupportedChartType(spec.chart_type)
    renderer = _RENDERERS[spec.chart_type][0]
    dataset = datasets.get(spec.dataset_id)
    if dataset is None:
        raise DataMismatch(f"{spec.id}: dataset {spec.dataset_id} not loaded")
    if not all(ch in spec.bindings for ch in spec.required_channels):
        raise DataMismatch(f"{spec.id}: spec is incomplete")
    bound = {}
    for channel, binding in spec.bindings.items():
        bound[channel] = graph.field(*binding.key())
        if bound[channel] is None:
            raise DataMismatch(f"{spec.id}: unknown field {binding.source}.{binding.field}")
    svg = SvgBuilder(CELL_W, CELL_H)
    _frame(svg, spec)
    renderer(svg, spec, dataset, bound, graph)
    return svg.body()

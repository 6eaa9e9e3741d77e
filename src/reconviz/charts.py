"""Per-chart-type SVG fragment renderers.

Every renderer draws into a fixed-size box and honors the spec's bindings and
alignment annotations: categorical axes follow the bound domain order, numeric
shared axes use the stamped [lo, hi] domain, and color-aligned charts use the
stamped palette. Colored marks carry a data-category attribute so coordination
can be verified on the output.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from datetime import date

from .chartspec import Binding, ChartSpec
from .combine import build_palette
from .errors import DataMismatch, UnsupportedChartType
from .ingest import (
    Dataset, Field, TABULAR, TreeNode, extent, field_raw_values, is_missing, numeric_values,
)
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
GRID_COLOR = "#dddddd"
MARK_COLOR = "#4e79a7"
TEXT_COLOR = "#222222"

RAMP5 = ("#eff3ff", "#bdd7e7", "#6baed6", "#3182bd", "#08519c")

BASE_COLORS = {"A": "#59a14f", "C": "#4e79a7", "G": "#edc948", "T": "#e15759"}

MAX_LEAF_LABELS = 60
HIST_BINS = 10
TABLE_MAX_ROWS = 12
TABLE_MAX_COLS = 4
ALIGN_MAX_POSITIONS = 40


@dataclass
class Resolved:
    """A spec binding resolved against the loaded data."""

    field: Field
    values: list[str]


def _resolve(spec: ChartSpec, channel: str, datasets, fields_by_key) -> Resolved | None:
    binding: Binding | None = spec.bindings.get(channel)
    if binding is None:
        return None
    field = fields_by_key.get((binding.source, binding.field))
    if field is None:
        raise DataMismatch(f"{spec.id}: unknown field {binding.source}.{binding.field}")
    dataset = datasets.get(binding.source)
    if dataset is None:
        raise DataMismatch(f"{spec.id}: unknown dataset {binding.source}")
    return Resolved(field, field_raw_values(field, dataset))


def _iso_day(value: str) -> str | None:
    try:
        return date.fromisoformat(value.strip()[:10]).isoformat()
    except ValueError:
        return None


class LinearScale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi, self.out_lo, self.out_hi = lo, hi, out_lo, out_hi

    def __call__(self, value: float) -> float:
        t = (value - self.lo) / (self.hi - self.lo)
        return self.out_lo + t * (self.out_hi - self.out_lo)

    def position(self, raw: str) -> float:
        """Position of a present value of a numeric field (it parses as a number)."""
        return self(float(raw))

    def tick_marks(self, max_labels: int) -> list[tuple[float, str | None]]:
        """Five evenly spaced ticks, always labeled."""
        values = [self.lo + (self.hi - self.lo) * i / 4 for i in range(5)]
        return [(self(v), fmt(v)) for v in values]


class BandScale:
    def __init__(self, domain: list[str], out_lo: float, out_hi: float):
        self.domain = list(domain)
        self.out_lo, self.out_hi = out_lo, out_hi
        self.step = (out_hi - out_lo) / max(1, len(self.domain))
        self.index = {cat: i for i, cat in enumerate(self.domain)}

    def position(self, raw: str) -> float | None:
        """Center of the category's band, or None for a category outside the domain."""
        i = self.index.get(raw)
        if i is None:
            return None
        return self.out_lo + self.step * (i + 0.5)

    def tick_marks(self, max_labels: int) -> list[tuple[float, str | None]]:
        """One tick per category; labels only when at most `max_labels` categories."""
        show = len(self.domain) <= max_labels
        return [(self.position(cat), _clip(cat, 9) if show else None) for cat in self.domain]


def _palette_for(spec: ChartSpec, color: Resolved | None) -> dict[str, str]:
    stamped = spec.annotations.get("palette")
    if stamped:
        return dict(stamped)
    if color is not None and color.field.values is not None:
        return build_palette(sorted(color.field.values))
    return {}


def _frame(svg: SvgBuilder, spec: ChartSpec) -> None:
    svg.rect(0, 0, CELL_W, CELL_H, fill="#ffffff", stroke="#cccccc", stroke_width=1)
    svg.text(10, 18, f"{spec.chart_type} · {spec.dataset_id}", font_size=12,
             fill=TEXT_COLOR, font_family="sans-serif", font_weight="bold")


def _axis_label(svg: SvgBuilder, spec: ChartSpec, channel: str) -> None:
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


def _axes(svg: SvgBuilder) -> None:
    svg.line(MARGIN_L, MARGIN_T, MARGIN_L, MARGIN_T + PLOT_H, stroke=AXIS_COLOR, stroke_width=1)
    svg.line(MARGIN_L, MARGIN_T + PLOT_H, MARGIN_L + PLOT_W, MARGIN_T + PLOT_H,
             stroke=AXIS_COLOR, stroke_width=1)


def _ticks(svg: SvgBuilder, scale: LinearScale | BandScale, axis: str, max_labels: int = 20) -> None:
    for pos, label in scale.tick_marks(max_labels):
        if axis == "x":
            svg.line(pos, MARGIN_T + PLOT_H, pos, MARGIN_T + PLOT_H + 4, stroke=AXIS_COLOR, stroke_width=1)
            if label is not None:
                svg.text(pos, MARGIN_T + PLOT_H + 15, label, font_size=8, fill=AXIS_COLOR,
                         text_anchor="middle", font_family="sans-serif", **{"class": "tick-x"})
        else:
            svg.line(MARGIN_L - 4, pos, MARGIN_L, pos, stroke=AXIS_COLOR, stroke_width=1)
            if label is not None:
                svg.text(MARGIN_L - 6, pos + 2.5, label, font_size=8, fill=AXIS_COLOR,
                         text_anchor="end", font_family="sans-serif", **{"class": "tick-y"})


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _domain_for(spec: ChartSpec, channel: str, resolved: Resolved) -> list[str]:
    """Categorical domain: the stamped shared ordering when this channel is the
    shared axis, otherwise sorted distinct values."""
    if spec.annotations.get("shared_axis") == channel and spec.annotations.get("domain_order"):
        return list(spec.annotations["domain_order"])
    return sorted(resolved.field.values)


def _axis_numeric_domain(spec: ChartSpec, channel: str, values: list[float]) -> tuple[float, float]:
    if spec.annotations.get("shared_axis") == channel and spec.annotations.get("axis_domain"):
        lo, hi = spec.annotations["axis_domain"]
        return float(lo), float(hi)
    return extent(values)


def _scale_for(spec: ChartSpec, channel: str, resolved: Resolved):
    """Numeric fields get a linear scale, non-numeric a band scale."""
    if channel == "x":
        out_lo, out_hi = MARGIN_L, MARGIN_L + PLOT_W
    else:
        out_lo, out_hi = MARGIN_T, MARGIN_T + PLOT_H
    if resolved.field.numeric:
        values = numeric_values(resolved.values)
        lo, hi = _axis_numeric_domain(spec, channel, values)
        return LinearScale(lo, hi, out_lo, out_hi)
    return BandScale(_domain_for(spec, channel, resolved), out_lo, out_hi)


def _legend(svg: SvgBuilder, palette: dict[str, str], used: list[str]) -> None:
    x = MARGIN_L + 4
    y = MARGIN_T - 10
    for cat in used[:6]:
        color = palette.get(cat)
        if color is None:
            continue
        svg.rect(x, y - 7, 8, 8, fill=color, **{"class": "legend-swatch", "data-category": cat})
        svg.text(x + 11, y, _clip(cat, 10), font_size=8, fill=AXIS_COLOR, font_family="sans-serif")
        x += 11 + 6.5 * min(len(cat), 10) + 10


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _xy_axes(svg, spec, datasets, fields_by_key):
    """Resolve and scale both positional channels and draw their axes and ticks."""
    x = _resolve(spec, "x", datasets, fields_by_key)
    y = _resolve(spec, "y", datasets, fields_by_key)
    xs = _scale_for(spec, "x", x)
    ys = _scale_for(spec, "y", y)
    _axes(svg)
    _ticks(svg, xs, "x")
    _ticks(svg, ys, "y")
    return x, y, xs, ys


def _xy_points(x: Resolved, y: Resolved, xs, ys):
    """(row, x raw, px, py) for every row with both values present and placeable."""
    for i in range(min(len(x.values), len(y.values))):
        xv, yv = x.values[i].strip(), y.values[i].strip()
        if is_missing(xv) or is_missing(yv):
            continue
        px, py = xs.position(xv), ys.position(yv)
        if px is not None and py is not None:
            yield i, xv, px, py


def _render_scatter(svg, spec, datasets, fields_by_key):
    x, y, xs, ys = _xy_axes(svg, spec, datasets, fields_by_key)
    color = _resolve(spec, "color", datasets, fields_by_key)
    palette = _palette_for(spec, color)
    for i, _, px, py in _xy_points(x, y, xs, ys):
        attrs = {"fill": MARK_COLOR}
        if color is not None and i < len(color.values) and not is_missing(color.values[i]):
            cat = color.values[i].strip()
            attrs = {"fill": palette.get(cat, MARK_COLOR), "data-category": cat}
        svg.circle(px, py, 3, **attrs, **{"class": "mark"})
    if color is not None:
        _legend(svg, palette, sorted(palette))
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y")


def _render_bar(svg, spec, datasets, fields_by_key):
    x = _resolve(spec, "x", datasets, fields_by_key)
    color = _resolve(spec, "color", datasets, fields_by_key)
    palette = _palette_for(spec, color)
    domain = _domain_for(spec, "x", x)
    xs = BandScale(domain, MARGIN_L, MARGIN_L + PLOT_W)

    # bar height is always the row count per category
    counts = {cat: 0 for cat in domain}
    stacks: dict[str, dict[str, int]] = {cat: {} for cat in domain}
    for i, raw in enumerate(x.values):
        cat = raw.strip()
        if is_missing(raw) or cat not in counts:
            continue
        counts[cat] += 1
        if color is not None and i < len(color.values) and not is_missing(color.values[i]):
            sub = color.values[i].strip()
            stacks[cat][sub] = stacks[cat].get(sub, 0) + 1
    top = max(counts.values(), default=0) or 1
    ys = LinearScale(0, top, MARGIN_T + PLOT_H, MARGIN_T)
    _axes(svg)
    _ticks(svg, xs, "x")
    _ticks(svg, ys, "y")
    width = xs.step * 0.7
    for cat in domain:
        center = xs.position(cat)
        if center is None or counts[cat] == 0:
            continue
        if color is not None and stacks[cat]:
            base = MARGIN_T + PLOT_H
            for sub in sorted(stacks[cat]):
                h = (MARGIN_T + PLOT_H) - ys(stacks[cat][sub])
                svg.rect(center - width / 2, base - h, width, h,
                         fill=palette.get(sub, MARK_COLOR), stroke="#ffffff", stroke_width=0.5,
                         **{"class": "mark", "data-category": sub})
                base -= h
        else:
            h = (MARGIN_T + PLOT_H) - ys(counts[cat])
            svg.rect(center - width / 2, MARGIN_T + PLOT_H - h, width, h, fill=MARK_COLOR,
                     **{"class": "mark", "data-category": cat})
    if color is not None:
        _legend(svg, palette, sorted(palette))
    _axis_label(svg, spec, "x")
    svg.text(14, MARGIN_T + PLOT_H / 2, "count", font_size=10, fill=AXIS_COLOR,
             text_anchor="middle", font_family="sans-serif",
             transform=f"rotate(-90 14 {fmt(MARGIN_T + PLOT_H / 2)})", **{"class": "axis-label-y"})


def _render_histogram(svg, spec, datasets, fields_by_key):
    x = _resolve(spec, "x", datasets, fields_by_key)
    values = numeric_values(x.values)
    lo, hi = _axis_numeric_domain(spec, "x", values)
    xs = LinearScale(lo, hi, MARGIN_L, MARGIN_L + PLOT_W)
    counts = [0] * HIST_BINS
    span = (xs.hi - xs.lo) or 1.0
    for v in values:
        idx = min(HIST_BINS - 1, max(0, int((v - xs.lo) / span * HIST_BINS)))
        counts[idx] += 1
    top = max(counts) or 1
    ys = LinearScale(0, top, MARGIN_T + PLOT_H, MARGIN_T)
    _axes(svg)
    _ticks(svg, xs, "x")
    _ticks(svg, ys, "y")
    bin_w = PLOT_W / HIST_BINS
    for i, count in enumerate(counts):
        if count == 0:
            continue
        h = (MARGIN_T + PLOT_H) - ys(count)
        svg.rect(MARGIN_L + i * bin_w, MARGIN_T + PLOT_H - h, bin_w - 1, h, fill=MARK_COLOR,
                 **{"class": "mark"})
    _axis_label(svg, spec, "x")


def _render_line(svg, spec, datasets, fields_by_key):
    x, y, xs, ys = _xy_axes(svg, spec, datasets, fields_by_key)
    # band positions grow with the category index; numbers sort by value, which
    # stays exact where nearby values round to one position
    points = [(float(xv) if x.field.numeric else px, px, py)
              for _, xv, px, py in _xy_points(x, y, xs, ys)]
    points.sort(key=lambda p: (p[0], p[1]))
    if points:
        svg.polyline([(px, py) for _, px, py in points], stroke=MARK_COLOR, stroke_width=1.5,
                     **{"class": "mark"})
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y")


def _bin_labels(resolved: Resolved, spec: ChartSpec, channel: str) -> tuple[list[str], list[str]]:
    """Per-row bin labels plus the ordered bin domain for a heatmap axis.

    ISO dates bin by day; other non-numeric values bin by category; numeric
    values split into 5 equal bins labeled by range.
    """
    raw = [v.strip() for v in resolved.values]
    if spec.annotations.get("shared_axis") == channel and spec.annotations.get("domain_order"):
        domain = list(spec.annotations["domain_order"])
        return raw, domain
    if not resolved.field.numeric:
        days = [_iso_day(v) for v in raw if not is_missing(v)]
        if days and all(d is not None for d in days):
            labels = [(_iso_day(v) or "") if not is_missing(v) else "" for v in raw]
            return labels, sorted({d for d in labels if d})
        return raw, sorted(resolved.field.values)
    lo, hi = extent(numeric_values(raw))
    span = (hi - lo) or 1.0
    edges = [lo + span * i / 5 for i in range(6)]
    domain = [f"{fmt(edges[i])}–{fmt(edges[i + 1])}" for i in range(5)]
    labels = []
    for v in raw:
        if is_missing(v):
            labels.append("")
        else:
            labels.append(domain[min(4, max(0, int((float(v) - lo) / span * 5)))])
    return labels, domain


def _render_heatmap(svg, spec, datasets, fields_by_key):
    x = _resolve(spec, "x", datasets, fields_by_key)
    y = _resolve(spec, "y", datasets, fields_by_key)
    x_labels, x_domain = _bin_labels(x, spec, "x")
    y_labels, y_domain = _bin_labels(y, spec, "y")
    xs = BandScale(x_domain, MARGIN_L, MARGIN_L + PLOT_W)
    ys = BandScale(y_domain, MARGIN_T, MARGIN_T + PLOT_H)
    counts: dict[tuple[str, str], int] = {}
    for i in range(min(len(x_labels), len(y_labels))):
        cx, cy = x_labels[i], y_labels[i]
        if not cx or not cy or cx not in xs.index or cy not in ys.index:
            continue
        counts[(cx, cy)] = counts.get((cx, cy), 0) + 1
    top = max(counts.values(), default=1)
    _axes(svg)
    _ticks(svg, xs, "x", max_labels=12)
    _ticks(svg, ys, "y", max_labels=30)
    for (cx, cy), count in sorted(counts.items()):
        px, py = xs.position(cx), ys.position(cy)
        ramp_idx = min(4, (5 * count - 1) // top)
        svg.rect(px - xs.step / 2, py - ys.step / 2, xs.step, ys.step,
                 fill=RAMP5[ramp_idx], **{"class": "mark"})
    _axis_label(svg, spec, "x")
    _axis_label(svg, spec, "y")


def _tree_positions(root: TreeNode, domain: list[str], y_lo: float, y_hi: float):
    """Leaf y positions follow the bound domain order; inner nodes sit at the
    mean of their children."""
    order = {label: i for i, label in enumerate(domain)}
    step = (y_hi - y_lo) / max(1, len(domain))
    coords: dict[int, tuple[float, float]] = {}
    has_lengths = any(leaf.length is not None for leaf in root.leaves())

    def depth_of(node: TreeNode, acc: float) -> float:
        return acc + ((node.length or 0.0) if has_lengths else 1.0)

    max_depth = [0.0]

    def walk(node: TreeNode, depth: float) -> float:
        d = depth_of(node, depth)
        if node.is_leaf():
            idx = order.get((node.name or "").strip(), 0)
            y = y_lo + step * (idx + 0.5)
            coords[id(node)] = (d, y)
            max_depth[0] = max(max_depth[0], d)
            return y
        ys = [walk(child, d) for child in node.children]
        y = sum(ys) / len(ys)
        coords[id(node)] = (d, y)
        max_depth[0] = max(max_depth[0], d)
        return y

    walk(root, 0.0)
    return coords, max_depth[0] or 1.0


def _render_tree(svg, spec, datasets, fields_by_key):
    dataset = datasets[spec.dataset_id]
    root: TreeNode = dataset.payload
    leaves = root.leaf_labels()
    domain = spec.annotations.get("domain_order") or [label.strip() for label in leaves]
    coords, max_depth = _tree_positions(root, domain, MARGIN_T, MARGIN_T + PLOT_H)
    xs = LinearScale(0, max_depth, MARGIN_L, MARGIN_L + PLOT_W - 70)

    color = _resolve(spec, "color", datasets, fields_by_key)
    palette = _palette_for(spec, color)
    leaf_color: dict[str, str] = {}
    if color is not None:
        dataset_ids = dataset.primary_ids()
        if dataset.associated is not None and color.field.name not in root.raw_columns:
            keys = dataset.associated.column(dataset.associated_key)
            mapping = {k.strip(): v.strip() for k, v in zip(keys, color.values)}
            leaf_color = {i.strip(): mapping.get(i.strip(), "") for i in dataset_ids}
        else:
            leaf_color = {i.strip(): v.strip() for i, v in zip(dataset_ids, color.values)}

    def draw(node: TreeNode):
        nx, ny = coords[id(node)]
        for child in node.children:
            cx, cy = coords[id(child)]
            svg.line(xs(nx), ny, xs(nx), cy, stroke=AXIS_COLOR, stroke_width=1)
            svg.line(xs(nx), cy, xs(cx), cy, stroke=AXIS_COLOR, stroke_width=1)
            draw(child)

    draw(root)
    show_labels = len(leaves) <= MAX_LEAF_LABELS
    # emit leaf marks top-to-bottom so document order matches the domain order
    for leaf in sorted(root.leaves(), key=lambda lf: coords[id(lf)][1]):
        lx, ly = coords[id(leaf)]
        label = (leaf.name or "").strip()
        cat = leaf_color.get(label, "")
        if not is_missing(cat):
            svg.circle(xs(lx) + 3, ly, 2.5, fill=palette.get(cat, MARK_COLOR),
                       **{"class": "mark", "data-category": cat})
        if show_labels:
            svg.text(xs(lx) + 8, ly + 2.5, _clip(label, 12), font_size=8, fill=TEXT_COLOR,
                     font_family="sans-serif", **{"class": "tick-y"})
    if color is not None:
        _legend(svg, palette, sorted(palette))


def _render_map(svg, spec, datasets, fields_by_key):
    dataset = datasets[spec.dataset_id]
    region = _resolve(spec, "x", datasets, fields_by_key) or _resolve(spec, "y", datasets, fields_by_key)
    color = _resolve(spec, "color", datasets, fields_by_key)
    palette = _palette_for(spec, color)

    points = [pt for feat in dataset.payload.features for poly in feat.polygons for pt in poly]
    if not points:
        raise DataMismatch(f"{spec.id}: spatial dataset has no coordinates")
    lons = [p[0] for p in points]
    lats = [p[1] for p in points]
    xs = LinearScale(min(lons), max(lons), MARGIN_L, MARGIN_L + PLOT_W)
    ys = LinearScale(min(lats), max(lats), MARGIN_T + PLOT_H, MARGIN_T)

    fill_values = None
    if color is None:
        # fall back to a numeric property ramp when no categorical color bound
        numeric_props = sorted(
            {f.name for f in fields_by_key.values() if f.source_id == dataset.id and f.numeric}
        )
        if numeric_props:
            fill_values = dataset.raw_columns[numeric_props[0]]
            lo, hi = extent(numeric_values(fill_values))

    features = dataset.payload.features
    for i in sorted(range(len(features)), key=lambda k: str(sorted(features[k].properties.items()))):
        feat = features[i]
        fill = "#e8e8e8"
        attrs = {}
        if color is not None:
            cat = color.values[i].strip()
            if not is_missing(cat):
                fill = palette.get(cat, "#e8e8e8")
                attrs["data-category"] = cat
        elif fill_values is not None:
            try:
                v = float(fill_values[i])
                t = (v - lo) / ((hi - lo) or 1.0)
                fill = RAMP5[min(4, int(t * 5))]
            except ValueError:
                pass
        for poly in feat.polygons:
            svg.polygon([(xs(lon), ys(lat)) for lon, lat in poly], fill=fill,
                        stroke="#666666", stroke_width=0.7, **{"class": "mark"}, **attrs)
    if color is not None:
        _legend(svg, palette, sorted(palette))
    if region is not None:
        svg.text(MARGIN_L + PLOT_W / 2, CELL_H - 8, region.field.name, font_size=10,
                 fill=AXIS_COLOR, text_anchor="middle", font_family="sans-serif",
                 **{"class": "axis-label-x"})


def _render_table(svg, spec, datasets, fields_by_key):
    dataset = datasets[spec.dataset_id]
    key = _resolve(spec, "y", datasets, fields_by_key) or _resolve(spec, "x", datasets, fields_by_key)
    if dataset.dtype == TABULAR:
        columns = list(dataset.payload.columns)[:TABLE_MAX_COLS]
        rows = [[row[dataset.payload.columns.index(c)] for c in columns] for row in dataset.payload.rows]
    elif dataset.associated is not None:
        columns = list(dataset.associated.columns)[:TABLE_MAX_COLS]
        rows = [[row[dataset.associated.columns.index(c)] for c in columns] for row in dataset.associated.rows]
    else:
        columns = [key.field.name if key else "value"]
        rows = [[v] for v in (key.values if key else [])]

    order = spec.annotations.get("domain_order")
    if order and key is not None and key.field.name in columns:
        key_idx = columns.index(key.field.name)
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


def _render_alignment(svg, spec, datasets, fields_by_key):
    dataset = datasets[spec.dataset_id]
    records = list(dataset.payload.records)
    order = spec.annotations.get("domain_order")
    if order:
        rank = {cat: i for i, cat in enumerate(order)}
        records.sort(key=lambda rec: rank.get(rec[0].strip(), len(rank)))
    n_pos = min(ALIGN_MAX_POSITIONS, max((len(seq) for _, seq in records), default=0))
    rows = len(records)
    if rows == 0 or n_pos == 0:
        raise DataMismatch(f"{spec.id}: no sequences to draw")
    cell_w = (PLOT_W - 60) / n_pos
    cell_h = min(14.0, PLOT_H / rows)
    show_labels = rows <= MAX_LEAF_LABELS
    for i, (rec_id, seq) in enumerate(records):
        y = MARGIN_T + i * cell_h
        if show_labels:
            svg.text(MARGIN_L - 4, y + cell_h * 0.75, _clip(rec_id, 10), font_size=7,
                     fill=TEXT_COLOR, text_anchor="end", font_family="sans-serif",
                     **{"class": "tick-y"})
        for j in range(min(n_pos, len(seq))):
            base = seq[j].upper()
            svg.rect(MARGIN_L + j * cell_w, y, cell_w, cell_h - 1,
                     fill=BASE_COLORS.get(base, "#bbbbbb"), **{"class": "mark"})


def _render_image(svg, spec, datasets, fields_by_key):
    dataset = datasets[spec.dataset_id]
    data = base64.standard_b64encode(open(dataset.payload.path, "rb").read()).decode("ascii")
    svg.image(MARGIN_L, MARGIN_T, PLOT_W, PLOT_H - 20, f"data:image/png;base64,{data}",
              preserveAspectRatio="none")
    lanes = dataset.primary_ids()
    if lanes and len(lanes) <= 24:
        step = PLOT_W / len(lanes)
        for i, lane in enumerate(lanes):
            svg.text(MARGIN_L + step * (i + 0.5), MARGIN_T + PLOT_H - 6, _clip(lane.strip(), 6),
                     font_size=7, fill=AXIS_COLOR, text_anchor="middle",
                     font_family="sans-serif", **{"class": "tick-x"})


def _render_node_link(svg, spec, datasets, fields_by_key):
    import math

    dataset = datasets[spec.dataset_id]
    nodes = sorted(dataset.payload.node_ids())
    cx, cy = MARGIN_L + PLOT_W / 2, MARGIN_T + PLOT_H / 2
    radius = min(PLOT_W, PLOT_H) / 2 - 16
    pos = {}
    for i, node in enumerate(nodes):
        angle = 2 * math.pi * i / max(1, len(nodes)) - math.pi / 2
        pos[node] = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    for row in dataset.payload.rows:
        a, b = row[0].strip(), row[1].strip()
        if a in pos and b in pos:
            svg.line(*pos[a], *pos[b], stroke="#999999", stroke_width=0.8)
    show_labels = len(nodes) <= 24
    for node in nodes:
        x, y = pos[node]
        svg.circle(x, y, 3.5, fill=MARK_COLOR, **{"class": "mark"})
        if show_labels:
            svg.text(x, y - 6, _clip(node, 8), font_size=7, fill=AXIS_COLOR,
                     text_anchor="middle", font_family="sans-serif")


_RENDERERS = {
    "phylogenetic tree": _render_tree,
    "scatter chart": _render_scatter,
    "bar chart": _render_bar,
    "histogram": _render_histogram,
    "heatmap": _render_heatmap,
    "line chart": _render_line,
    "geographic map": _render_map,
    "table": _render_table,
    "genomic alignment table": _render_alignment,
    "image": _render_image,
    "node-link": _render_node_link,
}


def render_chart(spec: ChartSpec, datasets: dict[str, Dataset], fields: list[Field]) -> str:
    """Render one finalized chart spec to an SVG fragment (fixed-size box)."""
    renderer = _RENDERERS.get(spec.chart_type)
    if renderer is None:
        raise UnsupportedChartType(spec.chart_type)
    if spec.dataset_id not in datasets:
        raise DataMismatch(f"{spec.id}: dataset {spec.dataset_id} not loaded")
    if not spec.complete:
        raise DataMismatch(f"{spec.id}: spec is incomplete")
    fields_by_key = {(f.source_id, f.name): f for f in fields}
    svg = SvgBuilder(CELL_W, CELL_H)
    _frame(svg, spec)
    renderer(svg, spec, datasets, fields_by_key)
    return svg.body()

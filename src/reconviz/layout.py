"""Arrange rendered chart fragments into the final view grid.

The spatially aligned group occupies the top row exclusively, lead chart
leftmost; everything else fills the next row in the order given (the
pipeline passes specs already sorted by descending relevance and capped at
`max_charts`). The grid defaults to 2x3 and grows columns when a row needs
more cells. The final document carries a provenance block and, for spatial
groups, a shared-axis banner naming the alignment field.
"""

from __future__ import annotations

import json

from .chartspec import ChartSpec
from .combine import CombinationPlan
from .errors import MissingFragment
from .record import Record
from .svg import SvgBuilder, fmt
from .charts import CELL_W, CELL_H

BASE_COLS = 3

OUTER_MARGIN = 24.0
GUTTER = 18.0
HEADER_H = 30.0


class ViewLayout(Record):
    __slots__ = ("rows", "cols", "cells", "width", "height", "annotations")  # cells: id -> (row, col)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "cells": {sid: {"row": r, "col": c} for sid, (r, c) in sorted(self.cells.items())},
            "width": self.width,
            "height": self.height,
            "annotations": list(self.annotations),
        }


def arrange_grid(plan: CombinationPlan, specs: list[ChartSpec]) -> ViewLayout:
    """One cell per spec: the plan's spatial members in group order, then the
    other specs in the order given."""
    spatial_ids = list(plan.spatial.member_ids) if plan.spatial is not None else []
    rest = [s.id for s in specs if s.id not in spatial_ids]

    cells: dict[str, tuple[int, int]] = {}
    annotations: list[str] = []
    if spatial_ids:
        # spatial group owns row 0; everything else lines up on row 1,
        # growing columns past the default 2x3 grid when needed
        for col, sid in enumerate(spatial_ids):
            cells[sid] = (0, col)
        for col, sid in enumerate(rest):
            cells[sid] = (1, col)
        axis = plan.spatial.axis
        annotations.append(
            f"combo_axis_var: {plan.spatial.shared_field} (shared {axis}-axis)"
        )
    else:
        for i, sid in enumerate(rest):
            cells[sid] = (i // BASE_COLS, i % BASE_COLS)

    rows = 1 + max((r for r, _ in cells.values()), default=0)
    cols = 1 + max((c for _, c in cells.values()), default=0)
    width = OUTER_MARGIN * 2 + cols * CELL_W + (cols - 1) * GUTTER
    height = OUTER_MARGIN * 2 + HEADER_H + rows * CELL_H + (rows - 1) * GUTTER
    return ViewLayout(rows, cols, cells, width, height, annotations)


def render_view(layout: ViewLayout, fragments: dict[str, str], provenance: dict) -> str:
    """Concatenate chart fragments at their grid cells into one document."""
    for sid in layout.cells:
        if sid not in fragments:
            raise MissingFragment(sid)
    svg = SvgBuilder(layout.width, layout.height)
    svg.metadata(json.dumps(provenance, sort_keys=True))
    svg.rect(0, 0, layout.width, layout.height, fill="#fafafa")
    for text in layout.annotations:
        svg.text(OUTER_MARGIN, OUTER_MARGIN + 12, text, font_size=12, fill="#333333",
                 font_family="sans-serif", font_weight="bold", **{"class": "combo-axis-label"})
    for sid, (row, col) in sorted(layout.cells.items(), key=lambda kv: (kv[1], kv[0])):
        x = OUTER_MARGIN + col * (CELL_W + GUTTER)
        y = OUTER_MARGIN + HEADER_H + row * (CELL_H + GUTTER)
        svg.open_group(transform=f"translate({fmt(x)} {fmt(y)})", **{"data-cell": sid})
        svg.raw(fragments[sid])
        svg.close_group()
    return svg.render()

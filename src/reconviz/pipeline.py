"""End-to-end orchestration: datasets -> fields -> entity graph -> ranked
paths -> singleton specs -> alignment -> laid-out views.

Everything here is deterministic for a fixed (inputs, seed) pair. The lead
chart PRNG for each view is derived from the global seed and the path's rank
so parallel or out-of-order evaluation cannot change results.
"""

from __future__ import annotations

from . import __version__
from .chartspec import (
    ChartSpec,
    ChartTemplate,
    generate_single_chart_specs,
    prioritize_fields,
    spec_order,
)
from .charts import render_chart
from .combine import ViabilityMatrix, bind_alignment, build_plan
from .config import RunConfig
from .designspace import RelevanceTable, TypeEncodingMap
from .entitygraph import EntityGraph, build_entity_graph
from .ingest import Dataset, FieldMetadata, explode_fields
from .jsonout import json_text
from .layout import arrange_grid, render_view
from .ranking import rank_paths
from .record import Record

TOOL_VERSION = f"reconviz {__version__}"

_SEED_STRIDE = 1_000_003  # mixes (global seed, path rank) into one PRNG seed


class View(Record):
    __slots__ = ("index", "ranked", "specs", "plan", "layout")  # index: 1-based, in rank order

    def to_dict(self) -> dict:
        return {
            "view": self.index,
            "path": self.ranked.describe(),
            "charts": [spec.to_dict() for spec in self.specs],
            "plan": self.plan.to_dict(),
            "layout": self.layout.to_dict(),
        }


class Assembly(Record):
    __slots__ = ("datasets", "graph", "ranked", "views")

    def views_json(self) -> str:
        return json_text([v.to_dict() for v in self.views])


def build_graph(datasets: list[Dataset], min_jaccard: float) -> tuple[FieldMetadata, EntityGraph]:
    fields, metadata = explode_fields(datasets)
    return metadata, build_entity_graph(fields, min_jaccard, {d.id: d.dtype for d in datasets})


def assemble(
    datasets: list[Dataset],
    table: RelevanceTable,
    encoding_map: TypeEncodingMap,
    templates: list[ChartTemplate],
    matrix: ViabilityMatrix,
    config: RunConfig,
    view_limit: int | None = None,
) -> Assembly:
    """Rank the paths and build views in rank order: all of them, or only the
    first `view_limit` when that is given and at least 1. The tunables come
    from `config`; its file paths are not read here."""
    _, graph = build_graph(datasets, config.min_jaccard)
    encoding_map.validate_against(table)
    by_id = {d.id: d for d in datasets}
    ranked = rank_paths(graph, graph.hubs, encoding_map, table)

    singles: dict[str, list[ChartSpec]] = {}

    def dataset_specs(ds_id: str) -> list[ChartSpec]:
        """The dataset's singleton specs, made on first use. Field priority
        reads each field's degree in the whole graph and sorts on a total
        key, so a dataset's specs are the same on every path. Views share
        them: bind_alignment returns copies."""
        if ds_id not in singles:
            prioritized = prioritize_fields(
                [(f, graph.field_degree(f)) for f in graph.spokes(ds_id)], config.user_fields)
            singles[ds_id] = generate_single_chart_specs(
                [by_id[ds_id]], prioritized, templates, table,
                color_card_limit=config.color_card_limit,
                highcard_threshold=config.highcard_threshold,
            )
        return singles[ds_id]

    views: list[View] = []
    emitted_per_component: dict[int, int] = {}
    for rank_position, rp in enumerate(ranked, start=1):
        component = rp.path.component_id
        if emitted_per_component.get(component, 0) >= config.max_views_per_component:
            continue
        specs = sorted((s for hub in rp.path.hubs for s in dataset_specs(hub)),
                       key=spec_order)[:config.max_charts]
        if not specs:
            continue
        plan = build_plan(specs, matrix, graph, by_id,
                          seed=config.seed * _SEED_STRIDE + rank_position)
        final = bind_alignment(specs, plan)
        layout = arrange_grid(plan, final)
        emitted_per_component[component] = emitted_per_component.get(component, 0) + 1
        views.append(View(len(views) + 1, rp, final, plan, layout))
        if len(views) == view_limit:
            break
    return Assembly(by_id, graph, ranked, views)


def render_view_svg(assembly: Assembly, view: View) -> str:
    fragments = {spec.id: render_chart(spec, assembly.datasets, assembly.graph)
                 for spec in view.specs}
    provenance = {
        "diversity": view.ranked.diversity,
        "encoding_relevance": view.ranked.encoding_relevance,
        "path_score": view.ranked.path_score,
        "seed": view.plan.seed,
        "strength": float(view.ranked.strength),
        "tool": TOOL_VERSION,
        "view": view.index,
    }
    return render_view(view.layout, fragments, provenance)

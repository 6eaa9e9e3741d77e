"""End-to-end orchestration: datasets -> fields -> entity graph -> ranked
paths -> singleton specs -> alignment -> laid-out views.

Everything here is deterministic for a fixed (inputs, seed) pair. The lead
chart PRNG for each view is derived from the global seed and the path's rank
so parallel or out-of-order evaluation cannot change results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__
from .chartspec import (
    ChartSpec,
    ChartTemplate,
    generate_single_chart_specs,
    prioritize_fields,
)
from .charts import render_chart
from .combine import CombinationPlan, FieldIndex, ViabilityMatrix, bind_alignment, build_plan
from .designspace import RelevanceTable, TypeEncodingMap
from .entitygraph import EntityGraph, build_entity_graph
from .ingest import Dataset, Field, FieldMetadata, explode_fields
from .layout import ViewLayout, arrange_grid, render_view
from .ranking import RankedPath, rank_paths

TOOL_VERSION = f"reconviz {__version__}"

DEFAULT_MAX_VIEWS_PER_COMPONENT = 10

_SEED_STRIDE = 1_000_003  # mixes (global seed, path rank) into one PRNG seed


@dataclass
class View:
    index: int  # 1-based, in rank order
    ranked: RankedPath
    specs: list[ChartSpec]
    plan: CombinationPlan
    layout: ViewLayout

    def to_dict(self) -> dict:
        return {
            "view": self.index,
            "path": self.ranked.describe(),
            "charts": [spec.to_dict() for spec in self.specs],
            "plan": self.plan.to_dict(),
            "layout": self.layout.to_dict(),
        }


@dataclass
class Assembly:
    datasets: dict[str, Dataset]
    fields: list[Field]
    metadata: FieldMetadata
    graph: EntityGraph
    ranked: list[RankedPath]
    views: list[View]

    def views_json(self) -> str:
        return json.dumps([v.to_dict() for v in self.views], indent=2, sort_keys=True) + "\n"


def build_graph(datasets: list[Dataset], min_jaccard: float = 0.0):
    fields, metadata = explode_fields(datasets)
    graph = build_entity_graph(fields, min_jaccard, {d.id: d.dtype for d in datasets})
    return fields, metadata, graph


def assemble(
    datasets: list[Dataset],
    table: RelevanceTable,
    encoding_map: TypeEncodingMap,
    templates: list[ChartTemplate],
    matrix: ViabilityMatrix,
    user_fields: list[str] | None = None,
    min_jaccard: float = 0.0,
    color_card_limit: int = 12,
    highcard_threshold: int = 12,
    max_charts: int = 5,
    max_views_per_component: int = DEFAULT_MAX_VIEWS_PER_COMPONENT,
    seed: int = 0,
) -> Assembly:
    fields, metadata, graph = build_graph(datasets, min_jaccard)
    encoding_map.validate_against(table)
    by_id = {d.id: d for d in datasets}
    dtypes = {d.id: d.dtype for d in datasets}
    ranked = rank_paths(graph, dtypes, encoding_map, table)
    index = FieldIndex(fields, graph.link_classes())

    views: list[View] = []
    emitted_per_component: dict[int, int] = {}
    for rank_position, rp in enumerate(ranked, start=1):
        component = rp.path.component_id
        if emitted_per_component.get(component, 0) >= max_views_per_component:
            continue
        hub_set = set(rp.path.hubs)
        path_datasets = [by_id[h] for h in rp.path.hubs]
        path_fields = [(f, graph.field_degree(f)) for f in fields if f.source_id in hub_set]
        prioritized = prioritize_fields(path_fields, user_fields)
        specs = generate_single_chart_specs(
            path_datasets, prioritized, templates, table,
            color_card_limit=color_card_limit, highcard_threshold=highcard_threshold,
        )[:max_charts]
        if not specs:
            continue
        plan = build_plan(specs, matrix, index, by_id, seed=seed * _SEED_STRIDE + rank_position)
        final = bind_alignment(specs, plan, index)
        layout = arrange_grid(plan, final, max_charts)
        emitted_per_component[component] = emitted_per_component.get(component, 0) + 1
        views.append(View(len(views) + 1, rp, final, plan, layout))
    return Assembly(by_id, fields, metadata, graph, ranked, views)


def render_view_svg(assembly: Assembly, view: View) -> str:
    fragments = {
        spec.id: render_chart(spec, assembly.datasets, assembly.fields)
        for spec in view.specs
        if spec.id in view.layout.cells
    }
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

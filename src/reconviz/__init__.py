"""reconviz: linkage-aware visualization recommendation for heterogeneous
dataset collections.

Feed it a manifest of tables, trees, sequence sets, polygon collections,
networks, and annotated images; it discovers shared fields, ranks integration
paths, and emits coordinated multi-chart views as deterministic SVG plus
machine-readable specs.
"""

__version__ = "0.1.0"  # defined before the submodules, which read it

from .chartspec import (
    ChartSpec,
    ChartTemplate,
    EncodingSlot,
    assign_field_to_slot,
    generate_single_chart_specs,
    load_templates,
    prioritize_fields,
    slot_accepts,
)
from .combine import (
    CombinationPlan,
    ViabilityMatrix,
    bind_alignment,
    build_plan,
    select_lead_chart,
    which_color_align,
    which_spatially_align,
)
from .designspace import (
    PrevalenceDesignSpace,
    RelevanceTable,
    TypeEncodingMap,
    raw_relevance,
    relevance_from_space,
    scaled_relevance,
)
from .entitygraph import (
    EntityGraph,
    GraphPath,
    build_entity_graph,
    connected_components,
    enumerate_paths,
    jaccard,
    path_strength,
    render_entity_graph,
)
from .ingest import Dataset, Field, FieldMetadata, classify_field, explode_fields, load_dataset
from .layout import arrange_grid, render_view
from .charts import render_chart
from .pipeline import TOOL_VERSION, Assembly, View, assemble, render_view_svg
from .ranking import RankedPath, path_diversity, path_vis_relevance, rank_paths

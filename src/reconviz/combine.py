"""Decide spatial and color alignments between a path's charts and perform
gradual binding so members share orientations, axis domains, orderings, and
palettes.

A spatial group is the largest set of charts binding one linked field in a
positional slot whose chart types are pairwise marked supported in the
viability matrix and which contains at most one positionally immutable chart
(tree, geographic map, image). A chart that binds the linked field on both
positional channels has no single axis to share and never joins the group.
The immutable chart leads; its axis and ordering are pushed onto all support
charts, swapping x/y bindings where needed. Color groups share a categorical
palette keyed on the linked field.

`build_plan` makes every alignment decision (members, lead, axis, linkage
class, shared domain, palettes) and returns it as a frozen plan;
`bind_alignment` only applies that plan to the specs.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .chartspec import ChartSpec
from .entitygraph import NodeKey
from .errors import ConfigError, MultipleImmutable
from .ingest import Dataset, Field, extent, field_raw_values, numeric_values

IMMUTABLE_CHART_TYPES = frozenset({"phylogenetic tree", "geographic map", "image"})

SUPPORTED = "S"
POSSIBLE_UNSUPPORTED = "P"
NOT_POSSIBLE = "N"

# Fixed 12-color categorical cycle; assignment is by sorted category index.
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


class ViabilityMatrix:
    """Symmetric chart-type compatibility for spatial alignment."""

    def __init__(self, cells: dict[tuple[str, str], str]):
        self.cells = cells
        self.chart_types = sorted({a for a, _ in cells})
        for (a, b), value in sorted(cells.items()):
            if value not in (SUPPORTED, POSSIBLE_UNSUPPORTED, NOT_POSSIBLE):
                raise ConfigError(f"viability cell ({a}, {b}) has bad value {value!r}")
            if cells.get((b, a)) != value:
                raise ConfigError(f"viability matrix not symmetric at ({a}, {b})")
        for chart in self.chart_types:
            if cells[(chart, chart)] != SUPPORTED:
                raise ConfigError(f"viability diagonal for {chart!r} must be supported")

    def supported(self, a: str, b: str) -> bool:
        return self.cells.get((a, b)) == SUPPORTED

    @classmethod
    def from_csv(cls, path: str | Path) -> "ViabilityMatrix":
        rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8"))))
        rows = [row for row in rows if row]
        if not rows:
            raise ConfigError(f"viability matrix {path} is empty")
        header = [h.strip() for h in rows[0][1:]]
        cells: dict[tuple[str, str], str] = {}
        for row in rows[1:]:
            name = row[0].strip()
            if len(row) - 1 != len(header):
                raise ConfigError(f"viability matrix {path}: ragged row {name!r}")
            for col, value in zip(header, row[1:]):
                cells[(name, col)] = value.strip().upper()
        if sorted(header) != sorted({name for name, _ in cells}):
            raise ConfigError(f"viability matrix {path}: row/column mismatch")
        return cls(cells)


@dataclass(frozen=True)
class SpatialGroup:
    member_ids: list[str]
    lead_id: str
    shared_field: str  # qualified name of the lead's bound field
    axis: str  # "x" | "y": the lead's axis carrying the shared field
    domain: list | None = None  # categorical order, or [lo, hi] for numeric
    class_rep: NodeKey | None = None  # linkage-class key, not serialized
    numeric: bool = False  # domain is [lo, hi] rather than a category order; not serialized

    def to_dict(self) -> dict:
        return {
            "members": list(self.member_ids),
            "lead": self.lead_id,
            "shared_field": self.shared_field,
            "axis": self.axis,
            "domain": self.domain,
        }


@dataclass(frozen=True)
class ColorGroup:
    member_ids: list[str]
    shared_field: str
    palette: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "members": list(self.member_ids),
            "shared_field": self.shared_field,
            "palette": dict(sorted(self.palette.items())),
        }


@dataclass(frozen=True)
class CombinationPlan:
    spatial: SpatialGroup | None
    color_groups: list[ColorGroup]
    unaligned: list[str]
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "spatial_group": self.spatial.to_dict() if self.spatial else None,
            "color_groups": [g.to_dict() for g in self.color_groups],
            "unaligned": list(self.unaligned),
            "seed": self.seed,
        }


def build_palette(categories: list[str]) -> dict[str, str]:
    """Deterministic category -> color map over the sorted category set."""
    return {cat: PALETTE[i % len(PALETTE)] for i, cat in enumerate(sorted(set(categories)))}


class FieldIndex:
    """Resolves spec bindings to Field objects and linkage classes."""

    def __init__(self, fields: list[Field], classes: dict[NodeKey, NodeKey]):
        self.by_key = {(f.source_id, f.name): f for f in fields}
        self.classes = classes

    def field(self, source: str, name: str) -> Field | None:
        return self.by_key.get((source, name))

    def link_class(self, source: str, name: str) -> NodeKey:
        key = ("field", source, name)
        return self.classes.get(key, key)


def class_channels(spec: ChartSpec, index: FieldIndex) -> dict[NodeKey, list[str]]:
    """Linkage class -> the positional channels (x before y) binding it in `spec`."""
    out: dict[NodeKey, list[str]] = {}
    for channel, binding in sorted(spec.positional_bindings().items()):
        out.setdefault(index.link_class(binding.source, binding.field), []).append(channel)
    return out


def which_spatially_align(
    specs: list[ChartSpec],
    matrix: ViabilityMatrix,
    index: FieldIndex,
) -> tuple[NodeKey, dict[str, str]] | None:
    """Find the best spatially alignable subset.

    Returns (shared linkage class, {spec id -> positional channel}) or None.
    Candidates must bind a field of one linkage class on exactly one
    positional channel and be pairwise supported in the matrix, with at most
    one immutable chart.
    """
    candidates: dict[NodeKey, dict[str, str]] = {}
    for spec in specs:
        for rep, channels in class_channels(spec, index).items():
            if len(channels) == 1:
                candidates.setdefault(rep, {})[spec.id] = channels[0]

    by_id = {spec.id: spec for spec in specs}
    qualifying: list[tuple[int, float, tuple[str, ...], NodeKey, dict[str, str]]] = []
    for rep, slot_map in sorted(candidates.items()):
        ids = sorted(slot_map)
        if len(ids) < 2:
            continue
        for size in range(len(ids), 1, -1):
            for subset in combinations(ids, size):
                types = [by_id[sid].chart_type for sid in subset]
                if any(t not in matrix.chart_types for t in types):
                    continue
                if not all(matrix.supported(a, b) for a, b in combinations(types, 2)):
                    continue
                immutable = [t for t in types if t in IMMUTABLE_CHART_TYPES]
                if len(immutable) > 1:
                    continue
                total = sum(by_id[sid].relevance for sid in subset)
                qualifying.append(
                    (size, total, subset, rep, {sid: slot_map[sid] for sid in subset})
                )
    if not qualifying:
        return None
    qualifying.sort(key=lambda q: (-q[0], -q[1], q[2]))
    _, _, _, rep, slot_map = qualifying[0]
    return rep, slot_map


def select_lead_chart(group_specs: list[ChartSpec], rng: random.Random) -> str:
    """The unique immutable member, or a seeded-uniform pick."""
    if not group_specs:
        raise ValueError("empty spatial group")
    immutable = [s for s in group_specs if s.chart_type in IMMUTABLE_CHART_TYPES]
    if len(immutable) > 1:
        raise MultipleImmutable([s.id for s in immutable])
    if immutable:
        return immutable[0].id
    return rng.choice(sorted(s.id for s in group_specs))


def which_color_align(specs: list[ChartSpec], index: FieldIndex) -> list[ColorGroup]:
    """Group charts whose color channel binds the same linked field."""
    groups: dict[NodeKey, list[ChartSpec]] = {}
    for spec in specs:
        binding = spec.bindings.get("color")
        if binding is None:
            continue
        rep = index.link_class(binding.source, binding.field)
        groups.setdefault(rep, []).append(spec)

    out: list[ColorGroup] = []
    for rep, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        categories: set[str] = set()
        bound_names = []
        for spec in members:
            binding = spec.bindings["color"]
            bound_names.append(f"{binding.source}.{binding.field}")
            field = index.field(binding.source, binding.field)
            if field is not None and field.values is not None:
                categories.update(field.values)
        out.append(
            ColorGroup(
                member_ids=sorted(s.id for s in members),
                shared_field=min(bound_names),
                palette=build_palette(sorted(categories)),
            )
        )
    return out


def build_plan(
    specs: list[ChartSpec],
    matrix: ViabilityMatrix,
    index: FieldIndex,
    datasets: dict[str, Dataset],
    seed: int = 0,
) -> CombinationPlan:
    """Decide every alignment of one view's charts: the spatial group with its
    lead, axis, linkage class and shared domain, and the color groups."""
    rng = random.Random(seed)
    spatial = None
    found = which_spatially_align(specs, matrix, index)
    if found is not None:
        rep, slot_map = found
        members = [s for s in specs if s.id in slot_map]
        lead_id = select_lead_chart(members, rng)
        lead = next(s for s in members if s.id == lead_id)
        lead_binding = lead.bindings[slot_map[lead_id]]
        ordered = [lead_id] + [
            s.id for s in sorted(members, key=lambda s: (-s.relevance, s.id)) if s.id != lead_id
        ]
        fields = {s.id: index.field(*s.bindings[slot_map[s.id]].key()) for s in members}
        numeric = fields[lead_id] is not None and fields[lead_id].numeric
        spatial = SpatialGroup(
            member_ids=ordered,
            lead_id=lead_id,
            shared_field=f"{lead_binding.source}.{lead_binding.field}",
            axis=slot_map[lead_id],
            domain=_shared_domain(lead, fields, numeric, datasets),
            class_rep=rep,
            numeric=numeric,
        )
    color_groups = which_color_align(specs, index)
    in_spatial = set(spatial.member_ids) if spatial else set()
    unaligned = [s.id for s in specs if s.id not in in_spatial]
    return CombinationPlan(spatial, color_groups, unaligned, seed)


def _shared_domain(
    lead: ChartSpec,
    fields: dict[str, Field | None],
    numeric: bool,
    datasets: dict[str, Dataset],
) -> list:
    """One domain for the shared axis, given each member's shared field.
    Numeric: [lo, hi] over every member's numeric values. Otherwise the
    lead's order (tree leaf order, else its sorted categories), then the
    other members' remaining categories, sorted."""
    lead_field = fields[lead.id]
    present = [f for f in fields.values() if f is not None]
    if numeric:
        values = [v for f in present if f.numeric
                  for v in numeric_values(field_raw_values(f, datasets[f.source_id]))]
        return list(extent(values))
    if lead.chart_type == "phylogenetic tree":
        domain = [label.strip() for label in datasets[lead.dataset_id].payload.leaf_labels()]
    else:
        domain = sorted(lead_field.values) if lead_field is not None and lead_field.values else []
    seen = set(domain)
    return domain + sorted({v for f in present if f.values for v in f.values} - seen)


def bind_alignment(
    specs: list[ChartSpec],
    plan: CombinationPlan,
    index: FieldIndex,
) -> list[ChartSpec]:
    """Apply the plan: move each spatial member's shared field onto the
    group's axis, stamp the shared domain and palettes, and mark specs
    render-ready.

    Idempotent: rebinding already-bound specs yields identical output.
    """
    out = {spec.id: spec.copy() for spec in specs}

    group = plan.spatial
    if group is not None:
        other = "y" if group.axis == "x" else "x"
        stamped, dropped = ("axis_domain", "domain_order") if group.numeric else (
            "domain_order", "axis_domain")
        for sid in group.member_ids:
            spec = out[sid]
            if class_channels(spec, index).get(group.class_rep) == [other]:
                moved = spec.bindings.pop(other)
                if group.axis in spec.bindings:
                    spec.bindings[other] = spec.bindings.pop(group.axis)
                spec.bindings[group.axis] = moved
                spec.annotations["rotated"] = True
            spec.annotations["shared_axis"] = group.axis
            spec.annotations["shared_field"] = group.shared_field
            spec.annotations[stamped] = list(group.domain)
            spec.annotations.pop(dropped, None)

    for color_group in plan.color_groups:
        for sid in color_group.member_ids:
            if sid in out:
                out[sid].annotations["palette"] = dict(sorted(color_group.palette.items()))
                out[sid].annotations["palette_field"] = color_group.shared_field

    for spec in out.values():
        spec.annotations["render_ready"] = True
    return [out[spec.id] for spec in specs]

"""Decide spatial and color alignments between a path's charts and perform
gradual binding so members share orientations, axis domains, orderings, and
palettes.

A spatial group is the largest set of charts binding one linked field in a
positional slot whose chart types are pairwise marked supported in the
viability matrix and which contains at most one positionally immutable chart
(tree, geographic map, image). A chart that binds the linked field on both
positional channels has no single axis to share and never joins the group.
The immutable chart leads and sets the ordering. The group's axis is the
channel of its members that cannot swap x and y (immutable or single-slot
charts, and charts whose swapped fields would break a template slot; they
must agree), else the lead's; the other members swap x/y bindings where
needed. Color groups share a categorical palette keyed on the
linked field.

`build_plan` makes every alignment decision (members, lead, axis, each
member's shared-field binding, shared domain, palettes), looking fields and
linkage classes up in the entity graph, and returns the plan, which nothing
changes after; `bind_alignment` only applies that plan to the specs.
"""

from __future__ import annotations

import csv
import io
import random
from itertools import combinations
from pathlib import Path

from .chartspec import ChartSpec
from .entitygraph import EntityGraph, NodeKey
from .errors import ConfigError, MultipleImmutable, read_config_text
from .ingest import Dataset, Field, extent, present
from .record import Record

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
        reader = csv.reader(io.StringIO(read_config_text(path, "viability matrix")))
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:  # such as a cell past the csv module's field size limit
            raise ConfigError(f"viability matrix {path}: {exc}")
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
        try:
            return cls(cells)
        except ConfigError as exc:
            raise ConfigError(f"viability matrix {path}: {exc}")


class SpatialGroup(Record):
    __slots__ = ("member_ids", "lead_id",
                 "shared_field",  # qualified name of the lead's bound field
                 "axis",  # "x" | "y": the channel carrying the shared field in every member
                 "domain",  # categorical order, or [lo, hi] for numeric
                 "shared_bindings",  # member id -> its shared field's binding; not serialized
                 "numeric")  # whether the domain is [lo, hi]; not serialized

    def to_dict(self) -> dict:
        return {
            "members": list(self.member_ids),
            "lead": self.lead_id,
            "shared_field": self.shared_field,
            "axis": self.axis,
            "domain": self.domain,
        }


class ColorGroup(Record):
    __slots__ = ("member_ids", "shared_field", "palette")

    def to_dict(self) -> dict:
        return {
            "members": list(self.member_ids),
            "shared_field": self.shared_field,
            "palette": dict(sorted(self.palette.items())),
        }


class CombinationPlan(Record):
    __slots__ = ("spatial", "color_groups", "unaligned", "seed")  # spatial: a SpatialGroup or None

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


def class_channels(spec: ChartSpec, graph: EntityGraph) -> dict[NodeKey, list[str]]:
    """Linkage class -> the positional channels (x before y) binding it in `spec`."""
    out: dict[NodeKey, list[str]] = {}
    for channel, binding in sorted(spec.positional_bindings().items()):
        out.setdefault(graph.link_class(binding.source, binding.field), []).append(channel)
    return out


def which_spatially_align(
    specs: list[ChartSpec],
    matrix: ViabilityMatrix,
    graph: EntityGraph,
) -> dict[str, str] | None:
    """Find the best spatially alignable subset.

    Returns {spec id -> positional channel of the shared field} or None.
    Candidates must bind a field of one linkage class on exactly one
    positional channel and be pairwise supported in the matrix, with at most
    one immutable chart. Members that cannot swap x and y (see `_fixed`) must
    all sit on one channel.
    """
    candidates: dict[NodeKey, dict[str, str]] = {}
    for spec in specs:
        for rep, channels in class_channels(spec, graph).items():
            if len(channels) == 1:
                candidates.setdefault(rep, {})[spec.id] = channels[0]

    by_id = {spec.id: spec for spec in specs}
    qualifying: list[tuple[int, float, tuple[str, ...], dict[str, str]]] = []
    for rep, slot_map in sorted(candidates.items()):
        ids = sorted(slot_map)
        if len(ids) < 2:
            continue
        for size in range(len(ids), 1, -1):
            for subset in combinations(ids, size):
                types = [by_id[sid].chart_type for sid in subset]
                if not all(matrix.supported(a, b) for a, b in combinations(types, 2)):
                    continue
                immutable = [t for t in types if t in IMMUTABLE_CHART_TYPES]
                if len(immutable) > 1:
                    continue
                if len({slot_map[sid] for sid in subset if _fixed(by_id[sid])}) > 1:
                    continue
                total = sum(by_id[sid].relevance for sid in subset)
                qualifying.append(
                    (size, total, subset, {sid: slot_map[sid] for sid in subset})
                )
    if not qualifying:
        return None
    qualifying.sort(key=lambda q: (-q[0], -q[1], q[2]))
    return qualifying[0][3]


def _fixed(spec: ChartSpec) -> bool:
    """Whether a chart cannot swap x and y: it is positionally immutable, or
    not `swappable` (it binds one positional channel, as a histogram binds x
    alone, or a swapped field would break its new slot, as a line chart's y
    must stay numeric)."""
    return spec.chart_type in IMMUTABLE_CHART_TYPES or not spec.swappable


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


def which_color_align(specs: list[ChartSpec], graph: EntityGraph) -> list[ColorGroup]:
    """Group charts whose color channel binds the same linked field."""
    groups: dict[NodeKey, list[ChartSpec]] = {}
    for spec in specs:
        binding = spec.bindings.get("color")
        if binding is None:
            continue
        rep = graph.link_class(binding.source, binding.field)
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
            field = graph.field(binding.source, binding.field)
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
    graph: EntityGraph,
    datasets: dict[str, Dataset],
    seed: int = 0,
) -> CombinationPlan:
    """Decide every alignment of one view's charts: the spatial group with its
    lead, axis, members' shared-field bindings and shared domain, and the
    color groups."""
    rng = random.Random(seed)
    spatial = None
    slot_map = which_spatially_align(specs, matrix, graph)
    if slot_map is not None:
        members = [s for s in specs if s.id in slot_map]
        lead_id = select_lead_chart(members, rng)
        lead = next(s for s in members if s.id == lead_id)
        shared = {s.id: s.bindings[slot_map[s.id]] for s in members}
        ordered = [lead_id] + [
            s.id for s in sorted(members, key=lambda s: (-s.relevance, s.id)) if s.id != lead_id
        ]
        fields = {sid: graph.field(*binding.key()) for sid, binding in shared.items()}
        numeric = fields[lead_id] is not None and fields[lead_id].numeric
        fixed_axes = {slot_map[s.id] for s in members if _fixed(s)}
        spatial = SpatialGroup(
            member_ids=ordered,
            lead_id=lead_id,
            shared_field=f"{shared[lead_id].source}.{shared[lead_id].field}",
            axis=fixed_axes.pop() if fixed_axes else slot_map[lead_id],
            domain=_shared_domain(lead, fields, numeric, datasets),
            shared_bindings=shared,
            numeric=numeric,
        )
    color_groups = which_color_align(specs, graph)
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
    members = [f for f in fields.values() if f is not None]
    if numeric:
        return list(extent([v for f in members if f.numeric for v in present(f.column)]))
    if lead.chart_type == "phylogenetic tree":
        domain = [label.strip() for label in datasets[lead.dataset_id].payload.leaf_labels()]
    else:
        domain = sorted(lead_field.values) if lead_field is not None and lead_field.values else []
    seen = set(domain)
    return domain + sorted({v for f in members if f.values for v in f.values} - seen)


def bind_alignment(specs: list[ChartSpec], plan: CombinationPlan) -> list[ChartSpec]:
    """Apply the plan: swap x and y of each spatial member whose recorded
    shared-field binding sits on the other channel, stamp the shared domain
    and palettes, and mark specs render-ready. Returns copies; the inputs are
    left alone.

    Idempotent: after a swap the other channel holds a field of another
    linkage class, so rebinding already-bound specs yields identical output.
    """
    out = {
        spec.id: ChartSpec(spec.id, spec.chart_type, spec.dataset_id, spec.dtype, spec.relevance,
                           dict(spec.bindings), spec.required_channels, dict(spec.annotations),
                           spec.swappable)
        for spec in specs
    }

    group = plan.spatial
    if group is not None:
        other = "y" if group.axis == "x" else "x"
        stamped, dropped = ("axis_domain", "domain_order") if group.numeric else (
            "domain_order", "axis_domain")
        for sid in group.member_ids:
            spec = out[sid]
            if spec.bindings.get(other) == group.shared_bindings[sid]:
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

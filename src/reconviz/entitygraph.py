"""Entity graph: hub-and-spoke linkage structure over datasets and fields.

Dataset hubs connect to their field spokes; spokes of different datasets
connect via Jaccard-weighted linkage edges (non-numeric fields only). Paths
between hubs are the unit the ranking stage scores.

Jaccard weights are kept as exact Fractions internally so edge costs, path
strengths, and tie-breaks never depend on float rounding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySet
from .ingest import Field
from .jsonout import json_text
from .svg import SvgBuilder

DEFAULT_MIN_JACCARD = 0.0

HUB = "hub"
SPOKE = "field"

NodeKey = tuple  # ("hub", dataset_id) | ("field", source_id, field_name)


def jaccard(a: frozenset | set, b: frozenset | set) -> Fraction:
    """Set similarity |a∩b| / |a∪b| as an exact rational."""
    if not a or not b:
        raise EmptySet("jaccard is undefined for empty sets")
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return Fraction(inter, union)


def hub_key(dataset_id: str) -> NodeKey:
    return (HUB, dataset_id)


def spoke_key(field: Field) -> NodeKey:
    return (SPOKE, field.source_id, field.name)


@dataclass(frozen=True)
class LinkEdge:
    a: NodeKey
    b: NodeKey
    weight: Fraction

    def key(self) -> tuple[NodeKey, NodeKey]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class EntityGraph:
    """Fully built by `__init__` and never changed after; all accessors
    return sorted data."""

    def __init__(
        self,
        hubs: dict[str, str],
        fields: dict[NodeKey, Field],
        links: dict[tuple[NodeKey, NodeKey], Fraction],
    ):
        self.hubs = dict(sorted(hubs.items()))
        self.fields = dict(sorted(fields.items()))
        self.links = dict(sorted(links.items()))
        self._adjacency: dict[NodeKey, list[tuple[NodeKey, Fraction | None]]] = {}
        for ds_id in self.hubs:
            self._adjacency[hub_key(ds_id)] = []
        for key, field in self.fields.items():
            self._adjacency[key] = []
            hub = hub_key(field.source_id)
            self._adjacency[hub].append((key, None))
            self._adjacency[key].append((hub, None))
        for (a, b), weight in self.links.items():
            self._adjacency[a].append((b, weight))
            self._adjacency[b].append((a, weight))
        for key in self._adjacency:
            self._adjacency[key].sort(key=lambda item: item[0])

        # Union-find over linkage edges: spoke -> representative spoke. Two
        # fields in one class carry the same linked identity (e.g. a tree's
        # tip labels and a table's sample-id column).
        parent: dict[NodeKey, NodeKey] = {key: key for key in self.fields}

        def find(x: NodeKey) -> NodeKey:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.links:
            ra, rb = find(a), find(b)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
        self._link_classes = {key: find(key) for key in self.fields}

    # -- basic accessors ----------------------------------------------------

    def nodes(self) -> list[NodeKey]:
        return sorted(self._adjacency)

    def field_degree(self, field: Field) -> int:
        key = spoke_key(field)
        return len(self._adjacency[key]) if key in self._adjacency else 0

    def neighbors(self, node: NodeKey) -> list[tuple[NodeKey, Fraction | None]]:
        return self._adjacency[node]

    def spokes(self, dataset_id: str) -> list[Field]:
        """The fields of one dataset, by name; none for a dataset the graph
        does not know."""
        return [self.fields[key] for key, _ in self._adjacency.get(hub_key(dataset_id), ())]

    def field(self, source: str, name: str) -> Field | None:
        """The spoke `source.name`, or None when the graph has no such field."""
        return self.fields.get((SPOKE, source, name))

    def link_class(self, source: str, name: str) -> NodeKey:
        """Representative spoke of the linkage class of `source.name`; a field
        the graph does not know is its own class."""
        key = (SPOKE, source, name)
        return self._link_classes.get(key, key)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        nodes = [{"id": ds_id, "kind": "source", "dtype": dtype} for ds_id, dtype in self.hubs.items()]
        nodes += [
            {"id": f"{src}.{name}", "kind": "field"}
            for (_, src, name) in self.fields
        ]
        edges = [
            {"a": f.source_id, "b": f.qualified_name, "kind": "source-field"}
            for f in self.fields.values()
        ]
        edges += [
            {
                "a": f"{a[1]}.{a[2]}",
                "b": f"{b[1]}.{b[2]}",
                "kind": "field-field",
                "weight": float(w),
            }
            for (a, b), w in self.links.items()
        ]
        nodes.sort(key=lambda n: (n["kind"], n["id"]))
        edges.sort(key=lambda e: (e["kind"], e["a"], e["b"]))
        return json_text({"nodes": nodes, "edges": edges})


def build_entity_graph(
    fields: list[Field], min_jaccard: float = DEFAULT_MIN_JACCARD, dtypes: dict[str, str] | None = None
) -> EntityGraph:
    """One hub per dataset, one spoke per field, and a linkage edge for every
    cross-dataset non-numeric pair with J > min_jaccard. `dtypes` maps a
    dataset id to the data type recorded on its hub ("" when absent)."""
    dtypes = dtypes or {}
    hubs: dict[str, str] = {}
    spokes: dict[NodeKey, Field] = {}
    for field in fields:
        hubs.setdefault(field.source_id, dtypes.get(field.source_id, ""))
        spokes[spoke_key(field)] = field

    threshold = max(Fraction(0), Fraction(min_jaccard).limit_denominator(10**9))
    links: dict[tuple[NodeKey, NodeKey], Fraction] = {}
    keys = sorted(spokes)
    for i, ka in enumerate(keys):
        fa = spokes[ka]
        if fa.numeric:
            continue
        for kb in keys[i + 1 :]:
            fb = spokes[kb]
            if fb.numeric or fa.source_id == fb.source_id or fa.values.isdisjoint(fb.values):
                continue  # disjoint values give J = 0, which no threshold >= 0 passes
            weight = jaccard(fa.values, fb.values)
            if weight > threshold:
                links[(ka, kb)] = weight
    return EntityGraph(hubs, spokes, links)


@dataclass(frozen=True)
class GraphPath:
    nodes: tuple[NodeKey, ...]
    hubs: tuple[str, ...]  # dataset ids, in path order
    link_edges: tuple[LinkEdge, ...]
    component_id: int

    def identity(self) -> tuple:
        return (frozenset(self.hubs), frozenset(e.key() for e in self.link_edges))

    def describe(self) -> dict:
        return {
            "hubs": list(self.hubs),
            "edges": [
                {
                    "a": f"{e.a[1]}.{e.a[2]}",
                    "b": f"{e.b[1]}.{e.b[2]}",
                    "weight": float(e.weight),
                }
                for e in self.link_edges
            ],
            "component": self.component_id,
        }


def connected_components(graph: EntityGraph) -> list[EntityGraph]:
    """Partition by connectivity; ordered by descending hub count, then by
    smallest dataset id."""
    seen: set[NodeKey] = set()
    raw_components: list[list[NodeKey]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        stack = [start]
        members: list[NodeKey] = []
        seen.add(start)
        while stack:
            node = stack.pop()
            members.append(node)
            for neighbor, _ in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        raw_components.append(members)

    components: list[EntityGraph] = []
    for members in raw_components:
        member_set = set(members)
        hubs = {ds: dtype for ds, dtype in graph.hubs.items() if hub_key(ds) in member_set}
        fields = {key: f for key, f in graph.fields.items() if key in member_set}
        links = {
            (a, b): w for (a, b), w in graph.links.items() if a in member_set and b in member_set
        }
        components.append(EntityGraph(hubs, fields, links))
    components.sort(key=lambda c: (-len(c.hubs), min(c.hubs) if c.hubs else ""))
    return components


def _path_from_sequence(component: EntityGraph, seq: tuple[NodeKey, ...], component_id: int) -> GraphPath:
    hubs = tuple(node[1] for node in seq if node[0] == HUB)
    edges = []
    for a, b in zip(seq, seq[1:]):
        if a[0] == SPOKE and b[0] == SPOKE:
            key = (a, b) if a <= b else (b, a)
            edges.append(LinkEdge(a, b, component.links[key]))
    return GraphPath(seq, hubs, tuple(edges), component_id)


def enumerate_paths(component: EntityGraph, component_id: int = 0) -> list[GraphPath]:
    """One singleton path per hub plus the cheapest path per reachable hub
    pair, in source-then-target order.

    A pair's path is the cheapest simple node sequence between its hubs.
    Cost: 1 - J on linkage edges, 0 on source-field edges. Ties prefer fewer
    hubs, then the lexicographically smallest hub-id sequence, then the
    smallest node sequence. Costs are scaled by D, the lcm of the component's
    weight denominators: each step is an exact integer D·(1 - J), and a
    positive scale keeps both order and ties.

    No path repeats another's (hub set, link-edge set): a pair path's link
    edges chain its spokes, and each chain ends in spokes that join their own
    hubs, so the edge set fixes the node sequence and both end hubs, and the
    search emits one path per hub pair.
    """
    hub_ids = sorted(component.hubs)
    paths: list[GraphPath] = [
        GraphPath((hub_key(ds),), (ds,), (), component_id) for ds in hub_ids
    ]
    scale = math.lcm(*(w.denominator for w in component.links.values()))
    steps = {
        node: [
            (
                neighbor,
                0 if weight is None else scale - scale // weight.denominator * weight.numerator,
                neighbor[1] if neighbor[0] == HUB else None,
            )
            for neighbor, weight in component.neighbors(node)
        ]
        for node in component.nodes()
    }
    for i, source in enumerate(hub_ids):
        targets = [hub_key(target) for target in hub_ids[i + 1 :]]
        found = _first_pops(steps, source, targets)
        paths += [_path_from_sequence(component, found[target], component_id)
                  for target in targets if target in found]
    return paths


def _first_pops(
    steps: dict[NodeKey, list[tuple[NodeKey, int, str | None]]],
    source: str,
    targets: list[NodeKey],
) -> dict[NodeKey, tuple[NodeKey, ...]]:
    """Dijkstra from hub `source` over (neighbor, integer step, hub id or
    None) adjacency until every reachable target is settled; returns each
    target's node sequence when it is first popped. Until a target pops, a
    search for that target alone pops the same states in the same order, so
    this is the sequence such a search would return."""
    remaining = set(targets)
    found: dict[NodeKey, tuple[NodeKey, ...]] = {}
    settled: set[NodeKey] = set()
    queue: list[tuple] = [(0, 1, (source,), (hub_key(source),))]
    while queue and remaining:
        cost, _, hub_seq, seq = heapq.heappop(queue)
        node = seq[-1]
        if node in settled:
            continue
        settled.add(node)
        if node in remaining:
            remaining.discard(node)
            found[node] = seq
        # Every node of a popped sequence is settled, so `settled` also keeps
        # the sequence simple.
        for neighbor, step, hub in steps[node]:
            if neighbor in settled:
                continue
            next_hubs = hub_seq if hub is None else hub_seq + (hub,)
            heapq.heappush(queue, (cost + step, len(next_hubs), next_hubs, seq + (neighbor,)))
    return found


def path_strength(path: GraphPath) -> Fraction:
    """Mean Jaccard weight over the path's linkage edges; 0 for singletons."""
    if not path.link_edges:
        return Fraction(0)
    return sum((e.weight for e in path.link_edges), Fraction(0)) / len(path.link_edges)


# ---------------------------------------------------------------------------
# Graph drawing
# ---------------------------------------------------------------------------

def render_entity_graph(graph: EntityGraph) -> str:
    """Hub-and-spoke drawing: square hubs, circular field spokes; linkage
    edges thick solid when exact (J=1), dashed when inexact."""
    hub_ids = sorted(graph.hubs)
    if not hub_ids:
        svg = SvgBuilder(240, 160)
        svg.rect(0, 0, 240, 160, fill="#ffffff", stroke="#cccccc")
        svg.text(120, 84, "empty entity graph", font_size=11, fill="#888888",
                 text_anchor="middle", font_family="sans-serif")
        return svg.render()

    n = len(hub_ids)
    hub_radius = 90 + 44 * n
    size = 2 * (hub_radius + 150)
    center = size / 2
    positions: dict[NodeKey, tuple[float, float]] = {}
    for i, ds_id in enumerate(hub_ids):
        angle = 2 * math.pi * i / n - math.pi / 2 if n > 1 else 0.0
        r = hub_radius if n > 1 else 0.0
        positions[hub_key(ds_id)] = (center + r * math.cos(angle), center + r * math.sin(angle))

    for i, ds_id in enumerate(hub_ids):
        keys = [spoke_key(field) for field in graph.spokes(ds_id)]
        if not keys:
            continue
        hx, hy = positions[hub_key(ds_id)]
        outward = 2 * math.pi * i / n - math.pi / 2 if n > 1 else -math.pi / 2
        spread = math.pi * 0.9
        for j, key in enumerate(keys):
            frac = 0.5 if len(keys) == 1 else j / (len(keys) - 1)
            angle = outward - spread / 2 + spread * frac
            positions[key] = (hx + 84 * math.cos(angle), hy + 84 * math.sin(angle))

    svg = SvgBuilder(size, size)
    svg.rect(0, 0, size, size, fill="#ffffff")

    spoke = svg.attrs(stroke="#b0b0b0", stroke_width=1, class_="source-edge")
    svg.lines([(*positions[hub_key(field.source_id)], *positions[key], spoke)
               for key, field in graph.fields.items()])
    exact = svg.attrs(stroke="#2b2b2b", stroke_width=3, class_="link-exact")
    inexact = svg.attrs(stroke="#2b2b2b", stroke_width=1.5, stroke_dasharray="6 4",
                        class_="link-inexact")
    svg.lines([(*positions[a], *positions[b], exact if weight == 1 else inexact)
               for (a, b), weight in graph.links.items()])

    for ds_id in hub_ids:
        x, y = positions[hub_key(ds_id)]
        svg.rect(x - 9, y - 9, 18, 18, fill="#f4f4f4", stroke="#333333", stroke_width=1.5,
                 **{"class": "hub"})
        svg.text(x, y - 14, ds_id, font_size=11, fill="#222222",
                 text_anchor="middle", font_family="sans-serif")
    for key, field in graph.fields.items():
        x, y = positions[key]
        svg.circle(x, y, 5, fill="#ffffff", stroke="#555555", stroke_width=1, **{"class": "spoke"})
        svg.text(x, y + 16, field.name, font_size=8, fill="#555555",
                 text_anchor="middle", font_family="sans-serif")
    return svg.render()

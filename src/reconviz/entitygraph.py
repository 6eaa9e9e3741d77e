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
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import EmptySet
from .ingest import Field
from .jsonout import json_text
from .record import Record
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


def _classes(keys, neighbors) -> dict[NodeKey, NodeKey]:
    """Each of `keys`, and each node `neighbors(node)` reaches from it -> the
    first key of its class in `keys` order; one depth-first search per class."""
    first: dict[NodeKey, NodeKey] = {}
    for start in keys:
        if start not in first:
            first[start] = start
            stack = [start]
            while stack:
                for neighbor in neighbors(stack.pop()):
                    if neighbor not in first:
                        first[neighbor] = start
                        stack.append(neighbor)
    return first


class LinkEdge(Record):
    __slots__ = ("a", "b", "weight")


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

        # Link classes: spoke -> smallest spoke joined to it by linkage edges.
        # Two fields in one class carry the same linked identity (e.g. a
        # tree's tip labels and a table's sample-id column).
        self._link_classes = _classes(self.fields, lambda key: [
            neighbor for neighbor, weight in self._adjacency[key] if weight is not None])

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

    threshold = max(Fraction(0), Fraction(str(min_jaccard)))
    # Value index: bit i of a value's mask stands for keys[i], a non-numeric
    # spoke that holds the value. OR-ing the masks of a spoke's values gives
    # exactly the spokes that share a value with it; every other pair has
    # J = 0, which no threshold >= 0 passes.
    keys = [key for key in sorted(spokes) if not spokes[key].numeric]
    holders: dict[object, int] = {}
    for bit, key in enumerate(keys):
        flag = 1 << bit
        for value in spokes[key].values:
            holders[value] = holders.get(value, 0) | flag

    links: dict[tuple[NodeKey, NodeKey], Fraction] = {}
    end = 0
    for i, ka in enumerate(keys):
        if i == end:
            # Sorted keys put a dataset's spokes next to each other: `end` is
            # the first bit past ka's dataset.
            end = i + 1
            while end < len(keys) and keys[end][1] == ka[1]:
                end += 1
        values = spokes[ka].values
        # Shifting by `end` drops ka's own dataset and every earlier spoke.
        shared = reduce(or_, map(holders.__getitem__, values), 0) >> end
        while shared:
            low = shared & -shared
            shared ^= low
            kb = keys[end + low.bit_length() - 1]
            weight = jaccard(values, spokes[kb].values)
            if weight > threshold:
                links[(ka, kb)] = weight
    return EntityGraph(hubs, spokes, links)


class GraphPath(Record):
    __slots__ = ("nodes", "hubs", "link_edges", "component_id")  # hubs: dataset ids, in path order

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
    # Label every node with its component, then deal the graph's hubs,
    # fields and links out to their components in one pass each.
    component_of = _classes(graph.nodes(), lambda node: [n for n, _ in graph.neighbors(node)])
    parts: dict[NodeKey, tuple[dict, dict, dict]] = {}  # (hubs, fields, links) per component
    for ds, dtype in graph.hubs.items():
        parts.setdefault(component_of[hub_key(ds)], ({}, {}, {}))[0][ds] = dtype
    for key, f in graph.fields.items():
        parts[component_of[key]][1][key] = f
    for (a, b), w in graph.links.items():
        parts[component_of[a]][2][(a, b)] = w
    components = [EntityGraph(hubs, fields, links) for hubs, fields, links in parts.values()]
    components.sort(key=lambda c: (-len(c.hubs), min(c.hubs)))
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

    The search labels both sequences with byte strings: each node's number in
    sorted key order (so hubs fall in id order) as a fixed-width big-endian
    code. Labels compare like the sequences, as a proper prefix sorts first.

    No path repeats another's (hub set, link-edge set): a pair path's link
    edges chain its spokes, and each chain ends in spokes that join their own
    hubs, so the edge set fixes the node sequence and both end hubs, and the
    search emits one path per hub pair.
    """
    hub_ids = sorted(component.hubs)
    paths: list[GraphPath] = [
        GraphPath((hub_key(ds),), (ds,), (), component_id) for ds in hub_ids
    ]
    nodes = component.nodes()
    number = {node: i for i, node in enumerate(nodes)}
    width = max(1, ((len(nodes) - 1).bit_length() + 7) // 8)
    codes = [i.to_bytes(width, "big") for i in range(len(nodes))]
    scale = math.lcm(*(w.denominator for w in component.links.values()))
    steps = [
        [
            (
                number[neighbor],
                codes[number[neighbor]],
                0 if weight is None else scale - scale // weight.denominator * weight.numerator,
                codes[number[neighbor]] if neighbor[0] == HUB else b"",
            )
            for neighbor, weight in component.neighbors(node)
        ]
        for node in nodes
    ]
    for i, source in enumerate(hub_ids):
        start = number[hub_key(source)]
        targets = [number[hub_key(target)] for target in hub_ids[i + 1 :]]
        found = _first_pops(steps, start, codes[start], targets)
        for target in targets:
            if target in found:
                seq = found[target]
                path = tuple(nodes[int.from_bytes(seq[at : at + width], "big")]
                             for at in range(0, len(seq), width))
                paths.append(_path_from_sequence(component, path, component_id))
    return paths


def _first_pops(
    steps: list[list[tuple[int, bytes, int, bytes]]],
    source: int,
    source_code: bytes,
    targets: list[int],
) -> dict[int, bytes]:
    """Dijkstra from hub `source` (code `source_code`) over (neighbor, its code,
    integer step, its code if a hub else b"") adjacency until every reachable
    target is settled; returns each target's node label when it is first
    popped. Until a target pops, a search for that target alone pops the same
    states in the same order, so this is the label such a search would return.
    No node label is pushed twice, so an entry's trailing node breaks no tie."""
    remaining = set(targets)
    found: dict[int, bytes] = {}
    settled = [False] * len(steps)
    queue = [(0, len(source_code), source_code, source_code, source)]
    while queue and remaining:
        cost, _, hub_seq, seq, node = heapq.heappop(queue)
        if settled[node]:
            continue
        settled[node] = True
        if node in remaining:
            remaining.discard(node)
            found[node] = seq
        # Every node of a popped sequence is settled, so `settled` also keeps
        # the sequence simple.
        for neighbor, code, step, hub in steps[node]:
            if settled[neighbor]:
                continue
            next_hubs = hub_seq + hub
            heapq.heappush(queue, (cost + step, len(next_hubs), next_hubs, seq + code, neighbor))
    return found


def path_strength(path: GraphPath) -> Fraction:
    """Mean Jaccard weight over the path's linkage edges; 0 for singletons.
    One exact division, over D·k with D the lcm of the weights' denominators."""
    if not path.link_edges:
        return Fraction(0)
    weights = [e.weight for e in path.link_edges]
    common = math.lcm(*(w.denominator for w in weights))
    return Fraction(sum(w.numerator * (common // w.denominator) for w in weights),
                    common * len(weights))


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

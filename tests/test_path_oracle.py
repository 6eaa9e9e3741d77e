"""`entitygraph.enumerate_paths` against a frozen reference, the search it
replaced, which labels heap entries with tuples of node keys and hub ids:
both must return the same paths, on small random graphs and on components of
256 and 257 nodes, where the byte code of a node grows from one byte to two,
and of 600, where routes that tie on cost differ in two-byte codes."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from reconviz.entitygraph import (
    HUB,
    EntityGraph,
    GraphPath,
    _path_from_sequence,
    connected_components,
    enumerate_paths,
    hub_key,
)

from test_entitygraph import field, linked_graphs


def reference_enumerate_paths(component: EntityGraph, component_id: int = 0) -> list[GraphPath]:
    """The tuple-label `enumerate_paths` it replaced, kept as it was."""
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
        found = reference_first_pops(steps, source, targets)
        paths += [_path_from_sequence(component, found[target], component_id)
                  for target in targets if target in found]
    return paths


def reference_first_pops(steps, source, targets):
    """The tuple-label `_first_pops` it replaced, kept as it was."""
    remaining = set(targets)
    found = {}
    settled = set()
    queue = [(0, 1, (source,), (hub_key(source),))]
    while queue and remaining:
        cost, _, hub_seq, seq = heapq.heappop(queue)
        node = seq[-1]
        if node in settled:
            continue
        settled.add(node)
        if node in remaining:
            remaining.discard(node)
            found[node] = seq
        for neighbor, step, hub in steps[node]:
            if neighbor in settled:
                continue
            next_hubs = hub_seq if hub is None else hub_seq + (hub,)
            heapq.heappush(queue, (cost + step, len(next_hubs), next_hubs, seq + (neighbor,)))
    return found


@settings(max_examples=300, deadline=None)
@given(linked_graphs())
def test_byte_labels_match_tuple_labels(graph):
    assert enumerate_paths(graph, 3) == reference_enumerate_paths(graph, 3)
    for component_id, component in enumerate(connected_components(graph)):
        assert enumerate_paths(component, component_id) == reference_enumerate_paths(
            component, component_id)


def wide_component(node_count: int) -> EntityGraph:
    """Hubs `a`, `big` and `c`; `big` holds the fields that fill the
    component to `node_count` nodes. Each of `a`'s three fields links to
    every third field of `big`, and `c`'s to a different third, with weights
    that repeat, so cost ties between routes through `big` are common."""
    big = node_count - 3 - 6
    fields = {}
    for ds in ("a", "c"):
        for j in range(3):
            fields[("field", ds, f"k{j}")] = field(f"k{j}", ds, {"v"})
    for j in range(big):
        fields[("field", "big", f"f{j:03d}")] = field(f"f{j:03d}", "big", {"v"})
    weights = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), Fraction(1, 4)]
    links = {}
    for j in range(big):
        spoke = ("field", "big", f"f{j:03d}")
        links[(("field", "a", f"k{j % 3}"), spoke)] = weights[j % 5]
        links[(spoke, ("field", "c", f"k{(j // 3) % 3}"))] = weights[(j * 7) % 5]
    return EntityGraph({"a": "", "big": "", "c": ""}, fields, links)


@pytest.mark.parametrize("node_count", [256, 257, 600])
def test_byte_labels_match_tuple_labels_across_the_code_width(node_count):
    component = wide_component(node_count)
    assert len(component.nodes()) == node_count
    assert connected_components(component)[0].nodes() == component.nodes()
    paths = enumerate_paths(component, 0)
    assert len(paths) == 6
    assert paths == reference_enumerate_paths(component, 0)

import heapq
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reconviz.entitygraph import (
    HUB,
    EntityGraph,
    GraphPath,
    _path_from_sequence,
    build_entity_graph,
    connected_components,
    enumerate_paths,
    hub_key,
    jaccard,
    path_strength,
    render_entity_graph,
)
from reconviz.errors import EmptySet
from reconviz.ingest import Field, load_dataset, explode_fields


def field(name, source, values=None, numeric=False, rows=None):
    if numeric:
        return Field(name, source, "numeric", None, None, rows or 10)
    vals = frozenset(values)
    return Field(name, source, "non-numeric", len(vals), vals, rows or len(vals))


def two_linked(j_values_a, j_values_b, extra=()):
    fields = [field("k", "d1", j_values_a), field("k", "d2", j_values_b), *extra]
    return build_entity_graph(fields)


class TestJaccard:
    def test_identity(self):
        assert jaccard({"x", "y", "z"}, {"x", "y", "z"}) == 1

    def test_disjoint(self):
        assert jaccard({"x", "y"}, {"p", "q"}) == 0

    def test_brute_force_value(self):
        a, b = {"a", "b", "c", "d"}, {"c", "d", "e"}
        inter = sum(1 for v in a if v in b)
        union = len(set(list(a) + list(b)))
        assert jaccard(a, b) == Fraction(inter, union) == Fraction(2, 5)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            jaccard(set(), {"a"})

    @given(st.sets(st.integers(0, 50), min_size=1), st.sets(st.integers(0, 50), min_size=1))
    def test_symmetric_and_bounded(self, a, b):
        j = jaccard(a, b)
        assert j == jaccard(b, a)
        assert 0 <= j <= 1
        assert jaccard(a, a) == 1


class TestBuildGraph:
    def test_single_dataset_cannot_link(self):
        fields = [field(n, "d1", {f"{n}{i}" for i in range(3)}) for n in ("a", "b", "c")]
        graph = build_entity_graph(fields)
        assert len(graph.nodes()) == 4
        assert len(graph.fields) == 3
        assert len(graph.links) == 0

    def test_numeric_fields_never_link(self):
        fields = [field("v", "d1", numeric=True), field("v", "d2", numeric=True)]
        graph = build_entity_graph(fields)
        assert len(graph.links) == 0

    def test_fig1_scenario(self, fig1_dir, fig1_manifest):
        datasets = [
            load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in fig1_manifest
        ]
        fields, _ = explode_fields(datasets)
        graph = build_entity_graph(fields)
        weights = sorted(graph.links.values())
        assert weights == [Fraction(3, 5), Fraction(1)]
        components = connected_components(graph)
        assert len(components) == 1
        assert sorted(components[0].hubs) == ["cases", "phylo", "regions"]

    def test_min_jaccard_threshold(self):
        graph = two_linked({"a", "b", "c"}, {"a", "b", "x"})  # J = 1/2
        assert len(graph.links) == 1
        fields = list(graph.fields.values())
        assert len(build_entity_graph(fields, min_jaccard=0.5).links) == 0
        assert len(build_entity_graph(fields, min_jaccard=0.49).links) == 1

    def test_permutation_invariant(self, synthetic_dir):
        from conftest import synthetic_manifest

        datasets = [
            load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in synthetic_manifest(synthetic_dir)
        ]
        fields, _ = explode_fields(datasets)
        base = build_entity_graph(fields).to_json()
        rng = random.Random(7)
        for _ in range(3):
            shuffled = list(fields)
            rng.shuffle(shuffled)
            assert build_entity_graph(shuffled).to_json() == base

    def test_messy_data_only_degrades(self):
        exact = build_entity_graph(
            [
                field("id", "d1", {"a", "b", "c", "d", "e"}),
                field("id", "d2", {"a", "b", "c", "d", "e"}),
                field("id", "d3", {"a", "b", "c", "d", "e"}),
            ]
        )
        messy = build_entity_graph(
            [
                field("id", "d1", {"a", "b", "c", "d", "e"}),
                field("id", "d2", {"a", "b", "c", "d", "x"}),  # J drops to 2/3
                field("id", "d3", {"a", "b", "c", "d", "e"}),
            ]
        )
        exact_paths = {path_identity(p)[0] for p in enumerate_paths(connected_components(exact)[0])}
        messy_paths = {path_identity(p)[0] for p in enumerate_paths(connected_components(messy)[0])}
        assert exact_paths == messy_paths  # no path disappears
        strength = {
            frozenset(p.hubs): path_strength(p)
            for p in enumerate_paths(connected_components(messy)[0])
        }
        assert strength[frozenset({"d1", "d2"})] < 1
        assert strength[frozenset({"d1", "d3"})] == 1


def all_pairs_links(fields, min_jaccard=0.0):
    """Reference linkage: an exact Jaccard for every cross-dataset pair of
    non-numeric fields, kept when J > min_jaccard, in sorted key order."""
    spokes = {("field", f.source_id, f.name): f for f in fields}
    threshold = max(Fraction(0), Fraction(str(min_jaccard)))
    links = {}
    keys = sorted(spokes)
    for i, ka in enumerate(keys):
        fa = spokes[ka]
        if fa.numeric:
            continue
        for kb in keys[i + 1 :]:
            fb = spokes[kb]
            if fb.numeric or fa.source_id == fb.source_id:
                continue
            weight = jaccard(fa.values, fb.values)
            if weight > threshold:
                links[(ka, kb)] = weight
    return links


@st.composite
def field_collections(draw):
    """Datasets with 1-4 fields each. Either 1-5 datasets draw their value
    sets from one small pool, so disjoint, overlapping, nested and equal sets
    all occur; or 1-12 datasets draw mostly from pools of their own, which
    share only two values, so most cross-dataset pairs share nothing. A
    derived field copies or narrows an earlier one (equal and nested sets on
    purpose), and some fields are numeric. Several fields of one dataset may
    share values. Sometimes one value is held by every non-numeric field, so
    every cross-dataset pair of them shares a value."""
    own_pools = draw(st.booleans())
    everywhere = {"all"} if draw(st.booleans()) else set()
    shared = [f"v{i}" for i in range(12)]
    fields = []
    for d in range(draw(st.integers(1, 12 if own_pools else 5))):
        pool = [f"d{d}v{i}" for i in range(6)] + shared[:2] if own_pools else shared
        for j in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["values", "values", "derived", "numeric"]))
            if kind == "numeric":
                fields.append(field(f"f{j}", f"d{d}", numeric=True))
                continue
            earlier = [f.values for f in fields if not f.numeric]
            if kind == "derived" and earlier:
                base = draw(st.sampled_from(earlier))
                values = draw(st.sets(st.sampled_from(sorted(base)), min_size=1))
            else:
                values = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=8))
            fields.append(field(f"f{j}", f"d{d}", values | everywhere))
    return draw(st.permutations(fields))


class TestLinkageOracle:
    @settings(max_examples=300, deadline=None)
    @given(field_collections(), st.sampled_from([0.0, 0.5, 1.0, 0.9999999999, 0.49999999999]))
    def test_matches_all_pairs(self, fields, min_jaccard):
        got = build_entity_graph(fields, min_jaccard).links
        oracle = all_pairs_links(fields, min_jaccard)
        assert list(got.items()) == list(oracle.items())
        assert all(type(w) is Fraction for w in got.values())

    def test_disjoint_nested_and_equal_sets(self):
        fields = [
            field("k", "a", {"1", "2", "3", "4"}),
            field("k", "b", {"1", "2"}),  # nested in a.k: J = 1/2
            field("k", "c", {"1", "2", "3", "4"}),  # equal to a.k: J = 1
            field("k", "d", {"x", "y"}),  # disjoint from all
            field("v", "a", numeric=True),
        ]
        for min_jaccard in (0.0, 0.5, 1.0):
            assert build_entity_graph(fields, min_jaccard).links == all_pairs_links(
                fields, min_jaccard)
        links = build_entity_graph(fields).links
        assert links[(("field", "a", "k"), ("field", "b", "k"))] == Fraction(1, 2)
        assert links[(("field", "a", "k"), ("field", "c", "k"))] == 1
        assert not any("d" in (ka[1], kb[1]) for ka, kb in links)

    def test_min_jaccard_is_compared_as_the_decimal_given(self):
        """A threshold just below 1 or 1/2 keeps the links of J = 1 or 1/2:
        rounding it to a fraction of small denominator first made it 1 or
        1/2, and J > threshold then dropped them."""
        fields = [field("k", "a", {"1", "2"}), field("k", "b", {"1", "2"}),
                  field("k", "c", {"1"})]
        a, b, c = (("field", source, "k") for source in "abc")
        assert build_entity_graph(fields, 0.9999999999).links == {(a, b): 1}
        assert build_entity_graph(fields, 0.49999999999).links == {
            (a, b): 1, (a, c): Fraction(1, 2), (b, c): Fraction(1, 2)}
        assert build_entity_graph(fields, 0.5).links == {(a, b): 1}


class TestComponents:
    def test_empty_graph(self):
        assert connected_components(build_entity_graph([])) == []

    def test_union_find_oracle(self):
        fields = [
            field("id", "a", {"1", "2"}),
            field("id", "b", {"1", "2"}),
            field("id", "c", {"2", "3"}),
            field("other", "d", {"zzz"}),
        ]
        graph = build_entity_graph(fields)

        # independent union-find over dataset ids
        parent = {ds: ds for ds in "abcd"}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for (ka, kb) in graph.links:
            ra, rb = find(ka[1]), find(kb[1])
            if ra != rb:
                parent[rb] = ra
        oracle_sizes = sorted(
            [sum(1 for d in "abcd" if find(d) == r) for r in "abcd" if find(r) == r],
            reverse=True,
        )

        components = connected_components(graph)
        assert [len(c.hubs) for c in components] == oracle_sizes == [3, 1]

    def test_fully_linked(self):
        fields = [field("id", f"d{i}", {"x", "y"}) for i in range(4)]
        assert len(connected_components(build_entity_graph(fields))) == 1

    def test_ordering_by_hub_count_then_id(self):
        fields = [
            field("id", "z1", {"q"}),
            field("id", "m1", {"w", "v"}),
            field("id", "m2", {"w", "v"}),
        ]
        components = connected_components(build_entity_graph(fields))
        assert [sorted(c.hubs) for c in components] == [["m1", "m2"], ["z1"]]


def brute_force_min_cost(graph, source, target):
    """Exhaustive simple-path search; returns the minimum cost or None."""
    start, goal = hub_key(source), hub_key(target)
    best = [None]

    def walk(node, visited, cost):
        if node == goal:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for neighbor, weight in graph.neighbors(node):
            if neighbor in visited:
                continue
            step = Fraction(0) if weight is None else Fraction(1) - weight
            walk(neighbor, visited | {neighbor}, cost + step)

    walk(start, {start}, Fraction(0))
    return best[0]


def dijkstra_pair(component, source, target):
    """Reference: one search per hub pair on Fraction costs, stopped when the
    target pops. Cost: 1 - J on linkage edges, 0 on source-field edges. Ties
    prefer fewer hubs, then the smallest hub-id sequence, then the smallest
    node sequence."""
    start = hub_key(source)
    goal = hub_key(target)
    settled = set()
    queue = [(Fraction(0), 1, (source,), (start,))]
    while queue:
        cost, hub_count, hub_seq, seq = heapq.heappop(queue)
        node = seq[-1]
        if node == goal:
            return seq
        if node in settled:
            continue
        settled.add(node)
        for neighbor, weight in component.neighbors(node):
            if neighbor in settled or neighbor in seq:
                continue
            step = Fraction(0) if weight is None else Fraction(1) - weight
            next_hubs = hub_seq + (neighbor[1],) if neighbor[0] == HUB else hub_seq
            heapq.heappush(queue, (cost + step, len(next_hubs), next_hubs, seq + (neighbor,)))
    return None


def edge_key(edge):
    """The (smaller, larger) node pair of a link edge, as `EntityGraph.links`
    keys it."""
    return (edge.a, edge.b) if edge.a <= edge.b else (edge.b, edge.a)


def path_identity(path):
    """A path's hub set and link-edge set; no two enumerated paths share it."""
    return (frozenset(path.hubs), frozenset(edge_key(e) for e in path.link_edges))


def per_pair_paths(component, component_id=0):
    """Reference enumeration: singletons, then one `dijkstra_pair` per hub pair
    (sources ascending, then targets ascending), deduplicated by identity."""
    hub_ids = sorted(component.hubs)
    paths = [GraphPath((hub_key(ds),), (ds,), (), component_id) for ds in hub_ids]
    seen = {path_identity(p) for p in paths}
    for i, source in enumerate(hub_ids):
        for target in hub_ids[i + 1 :]:
            seq = dijkstra_pair(component, source, target)
            if seq is None:
                continue
            path = _path_from_sequence(component, seq, component_id)
            if path_identity(path) not in seen:
                seen.add(path_identity(path))
                paths.append(path)
    return paths


# Half of all weights are J = 1 (zero-cost links) so that cost ties are common.
WEIGHTS = st.one_of(
    st.just(Fraction(1)),
    st.integers(1, 6).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
)


@st.composite
def linked_graphs(draw):
    """1-8 hubs with 0-3 fields each and random cross-hub links; hubs without
    fields or links cannot reach the others."""
    hubs = {f"d{i}": "" for i in range(draw(st.integers(1, 8)))}
    fields = {}
    for ds in hubs:
        for j in range(draw(st.integers(0, 3))):
            fields[("field", ds, f"f{j}")] = field(f"f{j}", ds, {"v"})
    keys = sorted(fields)
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :] if a[1] != b[1]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    return EntityGraph(hubs, fields, {pair: draw(WEIGHTS) for pair in chosen})


class TestEnumeratePaths:
    def test_single_hub_component(self):
        graph = build_entity_graph([field("a", "only", {"x"})])
        paths = enumerate_paths(graph)
        assert len(paths) == 1
        assert paths[0].hubs == ("only",)
        assert paths[0].link_edges == ()
        assert path_strength(paths[0]) == 0

    def test_three_hubs_pairwise_linked(self):
        fields = [field("id", d, {"x", "y", "z"}) for d in ("d1", "d2", "d3")]
        component = connected_components(build_entity_graph(fields))[0]
        paths = enumerate_paths(component)
        assert len(paths) == 6  # 3 singletons + 3 pairs
        pair_hubs = sorted(frozenset(p.hubs) for p in paths if len(p.hubs) == 2)
        assert pair_hubs == sorted(
            [frozenset({"d1", "d2"}), frozenset({"d1", "d3"}), frozenset({"d2", "d3"})]
        )

    def test_parallel_links_route_through_strongest(self):
        fields = [
            field("exact", "d1", {"a", "b"}),
            field("exact", "d2", {"a", "b"}),
            field("fuzzy", "d1", {"p", "q", "r", "s", "t", "u", "v", "w", "x", "y"}),
            field("fuzzy", "d2", {"p", "q", "r", "zz1", "zz2", "zz3", "zz4", "zz5", "zz6", "zz7"}),
        ]
        component = connected_components(build_entity_graph(fields))[0]
        pair = next(p for p in enumerate_paths(component) if len(p.hubs) == 2)
        assert len(pair.link_edges) == 1
        assert pair.link_edges[0].weight == 1
        assert {pair.link_edges[0].a[2], pair.link_edges[0].b[2]} == {"exact"}

    def test_matches_brute_force_min_cost(self):
        fields = [
            field("k1", "d1", {"a", "b", "c", "d"}),
            field("k1", "d2", {"a", "b", "c", "x"}),  # J = 3/5
            field("k2", "d2", {"m", "n"}),
            field("k2", "d3", {"m", "n"}),  # J = 1
            field("k3", "d1", {"r", "s", "t"}),
            field("k3", "d3", {"r", "s", "z"}),  # J = 1/2
        ]
        component = connected_components(build_entity_graph(fields))[0]
        paths = {
            (p.hubs[0], p.hubs[-1]): p for p in enumerate_paths(component) if len(p.hubs) >= 2
        }
        # the cheapest (d1, d3) route transits d2: 2/5 + 0 beats the direct 1/2
        assert paths[("d1", "d3")].hubs == ("d1", "d2", "d3")
        for pair in (("d1", "d2"), ("d1", "d3"), ("d2", "d3")):
            oracle = brute_force_min_cost(component, *pair)
            got = paths[pair]
            cost = sum((Fraction(1) - e.weight for e in got.link_edges), Fraction(0))
            assert cost == oracle

    def test_path_invariants(self):
        fields = [
            field("id", "d1", {"a", "b"}),
            field("id", "d2", {"a", "b"}),
            field("id", "d3", {"a", "c"}),
        ]
        graph = build_entity_graph(fields)
        for component in connected_components(graph):
            for path in enumerate_paths(component):
                assert len(set(path.nodes)) == len(path.nodes)  # simple
                assert path.nodes[0][0] == "hub" and path.nodes[-1][0] == "hub"
                assert set(path.hubs) <= set(component.hubs)
                for edge in path.link_edges:
                    assert edge_key(edge) in component.links

    def test_strength_is_mean_of_link_weights(self):
        fields = [
            field("k1", "d1", {"a", "b"}),
            field("k1", "d2", {"a", "b"}),
            field("k2", "d2", {"p", "q", "r", "s", "t"}),
            field("k2", "d3", {"p", "q", "x", "y", "z"}),  # J = 2/8 = 1/4
        ]
        component = connected_components(build_entity_graph(fields))[0]
        path = next(
            p for p in enumerate_paths(component) if (p.hubs[0], p.hubs[-1]) == ("d1", "d3")
        )
        assert len(path.link_edges) == 2
        weights = [e.weight for e in path.link_edges]
        assert path_strength(path) == sum(weights) / len(weights)

    @settings(max_examples=300, deadline=None)
    @given(linked_graphs())
    def test_matches_per_pair_oracle(self, graph):
        assert enumerate_paths(graph, 7) == per_pair_paths(graph, 7)
        for component_id, component in enumerate(connected_components(graph)):
            assert enumerate_paths(component, component_id) == per_pair_paths(
                component, component_id)


class TestFieldLookups:
    @given(linked_graphs())
    def test_link_classes_are_link_reachability(self, graph):
        adjacency = {key: [] for key in graph.fields}
        for a, b in graph.links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for key, spoke in graph.fields.items():
            assert graph.field(key[1], key[2]) is spoke
            reached, frontier = {key}, [key]
            while frontier:
                for neighbor in adjacency[frontier.pop()]:
                    if neighbor not in reached:
                        reached.add(neighbor)
                        frontier.append(neighbor)
            for other in graph.fields:
                same = graph.link_class(key[1], key[2]) == graph.link_class(other[1], other[2])
                assert same == (other in reached)

    @given(linked_graphs())
    def test_unknown_field_is_none_and_its_own_class(self, graph):
        known = {graph.link_class(key[1], key[2]) for key in graph.fields}
        for source, name in (("nowhere", "f0"), ("d0", "missing")):
            assert graph.field(source, name) is None
            assert graph.link_class(source, name) == ("field", source, name)
            assert graph.link_class(source, name) not in known

    @given(linked_graphs())
    def test_spokes_are_a_hubs_fields_by_name(self, graph):
        for ds in [*graph.hubs, "nowhere"]:
            expected = sorted((f for f in graph.fields.values() if f.source_id == ds),
                              key=lambda f: f.name)
            assert graph.spokes(ds) == expected

    @given(linked_graphs())
    def test_lookups_leave_the_graph_as_built(self, graph):
        """The link classes were computed on first lookup and stored then."""
        built = dict(vars(graph))
        for key in graph.fields:
            graph.link_class(key[1], key[2])
            graph.field(key[1], key[2])
        for ds in graph.hubs:
            graph.spokes(ds)
        assert vars(graph).keys() == built.keys()
        assert all(vars(graph)[name] is value for name, value in built.items())


class TestRenderGraph:
    def test_empty_graph_yields_valid_svg(self):
        svg = render_entity_graph(build_entity_graph([]))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_fig1_exactly_one_dashed_edge(self, fig1_dir, fig1_manifest):
        datasets = [
            load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in fig1_manifest
        ]
        fields, _ = explode_fields(datasets)
        graph = build_entity_graph(fields, dtypes={d.id: d.dtype for d in datasets})
        svg = render_entity_graph(graph)
        assert svg.count('class="link-inexact"') == 1
        assert svg.count('class="link-exact"') == 1
        ET.fromstring(svg)

    def test_one_dataset_two_fields_shape_counts(self):
        graph = build_entity_graph([field("a", "d", {"x"}), field("b", "d", {"y"})])
        svg = render_entity_graph(graph)
        assert svg.count('class="hub"') == 1
        assert svg.count('class="spoke"') == 2
        assert svg.count('class="source-edge"') == 2
        assert svg.count('class="link-exact"') == 0
        assert svg.count('class="link-inexact"') == 0

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reconviz.entitygraph import (
    GraphPath,
    LinkEdge,
    build_entity_graph,
    hub_key,
    path_strength,
)
from reconviz.errors import UnknownDataset, UnmappedDataType
from reconviz.ingest import Field
from reconviz.ranking import competition_ranks, path_diversity, path_vis_relevance, rank_paths


def field(name, source, values=None, numeric=False, rows=None):
    if numeric:
        return Field(name, source, "numeric", None, None, rows or 10)
    vals = frozenset(values)
    return Field(name, source, "non-numeric", len(vals), vals, rows or len(vals))


def spoke(source, name):
    return ("field", source, name)


def hand_path(hubs, weights, component=0):
    """A GraphPath with one linkage edge per weight; node detail irrelevant."""
    edges = tuple(
        LinkEdge(spoke(hubs[i], f"k{i}"), spoke(hubs[i + 1], f"k{i}"), Fraction(w).limit_denominator())
        for i, w in enumerate(weights)
    )
    nodes = tuple(hub_key(h) for h in hubs)
    return GraphPath(nodes, tuple(hubs), edges, component)


class TestPathStrength:
    def test_singleton_is_zero(self):
        assert path_strength(hand_path(["a"], [])) == 0

    def test_all_exact_is_one(self):
        assert path_strength(hand_path(["a", "b", "c"], [1, 1])) == 1

    def test_mean_of_mixed_weights(self):
        assert path_strength(hand_path(["a", "b", "c"], [1, Fraction(2, 5)])) == Fraction(7, 10)


class TestPathDiversity:
    def test_same_type_counts_once(self):
        path = hand_path(["a", "b"], [1])
        assert path_diversity(path, {"a": "tabular", "b": "tabular"}) == 1

    def test_three_distinct_types(self):
        path = hand_path(["a", "b", "c"], [1, 1])
        assert path_diversity(path, {"a": "tree", "b": "tabular", "c": "spatial"}) == 3

    def test_singleton(self):
        assert path_diversity(hand_path(["a"], []), {"a": "tree"}) == 1

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDataset):
            path_diversity(hand_path(["a"], []), {})


class TestPathVisRelevance:
    def test_five_connected_trees_score_fifty(self, relevance_table, encoding_map):
        path = hand_path(["t1", "t2", "t3", "t4", "t5"], [1, 1, 1, 1])
        dtypes = {h: "tree" for h in path.hubs}
        assert path_vis_relevance(path, dtypes, encoding_map, relevance_table) == pytest.approx(50.0)

    def test_single_spatial_uses_map_score(self, relevance_table, encoding_map):
        path = hand_path(["s"], [])
        got = path_vis_relevance(path, {"s": "spatial"}, encoding_map, relevance_table)
        assert got == pytest.approx(relevance_table.score("geographic map")) == pytest.approx(6.0)

    def test_sum_of_per_hub_maxima(self, relevance_table, encoding_map):
        path = hand_path(["t", "tab"], [1])
        got = path_vis_relevance(
            path, {"t": "tree", "tab": "tabular"}, encoding_map, relevance_table
        )
        best_tabular = max(relevance_table.score(c) for c in encoding_map.charts_for("tabular"))
        assert got == pytest.approx(10.0 + best_tabular) == pytest.approx(14.0)

    def test_unmapped_dtype(self, relevance_table, encoding_map):
        with pytest.raises(UnmappedDataType):
            path_vis_relevance(hand_path(["x"], []), {"x": "audio"}, encoding_map, relevance_table)


class TestCompetitionRanks:
    def test_highest_value_gets_rank_one(self):
        assert competition_ranks([10, 30, 20]) == [3, 1, 2]

    def test_ties_share_minimum_rank(self):
        assert competition_ranks([5, 5, 3, 1]) == [1, 1, 3, 4]

    def test_all_equal(self):
        assert competition_ranks([2, 2, 2]) == [1, 1, 1]

    @given(st.one_of(
        st.lists(st.integers(-3, 3), max_size=60),
        st.lists(st.builds(Fraction, st.integers(0, 4), st.integers(1, 4)), max_size=60),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 7.5, float("inf")]), max_size=60),
        st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(2), 0.5, 1.0, 2.5]),
                 max_size=60),
    ))
    def test_matches_quadratic_oracle(self, values):
        assert competition_ranks(values) == quadratic_competition_ranks(values)


    # few distinct values among many: every rank is shared by several paths,
    # as path strengths are on a collection of many similar paths
    @given(st.lists(st.one_of(
        st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)),
        st.integers(0, 2),
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.25]),
    ), max_size=300))
    def test_matches_sort_and_bisect_with_many_ties(self, values):
        assert competition_ranks(values) == bisect_competition_ranks(values)


def bisect_competition_ranks(values):
    """The former ranking: sort every value, then bisect for each one."""
    ordered = sorted(values)
    return [1 + len(ordered) - bisect_right(ordered, value) for value in values]


def quadratic_competition_ranks(values):
    """Reference: 1 + the number of values strictly greater, counted pairwise."""
    return [1 + sum(1 for other in values if other > value) for value in values]


def graph_of(fields):
    return build_entity_graph(fields)


class TestRankPaths:
    def test_single_path_scores_three(self, relevance_table, encoding_map):
        graph = graph_of([field("a", "only", {"x"})])
        ranked = rank_paths(graph, {"only": "tabular"}, encoding_map, relevance_table)
        assert len(ranked) == 1
        assert ranked[0].path_score == 3

    def test_empty_graph(self, relevance_table, encoding_map):
        assert rank_paths(graph_of([]), {}, encoding_map, relevance_table) == []

    def test_dominating_path_ranks_first(self, relevance_table, encoding_map):
        fields = [
            field("id", "tree1", {"a", "b", "c"}),
            field("id", "tab1", {"a", "b", "c"}),
            field("other", "tab2", {"zz", "zy"}),
            field("other", "tab3", {"zz", "zx", "zw"}),  # inexact link
        ]
        dtypes = {"tree1": "tree", "tab1": "tabular", "tab2": "tabular", "tab3": "tabular"}
        ranked = rank_paths(graph_of(fields), dtypes, encoding_map, relevance_table)
        top = ranked[0]
        assert set(top.path.hubs) == {"tree1", "tab1"}
        assert top.path_score == 3  # exact link + 2 dtypes + best relevance

    def test_fig1_three_hub_path_outranks_all(self, fig1_manifest, relevance_table, encoding_map):
        from reconviz.ingest import explode_fields, load_dataset

        datasets = [
            load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in fig1_manifest
        ]
        fields, _ = explode_fields(datasets)
        graph = build_entity_graph(fields)
        dtypes = {d.id: d.dtype for d in datasets}
        ranked = rank_paths(graph, dtypes, encoding_map, relevance_table)

        # spreadsheet oracle over the six paths (metrics computed by hand):
        # hubs                 P_s   P_d  P_vr   ranks           score
        # phylo-cases-regions  0.8   3    20     (2,1,1)         4
        # phylo-cases          1.0   2    14     (1,2,2)         5
        # cases-regions        0.6   2    10     (3,2,3)         8
        # phylo                0     1    10     (4,4,3)         11
        # regions              0     1    6      (4,4,5)         13
        # cases                0     1    4      (4,4,6)         14
        assert len(ranked) == 6
        expected = [
            (("phylo", "cases", "regions"), 4),
            (("cases", "phylo"), 5),
            (("cases", "regions"), 8),
            (("phylo",), 11),
            (("regions",), 13),
            (("cases",), 14),
        ]
        got = [(r.path.hubs, r.path_score) for r in ranked]
        assert got == expected
        assert ranked[0].strength == Fraction(4, 5)
        assert ranked[0].diversity == 3
        assert ranked[0].encoding_relevance == pytest.approx(20.0)

    def test_isolated_dataset_leaves_metric_values_unchanged(
        self, relevance_table, encoding_map
    ):
        base_fields = [
            field("id", "a", {"x", "y", "z"}),
            field("id", "b", {"x", "y", "w"}),
        ]
        dtypes = {"a": "tabular", "b": "tabular", "lonely": "tree"}
        before = rank_paths(graph_of(base_fields), dtypes, encoding_map, relevance_table)
        after = rank_paths(
            graph_of(base_fields + [field("solo", "lonely", {"qq"})]),
            dtypes,
            encoding_map,
            relevance_table,
        )
        before_metrics = {
            tuple(r.path.hubs): (r.strength, r.diversity, r.encoding_relevance) for r in before
        }
        after_metrics = {
            tuple(r.path.hubs): (r.strength, r.diversity, r.encoding_relevance) for r in after
        }
        for hubs, metrics in before_metrics.items():
            assert after_metrics[hubs] == metrics

    def test_bounds_and_monotonicity_on_random_graphs(self, relevance_table, encoding_map):
        rng = random.Random(424242)
        dtypes_pool = ["tabular", "tree", "spatial", "genomic", "network", "image"]
        for _ in range(150):
            n = rng.randint(1, 6)
            dtypes = {f"d{i}": rng.choice(dtypes_pool) for i in range(n)}
            fields = []
            for i in range(n):
                for k in range(rng.randint(1, 3)):
                    pool = rng.randint(1, 8)
                    values = {f"v{rng.randint(0, 12)}" for _ in range(pool)}
                    fields.append(field(f"f{k}", f"d{i}", values))
            ranked = rank_paths(graph_of(fields), dtypes, encoding_map, relevance_table)
            total = len(ranked)
            scores = [r.path_score for r in ranked]
            assert scores == sorted(scores)
            for r in ranked:
                assert 1 <= r.rank_strength <= total
                assert 1 <= r.rank_diversity <= total
                assert 1 <= r.rank_relevance <= total
                assert 3 <= r.path_score <= 3 * total
                assert r.path_score == r.rank_strength + r.rank_diversity + r.rank_relevance

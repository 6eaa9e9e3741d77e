import json
import random

import pytest

from reconviz.chartspec import Binding, ChartSpec
from reconviz.combine import (
    ViabilityMatrix,
    bind_alignment,
    build_palette,
    build_plan,
    select_lead_chart,
    which_color_align,
    which_spatially_align,
)
from reconviz.config import RunConfig
from reconviz.entitygraph import build_entity_graph
from reconviz.errors import ConfigError, MultipleImmutable
from reconviz.ingest import Dataset, Field, load_dataset


def field(name, source, values=None, numeric=False, rows=None):
    if numeric:
        return Field(name, source, "numeric", None, None, rows or 10)
    vals = frozenset(values)
    return Field(name, source, "non-numeric", len(vals), vals, rows or len(vals))


def spec(sid, chart_type, dataset, relevance, **bindings):
    parsed = {ch: Binding(f.split(".", 1)[1], f.split(".", 1)[0]) for ch, f in bindings.items()}
    return ChartSpec(
        id=sid,
        chart_type=chart_type,
        dataset_id=dataset,
        dtype="tabular",
        relevance=relevance,
        bindings=parsed,
        required_channels=tuple(parsed),
        annotations={},
        swappable={"x", "y"} <= parsed.keys(),
    )


SAMPLES = {f"s{i}" for i in range(1, 14)}


@pytest.fixture()
def linked_graph():
    """tree.tip_label ~ tab.sample_id (J=1); tab.country ~ geo.country."""
    fields = [
        field("tip_label", "tree", SAMPLES),
        field("sample_id", "tab", SAMPLES),
        field("country", "tab", {"gin", "lbr", "sle"}, rows=13),
        field("country", "geo", {"gin", "lbr", "sle", "mli"}, rows=4),
        field("age", "tab", numeric=True, rows=13),
        field("lane", "img", SAMPLES),
    ]
    return build_entity_graph(fields)


class TestViabilityMatrix:
    def test_shipped_matrix_loads(self, viability):
        assert viability.supported("phylogenetic tree", "scatter chart")
        assert viability.supported("scatter chart", "heatmap")
        assert not viability.supported("geographic map", "bar chart")
        assert "image" not in viability.chart_types
        assert "node-link" not in viability.chart_types

    def test_symmetry_enforced(self):
        with pytest.raises(ConfigError):
            ViabilityMatrix({("a", "a"): "S", ("a", "b"): "S", ("b", "a"): "N", ("b", "b"): "S"})

    def test_diagonal_must_be_supported(self):
        with pytest.raises(ConfigError):
            ViabilityMatrix({("a", "a"): "N"})


class TestWhichSpatiallyAlign:
    def test_tree_scatter_heatmap_group(self, viability, linked_graph):
        specs = [
            spec("tree:phylogenetic tree", "phylogenetic tree", "tree", 10.0,
                 y="tree.tip_label"),
            spec("tab:scatter chart", "scatter chart", "tab", 3.0,
                 x="tab.sample_id", y="tab.age"),
            spec("tab:heatmap", "heatmap", "tab", 2.0, y="tab.sample_id", x="tab.age"),
        ]
        slot_map = which_spatially_align(specs, viability, linked_graph)
        assert set(slot_map) == {s.id for s in specs}
        assert slot_map["tree:phylogenetic tree"] == "y"
        assert slot_map["tab:scatter chart"] == "x"

    def test_image_never_aligns(self, viability, linked_graph):
        specs = [
            spec("tree:phylogenetic tree", "phylogenetic tree", "tree", 10.0,
                 y="tree.tip_label"),
            spec("img:image", "image", "img", 1.0, y="img.lane"),
        ]
        assert which_spatially_align(specs, viability, linked_graph) is None

    def test_map_bar_rejected_by_matrix(self, viability, linked_graph):
        specs = [
            spec("geo:geographic map", "geographic map", "geo", 6.0, x="geo.country"),
            spec("tab:bar chart", "bar chart", "tab", 4.0, x="tab.country"),
        ]
        assert which_spatially_align(specs, viability, linked_graph) is None

    def test_group_limited_to_one_immutable(self, viability):
        fields = [
            field("tip_label", "t1", SAMPLES),
            field("tip_label", "t2", SAMPLES),
            field("sample_id", "tab", SAMPLES),
        ]
        graph = build_entity_graph(fields)
        specs = [
            spec("t1:phylogenetic tree", "phylogenetic tree", "t1", 10.0, y="t1.tip_label"),
            spec("t2:phylogenetic tree", "phylogenetic tree", "t2", 10.0, y="t2.tip_label"),
            spec("tab:scatter chart", "scatter chart", "tab", 3.0, x="tab.sample_id",
                 y="tab.age"),
        ]
        slot_map = which_spatially_align(specs, viability, graph)
        assert slot_map is not None
        trees = [sid for sid in slot_map if "phylogenetic" in sid]
        assert len(trees) == 1  # two trees can never share one group

    def test_charts_that_cannot_swap_must_share_a_channel(self, linked_graph):
        types = ("histogram", "table", "scatter chart")
        matrix = ViabilityMatrix({(a, b): "S" for a in types for b in types})
        specs = [
            spec("tab:histogram", "histogram", "tab", 5.0, x="tab.age"),
            spec("tab:table", "table", "tab", 4.0, y="tab.age"),
            spec("tab:scatter chart", "scatter chart", "tab", 3.0, x="tab.sample_id",
                 y="tab.age"),
        ]
        slot_map = which_spatially_align(specs, matrix, linked_graph)
        assert slot_map == {"tab:histogram": "x", "tab:scatter chart": "y"}


class TestSelectLead:
    def test_immutable_member_wins(self, viability, linked_graph):
        members = [
            spec("tree:phylogenetic tree", "phylogenetic tree", "tree", 10.0, y="tree.tip_label"),
            spec("tab:scatter chart", "scatter chart", "tab", 3.0, x="tab.sample_id"),
        ]
        assert select_lead_chart(members, random.Random(0)) == "tree:phylogenetic tree"

    def test_seeded_choice_is_deterministic(self):
        members = [
            spec("tab:scatter chart", "scatter chart", "tab", 3.0, x="tab.sample_id"),
            spec("tab:heatmap", "heatmap", "tab", 2.0, y="tab.sample_id"),
        ]
        picks = {select_lead_chart(members, random.Random(42)) for _ in range(5)}
        assert len(picks) == 1

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            select_lead_chart([], random.Random(0))

    def test_two_immutables_rejected(self):
        members = [
            spec("a:phylogenetic tree", "phylogenetic tree", "a", 10.0, y="a.tip_label"),
            spec("b:geographic map", "geographic map", "b", 6.0, x="b.country"),
        ]
        with pytest.raises(MultipleImmutable):
            select_lead_chart(members, random.Random(0))


class TestWhichColorAlign:
    def test_linked_color_fields_group(self, linked_graph):
        specs = [
            spec("tab:scatter chart", "scatter chart", "tab", 3.0,
                 x="tab.sample_id", color="tab.country"),
            spec("geo:geographic map", "geographic map", "geo", 6.0,
                 x="geo.country", color="geo.country"),
        ]
        groups = which_color_align(specs, linked_graph)
        assert len(groups) == 1
        assert groups[0].member_ids == ["geo:geographic map", "tab:scatter chart"]
        # palette covers the union of both fields' categories
        assert set(groups[0].palette) == {"gin", "lbr", "sle", "mli"}

    def test_no_color_bindings(self, linked_graph):
        specs = [spec("tab:heatmap", "heatmap", "tab", 2.0, y="tab.sample_id")]
        assert which_color_align(specs, linked_graph) == []

    def test_different_fields_do_not_group(self, linked_graph):
        specs = [
            spec("tab:scatter chart", "scatter chart", "tab", 3.0, color="tab.country"),
            spec("tree:phylogenetic tree", "phylogenetic tree", "tree", 10.0,
                 color="tree.tip_label"),
        ]
        assert which_color_align(specs, linked_graph) == []


class TestPalette:
    def test_pure_function_of_sorted_categories(self):
        a = build_palette(["north", "east", "west"])
        b = build_palette(["west", "north", "east", "east"])
        assert a == b
        assert list(a) == sorted(a)

    def test_every_category_exactly_one_color(self):
        palette = build_palette([f"c{i}" for i in range(12)])
        assert len(palette) == 12
        assert all(color.startswith("#") for color in palette.values())


def synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates, viability):
    from conftest import synthetic_manifest
    from reconviz.pipeline import assemble

    datasets = [
        load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
        for m in synthetic_manifest(synthetic_dir)
    ]
    return assemble(datasets, relevance_table, encoding_map, templates, viability,
                    RunConfig(seed=11))


class TestBindAlignment:
    def test_lead_tree_dictates_leaf_order(self, synthetic_dir, relevance_table, encoding_map,
                                           templates, viability):
        from conftest import SYNTH_LEAF_ORDER

        asm = synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates,
                                 viability)
        top = asm.views[0]
        group = top.plan.spatial
        assert group is not None
        assert group.lead_id == "phylo:phylogenetic tree"
        assert group.domain == SYNTH_LEAF_ORDER
        for sid in group.member_ids:
            chart = next(s for s in top.specs if s.id == sid)
            assert chart.annotations["shared_axis"] == group.axis == "y"
            assert chart.annotations["domain_order"] == SYNTH_LEAF_ORDER
            assert chart.bindings["y"].field in ("sample_id", "tip_label")

    def test_support_chart_rotated_onto_lead_axis(self, synthetic_dir, relevance_table,
                                                  encoding_map, templates, viability):
        asm = synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates,
                                 viability)
        top = asm.views[0]
        scatter = next(s for s in top.specs if s.chart_type == "scatter chart")
        assert scatter.annotations.get("rotated") is True
        assert scatter.bindings["y"].field == "sample_id"
        assert scatter.bindings["x"].field == "onset_date"

    def test_color_palettes_stamped(self, synthetic_dir, relevance_table, encoding_map,
                                    templates, viability):
        asm = synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates,
                                 viability)
        top = asm.views[0]
        groups = top.plan.color_groups
        assert len(groups) == 1
        members = groups[0].member_ids
        assert members == ["phylo:phylogenetic tree", "samples:scatter chart"]
        palettes = [
            next(s for s in top.specs if s.id == sid).annotations["palette"] for sid in members
        ]
        assert palettes[0] == palettes[1] == groups[0].palette

    def test_plan_without_spatial_group_only_stamps_palettes(self, linked_graph, viability):
        specs = [
            spec("tab:scatter chart", "scatter chart", "tab", 3.0,
                 x="tab.sample_id", color="tab.country"),
            spec("geo:geographic map", "geographic map", "geo", 6.0,
                 x="geo.country", color="geo.country"),
        ]
        datasets = {}
        plan = build_plan(specs, viability, linked_graph, datasets, seed=5)
        assert plan.spatial is None
        bound = bind_alignment(specs, plan)
        for before, after in zip(specs, bound):
            assert after.bindings == before.bindings  # no reorientation
            assert after.annotations["render_ready"] is True
        assert "palette" in bound[0].annotations

    def test_unaligned_specs_pass_through_unchanged(self, linked_graph, viability):
        lonely = spec("tab:bar chart", "bar chart", "tab", 4.0, x="tab.country")
        plan = build_plan([lonely], viability, linked_graph, {}, seed=1)
        bound = bind_alignment([lonely], plan)[0]
        assert bound.bindings == lonely.bindings
        assert plan.unaligned == ["tab:bar chart"]
        stripped = {k: v for k, v in bound.annotations.items() if k != "render_ready"}
        assert stripped == lonely.annotations

    def test_bind_is_idempotent(self, synthetic_dir, relevance_table, encoding_map, templates,
                                viability):
        asm = synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates,
                                 viability)
        for view in asm.views:
            again = bind_alignment(view.specs, view.plan)
            a = json.dumps([s.to_dict() for s in view.specs], sort_keys=True)
            b = json.dumps([s.to_dict() for s in again], sort_keys=True)
            assert a == b

    def test_chart_binding_shared_field_on_both_axes_stays_unaligned(self, linked_graph,
                                                                       viability):
        twisted = spec("tab:heatmap", "heatmap", "tab", 2.0,
                       x="tab.sample_id", y="tab.sample_id")
        tree = spec("tree:phylogenetic tree", "phylogenetic tree", "tree", 10.0,
                    y="tree.tip_label")
        plan = build_plan([tree, twisted], viability, linked_graph,
                          {"tree": Dataset("tree", "tree", None)}, seed=0)
        assert plan.spatial is None
        assert plan.unaligned == ["tree:phylogenetic tree", "tab:heatmap"]
        bound = bind_alignment([tree, twisted], plan)
        assert bound[1].bindings == twisted.bindings
        assert "shared_axis" not in bound[1].annotations

    def test_spatial_members_share_axis_field_domain_triple(self, synthetic_dir, relevance_table,
                                                            encoding_map, templates, viability):
        asm = synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates,
                                 viability)
        for view in asm.views:
            group = view.plan.spatial
            if group is None:
                continue
            triples = set()
            for sid in group.member_ids:
                chart = next(s for s in view.specs if s.id == sid)
                triples.add(
                    (
                        chart.annotations.get("shared_axis"),
                        json.dumps(chart.annotations.get("domain_order")
                                   or chart.annotations.get("axis_domain")),
                    )
                )
            assert len(triples) == 1

import json
import re
import xml.etree.ElementTree as ET

import pytest

from reconviz.chartspec import Binding, ChartSpec
from reconviz.charts import render_chart
from reconviz.config import RunConfig
from reconviz.entitygraph import build_entity_graph
from reconviz.errors import DataMismatch, MissingFragment, UnsupportedChartType
from reconviz.ingest import explode_fields, load_dataset
from reconviz.layout import arrange_grid, render_view
from reconviz.pipeline import assemble, render_view_svg

from conftest import SYNTH_LEAF_ORDER, synthetic_manifest

SVG_NS = "{http://www.w3.org/2000/svg}"


def wrap(fragment: str) -> ET.Element:
    return ET.fromstring(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink">{fragment}</svg>'
    )


def marks(fragment: str, tag: str):
    return [
        el for el in wrap(fragment).iter(f"{SVG_NS}{tag}")
        if el.get("class") == "mark"
    ]


def load_synthetic(synthetic_dir):
    return [
        load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
        for m in synthetic_manifest(synthetic_dir)
    ]


@pytest.fixture()
def synthetic_assembly(synthetic_dir, relevance_table, encoding_map, templates, viability):
    return assemble(load_synthetic(synthetic_dir), relevance_table, encoding_map, templates,
                    viability, RunConfig(seed=11))


def graph_of(datasets):
    return build_entity_graph(explode_fields(list(datasets))[0])


def simple_spec(sid, chart_type, dataset, relevance=5.0, annotations=None, **bindings):
    parsed = {ch: Binding(f.split(".", 1)[1], f.split(".", 1)[0]) for ch, f in bindings.items()}
    return ChartSpec(
        id=sid, chart_type=chart_type, dataset_id=dataset, dtype="tabular",
        relevance=relevance, bindings=parsed, required_channels=tuple(parsed),
        annotations=annotations or {}, swappable=True,
    )


class TestChartFragments:
    def test_bar_heights_proportional_to_row_counts(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        bar = simple_spec("samples:bar chart", "bar chart", "samples", x="samples.location")
        fragment = render_chart(bar, datasets, graph)

        # counting oracle straight from the CSV
        rows = (synthetic_dir / "samples.csv").read_text().strip().splitlines()[1:]
        counts = {}
        for row in rows:
            loc = row.split(",")[1]
            counts[loc] = counts.get(loc, 0) + 1

        rects = marks(fragment, "rect")
        assert len(rects) == len(counts) == 3
        heights = {r.get("data-category"): float(r.get("height")) for r in rects}
        base = heights["east"] / counts["east"]
        for cat, count in counts.items():
            assert heights[cat] == pytest.approx(base * count, rel=0.01)

    def test_tree_leaf_labels_follow_newick_order(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        tree = ChartSpec(
            id="phylo:phylogenetic tree", chart_type="phylogenetic tree", dataset_id="phylo",
            dtype="tree", relevance=10.0,
            bindings={"y": Binding("tip_label", "phylo")}, required_channels=("y",),
            annotations={}, swappable=True,
        )
        fragment = render_chart(tree, datasets, graph)
        labels = [
            el.text for el in wrap(fragment).iter(f"{SVG_NS}text")
            if el.get("class") == "tick-y"
        ]
        assert labels == SYNTH_LEAF_ORDER
        # y coordinates strictly increase in domain order
        ys = [
            float(el.get("y")) for el in wrap(fragment).iter(f"{SVG_NS}text")
            if el.get("class") == "tick-y"
        ]
        assert ys == sorted(ys)

    def test_tree_respects_stamped_domain_order(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        shuffled = sorted(SYNTH_LEAF_ORDER)
        tree = ChartSpec(
            id="phylo:phylogenetic tree", chart_type="phylogenetic tree", dataset_id="phylo",
            dtype="tree", relevance=10.0,
            bindings={"y": Binding("tip_label", "phylo")}, required_channels=("y",),
            annotations={"domain_order": shuffled, "shared_axis": "y"}, swappable=True,
        )
        fragment = render_chart(tree, datasets, graph)
        labels = [
            el.text for el in wrap(fragment).iter(f"{SVG_NS}text")
            if el.get("class") == "tick-y"
        ]
        assert labels == shuffled

    def test_categorical_axis_ticks_equal_domain_order(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        domain = list(reversed(SYNTH_LEAF_ORDER))
        scatter = simple_spec(
            "samples:scatter chart", "scatter chart", "samples",
            annotations={"domain_order": domain, "shared_axis": "y"},
            y="samples.sample_id", x="samples.onset_date",
        )
        fragment = render_chart(scatter, datasets, graph)
        ticks = [
            el.text for el in wrap(fragment).iter(f"{SVG_NS}text")
            if el.get("class") == "tick-y"
        ]
        assert ticks == domain

    def test_color_aligned_tree_and_map_share_fills(self, tmp_path, relevance_table,
                                                    encoding_map, templates, viability):
        (tmp_path / "tree.nwk").write_text("((t1:1,t2:1):1,(t3:1,(t4:1,t5:1):1):1);\n")
        (tmp_path / "meta.csv").write_text(
            "tip,region\nt1,east\nt2,north\nt3,west\nt4,east\nt5,north\n"
        )
        features = []
        for i, region in enumerate(["east", "north", "west"]):
            ring = [[i, 0], [i + 0.9, 0], [i + 0.9, 0.9], [i, 0.9], [i, 0]]
            features.append({"type": "Feature",
                             "geometry": {"type": "Polygon", "coordinates": [ring]},
                             "properties": {"region": region, "cases": 10 * (i + 1)}})
        (tmp_path / "regions.geojson").write_text(
            json.dumps({"type": "FeatureCollection", "features": features})
        )
        datasets = [
            load_dataset(tmp_path / "tree.nwk", "tree", tmp_path / "meta.csv", dataset_id="tree"),
            load_dataset(tmp_path / "regions.geojson", "spatial", dataset_id="geo"),
        ]
        asm = assemble(datasets, relevance_table, encoding_map, templates, viability, RunConfig(seed=3))
        top = asm.views[0]
        assert {s.chart_type for s in top.specs} == {"phylogenetic tree", "geographic map"}
        assert len(top.plan.color_groups) == 1

        frags = {s.id: render_chart(s, asm.datasets, asm.graph) for s in top.specs}

        def category_fills(fragment):
            pairs = set()
            for tag in ("circle", "polygon", "rect"):
                for el in wrap(fragment).iter(f"{SVG_NS}{tag}"):
                    cat = el.get("data-category")
                    if cat is not None:
                        pairs.add((cat, el.get("fill")))
            return pairs

        tree_pairs = category_fills(frags["tree:phylogenetic tree"])
        map_pairs = category_fills(frags["geo:geographic map"])
        shared = {cat for cat, _ in tree_pairs} & {cat for cat, _ in map_pairs}
        assert shared == {"east", "north", "west"}
        for cat in shared:
            assert {f for c, f in tree_pairs if c == cat} == {f for c, f in map_pairs if c == cat}

    def test_unsupported_chart_type(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        pie = simple_spec("samples:pie", "pie chart", "samples", x="samples.location")
        with pytest.raises(UnsupportedChartType):
            render_chart(pie, datasets, graph)

    def test_absent_field_is_data_mismatch(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        ghost = simple_spec("samples:bar chart", "bar chart", "samples", x="samples.ghost")
        with pytest.raises(DataMismatch):
            render_chart(ghost, datasets, graph)

    def test_unbound_required_channel_is_data_mismatch(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        half = ChartSpec("samples:heatmap", "heatmap", "samples", "tabular", 5.0,
                         {"x": Binding("location", "samples")}, required_channels=("x", "y"),
                         annotations={}, swappable=True)
        with pytest.raises(DataMismatch, match="incomplete"):
            render_chart(half, datasets, graph)

    def test_fragment_renders_all_supported_types(self, synthetic_assembly):
        rendered_types = set()
        for view in synthetic_assembly.views:
            for spec in view.specs:
                render_chart(spec, synthetic_assembly.datasets, synthetic_assembly.graph)
                rendered_types.add(spec.chart_type)
        assert {"phylogenetic tree", "scatter chart", "bar chart", "heatmap", "table",
                "image", "genomic alignment table"} <= rendered_types

    def test_line_chart_sorts_points_by_x(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        line = simple_spec("samples:line chart", "line chart", "samples",
                           x="samples.onset_date", y="samples.age")
        fragment = render_chart(line, datasets, graph)
        polylines = marks(fragment, "polyline")
        assert len(polylines) == 1
        xs = [float(p.split(",")[0]) for p in polylines[0].get("points").split()]
        assert xs == sorted(xs)

    def test_histogram_bin_heights_match_counting_oracle(self, synthetic_dir):
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        hist = simple_spec("samples:histogram", "histogram", "samples", x="samples.age")
        fragment = render_chart(hist, datasets, graph)
        rects = marks(fragment, "rect")
        ages = [
            float(r.split(",")[3])
            for r in (synthetic_dir / "samples.csv").read_text().strip().splitlines()[1:]
        ]
        lo, hi = min(ages), max(ages)
        counts = [0] * 10
        for a in ages:
            counts[min(9, int((a - lo) / (hi - lo) * 10))] += 1
        assert len(rects) == sum(1 for c in counts if c > 0)

    def test_histogram_of_a_non_numeric_field_draws_no_bars(self, synthetic_dir):
        """A custom template may bind an id column to a histogram's x; it has
        no numbers to bin."""
        datasets = {d.id: d for d in load_synthetic(synthetic_dir)}
        graph = graph_of(list(datasets.values()))
        hist = simple_spec("samples:histogram", "histogram", "samples", x="samples.sample_id")
        assert marks(render_chart(hist, datasets, graph), "rect") == []

    def test_node_link_renders_nodes_and_edges(self, tmp_path):
        (tmp_path / "net.csv").write_text(
            "source,target\nn1,n2\nn2,n3\nn3,n4\nn1,n4\n"
        )
        net = load_dataset(tmp_path / "net.csv", "network", dataset_id="net")
        graph = graph_of([net])
        spec = ChartSpec(
            id="net:node-link", chart_type="node-link", dataset_id="net", dtype="network",
            relevance=1.0, bindings={"y": Binding("node_id", "net")},
            required_channels=("y",), annotations={}, swappable=True,
        )
        fragment = render_chart(spec, {"net": net}, graph)
        assert len(marks(fragment, "circle")) == 4
        assert fragment.count("<line") >= 4

    def test_choropleth_numeric_ramp_without_color_binding(self, fig1_dir):
        regions = load_dataset(fig1_dir / "regions.geojson", "spatial", dataset_id="regions")
        graph = graph_of([regions])
        spec = ChartSpec(
            id="regions:geographic map", chart_type="geographic map", dataset_id="regions",
            dtype="spatial", relevance=6.0,
            bindings={"x": Binding("country", "regions")}, required_channels=("x",),
            annotations={}, swappable=True,
        )
        fragment = render_chart(spec, {"regions": regions}, graph)
        polys = marks(fragment, "polygon")
        assert len(polys) == 5
        fills = {p.get("fill") for p in polys}
        assert len(fills) > 1  # the cases ramp differentiates regions

    def test_map_null_color_property_draws_no_category(self, tmp_path):
        ring = [[0, 0], [1, 0], [1, 1], [0, 0]]
        features = [{"type": "Feature", "properties": {"zone": zone},
                     "geometry": {"type": "Polygon", "coordinates": [ring]}}
                    for zone in ("A", None, "B")]
        (tmp_path / "zones.geojson").write_text(
            json.dumps({"type": "FeatureCollection", "features": features}))
        zones = load_dataset(tmp_path / "zones.geojson", "spatial", dataset_id="zones")
        graph = graph_of([zones])
        spec = simple_spec("zones:geographic map", "geographic map", "zones",
                           x="zones.zone", color="zones.zone")
        polys = marks(render_chart(spec, {"zones": zones}, graph), "polygon")
        assert len(polys) == 3
        assert sorted(p.get("data-category") or "" for p in polys) == ["", "A", "B"]

    def test_map_missing_marker_color_draws_no_category(self, tmp_path):
        ring = [[0, 0], [1, 0], [1, 1], [0, 0]]
        features = [{"type": "Feature", "properties": {"zone": zone},
                     "geometry": {"type": "Polygon", "coordinates": [ring]}}
                    for zone in ("A", "NA", "B")]
        (tmp_path / "zones.geojson").write_text(
            json.dumps({"type": "FeatureCollection", "features": features}))
        zones = load_dataset(tmp_path / "zones.geojson", "spatial", dataset_id="zones")
        graph = graph_of([zones])
        spec = simple_spec("zones:geographic map", "geographic map", "zones",
                           x="zones.zone", color="zones.zone")
        polys = marks(render_chart(spec, {"zones": zones}, graph), "polygon")
        assert sorted(p.get("data-category") or "" for p in polys) == ["", "A", "B"]
        assert [p.get("fill") for p in polys if not p.get("data-category")] == ["#e8e8e8"]

    def test_tree_missing_marker_color_draws_no_leaf_mark(self, tmp_path):
        (tmp_path / "t.nwk").write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        (tmp_path / "meta.csv").write_text("sample_id,zone\na,X\nb,NA\nc,Y\nd,X\n")
        tree = load_dataset(tmp_path / "t.nwk", "tree", tmp_path / "meta.csv", dataset_id="t")
        graph = graph_of([tree])
        spec = simple_spec("t:phylogenetic tree", "phylogenetic tree", "t",
                           y="t.tip_label", color="t.zone")
        leaves = marks(render_chart(spec, {"t": tree}, graph), "circle")
        assert [c.get("data-category") for c in leaves] == ["X", "Y", "X"]

    def test_missing_marker_row_draws_no_mark_on_aligned_axes(
            self, tmp_path, relevance_table, encoding_map, templates, viability):
        """A tree leaf named `NA` stamps `NA` into the shared domain, but the
        table row keyed `NA` is missing: neither the aligned scatter nor the
        aligned heatmap draws it."""
        labels = [f"s{i}" for i in range(15)] + ["NA"]
        (tmp_path / "tree.nwk").write_text(
            "(" + ",".join(f"{label}:0.1" for label in labels) + ");\n")
        (tmp_path / "t.csv").write_text("sample_id,v,grp\n" + "".join(
            f"{label},{i * 3 % 7},g{i % 3}\n" for i, label in enumerate(labels)))
        datasets = [load_dataset(tmp_path / "tree.nwk", "tree", dataset_id="tree"),
                    load_dataset(tmp_path / "t.csv", "tabular", dataset_id="t")]
        asm = assemble(datasets, relevance_table, encoding_map, templates, viability, RunConfig())
        top = asm.views[0]
        group = top.plan.spatial
        assert "NA" in group.domain
        specs = {s.id: s for s in top.specs}
        scatter, heatmap = specs["t:scatter chart"], specs["t:heatmap"]
        assert {scatter.id, heatmap.id} <= set(group.member_ids)
        assert len(marks(render_chart(scatter, asm.datasets, asm.graph), "circle")) == 15
        assert len(marks(render_chart(heatmap, asm.datasets, asm.graph), "rect")) == 15


class TestTableChart:
    """The table chart draws the payload table, else the associated table,
    else the one bound key column."""

    @staticmethod
    def header(dataset, key):
        spec = simple_spec(f"{dataset.id}:table", "table", dataset.id, y=f"{dataset.id}.{key}")
        fragment = render_chart(spec, {dataset.id: dataset}, graph_of([dataset]))
        return [t.text for t in wrap(fragment).iter(f"{SVG_NS}text")
                if t.get("font-weight") == "bold" and t.get("font-size") == "9"]

    def test_tabular_payload_shows_its_first_four_columns(self, tmp_path):
        (tmp_path / "t.csv").write_text("id,a,b,c,d\ns1,1,x,2,y\ns2,3,z,4,w\n")
        table = load_dataset(tmp_path / "t.csv", "tabular", dataset_id="t")
        assert self.header(table, "id") == ["id", "a", "b", "c"]

    def test_fasta_shows_its_associated_table(self, tmp_path):
        (tmp_path / "s.fasta").write_text(">s1\nACGT\n>s2\nACGA\n")
        (tmp_path / "meta.csv").write_text("seq_id,host,year\ns1,bat,2014\ns2,human,2015\n")
        seqs = load_dataset(tmp_path / "s.fasta", "genomic", tmp_path / "meta.csv",
                            dataset_id="s")
        assert self.header(seqs, "seq_id") == ["seq_id", "host", "year"]

    def test_rows_follow_the_domain_order_then_the_unlisted_keys(self, tmp_path):
        (tmp_path / "t.csv").write_text("id,n\ns1,1\ns2,2\ns3,3\ns4,4\n")
        table = load_dataset(tmp_path / "t.csv", "tabular", dataset_id="t")
        spec = simple_spec("t:table", "table", "t", annotations={"domain_order": ["s3", "s1"]},
                           y="t.id")
        fragment = render_chart(spec, {"t": table}, graph_of([table]))
        cells = [t.text for t in wrap(fragment).iter(f"{SVG_NS}text") if t.get("class") == "cell"]
        assert cells == ["s3", "3", "s1", "1", "s2", "2", "s4", "4"]

    def test_edge_list_without_table_shows_the_bound_key(self, tmp_path):
        (tmp_path / "net.csv").write_text("source,target,weight\nn1,n2,1\nn2,n3,2\n")
        net = load_dataset(tmp_path / "net.csv", "network", dataset_id="net")
        assert self.header(net, "node_id") == ["node_id"]


class TestArrangeGrid:
    def make_specs(self, plan_members):
        relevances = {"tree:phylogenetic tree": 10.0, "geo:geographic map": 6.0,
                      "tab:bar chart": 4.0, "tab:scatter chart": 3.0, "tab:heatmap": 2.0,
                      "tab:line chart": 1.0}
        return [
            simple_spec(sid, sid.split(":")[1], sid.split(":")[0], relevances[sid],
                        x="tab.sample_id")
            for sid in plan_members
        ]

    def test_spatial_group_tops_then_relevance_rows(self, viability, relevance_table):
        from reconviz.combine import CombinationPlan, SpatialGroup

        ids = ["tree:phylogenetic tree", "geo:geographic map", "tab:bar chart",
               "tab:scatter chart", "tab:heatmap"]
        specs = self.make_specs(ids)
        plan = CombinationPlan(
            spatial=SpatialGroup(
                member_ids=["tree:phylogenetic tree", "tab:scatter chart", "tab:heatmap"],
                lead_id="tree:phylogenetic tree", shared_field="tab.sample_id", axis="y",
                domain=None, shared_bindings={}, numeric=False,
            ),
            color_groups=[], unaligned=["geo:geographic map", "tab:bar chart"], seed=0,
        )
        layout = arrange_grid(plan, specs)
        assert layout.cells["tree:phylogenetic tree"] == (0, 0)
        assert layout.cells["tab:scatter chart"] == (0, 1)
        assert layout.cells["tab:heatmap"] == (0, 2)
        assert layout.cells["geo:geographic map"] == (1, 0)
        assert layout.cells["tab:bar chart"] == (1, 1)
        assert layout.annotations and "combo_axis_var" in layout.annotations[0]

    def test_single_chart_is_one_by_one(self, viability, relevance_table):
        from reconviz.combine import CombinationPlan

        specs = self.make_specs(["tab:bar chart"])
        layout = arrange_grid(CombinationPlan(None, [], ["tab:bar chart"], 0), specs)
        assert (layout.rows, layout.cols) == (1, 1)
        assert layout.cells == {"tab:bar chart": (0, 0)}

    def test_spatial_row_grows_columns_past_three(self):
        from reconviz.combine import CombinationPlan, SpatialGroup

        ids = ["tree:phylogenetic tree", "geo:geographic map", "tab:bar chart",
               "tab:scatter chart", "tab:heatmap"]
        specs = self.make_specs(ids)
        plan = CombinationPlan(
            spatial=SpatialGroup(member_ids=list(ids), lead_id="tree:phylogenetic tree",
                                 shared_field="tab.sample_id", axis="y", domain=None,
                                 shared_bindings={}, numeric=False),
            color_groups=[], unaligned=[], seed=0,
        )
        layout = arrange_grid(plan, specs)
        assert layout.cols == 5
        assert all(row == 0 for row, _ in layout.cells.values())

    def test_spatial_row_never_shares_with_support_row(self, synthetic_assembly):
        for view in synthetic_assembly.views:
            if view.plan.spatial is None:
                continue
            members = set(view.plan.spatial.member_ids) & set(view.layout.cells)
            for sid, (row, _) in view.layout.cells.items():
                if sid in members:
                    assert row == 0
                else:
                    assert row >= 1


class TestRenderView:
    def test_view_is_well_formed_and_deterministic(self, synthetic_assembly):
        top = synthetic_assembly.views[0]
        one = render_view_svg(synthetic_assembly, top)
        two = render_view_svg(synthetic_assembly, top)
        assert one == two
        root = ET.fromstring(one)
        assert root.tag == f"{SVG_NS}svg"

    def test_combo_axis_label_present(self, synthetic_assembly):
        top = synthetic_assembly.views[0]
        svg = render_view_svg(synthetic_assembly, top)
        assert svg.count("combo_axis_var") == 1

    def test_provenance_metadata_embedded(self, synthetic_assembly):
        top = synthetic_assembly.views[0]
        svg = render_view_svg(synthetic_assembly, top)
        meta = ET.fromstring(svg).find(f"{SVG_NS}metadata")
        assert meta is not None
        doc = json.loads(meta.text)
        assert doc["view"] == 1
        assert doc["path_score"] == top.ranked.path_score
        assert "tool" in doc and "seed" in doc

    def test_missing_fragment_raises(self, synthetic_assembly):
        top = synthetic_assembly.views[0]
        with pytest.raises(MissingFragment):
            render_view(top.layout, {}, {})

    def test_numbers_are_locale_independent(self, synthetic_assembly):
        svg = render_view_svg(synthetic_assembly, synthetic_assembly.views[0])
        # no comma-decimal numbers anywhere in attributes
        assert not re.search(r'="[0-9]+,[0-9]', svg)
        assert "nan" not in svg.lower().replace("instance", "")

import csv
import io
import json
import re

import pytest
from hypothesis import given, strategies as st

from reconviz.entitygraph import build_entity_graph, spoke_key
from reconviz.errors import ConfigError, DuplicateDatasetId, KeyMismatch, ParseError
from reconviz.ingest import (
    MISSING_MARKERS,
    Dataset,
    Field,
    EdgeTable,
    Table,
    _make_field,
    explode_fields,
    load_dataset,
    parse_newick,
    present,
)

from reconviz.config import load_config

from conftest import SAMPLE_IDS, SYNTH_LEAF_ORDER, fig1_datasets, synthetic_manifest, write_config


def load_all(manifest):
    return [load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in manifest]


def write_geojson(path, properties):
    ring = [[0, 0], [1, 0], [1, 1], [0, 0]]
    features = [{"type": "Feature", "properties": props,
                 "geometry": {"type": "Polygon", "coordinates": [ring]}}
                for props in properties]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


def make_table(columns, rows):
    return Dataset("t", "tabular", Table(tuple(columns), tuple(tuple(r) for r in rows)))


class TestClassifyField:
    def test_all_numeric_tokens(self):
        field = _make_field("", "", ["1.5", "2", "3e1"])
        assert (field.kind, field.cardinality) == ("numeric", None)

    def test_distinct_count_matches_set_oracle(self):
        values = ["GIN", "SLE", "LBR", "GIN"]
        field = _make_field("", "", values)
        assert field.kind == "non-numeric"
        assert field.cardinality == len(set(values))

    def test_all_missing_markers(self):
        assert _make_field("", "", ["", "NA"]) is None

    def test_missing_markers_case_insensitive(self):
        assert _make_field("", "", ["null", "NaN", "na", ""]) is None

    def test_single_bad_token_makes_non_numeric(self):
        field = _make_field("", "", ["1", "2", "x"])
        assert field.kind == "non-numeric"
        assert field.cardinality == 3

    def test_missing_values_ignored_for_numeric(self):
        field = _make_field("", "", ["1", "NA", "2.5"])
        assert (field.kind, field.cardinality) == ("numeric", None)

    @pytest.mark.parametrize("extra", [["1e999"], ["-1e999"], ["1e308", "-1e308"]])
    def test_non_finite_number_or_range_makes_non_numeric(self, extra):
        field = _make_field("", "", ["1", "2", *extra])
        assert (field.kind, field.cardinality) == ("non-numeric", 2 + len(extra))

    def test_finite_range_near_float_max_stays_numeric(self):
        field = _make_field("", "", [" -1 ", "1.7976931348623157e308"])
        assert (field.kind, field.cardinality) == ("numeric", None)

    @given(st.lists(st.sampled_from(["1", "2.5", "abc", "x y", "-3e2"]), min_size=1))
    def test_order_and_duplication_invariant(self, values):
        kind = _make_field("", "", values).kind
        assert _make_field("", "", list(reversed(values))).kind == kind
        assert _make_field("", "", values * 2).kind == kind

    @given(st.lists(st.sampled_from(["red", "green", "blue", "cyan"]), min_size=1))
    def test_cardinality_duplication_invariant(self, values):
        assert _make_field("", "", values).cardinality == _make_field("", "", values * 3).cardinality


class TestEdgeTableNodeIds:
    def test_first_seen_order_across_both_columns_without_blanks(self):
        rows = (
            (" b ", "a", "w1"),
            ("", "c", "w2"),
            ("a ", "  ", "w3"),
            ("c", " b", "w4"),
            ("d", "", "w5"),
            ("  ", "", "w6"),
        )
        edges = EdgeTable(("source", "target", "weight"), rows)
        assert edges.node_ids() == ["b", "a", "c", "d"]

    def test_no_rows_no_ids(self):
        assert EdgeTable(("source", "target"), ()).node_ids() == []


class TestLoadDataset:
    def test_header_only_csv_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,country,age\n")
        with pytest.raises(ParseError):
            load_dataset(path, "tabular")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv", "tabular")

    @pytest.mark.parametrize("dtype, name, content", [("tree", "t.nwk", "(a,b);"),
                                                      ("image", "gel.png", "")])
    def test_missing_associated_file_names_it(self, tmp_path, dtype, name, content):
        (tmp_path / name).write_text(content)
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_dataset(tmp_path / name, dtype, tmp_path / "nope.csv")

    def test_tabular_shape_matches_line_oracle(self, tmp_path):
        path = tmp_path / "synth.csv"
        header = "c1,c2,c3,c4,c5,c6"
        lines = [header] + [f"v{i}a,v{i}b,v{i}c,{i},{i}.5,z{i}" for i in range(13)]
        path.write_text("\n".join(lines) + "\n")
        # independent oracle: split raw lines
        raw = path.read_text().strip().splitlines()
        n_cols = len(raw[0].split(","))
        n_rows = len(raw) - 1

        ds = load_dataset(path, "tabular")
        fields, _ = explode_fields([ds])
        assert len(fields) == n_cols == 6
        assert all(f.row_count == n_rows == 13 for f in fields)

    def test_tree_with_associated_table(self, fig1_dir):
        ds = load_dataset(fig1_dir / "phylo.nwk", "tree", fig1_dir / "phylo_meta.csv")
        # independent leaf count: Newick leaves are label tokens not preceded by ')'
        text = (fig1_dir / "phylo.nwk").read_text()
        oracle_leaves = len(re.findall(r"[(,]\s*([A-Za-z0-9_]+)\s*:", text))
        assert len(ds.payload.leaf_order) == oracle_leaves == 10
        assert ds.associated is not None
        assert ds.associated_key == "tip"

    def test_associated_key_mismatch(self, tmp_path, fig1_dir):
        bad = tmp_path / "meta.csv"
        bad.write_text("foo,bar\nx1,y1\nx2,y2\n")
        with pytest.raises(KeyMismatch):
            load_dataset(fig1_dir / "phylo.nwk", "tree", bad)

    def test_associated_rejected_for_tabular(self, tmp_path, fig1_dir):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "tabular", fig1_dir / "cases.csv")

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "excel")

    def test_image_requires_sidecar(self, synthetic_dir):
        with pytest.raises(ParseError):
            load_dataset(synthetic_dir / "gel.png", "image")

    def test_image_lane_ids_from_sidecar_first_column(self, synthetic_dir):
        ds = load_dataset(synthetic_dir / "gel.png", "image", synthetic_dir / "gel_lanes.csv",
                          dataset_id="gel")
        assert ds.primary_ids() == SAMPLE_IDS
        fields, _ = explode_fields([ds])
        names = {f.name for f in fields}
        assert names == {"lane", "band_kb"}
        lane = next(f for f in fields if f.name == "lane")
        assert lane.kind == "non-numeric"
        assert lane.cardinality == 13

    def test_fasta(self, synthetic_dir):
        ds = load_dataset(synthetic_dir / "seqs.fasta", "genomic", dataset_id="seqs")
        assert [rec_id for rec_id, _ in ds.payload.records] == SAMPLE_IDS
        assert all(len(seq) == 40 for _, seq in ds.payload.records)

    def test_fasta_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.fasta"
        path.write_text(">a\nACGT\n>a\nACGT\n")
        with pytest.raises(ParseError):
            load_dataset(path, "genomic")

    def test_geojson(self, fig1_dir):
        ds = load_dataset(fig1_dir / "regions.geojson", "spatial")
        assert len(ds.payload.features) == 5
        fields, _ = explode_fields([ds])
        by_name = {f.name: f for f in fields}
        assert by_name["country"].kind == "non-numeric"
        assert by_name["cases"].kind == "numeric"

    def test_geojson_null_property_is_missing(self, tmp_path):
        path = tmp_path / "regions.geojson"
        write_geojson(path, [{"name": "r1", "pop": None}, {"name": "r2", "pop": 5}])
        ds = load_dataset(path, "spatial")
        fields, _ = explode_fields([ds])
        pop = next(f for f in fields if f.name == "pop")
        assert pop.kind == "numeric"
        assert pop.row_count == 2
        assert ds.raw_columns["pop"] == ["", "5"]

    def test_geojson_rejects_non_feature_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "Point", "coordinates": [0, 0]}')
        with pytest.raises(ParseError):
            load_dataset(path, "spatial")

    @pytest.mark.parametrize("coordinate", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_geojson_non_finite_coordinate_is_malformed(self, tmp_path, coordinate):
        path = tmp_path / "bad.geojson"
        ring = f"[[{coordinate}, 34], [10, 234], [{coordinate}, 34]]"
        path.write_text('{"type": "FeatureCollection", "features": [{"type": "Feature", '
                        '"properties": {"zone": "A"}, '
                        f'"geometry": {{"type": "Polygon", "coordinates": [{ring}]}}}}]}}')
        with pytest.raises(ParseError, match="feature 0: malformed coordinates"):
            load_dataset(path, "spatial")

    def test_network_edge_list(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("source,target,kind\nn1,n2,contact\nn2,n3,contact\nn1,n3,travel\n")
        ds = load_dataset(path, "network")
        fields, _ = explode_fields([ds])
        by_name = {f.name: f for f in fields}
        assert by_name["node_id"].cardinality == 3
        assert by_name["node_id"].row_count == 3
        assert by_name["kind"].cardinality == 2

    def test_network_needs_two_columns(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("only\nv1\n")
        with pytest.raises(ParseError):
            load_dataset(path, "network")


_GEOJSON_TEXT = json.dumps({"type": "FeatureCollection", "features": [
    {"type": "Feature", "properties": {"zone": z},
     "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}
    for z in ("A", "B")]})


class TestByteOrderMark:
    """A UTF-8 byte-order mark, which some editors write at the start of a
    file, is not part of the file's text: each reader gives what it gives
    for the same file without the mark."""

    @pytest.mark.parametrize("dtype, text", [
        ("tabular", "sample,grp\ns1,a\ns2,b\n"),
        ("tree", "((s1:1,s2:1):1,s3:2);\n"),
        ("genomic", ">s1 first\nACGT\n>s2\nAC\n"),
        ("spatial", _GEOJSON_TEXT),
    ], ids=["table", "newick", "fasta", "geojson"])
    def test_a_marked_file_reads_as_the_unmarked_one(self, tmp_path, dtype, text):
        (tmp_path / "plain").write_text(text, encoding="utf-8")
        (tmp_path / "marked").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "marked").read_bytes().startswith(b"\xef\xbb\xbf")
        plain = load_dataset(tmp_path / "plain", dtype, dataset_id="d")
        marked = load_dataset(tmp_path / "marked", dtype, dataset_id="d")
        assert marked.raw_columns == plain.raw_columns
        assert explode_fields([marked])[0] == explode_fields([plain])[0]

    def test_a_marked_config_file_loads(self, tmp_path, fig1_dir):
        path = write_config(tmp_path, fig1_datasets(fig1_dir), seed=4)
        path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        config = load_config(path)
        assert [e.id for e in config.datasets] == ["phylo", "cases", "regions"]
        assert config.seed == 4

class TestNewickParser:
    def test_leaf_order_preserved(self, synthetic_dir):
        root = parse_newick((synthetic_dir / "phylo.nwk").read_text())
        assert root.leaf_labels() == SYNTH_LEAF_ORDER

    def test_branch_lengths_optional(self):
        root = parse_newick("((a,b),c);")
        assert root.leaf_labels() == ["a", "b", "c"]
        assert all(leaf.length is None for leaf in root.leaf_order)

    def test_quoted_labels(self):
        root = parse_newick("('leaf one':1.0,\"leaf,two\":2.0);")
        assert root.leaf_labels() == ["leaf one", "leaf,two"]

    def test_comments_skipped(self):
        root = parse_newick("[&R]((a:1,b:2)x:1,c:3);")
        assert root.leaf_labels() == ["a", "b", "c"]

    @given(st.recursive(
        st.tuples(st.none(), st.sampled_from([None, 0.5, 2.0])),
        lambda kids: st.tuples(st.lists(kids, min_size=1, max_size=3),
                               st.sampled_from([None, 1.0])),
        max_leaves=12))
    def test_round_trip(self, tree):
        """Nested (children, length) tuples -> Newick -> parse gives the same
        shape, lengths and left-to-right leaf order, with comments and blanks
        between tokens."""
        counter = iter(range(100))

        def label(node):  # name every leaf in pre-order
            kids, length = node
            return ([label(k) for k in kids] if isinstance(kids, list)
                    else f"n{next(counter)}", length)

        def newick(node):
            kids, length = node
            text = f"( {' , '.join(newick(k) for k in kids)} )" if isinstance(kids, list) else kids
            return text + ("" if length is None else f" [c]: {length}")

        def shape(node):
            if not node.children:
                return (node.name, node.length)
            return ([shape(child) for child in node.children], node.length)

        labelled = label(tree)
        root = parse_newick(newick(labelled) + ";")
        assert shape(root) == labelled
        assert root.leaf_labels() == [f"n{i}" for i in range(len(root.leaf_order))]

    @staticmethod
    def walk(root):
        """Leaves left to right, by a stack of child iterators."""
        out, stack = [], [iter([root])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
            elif node.children:
                stack.append(iter(node.children))
            else:
                out.append(node)
        return out

    @pytest.mark.parametrize("tree", ["fig1", "synthetic", "ebola", "ladder"])
    def test_cached_leaf_order_equals_a_fresh_walk(
        self, fig1_dir, synthetic_dir, ebola_scale_dir, tree
    ):
        if tree == "ladder":
            text = "s0"
            for i in range(1, 5000):
                text = f"({text},s{i}):1"
            root = parse_newick(text + ";")
        else:
            path = {"fig1": fig1_dir / "phylo.nwk", "synthetic": synthetic_dir / "phylo.nwk",
                    "ebola": ebola_scale_dir / "tree.nwk"}[tree]
            root = load_dataset(path, "tree").payload
        fresh = self.walk(root)
        assert len(root.leaf_order) == len(fresh) > 1
        assert all(a is b for a, b in zip(root.leaf_order, fresh))
        assert root.leaf_labels() == [leaf.name for leaf in fresh]
        labels = root.leaf_labels()
        labels.sort(reverse=True)
        assert root.leaf_labels() == [leaf.name for leaf in fresh]

    def test_ladder_deeper_than_recursion_limit(self):
        text = "s0"
        for i in range(1, 3000):
            text = f"({text},s{i}):1"
        root = parse_newick(text + ";")
        assert root.leaf_labels() == [f"s{i}" for i in range(3000)]

    @pytest.mark.parametrize(
        "text",
        ["((a,b),c)", "((a,b),c;", "((a,),c);", "((a,b),a);", "(,);", "((a:x,b),c);"],
    )
    def test_malformed_trees(self, text):
        with pytest.raises(ParseError):
            parse_newick(text)

    @pytest.mark.parametrize("length", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_branch_length_is_a_parse_error(self, length):
        text = f"((a:1,b:{length}):1,(c:1,d:2):1);"
        with pytest.raises(ParseError, match=f"bad branch length '{length}' at offset 8"):
            parse_newick(text)


class TestExplodeFields:
    def test_tabular_columns_map_one_to_one(self):
        ds = make_table(["id", "country", "age"],
                        [["a", "gin", "30"], ["b", "sle", "40"], ["c", "lbr", "50"]])
        fields, _ = explode_fields([ds])
        assert [f.name for f in fields] == ["age", "country", "id"]
        assert next(f for f in fields if f.name == "age").kind == "numeric"

    def test_tree_fields_are_table_columns_plus_leaf_ids(self, synthetic_dir):
        ds = load_dataset(synthetic_dir / "phylo.nwk", "tree",
                          synthetic_dir / "phylo_meta.csv", dataset_id="phylo")
        fields, _ = explode_fields([ds])
        assert len(fields) == len(ds.associated.columns) + 1
        tip = next(f for f in fields if f.name == "tip_label")
        assert tip.kind == "non-numeric"
        assert tip.cardinality == 13
        assert tip.values == frozenset(SAMPLE_IDS)
        # the keyed metadata contributes a tree-side sample_id field
        sample_id = next(f for f in fields if f.name == "sample_id")
        assert sample_id.source_id == "phylo"
        assert sample_id.cardinality == 13

    def test_empty_input(self):
        fields, metadata = explode_fields([])
        assert fields == []
        assert metadata.fields == ()

    def test_duplicate_dataset_ids(self):
        ds = make_table(["a"], [["1"], ["2"]])
        with pytest.raises(DuplicateDatasetId):
            explode_fields([ds, ds])

    def test_all_missing_column_dropped(self):
        ds = make_table(["good", "empty"], [["x", ""], ["y", "NA"]])
        fields, _ = explode_fields([ds])
        assert [f.name for f in fields] == ["good"]

    def test_output_sorted_regardless_of_input_order(self, synthetic_dir):
        manifests = synthetic_manifest(synthetic_dir)
        datasets = [
            load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in manifests
        ]
        forward, _ = explode_fields(datasets)
        backward, _ = explode_fields(list(reversed(datasets)))
        assert forward == backward
        assert forward == sorted(forward, key=lambda f: (f.source_id, f.name))

    def test_metadata_round_trip(self, synthetic_dir):
        manifests = synthetic_manifest(synthetic_dir)
        datasets = [
            load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in manifests
        ]
        fields, metadata = explode_fields(datasets)
        parsed = list(csv.DictReader(io.StringIO(metadata.to_csv())))
        assert len(parsed) == len(fields)
        for row, field in zip(parsed, fields):
            assert row["field"] == field.name
            assert row["source"] == field.source_id
            assert row["kind"] == field.kind
            expected_card = "" if field.cardinality is None else str(field.cardinality)
            assert row["cardinality"] == expected_card
            if field.values is not None:
                assert row["sample_values"].split(";") == sorted(field.values)[:5]


class TestFieldEquality:
    BASE = dict(name="v", source_id="t", kind="non-numeric", cardinality=2,
                values=frozenset({"a", "b"}), row_count=3, column=("a", "b", None))

    def test_equality_and_hash_ignore_the_column(self):
        a = Field(**self.BASE)
        b = Field(**{**self.BASE, "column": ("b", None, "a")})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("name, other", [
        ("name", "w"), ("source_id", "u"), ("kind", "numeric"), ("cardinality", 3),
        ("values", frozenset({"a", "c"})), ("row_count", 4)])
    def test_every_other_attribute_tells_fields_apart(self, name, other):
        assert Field(**self.BASE) != Field(**{**self.BASE, name: other})


class TestColumnAccess:
    @given(st.lists(st.lists(st.text(max_size=3), min_size=3, max_size=3), min_size=1, max_size=6))
    def test_table_columns_match_a_walk_by_index(self, rows):
        """`raw_columns` transposes the rows with `zip`; the walk by index is
        the code it replaced."""
        table = Table(("a", "b", "c"), tuple(tuple(row) for row in rows))
        assert table.raw_columns == {
            name: [row[i] for row in table.rows] for i, name in enumerate(table.columns)}

    def test_primary_column_wins_name_clash(self, tmp_path):
        (tmp_path / "tree.nwk").write_text("((a,b),(c,d));")
        (tmp_path / "meta.csv").write_text("tip,tip_label\na,x\nb,y\nc,x\nd,y\n")
        (tmp_path / "net.csv").write_text("source,target,node_id\nn1,n2,k1\nn2,n3,k2\n")
        tree = load_dataset(tmp_path / "tree.nwk", "tree", tmp_path / "meta.csv")
        net = load_dataset(tmp_path / "net.csv", "network")
        fields, _ = explode_fields([tree, net])
        graph = build_entity_graph(fields)
        by_id = {tree.id: tree, net.id: net}
        expected = {("tree", "tip_label"): {"a", "b", "c", "d"},
                    ("net", "node_id"): {"n1", "n2", "n3"}}
        for (source, name), values in expected.items():
            matches = [f for f in fields if (f.source_id, f.name) == (source, name)]
            assert len(matches) == 1
            assert matches[0].values == values
            assert graph.fields[spoke_key(matches[0])].values == values
            assert set(matches[0].column) == values

    def test_raw_values_agree_with_exploded_fields(self, synthetic_dir, fig1_manifest, tmp_path):
        (tmp_path / "net.csv").write_text("source,target,kind,w\nn1,n2,contact, 2\nn2,n3,NA,nan\n")
        network = load_dataset(tmp_path / "net.csv", "network")
        dtypes = set()
        # the two fixtures reuse dataset ids, so each is exploded on its own
        for group in (load_all(synthetic_manifest(synthetic_dir)), load_all(fig1_manifest) + [network]):
            by_id = {d.id: d for d in group}
            fields, _ = explode_fields(group)
            for field in fields:
                raw = by_id[field.source_id].raw_columns[field.name]
                assert len(field.column) == len(raw) == field.row_count
                for cell, entry in zip(raw, field.column):
                    if cell.strip().lower() in MISSING_MARKERS:
                        assert entry is None
                    elif field.numeric:
                        assert entry == float(cell)
                    else:
                        assert entry == cell.strip()
                if not field.numeric:
                    assert set(present(field.column)) == field.values
            dtypes |= {by_id[f.source_id].dtype for f in fields}
        assert dtypes == {"tabular", "tree", "genomic", "spatial", "network", "image"}

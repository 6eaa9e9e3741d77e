import csv
import io
import json
import re

import pytest
from hypothesis import given, strategies as st

from reconviz.entitygraph import build_entity_graph, spoke_key
from reconviz.errors import AllMissing, ConfigError, DuplicateDatasetId, KeyMismatch, ParseError
from reconviz.ingest import (
    Dataset,
    Table,
    classify_field,
    explode_fields,
    field_raw_values,
    is_missing,
    load_dataset,
    parse_newick,
)

from conftest import SAMPLE_IDS, SYNTH_LEAF_ORDER, synthetic_manifest


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
        assert classify_field(["1.5", "2", "3e1"]) == ("numeric", None)

    def test_distinct_count_matches_set_oracle(self):
        values = ["GIN", "SLE", "LBR", "GIN"]
        kind, card = classify_field(values)
        assert kind == "non-numeric"
        assert card == len(set(values))

    def test_all_missing_markers(self):
        with pytest.raises(AllMissing):
            classify_field(["", "NA"])

    def test_missing_markers_case_insensitive(self):
        with pytest.raises(AllMissing):
            classify_field(["null", "NaN", "na", ""])

    def test_single_bad_token_makes_non_numeric(self):
        kind, card = classify_field(["1", "2", "x"])
        assert kind == "non-numeric"
        assert card == 3

    def test_missing_values_ignored_for_numeric(self):
        assert classify_field(["1", "NA", "2.5"]) == ("numeric", None)

    @given(st.lists(st.sampled_from(["1", "2.5", "abc", "x y", "-3e2"]), min_size=1))
    def test_order_and_duplication_invariant(self, values):
        kind, _ = classify_field(values)
        assert classify_field(list(reversed(values)))[0] == kind
        assert classify_field(values * 2)[0] == kind

    @given(st.lists(st.sampled_from(["red", "green", "blue", "cyan"]), min_size=1))
    def test_cardinality_duplication_invariant(self, values):
        assert classify_field(values)[1] == classify_field(values * 3)[1]


class TestLoadDataset:
    def test_header_only_csv_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,country,age\n")
        with pytest.raises(ParseError):
            load_dataset(path, "tabular")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv", "tabular")

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
        assert len(ds.payload.leaves()) == oracle_leaves == 10
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


class TestNewickParser:
    def test_leaf_order_preserved(self, synthetic_dir):
        root = parse_newick((synthetic_dir / "phylo.nwk").read_text())
        assert root.leaf_labels() == SYNTH_LEAF_ORDER

    def test_branch_lengths_optional(self):
        root = parse_newick("((a,b),c);")
        assert root.leaf_labels() == ["a", "b", "c"]
        assert all(leaf.length is None for leaf in root.leaves())

    def test_quoted_labels(self):
        root = parse_newick("('leaf one':1.0,\"leaf,two\":2.0);")
        assert root.leaf_labels() == ["leaf one", "leaf,two"]

    def test_comments_skipped(self):
        root = parse_newick("[&R]((a:1,b:2)x:1,c:3);")
        assert root.leaf_labels() == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "text",
        ["((a,b),c)", "((a,b),c;", "((a,),c);", "((a,b),a);", "(,);", "((a:x,b),c);"],
    )
    def test_malformed_trees(self, text):
        with pytest.raises(ParseError):
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
        assert metadata.entries == ()

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


class TestColumnAccess:
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
            assert set(field_raw_values(matches[0], by_id[source])) == values

    def test_raw_values_agree_with_exploded_fields(self, synthetic_dir, fig1_manifest, tmp_path):
        (tmp_path / "net.csv").write_text("source,target,kind\nn1,n2,contact\nn2,n3,NA\n")
        network = load_dataset(tmp_path / "net.csv", "network")
        dtypes = set()
        # the two fixtures reuse dataset ids, so each is exploded on its own
        for group in (load_all(synthetic_manifest(synthetic_dir)), load_all(fig1_manifest) + [network]):
            by_id = {d.id: d for d in group}
            fields, _ = explode_fields(group)
            for field in fields:
                raw = field_raw_values(field, by_id[field.source_id])
                assert len(raw) == field.row_count
                if not field.numeric:
                    assert {v.strip() for v in raw if not is_missing(v)} == field.values
            dtypes |= {d.dtype for d in group}
        assert dtypes == {"tabular", "tree", "genomic", "spatial", "network", "image"}

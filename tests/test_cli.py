import csv
import gc
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import reconviz
from reconviz import charts, cli, pipeline
from reconviz.charts import DRAWABLE
from reconviz.cli import main
from reconviz.chartspec import load_templates, slot_accepts
from reconviz.config import ASSETS_DIR, ManifestEntry, RunConfig
from reconviz.errors import ConfigError
from reconviz.ingest import explode_fields, load_dataset

from conftest import fig1_datasets, make_png, synthetic_manifest, write_config

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(args):
    return main([str(a) for a in args])


def graph_components(graph_doc):
    """Independent union-find over the exported edge list."""
    hubs = [n["id"] for n in graph_doc["nodes"] if n["kind"] == "source"]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for node in graph_doc["nodes"]:
        parent.setdefault(node["id"], node["id"])
    for edge in graph_doc["edges"]:
        ra, rb = find(edge["a"]), find(edge["b"])
        if ra != rb:
            parent[rb] = ra
    return len({find(h) for h in hubs})


class TestLink:
    def test_synthetic_manifest_single_component(self, synthetic_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["link", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "entity_graph.json").read_text())
        assert graph_components(doc) == 1
        metadata = (tmp_path / "out" / "field_metadata.csv").read_text()
        assert metadata.splitlines()[0] == "field,source,kind,cardinality,sample_values"
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_unrelated_datasets_two_components(self, tmp_path):
        (tmp_path / "a.csv").write_text("pid,x\np1,1\np2,2\n")
        (tmp_path / "b.csv").write_text("qid,y\nq1,9\nq2,8\n")
        cfg = write_config(tmp_path, [
            {"id": "a", "path": str(tmp_path / "a.csv"), "dtype": "tabular"},
            {"id": "b", "path": str(tmp_path / "b.csv"), "dtype": "tabular"},
        ])
        assert run(["link", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "entity_graph.json").read_text())
        assert graph_components(doc) == 2

    def test_missing_file_exits_two_and_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [
            {"id": "gone", "path": str(tmp_path / "gone.csv"), "dtype": "tabular"},
        ])
        assert run(["link", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "gone.csv" in err

    def test_unknown_user_field_warns(self, synthetic_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["link", "--config", cfg, "--user-field", "not_a_field"]) == 0
        assert "not_a_field" in capsys.readouterr().err


class TestGraph:
    def test_writes_svg(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["graph", "--config", cfg]) == 0
        svg = (tmp_path / "out" / "entity_graph.svg").read_text()
        assert svg.startswith("<?xml")
        assert 'class="hub"' in svg

    def test_empty_manifest_yields_empty_canvas(self, tmp_path):
        cfg = write_config(tmp_path, [])
        assert run(["graph", "--config", cfg]) == 0
        svg = (tmp_path / "out" / "entity_graph.svg").read_text()
        assert "empty entity graph" in svg

    def test_fig1_has_dashed_edge(self, fig1_manifest, tmp_path):
        cfg = write_config(tmp_path, fig1_manifest)
        assert run(["graph", "--config", cfg]) == 0
        svg = (tmp_path / "out" / "entity_graph.svg").read_text()
        assert svg.count('class="link-inexact"') == 1


class TestSpecs:
    def test_synthetic_views_ordered_by_score(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["specs", "--config", cfg]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        assert len(views) >= 4
        scores = [v["path"]["path_score"] for v in views]
        assert scores == sorted(scores)
        assert [v["view"] for v in views] == list(range(1, len(views) + 1))

    def test_single_dataset_yields_one_view(self, synthetic_dir, tmp_path):
        cfg = write_config(
            tmp_path,
            [{"id": "samples", "path": str(synthetic_dir / "samples.csv"), "dtype": "tabular"}],
        )
        assert run(["specs", "--config", cfg]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        assert len(views) == 1
        assert views[0]["path"]["hubs"] == ["samples"]

    def test_component_view_cap(self, tmp_path):
        ids = [f"s{i:02d}" for i in range(1, 14)]
        manifest = []
        for d in range(5):
            path = tmp_path / f"d{d}.csv"
            rows = ["sample_id,v"] + [f"{sid},{i + d}" for i, sid in enumerate(ids)]
            path.write_text("\n".join(rows) + "\n")
            manifest.append({"id": f"d{d}", "path": str(path), "dtype": "tabular"})
        cfg = write_config(tmp_path, manifest)
        assert run(["specs", "--config", cfg]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        # 10 pair paths + 5 singletons in one component, capped at 10 views
        assert len(views) == 10
        # the full ranked path list is exported alongside the views
        paths = json.loads((tmp_path / "out" / "paths.json").read_text())
        assert len(paths) == 15
        assert all(
            {"hubs", "edges", "strength", "diversity", "encoding_relevance", "path_score"}
            <= set(p)
            for p in paths
        )

    def test_views_validate_against_shipped_schema(self, synthetic_dir, fig1_manifest, tmp_path):
        schema = json.loads((ASSETS_DIR / "view_spec.schema.json").read_text())
        for name, manifest in (
            ("synthetic", synthetic_manifest(synthetic_dir)),
            ("fig1", fig1_manifest),
        ):
            base = tmp_path / name
            base.mkdir()
            cfg = write_config(base, manifest)
            assert run(["specs", "--config", cfg]) == 0
            views = json.loads((base / "out" / "specs.json").read_text())
            jsonschema.validate(views, schema)

    def test_max_charts_flag(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["specs", "--config", cfg, "--max-charts", "3"]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        assert all(len(v["charts"]) <= 3 for v in views)


class TestRender:
    def test_writes_top_view(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["render", "--config", cfg, "--view", "1"]) == 0
        assert (tmp_path / "out" / "view_001.svg").exists()
        assert (tmp_path / "out" / "view_001.json").exists()

    def test_out_of_range_view_exits_three(self, synthetic_dir, tmp_path, capsys):
        """Past the last view every view is built, so the message names the
        full count; 0 and negative k build none of them first."""
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["specs", "--config", cfg]) == 0
        total = len(json.loads((tmp_path / "out" / "specs.json").read_text()))
        for k in (99, total + 1, 0, -1):
            capsys.readouterr()
            assert run(["render", "--config", cfg, "--view", k]) == 3
            assert capsys.readouterr().err == f"error: view {k} out of range (1..{total})\n"

    def test_view_k_builds_views_1_to_k_only(self, synthetic_dir, tmp_path, monkeypatch):
        """One plan is built per view, so `render --view k` plans k views, and
        view k is entry k of `specs.json`."""
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["specs", "--config", cfg]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        assert len(views) >= 3
        calls = []
        original = pipeline.build_plan
        monkeypatch.setattr(pipeline, "build_plan",
                            lambda *a, **kw: calls.append(1) or original(*a, **kw))
        for k, entry in enumerate(views, start=1):
            calls.clear()
            assert run(["render", "--config", cfg, "--view", k]) == 0
            assert len(calls) == k
            assert json.loads((tmp_path / "out" / f"view_{k:03d}.json").read_text()) == entry


class TestRelevance:
    def test_tree_scores_ten(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["relevance", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "relevance.csv").read_text().splitlines()
        tree_row = next(line for line in lines if line.startswith("phylogenetic tree"))
        assert tree_row.endswith(",10")

    def test_no_decay_equals_plain_counts(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["relevance", "--config", cfg, "--lambda", "1.0"]) == 0
        lines = (tmp_path / "out" / "relevance.csv").read_text().splitlines()
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert rows["phylogenetic tree"] == ["400", "10"]
        assert rows["bar chart"] == ["160", "4"]

    def test_empty_design_space_exits_two(self, synthetic_dir, tmp_path):
        empty = tmp_path / "empty_space.csv"
        empty.write_text("chart_type,year,count\n")
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir),
                           design_space=str(empty))
        assert run(["relevance", "--config", cfg]) == 2


def _geojson(features) -> bytes:
    """Python's JSON writer spells non-finite floats NaN and Infinity."""
    return json.dumps({"type": "FeatureCollection", "features": features}).encode()


NAN = float("nan")

# id -> (dtype, file name, file bytes); each must fail as an input error.
MALFORMED_INPUTS = {
    "newick_non_finite_lengths": ("tree", "t.nwk", b"((a:nan,b:1):1,(c:inf,d:2):1);\n"),
    "newick_not_utf8": ("tree", "t.nwk", b"((a:1,\xff:1):1,(c:1,d:2):1);\n"),
    "geojson_nan_coordinate": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": "A"}, "geometry": {
            "type": "Polygon", "coordinates": [[[NAN, 34], [10, 234], [NAN, 34]]]}}])),
    "geojson_not_utf8": ("spatial", "g.geojson", b'{"type": "\xffFeatureCollection"}'),
    "geojson_feature_not_object": ("spatial", "g.geojson", _geojson([1])),
    "geojson_geometry_not_object": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": "A"}, "geometry": [1]}])),
    "geojson_features_not_array": ("spatial", "g.geojson",
                                   b'{"type": "FeatureCollection", "features": 5}'),
    "geojson_invalid_json": ("spatial", "g.geojson", b'{"type": "FeatureCollection",'),
    "geojson_point_geometry": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": "A"},
          "geometry": {"type": "Point", "coordinates": [0, 0]}}])),
    "geojson_no_features": ("spatial", "g.geojson", _geojson([])),
    # with no outer ring point the map has nothing to scale: render exited 1
    "geojson_no_ring_points": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": zone},
          "geometry": {"type": "Polygon", "coordinates": [[]]}} for zone in "AB"])),
    # a longitude span of 2e308 is inf: the map wrote nan into every SVG with it
    "geojson_coordinate_span_overflows": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": zone},
          "geometry": {"type": "Polygon", "coordinates": [[[lon, 10], [0, 12], [lon, 10]]]}}
         for zone, lon in (("A", -1e308), ("B", 1e308))])),
    # an integer JSON number past the float range: float() raised OverflowError
    "geojson_integer_past_float_range": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": "A"}, "geometry": {
            "type": "Polygon", "coordinates": [[[10**400, 0], [0, 1], [0, 0]]]}}])),
    # a property with more digits than int() converts: json.loads raised a
    # plain ValueError, and the run ended in a traceback
    "geojson_integer_past_digit_limit": ("spatial", "g.geojson", _geojson(
        [{"type": "Feature", "properties": {"zone": "BIG"}, "geometry": {
            "type": "Polygon", "coordinates": [[[0, 0], [0, 1], [1, 0]]]}}]
    ).replace(b'"BIG"', b"1" + b"0" * 5000)),
    "fasta_not_utf8": ("genomic", "s.fasta", b">a\nAC\xffGT\n"),
    "fasta_data_before_header": ("genomic", "s.fasta", b"ACGT\n>a\nACGT\n"),
    "fasta_empty_header": ("genomic", "s.fasta", b">a\nACGT\n>\nACGT\n"),
    "fasta_no_records": ("genomic", "s.fasta", b"\n\n"),
    "csv_not_utf8": ("tabular", "x.csv", b"sample_id,grp\na,\xff\n"),
    "csv_empty": ("tabular", "x.csv", b""),
    "csv_duplicate_header": ("tabular", "x.csv", b"sample_id,grp,grp\na,X,Y\n"),
    "csv_ragged_row": ("tabular", "x.csv", b"sample_id,grp\na,X\nb,Y,Z\n"),
    # a cell past the csv module's field size limit raised _csv.Error: exit 1
    "csv_cell_past_field_limit": ("tabular", "x.csv",
                                  b"sample_id,grp\na,X\nb," + b"Y" * 200_000 + b"\n"),
    "edge_list_one_column": ("network", "e.csv", b"source\na\nb\n"),
}


def _table(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _sample_table(values) -> bytes:
    return _table([["sample_id", "v", "grp"]]
                  + [[f"s{i}", v, f"g{i % 3}"] for i, v in enumerate(values)])


def _zones(values) -> bytes:
    ring = [[0, 0], [1, 0], [1, 1], [0, 0]]
    return _geojson([{"type": "Feature", "properties": {"zone": f"z{i}", "v": v},
                      "geometry": {"type": "Polygon", "coordinates": [ring]}}
                     for i, v in enumerate(values)])


# id -> (dtype, file name, file bytes): numbers at the edges of the float range.
EXTREME_NUMBERS = {
    # `1e999` reads as inf, and the range of +-1e308 overflows: both made the
    # heatmap's binning raise on NaN, so the column is non-numeric
    "csv_overflowing_cell": ("tabular", "t.csv", _sample_table([*range(1, 15), "1e999"])),
    "csv_overflowing_range": ("tabular", "t.csv", _sample_table([*range(1, 14), "1e308", "-1e308"])),
    # a finite range near the float maximum overflowed in the tick and bin edges
    "csv_range_near_float_max": ("tabular", "t.csv", _sample_table([*range(1, 15), "1e308"])),
    # lo + 1 == lo left a one-value domain of width 0
    "csv_constant_huge_column": ("tabular", "t.csv", _sample_table(["1e300"] * 15)),
    "csv_constant_column_past_2_53": ("tabular", "t.csv", _sample_table(["1e17"] * 15)),
    "geojson_overflowing_range": ("spatial", "z.geojson", _zones([1e308, -1e308, 5, 7])),
}

_NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


def assert_finite_svg(text: str) -> None:
    """No attribute and no drawn label spells a non-finite number; table
    cells, which show input cells verbatim, are left out."""
    for el in ET.fromstring(text).iter():
        for name, value in el.attrib.items():
            assert not _NON_FINITE.search(value), (el.tag, name, value)
        if el.get("class") != "cell":
            assert not _NON_FINITE.search(el.text or ""), (el.tag, el.text)


def render_every_view(cfg) -> int:
    """Run `specs`, then `render --view k` for k = 1 .. views + 1; every SVG
    written must be finite. Returns the view count."""
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    code = run(["specs", "--config", cfg])
    assert code in (0, 2, 3)
    if code != 0:
        return 0
    total = len(json.loads((out / "specs.json").read_text()))
    for k in range(1, total + 2):
        code = run(["render", "--config", cfg, "--view", k])
        assert code == (0 if k <= total else 3)
        if code == 0:
            assert_finite_svg((out / f"view_{k:03d}.svg").read_text())
    return total


def _padded(cells):
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return st.tuples(pad, cells, pad).map("".join)


# Cells of the kinds a loose table holds: numbers of every size, including
# ones that overflow a float; missing markers in any case; ISO dates with and
# without a time; categories; all with optional padding.
_NUMBER_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "1e999", "-1e999",
                     "5e-324", "-1e-320", "1e-400", "1e17", "0"]),
)
_MISSING_CELLS = st.sampled_from(["", "na", "nan", "null"]).flatmap(
    lambda marker: st.tuples(*[st.sampled_from([c.lower(), c.upper()]) for c in marker]).map("".join))
_DATE_CELLS = st.tuples(
    st.dates(date(2014, 1, 1), date(2014, 12, 31)).map(date.isoformat),
    st.sampled_from(["", "T08:30", " 23:59:59"]),
).map("".join)
_CATEGORY_CELLS = st.sampled_from(["g0", "g1", "g2", "g3"])


@st.composite
def loose_tables(draw, ids):
    """CSV bytes: a padded `sample_id` column over `ids`, then one to three
    columns, each mostly of one cell kind and sprinkled with missing markers."""
    rows = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=16, unique=True))
    kinds = draw(st.lists(st.sampled_from([_NUMBER_CELLS, _DATE_CELLS, _CATEGORY_CELLS]),
                          min_size=1, max_size=3))
    columns = [[draw(_padded(st.one_of(kind, kind, _MISSING_CELLS))) for _ in rows]
               for kind in kinds]
    header = ["sample_id"] + [f"c{j}" for j in range(len(kinds))]
    return _table([header] + [[draw(_padded(st.just(sid)))] + [col[i] for col in columns]
                              for i, sid in enumerate(rows)])


class TestCellProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(loose_tables([f"s{i}" for i in range(16)]), min_size=1, max_size=2))
    def test_loose_tables_exit_cleanly_with_finite_views(self, tables):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            manifest = []
            for i, content in enumerate(tables):
                (root / f"t{i}.csv").write_bytes(content)
                manifest.append({"id": f"t{i}", "path": str(root / f"t{i}.csv"), "dtype": "tabular"})
            render_every_view(write_config(root, manifest))


# Leaf labels with XML specials, both quote characters (never in one label,
# which Newick quoting cannot carry), inner spaces and non-ASCII text.
_LABEL_STEMS = ["a&b", "x<y", "p>q", 'say "hi"', "o'k", "two words", "Zürich",
                "São Tomé", "北京", "Ωmega", "s"]
_BRANCH_LENGTHS = st.sampled_from([0.0, 1e-300, 0.01, 0.5, 1.0, 3.0, 1e10, 1e300, 1e308,
                                    -0.5, -1e308])


def _quoted(label: str) -> str:
    return f'"{label}"' if "'" in label else f"'{label}'"


@st.composite
def newick_trees(draw):
    """(Newick text, leaf labels): a ladder, star or balanced tree over 2 to
    40 quoted leaves, with or without branch lengths."""
    count = draw(st.integers(2, 40))
    labels = [f"{draw(st.sampled_from(_LABEL_STEMS))} {i}" for i in range(count)]
    with_lengths = draw(st.booleans())

    def node(text: str) -> str:
        return f"{text}:{draw(_BRANCH_LENGTHS)!r}" if with_lengths else text

    leaves = [node(_quoted(label)) for label in labels]
    shape = draw(st.sampled_from(["ladder", "star", "balanced"]))
    if shape == "star":
        root = "(" + ",".join(leaves) + ")"
    elif shape == "ladder":
        root = leaves[0]
        for leaf in leaves[1:-1]:
            root = node(f"({root},{leaf})")
        root = f"({root},{leaves[-1]})"
    else:
        clades = leaves
        while len(clades) > 2:
            pairs = [clades[i:i + 2] for i in range(0, len(clades), 2)]
            clades = [node("(" + ",".join(p) + ")") if len(p) == 2 else p[0] for p in pairs]
        root = "(" + ",".join(clades) + ")"
    return root + ";\n", labels


@st.composite
def trees_with_tables(draw):
    """Files of one collection: a tree with an associated table of a
    category and a number per leaf, and maybe a loose table keyed by some
    of the leaf labels."""
    newick, labels = draw(newick_trees())
    rows = [["sample_id", "grp", "v"]] + [
        [label, draw(_CATEGORY_CELLS), draw(st.one_of(_NUMBER_CELLS, _MISSING_CELLS))]
        for label in labels]
    files = {"tree.nwk": newick.encode(), "meta.csv": _table(rows)}
    if draw(st.booleans()):
        files["t.csv"] = draw(loose_tables(labels))
    return files


class TestTreeProperty:
    @settings(max_examples=25, deadline=None)
    @given(trees_with_tables())
    def test_trees_exit_cleanly_with_finite_views(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, content in files.items():
                (root / name).write_bytes(content)
            manifest = [{"id": "tree", "path": str(root / "tree.nwk"), "dtype": "tree",
                         "associated": str(root / "meta.csv")}]
            if "t.csv" in files:
                manifest.append({"id": "t", "path": str(root / "t.csv"), "dtype": "tabular"})
            assert render_every_view(write_config(root, manifest)) >= 1


# Coordinates: ordinary longitudes and latitudes, or, on some features,
# finite numbers at the edges of the float range too.
_ORDINARY = st.floats(-180, 180)
_EDGES = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0,
                          1e-300, 5e-324, 10**20])


@st.composite
def geometries(draw):
    """A Polygon or MultiPolygon of 2-D and 3-D points; a ring or a
    MultiPolygon may be empty, and a polygon may have holes."""
    coordinates = draw(st.sampled_from([_ORDINARY, _EDGES, st.one_of(_ORDINARY, _EDGES)]))
    points = st.lists(st.lists(coordinates, min_size=2, max_size=3), min_size=1, max_size=5)
    polygon = st.lists(st.one_of(points, points, points, st.just([])), min_size=1, max_size=3)
    if draw(st.booleans()):
        return {"type": "Polygon", "coordinates": draw(polygon)}
    return {"type": "MultiPolygon", "coordinates": draw(st.lists(polygon, max_size=3))}


_PROPERTY_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), _ORDINARY, _EDGES,
              st.sampled_from(["guinea", "liberia", "a&b", "<x>"])),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.sampled_from(["k", "n"]), inner, max_size=2)),
    max_leaves=4,
)


@st.composite
def feature_collections(draw):
    """GeoJSON bytes: one to five features, each with a Polygon or
    MultiPolygon geometry, a country of the fig1 cases (or none) and other
    properties that may be null or nested."""
    features = []
    for _ in range(draw(st.integers(1, 5))):
        properties = {"country": draw(st.sampled_from(
            ["guinea", "liberia", "sierra leone", "mali", None]))}
        properties.update(draw(st.dictionaries(st.sampled_from(["cases", "meta"]),
                                               _PROPERTY_VALUES, max_size=2)))
        features.append({"type": "Feature", "properties": properties,
                         "geometry": draw(geometries())})
    return _geojson(features)


class TestGeoJsonProperty:
    @settings(max_examples=25, deadline=None)
    @given(feature_collections())
    def test_maps_next_to_fig1_exit_cleanly_with_finite_views(self, fig1_dir, geojson):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "regions.geojson").write_bytes(geojson)
            manifest = fig1_datasets(fig1_dir)
            manifest[2]["path"] = str(root / "regions.geojson")
            cfg = write_config(root, manifest)
            assert run(["link", "--config", cfg]) in (0, 2, 3)
            render_every_view(cfg)
            assert_no_empty_polygon(root / "out")

    def test_empty_outer_ring_draws_no_empty_polygon(self, fig1_dir, tmp_path):
        """An empty outer ring was kept as a polygon, and the map drew it as
        `<polygon points=""/>`."""
        doc = json.loads((fig1_dir / "regions.geojson").read_text())
        doc["features"][0]["geometry"]["coordinates"] = [[]]
        (tmp_path / "regions.geojson").write_text(json.dumps(doc))
        manifest = fig1_datasets(fig1_dir)
        manifest[2]["path"] = str(tmp_path / "regions.geojson")
        assert render_every_view(write_config(tmp_path, manifest)) >= 3
        assert_no_empty_polygon(tmp_path / "out")


def assert_no_empty_polygon(out: Path) -> None:
    for path in out.glob("*.svg"):
        assert 'points=""' not in path.read_text(), path.name


def render_next_to_fig1(fig1_dir, name: str, content: bytes, dtype: str,
                        sidecar: bytes | None = None) -> None:
    """Write one generated file, and its sidecar table when given, next to
    the fig1 tree and case table, then run `link` and render every view: the
    CLI exits 0, 2 or 3 (an input error, or no such view), never 1, and every
    SVG parses, is finite and holds no empty polygon."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / name).write_bytes(content)
        entry = {"id": "gen", "path": str(root / name), "dtype": dtype}
        if sidecar is not None:
            (root / "sidecar.csv").write_bytes(sidecar)
            entry["associated"] = str(root / "sidecar.csv")
        manifest = fig1_datasets(fig1_dir)[:2] + [entry]
        cfg = write_config(root, manifest)
        assert run(["link", "--config", cfg]) in (0, 2, 3)
        render_every_view(cfg)
        assert_no_empty_polygon(root / "out")


# Record and node ids: fig1 tip and case ids (so the generated file links to
# the tree and the table), ids of its own, and missing markers.
_FIG1_IDS = ["A01", "A02", "A03", "A05", "A08", "C001", "C002", "C004", "x1", "x2",
             "NA", "na", "null", "NULL"]
_SEQUENCE_LINES = st.text(alphabet="ACGTacgtNnRY-?*U", min_size=1, max_size=30)


@st.composite
def fasta_files(draw):
    """FASTA bytes: one to eight records with unique ids, each sequence
    split over up to three lines of upper- or lower-case bases, gaps and
    non-ACGT letters; in some files every record is empty. Blank lines fall
    between records and inside sequences."""
    ids = draw(st.lists(st.sampled_from(_FIG1_IDS), min_size=1, max_size=8, unique=True))
    all_empty = draw(st.booleans())
    lines = []
    for rec_id in ids:
        lines.append(f">{rec_id}{draw(st.sampled_from(['', ' description']))}")
        for _ in range(0 if all_empty else draw(st.integers(0, 3))):
            lines.append(draw(st.one_of(_SEQUENCE_LINES, _SEQUENCE_LINES, st.just(""))))
        lines.extend([""] * draw(st.integers(0, 1)))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def edge_lists(draw):
    """Edge-list CSV bytes: `source,target` and up to two attribute columns;
    endpoints are fig1 ids, other ids, blank or `NA`, and an edge may be a
    self-loop; in some files one row is short or long."""
    attributes = draw(st.lists(st.sampled_from(["kind", "w"]), max_size=2, unique=True))
    endpoints = st.one_of(st.sampled_from(_FIG1_IDS), st.sampled_from(["", " ", "NA"]))
    cells = {"kind": st.sampled_from(["contact", "household", "NA", ""]),
             "w": st.one_of(_NUMBER_CELLS, _MISSING_CELLS)}
    rows = [["source", "target", *attributes]]
    for _ in range(draw(st.integers(1, 10))):
        source = draw(endpoints)
        target = source if draw(st.integers(0, 4)) == 0 else draw(endpoints)
        rows.append([source, target, *(draw(cells[name]) for name in attributes)])
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows[1:]))
        if draw(st.booleans()):
            row.append("extra")
        else:
            row.pop()
    return _table(rows)


@st.composite
def images_with_sidecars(draw):
    """(image bytes, sidecar CSV bytes): a valid PNG, an empty file or bytes
    that are no PNG, and a sidecar keyed by a `lane` column of fig1 ids, other
    ids, blank and `NA` lanes, and repeats, next to cells with quoted commas
    and numbers."""
    image = draw(st.sampled_from(["png", "empty", "not png"]))
    content = {"png": make_png(draw(st.integers(1, 6)), draw(st.integers(1, 6))), "empty": b"",
               "not png": b"GIF89a not a PNG\n"}[image]
    lanes = draw(st.lists(st.one_of(st.sampled_from(_FIG1_IDS), st.sampled_from(["", " ", "NA"])),
                          min_size=1, max_size=8))
    rows = [["lane", "note", "v"]] + [
        [lane, draw(st.sampled_from(["gel, lane", "plain", 'say "hi", twice', ""])),
         draw(st.one_of(_NUMBER_CELLS, _MISSING_CELLS))]
        for lane in lanes]
    return content, _table(rows)


class TestImageProperty:
    @settings(max_examples=25, deadline=None)
    @given(images_with_sidecars())
    def test_images_next_to_fig1_exit_cleanly_with_finite_views(self, fig1_dir, files):
        image, sidecar = files
        render_next_to_fig1(fig1_dir, "gel.png", image, "image", sidecar)


class TestSequenceAndEdgeListProperty:
    @settings(max_examples=25, deadline=None)
    @given(fasta_files())
    def test_fasta_next_to_fig1_exits_cleanly_with_finite_views(self, fig1_dir, fasta):
        render_next_to_fig1(fig1_dir, "s.fasta", fasta, "genomic")

    @settings(max_examples=25, deadline=None)
    @given(edge_lists())
    def test_edge_lists_next_to_fig1_exit_cleanly_with_finite_views(self, fig1_dir, edges):
        render_next_to_fig1(fig1_dir, "e.csv", edges, "network")

    def test_alignment_of_empty_sequences_draws_only_the_ids(self, tmp_path):
        """Found by the FASTA property test: records with no sequence data
        made `render` exit 1 with "no sequences to draw"."""
        (tmp_path / "s.fasta").write_text(">a\n>b\n")
        (tmp_path / "m.csv").write_text("sample_id,grp\na,X\nb,Y\nc,X\nd,Y\n")
        cfg = write_config(tmp_path, [
            {"id": "seqs", "path": str(tmp_path / "s.fasta"), "dtype": "genomic"},
            {"id": "m", "path": str(tmp_path / "m.csv"), "dtype": "tabular"},
        ])
        assert run(["render", "--config", cfg, "--view", "1"]) == 0
        root = ET.parse(tmp_path / "out" / "view_001.svg").getroot()
        alignment = next(g for g in root.iter(f"{SVG_NS}g")
                         if g.get("data-cell") == "seqs:genomic alignment table")
        assert [t.text for t in alignment.iter(f"{SVG_NS}text") if t.get("class") == "tick-y"] \
            == ["a", "b"]
        assert not [el for el in alignment.iter() if el.get("class") == "mark"]


class TestRobustness:
    @pytest.mark.parametrize("case", sorted(EXTREME_NUMBERS))
    def test_extreme_numbers_render_finite_views(self, tmp_path, case):
        dtype, name, content = EXTREME_NUMBERS[case]
        (tmp_path / name).write_bytes(content)
        cfg = write_config(tmp_path, [{"id": "x", "path": str(tmp_path / name), "dtype": dtype}])
        assert render_every_view(cfg) >= 1

    # values a fifth of their range apart that print alike at two decimals,
    # and a constant too large to print in fixed point
    NARROW_RANGE = [0.0010 + 0.0002 * i for i in range(15)]
    CONSTANT_HUGE = ["1e300"] * 15

    @staticmethod
    def charts_of_every_view(tmp_path, values) -> dict[str, list[ET.Element]]:
        """Chart type -> its cell group in each rendered view of one table
        `sample_id,v,grp`."""
        (tmp_path / "t.csv").write_bytes(_sample_table(values))
        cfg = write_config(tmp_path, [{"id": "t", "path": str(tmp_path / "t.csv"),
                                       "dtype": "tabular"}])
        assert render_every_view(cfg) >= 1
        by_type: dict[str, list[ET.Element]] = {}
        for path in sorted((tmp_path / "out").glob("view_*.svg")):
            for group in ET.parse(path).getroot().iter(f"{SVG_NS}g"):
                if group.get("data-cell"):
                    by_type.setdefault(group.get("data-cell").split(":", 1)[1], []).append(group)
        return by_type

    @staticmethod
    def heatmap_bands_of_v(heatmap: ET.Element) -> set[int]:
        """The x band of every heatmap cell; v is bound to x."""
        cells = [r for r in heatmap.iter(f"{SVG_NS}rect") if r.get("class") == "mark"]
        assert cells
        width = float(cells[0].get("width"))
        return {round((float(r.get("x")) - charts.MARGIN_L) / width) for r in cells}

    def test_heatmap_bins_of_a_narrow_range_stay_apart(self, tmp_path):
        heatmaps = self.charts_of_every_view(tmp_path, self.NARROW_RANGE)["heatmap"]
        assert all(len(self.heatmap_bands_of_v(h)) >= 2 for h in heatmaps)

    def test_heatmap_bins_of_a_constant_huge_column_fall_in_band_0(self, tmp_path):
        heatmaps = self.charts_of_every_view(tmp_path, self.CONSTANT_HUGE)["heatmap"]
        assert all(self.heatmap_bands_of_v(h) == {0} for h in heatmaps)

    @pytest.mark.parametrize("values", ["NARROW_RANGE", "CONSTANT_HUGE"])
    def test_tick_labels_stay_short(self, tmp_path, values):
        by_type = self.charts_of_every_view(tmp_path, getattr(self, values))
        for group in (g for groups in by_type.values() for g in groups):
            for axis in ("tick-x", "tick-y"):
                labels = [t.text for t in group.iter(f"{SVG_NS}text") if t.get("class") == axis]
                assert all(len(label) <= 12 for label in labels), labels
                if values == "NARROW_RANGE":
                    assert len(set(labels)) == len(labels), labels

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input_exits_two_and_names_file(self, tmp_path, capsys, case):
        dtype, name, content = MALFORMED_INPUTS[case]
        (tmp_path / name).write_bytes(content)
        (tmp_path / "m.csv").write_text("sample_id,grp\na,X\nb,Y\nc,X\nd,Y\n")
        cfg = write_config(tmp_path, [
            {"id": "bad", "path": str(tmp_path / name), "dtype": dtype},
            {"id": "m", "path": str(tmp_path / "m.csv"), "dtype": "tabular"},
        ])
        assert run(["render", "--config", cfg, "--view", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / "out").exists()

    def test_a_marked_file_with_a_bad_byte_is_not_utf8(self, tmp_path, capsys):
        """The byte-order mark is dropped after decoding, so a bad byte after
        it still fails the decoding, at its offset in the file's bytes."""
        (tmp_path / "t.nwk").write_bytes(b"\xef\xbb\xbf((a:1,b:1):1,(\xff:1,d:2):1);\n")
        cfg = write_config(tmp_path, [{"id": "t", "path": str(tmp_path / "t.nwk"), "dtype": "tree"}])
        assert run(["link", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse tree data at {tmp_path / 't.nwk'}: not UTF-8: ")
        assert "byte 0xff in position 17:" in err

    def test_fieldless_datasets_warn_once_each_and_leave_outputs_alone(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("pid,grp\n" + "".join(f"p{i},g{i % 2}\n" for i in range(14)))
        (tmp_path / "blank.csv").write_text("a,b\nNA,\nna,null\n")
        ring = [[0, 0], [1, 0], [1, 1], [0, 0]]
        features = [{"type": "Feature", "properties": {},
                     "geometry": {"type": "Polygon", "coordinates": [ring]}}] * 2
        (tmp_path / "e.geojson").write_text(
            json.dumps({"type": "FeatureCollection", "features": features}))
        table = {"id": "t", "path": str(tmp_path / "t.csv"), "dtype": "tabular"}
        empty = [
            {"id": "blank", "path": str(tmp_path / "blank.csv"), "dtype": "tabular"},
            {"id": "e", "path": str(tmp_path / "e.geojson"), "dtype": "spatial"},
        ]
        outputs = {}
        for name, manifest in (("plain", [table]), ("with_empty", [table, *empty])):
            base = tmp_path / name
            base.mkdir()
            cfg = write_config(base, manifest)
            capsys.readouterr()
            for args in (["link"], ["graph"], ["specs"], ["render", "--view", "1"]):
                assert run([*args, "--config", cfg]) == 0
                err = capsys.readouterr().err
                for dataset in empty:
                    expected = 1 if name == "with_empty" else 0
                    assert err.count(f"dataset {dataset['id']!r} yields no fields") == expected
            outputs[name] = {p.name: p.read_bytes() for p in sorted((base / "out").iterdir())
                             if p.name != "manifest.json"}
        assert outputs["plain"] == outputs["with_empty"]

    def test_pair_table_binding_tree_ids_on_both_axes(self, tmp_path):
        """An infector,infectee table next to a tree binds the tree's linkage
        class on x and y; such a chart is left out of every spatial group."""
        def newick(labels):
            if len(labels) == 1:
                return f"{labels[0]}:0.1"
            mid = len(labels) // 2
            return f"({newick(labels[:mid])},{newick(labels[mid:])}):0.05"

        (tmp_path / "tree.nwk").write_text(
            newick([f"s{i}" for i in range(20)])[: -len(":0.05")] + ";\n")
        (tmp_path / "pairs.csv").write_text(
            "infector,infectee\n" + "".join(f"s{i - 1},s{i}\n" for i in range(1, 20)))
        cfg = write_config(tmp_path, [
            {"id": "tree", "path": str(tmp_path / "tree.nwk"), "dtype": "tree"},
            {"id": "pairs", "path": str(tmp_path / "pairs.csv"), "dtype": "tabular"},
        ])
        assert run(["specs", "--config", cfg]) == 0
        assert run(["render", "--config", cfg, "--view", "1"]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        assert any(c["id"] == "pairs:scatter chart" for v in views for c in v["charts"])
        for view in views:
            group = view["plan"]["spatial_group"]
            assert group is None or "pairs:scatter chart" not in group["members"]


    @pytest.mark.parametrize("seed", range(6))
    def test_histogram_keeps_its_only_axis(self, tmp_path, seed):
        """A histogram (slot x only) shares its numeric field with a scatter
        that binds it on y; whichever chart leads, the group's axis is x and
        the histogram is never moved onto y. The matrix leaves heatmap and
        scatter unsupported, so the heatmap+scatter pair does not outrank
        this group; the line chart, which binds the field on y and cannot
        swap, stays out of it."""
        (tmp_path / "t.csv").write_text("sample_id,age,score\n" + "".join(
            f"s{i},{20 + i},{(7 * i) % 15}\n" for i in range(15)))
        matrix = (ASSETS_DIR / "viability_matrix.csv").read_text().splitlines()
        header = matrix[0].split(",")
        rows = {line.split(",")[0]: line.split(",") for line in matrix[1:]}
        rows["heatmap"][header.index("scatter chart")] = "P"
        rows["scatter chart"][header.index("heatmap")] = "P"
        (tmp_path / "matrix.csv").write_text(
            "\n".join([matrix[0]] + [",".join(r) for r in rows.values()]) + "\n")
        cfg = write_config(tmp_path, [
            {"id": "t", "path": str(tmp_path / "t.csv"), "dtype": "tabular"}],
            viability_matrix=str(tmp_path / "matrix.csv"))
        assert run(["render", "--config", cfg, "--view", "1", "--seed", seed]) == 0
        view = json.loads((tmp_path / "out" / "view_001.json").read_text())
        group = view["plan"]["spatial_group"]
        assert "t:histogram" in group["members"] and group["axis"] == "x"
        charts = {c["id"]: c for c in view["charts"]}
        assert list(charts["t:histogram"]["bindings"]) == ["x"]
        for sid in group["members"]:
            assert charts[sid]["bindings"]["x"]["field"] == "age"

    @pytest.mark.parametrize("seed", range(6))
    def test_rotation_keeps_every_template_slot(self, tmp_path, seed):
        """Next to a histogram on `age`, a line chart binds `x: sample_id,
        y: age`; swapping would put the ids on its numeric-only y, so it is
        never rotated, and every bound field passes its template slot."""
        (tmp_path / "t.csv").write_text("sample_id,age,score\n" + "".join(
            f"s{i},{20 + i},{(7 * i) % 15}\n" for i in range(15)))
        cfg = write_config(tmp_path, [
            {"id": "t", "path": str(tmp_path / "t.csv"), "dtype": "tabular"}])
        assert run(["render", "--config", cfg, "--view", "1", "--seed", seed]) == 0
        view = json.loads((tmp_path / "out" / "view_001.json").read_text())
        charts = {c["id"]: c for c in view["charts"]}
        line = charts["t:line chart"]
        assert {ch: b["field"] for ch, b in line["bindings"].items()} == {
            "x": "sample_id", "y": "age"}
        assert "rotated" not in line["annotations"]

        fields, _ = explode_fields([load_dataset(tmp_path / "t.csv", "tabular", dataset_id="t")])
        by_name = {f.name: f for f in fields}
        shipped = load_templates(ASSETS_DIR / "chart_templates.json", DRAWABLE)
        templates = {t.chart_type: t for t in shipped}
        for chart in view["charts"]:
            slots = {s.channel: s for s in templates[chart["chart_type"]].slots}
            for channel, binding in chart["bindings"].items():
                assert slot_accepts(slots[channel], by_name[binding["field"]]), (
                    chart["id"], channel)

    def test_deep_ladder_tree(self, tmp_path):
        """A 1,200-leaf caterpillar tree nests deeper than Python's recursion
        limit; parsing, linking and drawing it must not recurse per level."""
        newick = "s0:0.1"
        for i in range(1, 1200):
            newick = f"({newick},s{i}:0.1):0.05"
        (tmp_path / "tree.nwk").write_text(newick + ";\n")
        (tmp_path / "t.csv").write_text(
            "sample_id,grp\n" + "".join(f"s{i},g{i % 3}\n" for i in range(1200)))
        cfg = write_config(tmp_path, [
            {"id": "tree", "path": str(tmp_path / "tree.nwk"), "dtype": "tree"},
            {"id": "t", "path": str(tmp_path / "t.csv"), "dtype": "tabular"},
        ])
        assert run(["link", "--config", cfg]) == 0
        assert run(["render", "--config", cfg, "--view", "1"]) == 0
        view = json.loads((tmp_path / "out" / "view_001.json").read_text())
        assert "tree:phylogenetic tree" in [c["id"] for c in view["charts"]]
        svg = (tmp_path / "out" / "view_001.svg").read_text()
        assert svg.count("<line") >= 2 * (2 * 1200 - 2)  # two lines per branch

    @staticmethod
    def tree_config(tmp_path, newick: str) -> Path:
        """Config of one tree over leaves a..d with an associated table."""
        (tmp_path / "tree.nwk").write_text(newick)
        (tmp_path / "meta.csv").write_text("sample_id,grp\na,X\nb,Y\nc,X\nd,Y\n")
        return write_config(tmp_path, [{"id": "tree", "path": str(tmp_path / "tree.nwk"),
                                        "dtype": "tree", "associated": str(tmp_path / "meta.csv")}])

    @pytest.mark.parametrize("length", [1e308, -1e308])
    def test_depths_past_the_float_range_draw_a_finite_tree(self, tmp_path, length):
        """Each branch length is finite, but root-to-leaf sums of them
        overflowed to inf, and the tree's lines were drawn at x="nan"."""
        cfg = self.tree_config(
            tmp_path, f"(((a:{length!r},b:0):{length!r},c:0):{length!r},d:1);\n")
        assert render_every_view(cfg) >= 1
        svg = (tmp_path / "out" / "view_001.svg").read_text()
        assert svg.count("<line") >= 2 * 6  # two lines per branch

    @pytest.mark.parametrize("newick", [
        "((a:-5,b:0.001):0.002,(c:1,d:2):1);\n",
        "(a:-1,b:-2);\n",
    ])
    def test_negative_branch_lengths_stay_on_the_canvas(self, tmp_path, newick):
        """The depth axis spans the negative depths too, so a leaf above its
        root is no longer drawn left of the chart; a tree with no positive
        depth spans exactly its own depths, not up to 1."""
        cfg = self.tree_config(tmp_path, newick)
        assert run(["render", "--config", cfg, "--view", "1"]) == 0
        root = ET.parse(tmp_path / "out" / "view_001.svg").getroot()
        tree = next(g for g in root.iter(f"{SVG_NS}g")
                    if g.get("data-cell") == "tree:phylogenetic tree")
        xs = [float(line.get(a)) for line in tree.iter(f"{SVG_NS}line") for a in ("x1", "x2")]
        assert xs and all(charts.MARGIN_L <= x <= charts.CELL_W for x in xs)
        assert min(xs) == charts.MARGIN_L
        assert max(xs) == charts.MARGIN_L + charts.PLOT_W - 70


class TestCyclicCollector:
    """`main` pauses the cyclic collector for the command and leaves it as
    it found it, however the command ends."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.fixture
    def collector_states(self, monkeypatch):
        """gc.isenabled() as each call of `cli.assemble` saw it."""
        states = []

        def recording(*args, **kwargs):
            states.append(gc.isenabled())
            return pipeline.assemble(*args, **kwargs)

        monkeypatch.setattr(cli, "assemble", recording)
        return states

    def test_paused_during_the_command_and_on_after_it(self, synthetic_dir, tmp_path,
                                                       collector_states):
        gc.enable()
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["specs", "--config", cfg]) == 0
        assert collector_states == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("case, code", [("missing dataset file", 2), ("bad flag", 3)])
    def test_on_after_a_failed_command(self, tmp_path, case, code):
        cfg = write_config(tmp_path, [
            {"id": "gone", "path": str(tmp_path / "gone.csv"), "dtype": "tabular"},
        ])
        flags = ["--max-charts", "many"] if case == "bad flag" else []
        gc.enable()
        assert run(["specs", "--config", cfg, *flags]) == code
        assert gc.isenabled()

    def test_on_after_an_unexpected_exception(self, synthetic_dir, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "assemble", failing)
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        gc.enable()
        with pytest.raises(RuntimeError, match="unexpected"):
            run(["specs", "--config", cfg])
        assert gc.isenabled()

    def test_stays_off_when_the_caller_turned_it_off(self, synthetic_dir, tmp_path,
                                                      collector_states):
        gc.disable()
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["specs", "--config", cfg]) == 0
        assert collector_states == [False]
        assert not gc.isenabled()


class TestUsageAndDeterminism:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"reconviz {reconviz.__version__}\n"

    def test_python_dash_m_runs_the_cli(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["reconviz", "--version"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("reconviz", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"reconviz {reconviz.__version__}\n"

    def test_missing_config_flag_is_usage_error(self):
        assert run(["specs"]) == 3

    def test_unknown_command_is_usage_error(self):
        assert run(["explode"]) == 3

    def test_bad_knob_is_config_error(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir), min_jaccard=1.5)
        assert run(["specs", "--config", cfg]) == 2

    def test_template_file_listing_a_chart_type_twice_exits_two(
        self, synthetic_dir, tmp_path, capsys
    ):
        """Each dataset would get two specs with one id, and the lead-chart
        choice then failed as an internal error."""
        shipped = json.loads((ASSETS_DIR / "chart_templates.json").read_text())
        doubled = tmp_path / "doubled_templates.json"
        doubled.write_text(json.dumps(shipped + shipped))
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir), templates=str(doubled))
        assert run(["specs", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(doubled) in err
        assert repr(shipped[0]["chart_type"]) in err
        assert not (tmp_path / "out").exists()

    def test_valid_flag_overrides_an_invalid_file_value(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir), max_charts=0)
        assert run(["specs", "--config", cfg]) == 2
        assert run(["specs", "--config", cfg, "--max-charts", "3"]) == 0
        views = json.loads((tmp_path / "out" / "specs.json").read_text())
        assert max(len(v["charts"]) for v in views) == 3

    @pytest.mark.parametrize("flag, value, key", [
        ("--max-charts", "0", "max_charts"),
        ("--min-jaccard", "1", "min_jaccard"),
        ("--lambda", "1.5", "lambda"),
    ])
    def test_invalid_flag_over_a_valid_file_exits_two_naming_the_key(
        self, synthetic_dir, tmp_path, capsys, flag, value, key
    ):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir), max_charts=4)
        assert run(["specs", "--config", cfg, flag, value]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("max_charts", "5"),
        ("max_charts", 2.0),
        ("highcard_threshold", True),
        ("color_card_limit", [12]),
        ("max_views_per_component", "10"),
        ("seed", False),
        ("min_jaccard", "0.1"),
        ("lambda", True),
        ("user_fields", "region"),
        ("user_fields", ["region", 3]),
        ("design_space", 7),
        ("templates", ["a.json"]),
        ("out_dir", {"path": "out"}),
        ("datasets", 5),
        ("datasets", ["t.csv"]),
        ("datasets", [{"path": 3, "dtype": "tabular"}]),
        ("datasets", [{"path": "t.csv", "dtype": ["tabular"]}]),
        ("datasets", [{"path": "t.csv", "dtype": "tabular", "id": 1}]),
        ("datasets", [{"path": "t.csv", "dtype": "tabular", "associated": False}]),
    ])
    def test_config_value_of_the_wrong_type_exits_two_naming_the_key(
        self, tmp_path, capsys, key, value
    ):
        (tmp_path / "t.csv").write_text("region,n\nnorth,1\nsouth,2\n")
        doc = {"datasets": [{"path": "t.csv", "dtype": "tabular"}], key: value}
        cfg = write_config(tmp_path, doc.pop("datasets"), **doc)
        assert run(["specs", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: config key ") and repr(key) in err, err
        assert not (tmp_path / "out").exists()

    def test_a_flag_replaces_a_file_value_of_the_wrong_type(self, tmp_path):
        (tmp_path / "t.csv").write_text("region,n\nnorth,1\nsouth,2\n")
        cfg = write_config(tmp_path, [{"path": "t.csv", "dtype": "tabular"}], max_charts="5")
        assert run(["specs", "--config", cfg, "--max-charts", "2"]) == 0

    @staticmethod
    def loaded_after_importing_the_cli(modules: tuple[str, ...]) -> list[str]:
        """Which of `modules` a fresh interpreter holds after `import reconviz.cli`."""
        probe = f"import sys, reconviz.cli; print(*sorted(m for m in {modules!r} if m in sys.modules))"
        src = Path(reconviz.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        return done.stdout.split()

    def test_importing_the_cli_leaves_out_the_network_and_email_modules(self):
        assert self.loaded_after_importing_the_cli(
            ("xml.sax", "urllib.request", "http.client", "email")) == []

    def test_importing_the_cli_leaves_out_dataclasses_and_inspect(self):
        """Every command pays for what `reconviz.cli` imports; generating
        dataclass methods and importing `inspect` with them cost ~50 ms."""
        assert self.loaded_after_importing_the_cli(("dataclasses", "inspect")) == []

    def test_seed_flag_and_file_seed_hash_alike(self, synthetic_dir, tmp_path):
        hashes = []
        for name, extra, flags in (("file", {"seed": 7}, []), ("flag", {}, ["--seed", "7"])):
            base = tmp_path / name
            base.mkdir()
            cfg = write_config(base, synthetic_manifest(synthetic_dir), **extra)
            assert run(["relevance", "--config", cfg, *flags]) == 0
            manifest = json.loads((base / "out" / "manifest.json").read_text())
            assert manifest["config"]["seed"] == 7
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1]

    def test_run_config_is_frozen_and_validated_when_built(self):
        config = RunConfig()
        with pytest.raises(AttributeError, match="frozen"):
            config.max_charts = 0
        with pytest.raises(ConfigError, match="max_charts"):
            RunConfig(max_charts=0)

    @pytest.mark.parametrize("entries, needle", [
        ([("x", "cases.csv", "bogus", None)], "dataset 'x': unknown dtype 'bogus'"),
        ([("x", "cases.csv", "tabular", "phylo_meta.csv")],
         "dataset 'x': tabular data takes no associated table"),
        ([("x", "phylo.nwk", "tree", "nope.csv")], "dataset 'x': file not found: "),
        ([("x", "nope.csv", "tabular", None)], "dataset 'x': file not found: "),
        ([("x", "cases.csv", "tabular", None), ("x", "phylo.nwk", "tree", None)],
         "duplicate dataset id 'x' in manifest"),
    ], ids=["unknown dtype", "associated on tabular", "missing associated file",
            "missing data file", "duplicate id"])
    def test_a_run_config_built_in_code_keeps_the_manifest_rules(self, fig1_dir, entries, needle):
        """A broken entry given to RunConfig raised KeyError in load_datasets."""
        datasets = tuple(ManifestEntry(ds_id, fig1_dir / path, dtype,
                                       associated and fig1_dir / associated)
                         for ds_id, path, dtype, associated in entries)
        with pytest.raises(ConfigError) as caught:
            RunConfig(datasets=datasets).load_datasets()
        assert str(caught.value).startswith(needle)

    def test_a_run_config_built_in_code_takes_string_paths(self, fig1_dir):
        entry = ManifestEntry("x", str(fig1_dir / "cases.csv"), "tabular", None)
        assert [ds.id for ds in RunConfig(datasets=(entry,)).load_datasets()] == ["x"]

    def test_two_runs_are_byte_identical(self, synthetic_dir, tmp_path):
        outputs = []
        for name in ("one", "two"):
            base = tmp_path / name
            base.mkdir()
            cfg = write_config(base, synthetic_manifest(synthetic_dir), seed=99)
            assert run(["link", "--config", cfg]) == 0
            assert run(["graph", "--config", cfg]) == 0
            assert run(["specs", "--config", cfg]) == 0
            assert run(["render", "--config", cfg, "--view", "1"]) == 0
            blob = {
                p.name: p.read_bytes()
                for p in sorted((base / "out").iterdir())
                if p.name != "manifest.json"  # embeds the out_dir path
            }
            outputs.append(blob)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

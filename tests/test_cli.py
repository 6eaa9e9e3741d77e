import json

import jsonschema
import pytest

import reconviz
from reconviz.cli import main
from reconviz.config import ASSETS_DIR

from conftest import synthetic_manifest, write_config


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
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir))
        assert run(["render", "--config", cfg, "--view", "99"]) == 3
        assert "out of range" in capsys.readouterr().err


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


class TestRobustness:
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


class TestUsageAndDeterminism:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"reconviz {reconviz.__version__}\n"

    def test_missing_config_flag_is_usage_error(self):
        assert run(["specs"]) == 3

    def test_unknown_command_is_usage_error(self):
        assert run(["explode"]) == 3

    def test_bad_knob_is_config_error(self, synthetic_dir, tmp_path):
        cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir), min_jaccard=1.5)
        assert run(["specs", "--config", cfg]) == 2

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

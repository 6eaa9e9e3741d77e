"""Asset and config files that are not what the program expects: each must
end the run with exit 2 and a message naming the file and the cause, never
with a traceback or exit 1.

The named tests pin the shapes that once crashed; the property test feeds
the CLI generated templates, encoding maps, viability matrices, design
spaces and config files, valid and mis-shaped alike."""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reconviz.cli import main
from reconviz.config import ASSETS_DIR

from conftest import DATA_DIR, fig1_datasets, write_config

FIG1 = DATA_DIR / "fig1"

# config key -> shipped asset file
SHIPPED = {
    "templates": ASSETS_DIR / "chart_templates.json",
    "type_encodings": ASSETS_DIR / "type_encodings.json",
    "viability_matrix": ASSETS_DIR / "viability_matrix.csv",
    "design_space": ASSETS_DIR / "design_space_genepi.csv",
}

COMMANDS = [["specs"], ["render", "--view", "1"]]


def run_quietly(args, cwd: Path | None = None) -> tuple[int, str]:
    """CLI exit code and stderr of one run in `cwd`, stdout dropped."""
    err = io.StringIO()
    home = os.getcwd()
    try:
        os.chdir(cwd or home)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in args])
    finally:
        os.chdir(home)
    return code, err.getvalue()


def fig1_config(root: Path, **assets: bytes) -> Path:
    """Config of the fig1 collection whose assets named by config key are
    written into `root` with the given bytes; the rest are the shipped ones."""
    paths = {}
    for key, content in assets.items():
        paths[key] = root / f"{key}{SHIPPED[key].suffix}"
        paths[key].write_bytes(content)
    return write_config(root, fig1_datasets(FIG1), **{k: str(p) for k, p in paths.items()})


def shipped_json(key: str):
    return json.loads(SHIPPED[key].read_text(encoding="utf-8"))


def assert_input_error(cfg: Path, command: list[str], *needles: str) -> None:
    code, err = run_quietly([*command, "--config", cfg])
    assert code == 2, err
    assert err.startswith("error: "), err
    for needle in needles:
        assert needle in err, (needle, err)


@pytest.mark.parametrize("command", COMMANDS, ids=["specs", "render"])
class TestAssetFilesExitTwo:
    @pytest.mark.parametrize("key", ["templates", "type_encodings"])
    def test_json_asset_that_is_not_json(self, tmp_path, command, key):
        cfg = fig1_config(tmp_path, **{key: b'{"tabular": ["bar chart",'})
        assert_input_error(cfg, command, f"{key}.json", "not valid JSON")

    @pytest.mark.parametrize("key", ["templates", "type_encodings"])
    def test_json_asset_with_an_integer_past_the_digit_limit(self, tmp_path, command, key):
        """json.loads raised a plain ValueError, and the run ended in a
        traceback."""
        cfg = fig1_config(tmp_path, **{key: b'{"tabular": [1' + b"0" * 5000 + b"]}"})
        assert_input_error(cfg, command, f"{key}.json", "not valid JSON")

    @pytest.mark.parametrize("key", ["viability_matrix", "design_space"])
    def test_csv_asset_that_is_not_utf8(self, tmp_path, command, key):
        cfg = fig1_config(tmp_path, **{key: SHIPPED[key].read_bytes() + b"\xff\xfe\n"})
        assert_input_error(cfg, command, f"{key}.csv", "not UTF-8")

    @pytest.mark.parametrize("key", ["viability_matrix", "design_space"])
    def test_csv_asset_with_a_cell_past_the_field_limit(self, tmp_path, command, key):
        """A cell of more than the csv module's 131,072-character field size
        limit raised `_csv.Error`, and the run ended in a traceback."""
        cfg = fig1_config(tmp_path, **{key: SHIPPED[key].read_bytes() + b"x" * 140_000 + b",1,1\n"})
        assert_input_error(cfg, command, f"{key}.csv", "field larger than field limit")

    def test_template_without_chart_type(self, tmp_path, command):
        templates = shipped_json("templates")
        del templates[1]["chart_type"]
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "chart_type")

    def test_template_entry_that_is_not_an_object(self, tmp_path, command):
        templates = shipped_json("templates") + ["scatter chart"]
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "array of objects")

    def test_template_file_listing_no_template(self, tmp_path, command):
        """Found by the property test: `specs` wrote no view and exited 0, and
        `render --view 1` said `view 1 out of range (1..0)`."""
        cfg = fig1_config(tmp_path, templates=b"[]")
        assert_input_error(cfg, command, "templates.json", "non-empty JSON array")

    def test_template_slot_that_is_not_an_object(self, tmp_path, command):
        templates = shipped_json("templates")
        templates[1]["slots"][0] = "x"
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "slot objects")

    def test_template_slot_required_given_as_a_string(self, tmp_path, command):
        """`"required": "false"` was read as true."""
        templates = shipped_json("templates")
        templates[1]["slots"][2]["required"] = "false"
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "required is true or false")

    def test_template_slot_with_unknown_channel_names_the_file(self, tmp_path, command):
        templates = shipped_json("templates")
        del templates[1]["slots"][0]["channel"]
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "unknown channel None")

    def test_encoding_map_value_given_as_a_string(self, tmp_path, command):
        """The string was walked character by character, and the message
        said the map listed 'b'."""
        encodings = {**shipped_json("type_encodings"), "tabular": "bar chart"}
        cfg = fig1_config(tmp_path, type_encodings=json.dumps(encodings).encode())
        code, err = run_quietly([*command, "--config", cfg])
        assert code == 2 and "type_encodings.json" in err and "list of chart type" in err, err
        assert "'b'" not in err

    def test_template_for_a_chart_type_no_renderer_draws(self, tmp_path, command):
        """`specs` wrote views with a violin plot, and `render --view 1`
        ended in `internal error: violin plot`."""
        templates = shipped_json("templates") + [{
            "chart_type": "violin plot", "dtype": "tabular",
            "slots": [{"channel": "y", "constraint": "numeric", "required": True}]}]
        space = SHIPPED["design_space"].read_bytes() + b"violin plot,2020,500\n"
        encodings = shipped_json("type_encodings")
        encodings["tabular"].append("violin plot")
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode(), design_space=space,
                          type_encodings=json.dumps(encodings).encode())
        assert_input_error(cfg, command, "templates.json", "'violin plot'")
        assert not (tmp_path / "out").exists()

    def test_template_for_a_data_type_its_renderer_does_not_draw(self, tmp_path, command):
        """A map template for tables put a map of a table into specs.json, and
        drawing it ended in an AttributeError traceback."""
        templates = shipped_json("templates")
        next(t for t in templates if t["chart_type"] == "geographic map")["dtype"] = "tabular"
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "'geographic map' draws spatial data")

    def test_template_leaving_a_drawn_channel_optional(self, tmp_path, command):
        """A scatter chart bound only to color was written to specs.json, and
        drawing it ended in an AttributeError traceback."""
        templates = shipped_json("templates")
        scatter = next(t for t in templates if t["chart_type"] == "scatter chart")
        scatter["slots"] = [{"channel": "color", "required": True}]
        cfg = fig1_config(tmp_path, templates=json.dumps(templates).encode())
        assert_input_error(cfg, command, "templates.json", "'scatter chart'", "x, y")

    def test_template_naming_one_channel_in_two_slots(self, tmp_path, command):
        """`specs` wrote `"required_channels": ["x", "x"]` with a single x
        binding: the second slot's field had replaced the first's."""
        histogram = {"chart_type": "histogram", "dtype": "tabular",
                     "slots": [{"channel": "x", "required": True}] * 2}
        cfg = fig1_config(tmp_path, templates=json.dumps([histogram]).encode())
        assert_input_error(cfg, command, "templates.json", "'histogram'", "channel 'x'")

    def test_asset_path_that_is_a_directory(self, tmp_path, command):
        (tmp_path / "assets").mkdir()
        cfg = write_config(tmp_path, fig1_datasets(FIG1), templates=str(tmp_path / "assets"))
        assert_input_error(cfg, command, str(tmp_path / "assets"))


class TestInputFilesExitTwo:
    def test_config_file_that_is_not_utf8(self, tmp_path):
        cfg = write_config(tmp_path, fig1_datasets(FIG1))
        cfg.write_bytes(cfg.read_bytes().replace(b'"datasets"', b'"d\xe4tasets"'))
        assert_input_error(cfg, ["specs"], str(cfg), "not UTF-8")

    def test_config_integer_past_the_digit_limit(self, tmp_path):
        """A `seed` of 5,001 digits: json.loads raised a plain ValueError, and
        the run ended in a traceback."""
        cfg = write_config(tmp_path, fig1_datasets(FIG1), seed=0)
        cfg.write_bytes(cfg.read_bytes().replace(b'"seed": 0', b'"seed": 1' + b"0" * 5000))
        assert_input_error(cfg, ["specs"], str(cfg), "not valid JSON")

    def test_encoding_map_listing_no_chart_type_for_a_data_type(self, tmp_path):
        """Found by the property test: ranking took the maximum over an empty
        list and the run ended in a ValueError traceback. Then the message
        named the data type but not the map file."""
        encodings = {**shipped_json("type_encodings"), "tabular": []}
        cfg = fig1_config(tmp_path, type_encodings=json.dumps(encodings).encode())
        assert_input_error(cfg, ["specs"], "type_encodings.json",
                           "no chart type for data type 'tabular'")

    def test_encoding_map_leaving_out_a_data_type_in_use_names_the_file(self, tmp_path):
        encodings = shipped_json("type_encodings")
        del encodings["tree"]
        cfg = fig1_config(tmp_path, type_encodings=json.dumps(encodings).encode())
        assert_input_error(cfg, ["specs"], "type_encodings.json",
                           "no chart type for data type 'tree'")

    @pytest.mark.parametrize("row", ["bar chart,2020,1" + "0" * 400,
                                     "bar chart,-1" + "0" * 400 + ",5"],
                             ids=["count", "year span"])
    def test_design_space_numbers_past_the_float_range(self, tmp_path, row):
        """Found by the property test: weighing such a count or year span
        ended in an OverflowError traceback."""
        space = SHIPPED["design_space"].read_bytes() + row.encode() + b"\n"
        cfg = fig1_config(tmp_path, design_space=space)
        assert_input_error(cfg, ["relevance"], "must fit a float")

    @pytest.mark.parametrize("col, cell, needle", [(2, "S", "not symmetric"),
                                                   (1, "5", "bad value '5'")])
    def test_viability_cell_error_names_the_file(self, tmp_path, col, cell, needle):
        rows = list(csv.reader(io.StringIO(SHIPPED["viability_matrix"].read_text("utf-8"))))
        rows[1][col] = cell
        cfg = fig1_config(tmp_path, viability_matrix=_csv_bytes(rows))
        assert_input_error(cfg, ["specs"], "viability_matrix.csv", needle)

    def test_dataset_path_that_is_a_directory(self, tmp_path):
        """An empty dataset path resolves to the config file's own directory,
        which exists, and reading it ended in an IsADirectoryError traceback."""
        cfg = write_config(tmp_path, [{"id": "t", "path": "", "dtype": "tabular"}])
        assert_input_error(cfg, ["link"], str(tmp_path))

    def test_out_dir_that_is_a_file(self, tmp_path):
        """Writing under an existing file ended in a FileExistsError traceback."""
        cfg = write_config(tmp_path, fig1_datasets(FIG1), out_dir="config.json")
        assert_input_error(cfg, ["specs"], "config.json")


def _manifest(index: int, **changes):
    """Builds the fig1 config with manifest entry `index` updated by `changes`;
    a key changed to None is removed."""
    def build(root: Path) -> Path:
        datasets = fig1_datasets(FIG1)
        entry = {**datasets[index], **changes}
        datasets[index] = {key: value for key, value in entry.items() if value is not None}
        return write_config(root, datasets)
    return build


def _feature(**changes):
    """Builds the fig1 config with the map's first feature updated by `changes`."""
    def build(root: Path) -> Path:
        doc = json.loads((FIG1 / "regions.geojson").read_text(encoding="utf-8"))
        doc["features"][0].update(changes)
        (root / "regions.geojson").write_text(json.dumps(doc), encoding="utf-8")
        return _manifest(2, path="regions.geojson")(root)
    return build


def _assets(**assets: bytes):
    """Builds the fig1 config with the given asset files, as `fig1_config`."""
    return lambda root: fig1_config(root, **assets)


def _template_with_unknown_constraint(root: Path) -> Path:
    templates = shipped_json("templates")
    templates[0]["slots"][0]["constraint"] = "bogus"
    return fig1_config(root, templates=json.dumps(templates).encode())


def _fasta_with_unkeyed_table(root: Path) -> Path:
    (root / "f.fasta").write_text(">s1\nACGT\n", encoding="utf-8")
    (root / "f_meta.csv").write_text("id,g\nzz,1\n", encoding="utf-8")
    return write_config(root, [{"id": "f", "path": "f.fasta", "dtype": "genomic",
                                "associated": "f_meta.csv"}])


# case -> (config builder, what stderr must name) for a manifest that breaks a
# rule of the config file: every command refuses it, `relevance` too, which
# loads no dataset
MANIFEST_ERRORS = {
    "unknown dtype": (_manifest(1, dtype="bogus"), ["config.json", "dataset 'cases'", "'bogus'"]),
    "missing associated file": (_manifest(0, associated="nope.csv"),
                                ["config.json", "dataset 'phylo'", "nope.csv"]),
    "missing data file": (_manifest(1, path="nope.csv"),
                          ["config.json", "dataset 'cases'", "nope.csv"]),
    "entry without dtype": (_manifest(1, dtype=None), ["config.json", "dataset entry 1"]),
    "duplicate dataset ids": (_manifest(2, id="cases"), ["config.json", "'cases'"]),
    "associated on tabular": (_manifest(1, associated=str(FIG1 / "phylo_meta.csv")),
                              ["config.json", "tabular data takes no associated table"]),
    "associated on spatial": (_manifest(2, associated=str(FIG1 / "phylo_meta.csv")),
                              ["config.json", "spatial data takes no associated table"]),
    "associated on network": (_manifest(1, dtype="network", associated=str(FIG1 / "phylo_meta.csv")),
                              ["config.json", "network data takes no associated table"]),
    "config value of the wrong type": (
        lambda root: write_config(root, fig1_datasets(FIG1), max_charts="5"),
        ["config.json", "'max_charts' must be an integer"]),
}

# case -> (command, config builder, what stderr must name), one case per
# input-error branch; a relative path in a config resolves against its directory
INPUT_ERRORS = {
    **{case: (["link"], build, needles) for case, (build, needles) in MANIFEST_ERRORS.items()},
    "missing asset file": (["specs"], lambda root: write_config(
        root, fig1_datasets(FIG1), templates="nope.json"), ["config.json", "templates", "nope.json"]),
    "missing config file": (["link"], lambda root: root / "missing.json", ["missing.json"]),
    "associated table sharing no key": (["link"], _fasta_with_unkeyed_table,
                                        ["f_meta.csv", "dataset 'f'", "shares no key values"]),
    "negative design-space count": (
        ["specs"], _assets(design_space=b"chart_type,year,count\nbar chart,2020,-1\n"),
        ["design_space.csv", "negative count"]),
    "short design-space row": (
        ["specs"], _assets(design_space=SHIPPED["design_space"].read_bytes() + b"bar chart,2020\n"),
        ["design_space.csv:", "expected 3 cells, got 2"]),
    "design-space row with an extra cell": (
        ["specs"], _assets(design_space=SHIPPED["design_space"].read_bytes() + b"bar chart,2020,1,9\n"),
        ["design_space.csv:", "expected 3 cells, got 4"]),
    "header-only design space": (["specs"], _assets(design_space=b"chart_type,year,count\n"),
                                 ["design_space.csv", "header-only"]),
    "empty viability matrix": (["specs"], _assets(viability_matrix=b""),
                               ["viability_matrix.csv", "file is empty"]),
    "ring point not a list": (
        ["link"], _feature(geometry={"type": "Polygon", "coordinates": [[5, 6, 7]]}),
        ["regions.geojson", "feature 0: malformed coordinates"]),
    "null properties": (["link"], _feature(properties=None),
                        ["regions.geojson", "feature 0 has no properties object"]),
    "unknown slot constraint": (["specs"], _template_with_unknown_constraint,
                                ["templates.json", "unknown constraint 'bogus'"]),
}


class TestInputErrorsNameTheirSource:
    @pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
    def test_exits_two_naming_the_file_or_entry(self, tmp_path, case):
        command, build, needles = INPUT_ERRORS[case]
        assert_input_error(build(tmp_path), command, *needles)

    @pytest.mark.parametrize("case", sorted(MANIFEST_ERRORS))
    def test_relevance_refuses_the_manifest_too(self, tmp_path, case):
        """`relevance` loads no dataset, and exited 0 on an associated table
        given to a network entry."""
        build, needles = MANIFEST_ERRORS[case]
        assert_input_error(build(tmp_path), ["relevance"], *needles)


class TestRunWithNoViews:
    def test_templates_that_fit_no_dataset_say_there_is_no_view(self, tmp_path):
        """`specs` wrote an empty view list without a word, and `render`
        said `view 1 out of range (1..0)`."""
        node_link = [t for t in shipped_json("templates") if t["chart_type"] == "node-link"]
        cfg = fig1_config(tmp_path, templates=json.dumps(node_link).encode())
        code, err = run_quietly(["specs", "--config", cfg])
        assert code == 0, err
        assert json.loads((tmp_path / "out" / "specs.json").read_text(encoding="utf-8")) == []
        assert "warning: no view was built: no chart template fits any dataset" in err, err
        code, err = run_quietly(["render", "--view", "1", "--config", cfg])
        assert code == 3, err
        assert "no views to render" in err and "no chart template fits" in err, err
        assert "out of range" not in err


# -- generated asset and config files ------------------------------------------

# text without path separators or dots: a generated out_dir stays inside the
# run's temporary directory
_TEXT = st.text(st.characters(blacklist_characters="/\\.", blacklist_categories=("Cs",)),
                max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
            | st.floats(allow_nan=False) | _TEXT
            | st.sampled_from(["", "x", "y", "color", "numeric", "any", "tabular", "tree",
                               "bar chart", "scatter chart", "phylogenetic tree", "S"]))
JSON_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6)


@st.composite
def mutated_json(draw, doc):
    """A copy of the JSON document `doc` with up to three changes, each at a
    node reached by a random walk from the root: replace the node with an
    arbitrary JSON value, delete it, or add a sibling."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (list, dict)) and node and draw(st.booleans()):
            parent, key = node, draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if parent is None:
            doc = draw(JSON_VALUES) if action == "replace" else doc
        elif action == "replace":
            parent[key] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(draw(JSON_VALUES))
        else:
            parent[draw(_TEXT)] = draw(JSON_VALUES)
    return doc


_CELLS = (_TEXT | st.integers(-10**6, 10**6).map(str)
          | st.sampled_from(["", "S", "P", "N", "s", "x", "2020", "-1", "1e400", "nan",
                             "phylogenetic tree", "bar chart", "9" * 400]))


@st.composite
def mutated_rows(draw, rows):
    """A copy of the CSV rows with up to three cell, row or width changes."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["cell", "drop row", "copy row", "drop cell", "add cell"]))
        if action == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_CELLS)
        elif action == "drop row":
            del rows[i]
        elif action == "copy row":
            rows.append(list(rows[i]))
        elif action == "drop cell" and rows[i]:
            rows[i].pop()
        elif action == "add cell":
            rows[i].append(draw(_CELLS))
    return rows


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


@st.composite
def file_bytes(draw, shipped: Path):
    """Bytes of a file like `shipped`: the shipped content with changes,
    arbitrary JSON, arbitrary bytes, or changed content with a byte that is
    not UTF-8 in it."""
    if shipped.suffix == ".json":
        changed = json.dumps(draw(mutated_json(json.loads(shipped.read_text("utf-8"))))).encode()
    else:
        rows = list(csv.reader(io.StringIO(shipped.read_text("utf-8"))))
        changed = _csv_bytes(draw(mutated_rows(rows)))
    kind = draw(st.sampled_from(["changed", "changed", "json", "binary", "not utf-8"]))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "binary":
        return draw(st.binary(max_size=48))
    if kind == "not utf-8":
        at = draw(st.integers(0, len(changed)))
        return changed[:at] + b"\xff" + changed[at:]
    return changed


# every config key but `datasets`, set to a valid value
FULL_CONFIG = {
    **{key: str(path) for key, path in SHIPPED.items()},
    "out_dir": "out", "user_fields": ["country", "phylo.tip_label"], "min_jaccard": 0.1,
    "lambda": 0.9, "highcard_threshold": 12, "color_card_limit": 12, "max_charts": 5,
    "max_views_per_component": 10, "seed": 3,
}


class TestGeneratedFiles:
    @settings(max_examples=120, deadline=None)
    @given(key=st.sampled_from(sorted(SHIPPED)), command=st.sampled_from(COMMANDS),
           data=st.data())
    def test_asset_files_never_end_in_exit_one(self, key, command, data):
        content = data.draw(file_bytes(SHIPPED[key]), label=key)
        with tempfile.TemporaryDirectory() as tmp:
            code, err = run_quietly([*command, "--config", fig1_config(Path(tmp), **{key: content})])
        assert code in (0, 2, 3), err

    @settings(max_examples=80, deadline=None)
    @given(command=st.sampled_from([["link"], ["relevance"], *COMMANDS]), data=st.data())
    def test_config_files_never_end_in_exit_one(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shipped = write_config(root, fig1_datasets(FIG1), **FULL_CONFIG)
            content = data.draw(file_bytes(shipped), label="config")
            shipped.write_bytes(content)
            # a config without out_dir writes to ./out
            code, err = run_quietly([*command, "--config", shipped], cwd=root)
        assert code in (0, 2, 3), err

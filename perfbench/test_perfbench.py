"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

import run
from checks import Checker, jaccard_oracle
from tracing import Span, Tracer, layer_self_times, self_times
from workloads import SHAPES, WORKLOADS, generate

SCHEMA = json.loads((run.SRC / "reconviz" / "assets" / "view_spec.schema.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_reconviz()


@pytest.fixture(scope="module")
def ebola(tmp_path_factory):
    return generate("ebola_render", 1, tmp_path_factory.mktemp("ebola"))


def run_cli(cli, collection, out, *args) -> None:
    argv = [args[0], "--config", str(collection.config), "--out", str(out), *args[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        Span(0, "cli", 0.0, 10.0, None, 1),
        Span(1, "ingest.load", 1.0, 4.0, 0, 1),
        Span(2, "pipeline.assemble", 5.0, 9.0, 0, 1),
        Span(3, "charts.render", 6.0, 7.0, 2, 1),
        Span(4, "charts.render", 7.0, 8.0, 2, 1),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0}
    layers = layer_self_times(spans)
    assert layers == {"cli.self": 3.0, "ingest.load": 3.0, "pipeline.assemble": 2.0,
                      "charts.render": 2.0}
    assert sum(layers.values()) == 10.0


def test_overlapping_siblings_are_covered_once_and_break_the_sum():
    spans = [
        Span(0, "cli", 0.0, 10.0, None, 1),
        Span(1, "charts.render", 2.0, 6.0, 0, 1),
        Span(2, "charts.render", 4.0, 8.0, 0, 1),
    ]
    assert self_times(spans) == {0: 4.0, 1: 4.0, 2: 4.0}
    assert sum(layer_self_times(spans).values()) != 10.0


def test_percentile_on_known_samples():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert run.percentile([3, 1, 2], 0) == 1
    assert run.percentile([3, 1, 2], 100) == 3
    assert run.percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        run.percentile([], 50)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_seeded_and_byte_identical(workload, tmp_path):
    def files(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    first = generate(workload, 7, tmp_path / "a")
    generate(workload, 7, tmp_path / "b")
    generate(workload, 8, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert first.field_count == SHAPES[workload]["fields"]
    assert len(jaccard_oracle(first.categorical)) == SHAPES[workload]["links"]


def test_checker_accepts_real_outputs_and_flags_a_wrong_edge_weight(cli, ebola, tmp_path):
    run_cli(cli, ebola, tmp_path, "link")
    checker = Checker(ebola, SHAPES["ebola_render"], SCHEMA)
    assert checker.check("link", None, tmp_path) == []

    path = tmp_path / "entity_graph.json"
    doc = json.loads(path.read_text())
    edge = next(e for e in doc["edges"] if e["kind"] == "field-field")
    edge["weight"] = edge["weight"] / 2
    problems = Checker(ebola, SHAPES["ebola_render"], SCHEMA).check_file(
        "link/entity_graph.json", path.name, json.dumps(doc).encode())
    assert len(problems) == 1 and "brute-force Jaccard" in problems[0]


def test_checker_flags_one_flipped_byte_in_an_svg(cli, ebola, tmp_path):
    run_cli(cli, ebola, tmp_path, "render", "--view", "1")
    svg = (tmp_path / "view_001.svg").read_bytes()
    at = svg.index(b'width="') + len(b'width="')
    flipped = svg[:at] + bytes([svg[at] ^ 1]) + svg[at + 1:]
    assert flipped != svg

    checker = Checker(ebola, SHAPES["ebola_render"], SCHEMA)
    assert checker.check("render", 1, tmp_path) == []
    assert checker.check_file("render-1/view_001.svg", "view_001.svg", svg) == []
    assert checker.check_file("render-1/view_001.svg", "view_001.svg", flipped) != []

    golden = {"render-1/view_001.svg": hashlib.sha256(svg).hexdigest()}
    checker = Checker(ebola, SHAPES["ebola_render"], SCHEMA, golden)
    assert checker.check_file("render-1/view_001.svg", "view_001.svg", flipped) != []


def test_checker_flags_a_component_over_the_view_cap(cli, ebola, tmp_path):
    run_cli(cli, ebola, tmp_path, "specs")
    views = json.loads((tmp_path / "specs.json").read_text())
    views = views + json.loads(json.dumps(views))  # 12 views, all in component 0
    for i, view in enumerate(views, start=1):
        view["view"] = i
    checker = Checker(ebola, dict(SHAPES["ebola_render"], views=len(views)), SCHEMA)
    problems = checker.check_file("specs/specs.json", "specs.json", json.dumps(views).encode())
    assert problems == ["specs/specs.json: component 0 views: 12, cap is 10"]


def test_traced_call_adds_up_and_uninstall_restores(cli, ebola, tmp_path):
    import reconviz.pipeline

    original = reconviz.pipeline.render_chart
    tracer = Tracer()
    tracer.install()
    try:
        assert reconviz.pipeline.render_chart is not original
        tracer.reset(1)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tracer.call("cli", cli.main, ["render", "--config", str(ebola.config),
                                               "--out", str(tmp_path), "--view", "1"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert reconviz.pipeline.render_chart is original
    root = tracer.spans[0]
    assert sum(layer_self_times(tracer.spans).values()) == pytest.approx(root.end - root.start)
    counts = tracer.counts()
    assert counts["entitygraph.links"] == SHAPES["ebola_render"]["links"]
    assert counts["pipeline.views"] == SHAPES["ebola_render"]["views"]
    assert counts["charts.charts_rendered"] >= 1

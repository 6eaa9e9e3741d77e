"""Command-line interface.

Commands mirror the pipeline stages: `link` exports the entity graph and
field metadata, `graph` draws the entity graph, `specs` emits the ranked
view-spec list, `render` draws one view, and `relevance` dumps the scaled
relevance table. One JSON config carries the dataset manifest and every
tunable; flags override the config.

Exit codes: 0 success, 1 internal error, 2 input/config error, 3 usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .charts import DRAWABLE
from .chartspec import load_templates, validate_templates
from .combine import ViabilityMatrix
from .designspace import PrevalenceDesignSpace, TypeEncodingMap, relevance_from_space
from .entitygraph import render_entity_graph
from .errors import InputError, ReconVizError
from .jsonout import json_text
from .pipeline import TOOL_VERSION, assemble, build_graph, render_view_svg

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 3
        raise UsageError(message)


def _build_parser() -> Parser:
    parser = Parser(prog="reconviz", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: Parser) -> None:
        # each override's dest is its RunConfig field; one not given is left
        # out of the namespace, so the file's value stands
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", type=Path, dest="out_dir",
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
        p.add_argument("--user-field", action="append", dest="user_fields", metavar="NAME",
                       help="field to prioritize; repeatable")
        p.add_argument("--max-charts", type=int, help="charts per view")
        p.add_argument("--min-jaccard", type=float, help="linkage threshold")
        p.add_argument("--lambda", type=float, dest="decay", help="yearly decay for relevance")

    for name, text in (
        ("link", "explode fields, find linkages, export graph JSON + field metadata"),
        ("graph", "draw the entity graph as SVG"),
        ("specs", "rank paths and emit the view-spec list"),
        ("render", "render one ranked view to SVG"),
        ("relevance", "export the scaled relevance table"),
    ):
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        common(p)
        if name == "render":
            p.add_argument("--view", type=int, default=1, help="1-based view index")
    return parser


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    print(f"wrote {path}")


def _write_manifest(config: RunConfig, command: str) -> None:
    manifest = {
        "command": command,
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "tool": TOOL_VERSION,
    }
    _write(config.out_dir / "manifest.json", json_text(manifest))


def _warn_unknown_user_fields(config: RunConfig, graph) -> None:
    fields = graph.fields.values()
    known = {f.name for f in fields} | {f.qualified_name for f in fields}
    for name in config.user_fields:
        if name not in known:
            print(f"warning: user field {name!r} does not match any exploded field",
                  file=sys.stderr)


def _warn_fieldless_datasets(datasets, graph) -> None:
    for dataset in datasets:
        if dataset.id not in graph.hubs:
            print(f"warning: dataset {dataset.id!r} yields no fields (every value is missing); "
                  "it is left out of the entity graph, the paths and every view",
                  file=sys.stderr)


def _assemble(config: RunConfig, view_limit: int | None = None):
    datasets = config.load_datasets()
    space = PrevalenceDesignSpace.from_csv(config.design_space)
    table = relevance_from_space(space, config.decay)
    encoding_map = TypeEncodingMap.from_json(config.type_encodings)
    templates = load_templates(config.templates, DRAWABLE)
    validate_templates(templates, table)
    matrix = ViabilityMatrix.from_csv(config.viability_matrix)
    assembly = assemble(datasets, table, encoding_map, templates, matrix, config, view_limit)
    _warn_fieldless_datasets(datasets, assembly.graph)
    _warn_unknown_user_fields(config, assembly.graph)
    return assembly


def _no_views_reason(assembly) -> str:
    """Why `assembly` holds no view."""
    if not assembly.ranked:
        return "no dataset yields a field, so there is no path to draw"
    return f"no chart template fits any dataset on the {len(assembly.ranked)} ranked paths"


def cmd_link(config: RunConfig) -> int:
    datasets = config.load_datasets()
    metadata, graph = build_graph(datasets, config.min_jaccard)
    _warn_fieldless_datasets(datasets, graph)
    _warn_unknown_user_fields(config, graph)
    _write(config.out_dir / "entity_graph.json", graph.to_json())
    _write(config.out_dir / "field_metadata.csv", metadata.to_csv())
    _write_manifest(config, "link")
    return EXIT_OK


def cmd_graph(config: RunConfig) -> int:
    datasets = config.load_datasets()
    _, graph = build_graph(datasets, config.min_jaccard)
    _warn_fieldless_datasets(datasets, graph)
    _write(config.out_dir / "entity_graph.svg", render_entity_graph(graph))
    _write_manifest(config, "graph")
    return EXIT_OK


def cmd_specs(config: RunConfig) -> int:
    from .ranking import ranked_paths_json

    assembly = _assemble(config)
    if not assembly.views:
        print(f"warning: no view was built: {_no_views_reason(assembly)}", file=sys.stderr)
    _write(config.out_dir / "specs.json", assembly.views_json())
    _write(config.out_dir / "paths.json", ranked_paths_json(assembly.ranked))
    _write_manifest(config, "specs")
    return EXIT_OK


def cmd_render(config: RunConfig, view_index: int) -> int:
    assembly = _assemble(config, view_index)
    if not assembly.views:
        print(f"error: there are no views to render: {_no_views_reason(assembly)}",
              file=sys.stderr)
        return EXIT_USAGE
    if view_index < 1 or view_index > len(assembly.views):
        print(
            f"error: view {view_index} out of range (1..{len(assembly.views)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    view = assembly.views[view_index - 1]
    stem = f"view_{view_index:03d}"
    _write(config.out_dir / f"{stem}.svg", render_view_svg(assembly, view))
    _write(config.out_dir / f"{stem}.json",
           json_text(view.to_dict()))
    _write_manifest(config, "render")
    return EXIT_OK


def cmd_relevance(config: RunConfig) -> int:
    space = PrevalenceDesignSpace.from_csv(config.design_space)
    table = relevance_from_space(space, config.decay)
    _write(config.out_dir / "relevance.csv", table.to_csv())
    _write_manifest(config, "relevance")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # A command frees few of the many containers it builds before it ends, so
    # the cyclic collector's passes over them find nothing: pause it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            overrides = vars(parser.parse_args(argv))
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        command = overrides.pop("command")
        config_path = overrides.pop("config")
        view = overrides.pop("view", None)
        try:
            config = load_config(config_path, **overrides)
            if command == "render":
                return cmd_render(config, view)
            return {"link": cmd_link, "graph": cmd_graph, "specs": cmd_specs,
                    "relevance": cmd_relevance}[command](config)
        except (InputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except ReconVizError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

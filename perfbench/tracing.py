"""Per-layer spans recorded from outside reconviz.

The tracer wraps reconviz's public functions by replacing each name in the
namespace of the module that calls it (`pipeline` and `ranking` import the
names they use directly, so wrapping the defining module would miss those
calls). Functions called thousands of times per operation, such as `jaccard`
and the `SvgBuilder` methods, are left alone: a wrapper would cost more than
the work it measures. Their counts are derived from the calls' arguments and
results after the operation ends, outside every span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

ROOT_LAYER = "cli"

# (module, class or None, attribute, layer). `cli.self` is what the root span
# keeps after all of these are subtracted.
TARGETS = (
    ("reconviz.cli", None, "load_config", "config.load"),
    ("reconviz.config", "RunConfig", "validate", "config.load"),
    ("reconviz.designspace", "PrevalenceDesignSpace", "from_csv", "cli.assets"),
    ("reconviz.cli", None, "relevance_from_space", "cli.assets"),
    ("reconviz.designspace", "TypeEncodingMap", "from_json", "cli.assets"),
    ("reconviz.cli", None, "load_templates", "cli.assets"),
    ("reconviz.cli", None, "validate_templates", "cli.assets"),
    ("reconviz.combine", "ViabilityMatrix", "from_csv", "cli.assets"),
    ("reconviz.config", None, "load_dataset", "ingest.load"),
    ("reconviz.pipeline", None, "explode_fields", "ingest.explode"),
    ("reconviz.pipeline", None, "build_entity_graph", "entitygraph.link"),
    ("reconviz.ranking", None, "connected_components", "entitygraph.components"),
    ("reconviz.ranking", None, "enumerate_paths", "entitygraph.paths"),
    ("reconviz.pipeline", None, "rank_paths", "ranking.rank"),
    ("reconviz.cli", None, "assemble", "pipeline.assemble"),
    ("reconviz.pipeline", "Assembly", "views_json", "pipeline.specs_json"),
    ("reconviz.pipeline", None, "prioritize_fields", "chartspec.generate"),
    ("reconviz.pipeline", None, "generate_single_chart_specs", "chartspec.generate"),
    ("reconviz.pipeline", None, "build_plan", "combine.plan"),
    ("reconviz.pipeline", None, "bind_alignment", "combine.bind"),
    ("reconviz.pipeline", None, "arrange_grid", "layout.arrange"),
    ("reconviz.pipeline", None, "render_chart", "charts.render"),
    ("reconviz.pipeline", None, "render_view", "layout.compose"),
)

LAYERS = tuple(dict.fromkeys(layer for *_, layer in TARGETS)) + ("cli.self",)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: bool = False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time; the root span's self time is `cli.self`."""
    totals: dict[str, float] = Counter()
    for span_id, seconds in self_times(spans).items():
        name = spans[span_id].name
        totals["cli.self" if name == ROOT_LAYER else name] += seconds
    return dict(totals)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None else 0


def _candidate_pairs(fields) -> int:
    per_source = Counter(f.source_id for f in fields if not f.numeric)
    n = sum(per_source.values())
    return n * (n - 1) // 2 - sum(k * (k - 1) // 2 for k in per_source.values())


def _hub_pair_counts(component) -> dict:
    h = len(component.hubs)
    return {"entitygraph.hubs": h, "entitygraph.hub_pairs": h * (h - 1) // 2}


# attribute -> counts derived from (args, result) of one call
COUNTERS = {
    "load_dataset": lambda a, r: {"ingest.input_bytes": _file_bytes(a[0]) + _file_bytes(a[2])},
    "explode_fields": lambda a, r: {"ingest.fields": len(r[0])},
    "build_entity_graph": lambda a, r: {"entitygraph.candidate_pairs": _candidate_pairs(a[0]),
                                        "entitygraph.links": len(r.links)},
    "enumerate_paths": lambda a, r: {**_hub_pair_counts(a[0]), "entitygraph.paths": len(r)},
    "rank_paths": lambda a, r: {"ranking.paths_ranked": len(r)},
    "assemble": lambda a, r: {"pipeline.views": len(r.views)},
    "generate_single_chart_specs": lambda a, r: {"chartspec.charts": len(r)},
    "render_chart": lambda a, r: {"charts.charts_rendered": 1},
}


class Tracer:
    """Records spans of one operation at a time; install before forking."""

    def __init__(self):
        self.spans: list[Span] = []
        self._calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = 0

    def reset(self, op: int) -> None:
        self.spans, self._calls, self._stack, self._op = [], [], [], op

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, layer: str, attr: str):
        tracer = self
        counted = attr in COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(layer, fn, *args, **kwargs)
            if counted:
                tracer._calls.append((attr, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, class_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer, attr))
            else:
                wrapped = self._wrap(original, layer, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """Counts of the current operation, derived after it has finished."""
        totals: dict[str, int] = Counter()
        for attr, args, result in self._calls:
            totals.update(COUNTERS[attr](args, result))
        return dict(totals)

    def span_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]

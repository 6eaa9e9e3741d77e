"""Output checks for one benchmark run.

Every check is independent of the code under test where it can be: edge
weights are compared against a brute-force Jaccard over the columns the
generator wrote, and view specs against the shipped JSON schema. An output
is checked in depth the first time it appears in a run; every repeat of the
same command must then be byte-identical to it. At the default seed the
digests must also match those recorded in `digests.json`, which guards the
byte-identical-output promise across commits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import jsonschema

from workloads import MAX_CHARTS, MAX_VIEWS_PER_COMPONENT, Collection

NOT_DIGESTED = "manifest.json"  # embeds the run's temporary paths


def jaccard_oracle(categorical: dict[str, frozenset]) -> dict[tuple[str, str], float]:
    """Every cross-dataset pair of non-numeric fields with J > 0."""
    names = sorted(categorical)
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if a.split(".", 1)[0] == b.split(".", 1)[0]:
                continue
            inter = len(categorical[a] & categorical[b])
            if inter:
                union = len(categorical[a]) + len(categorical[b]) - inter
                edges[(a, b)] = float(Fraction(inter, union))
    return edges


def expected_files(command: str, view: int | None) -> set[str]:
    if command == "link":
        names = {"entity_graph.json", "field_metadata.csv"}
    elif command == "specs":
        names = {"specs.json", "paths.json"}
    else:
        names = {f"view_{view:03d}.svg", f"view_{view:03d}.json"}
    return names | {NOT_DIGESTED}


class Checker:
    """Checks a run's outputs; `digests` collects the first digest of each."""

    def __init__(self, collection: Collection, shape: dict, schema: dict,
                 golden: dict[str, str] | None = None):
        self.shape = shape
        self.schema = schema
        self.golden = golden
        self.edges = jaccard_oracle(collection.categorical)
        self.digests: dict[str, str] = {}

    def check(self, command: str, view: int | None, out_dir: Path) -> list[str]:
        """Problems with one operation's outputs; empty when all is well."""
        found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
        wanted = expected_files(command, view)
        if found != wanted:
            return [f"{command}: wrote {sorted(found)}, expected {sorted(wanted)}"]
        problems = []
        label = command if view is None else f"{command}-{view}"
        for name in sorted(wanted - {NOT_DIGESTED}):
            data = (out_dir / name).read_bytes()
            problems += self.check_file(f"{label}/{name}", name, data)
        return problems

    def check_file(self, key: str, name: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        if key in self.digests:
            if digest != self.digests[key]:
                return [f"{key}: differs from an earlier repeat in this run"]
            return []
        self.digests[key] = digest
        problems = [f"{key}: {p}" for p in self._content_problems(name, data)]
        if self.golden is not None and self.golden.get(key) != digest:
            problems.append(f"{key}: digest differs from the recorded default-seed output")
        return problems

    def _content_problems(self, name: str, data: bytes) -> list[str]:
        try:
            if name == "entity_graph.json":
                return self._graph(json.loads(data))
            if name == "field_metadata.csv":
                rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
                return _expect("metadata rows", len(rows) - 1, self.shape["fields"])
            if name == "specs.json":
                return self._specs(json.loads(data))
            if name == "paths.json":
                return self._paths(json.loads(data))
            if name.endswith(".svg"):
                root = ET.fromstring(data)
                return [] if root.tag.endswith("svg") else [f"root element is {root.tag}"]
            if name.endswith(".json"):  # one rendered view
                view = json.loads(data)
                return _expect_at_most("charts", len(view["charts"]), MAX_CHARTS)
        except (ValueError, KeyError, TypeError, ET.ParseError) as exc:
            return [f"unreadable: {exc!r}"]
        return [f"unexpected output {name}"]

    def _graph(self, doc: dict) -> list[str]:
        kinds = [n["kind"] for n in doc["nodes"]]
        problems = _expect("hubs", kinds.count("source"), self.shape["hubs"])
        problems += _expect("fields", kinds.count("field"), self.shape["fields"])
        got = {}
        for edge in doc["edges"]:
            if edge["kind"] == "field-field":
                got[tuple(sorted((edge["a"], edge["b"])))] = edge["weight"]
        problems += _expect("links", len(got), self.shape["links"])
        for pair in sorted(set(got) | set(self.edges)):
            if got.get(pair) != self.edges.get(pair):
                problems.append(f"edge {pair}: weight {got.get(pair)}, "
                                f"brute-force Jaccard {self.edges.get(pair)}")
        return problems

    def _specs(self, views: list) -> list[str]:
        try:
            jsonschema.validate(views, self.schema)
        except jsonschema.ValidationError as exc:
            return [f"schema: {exc.message}"]
        problems = _expect("views", len(views), self.shape["views"])
        per_component: dict[int, int] = {}
        for i, view in enumerate(views, start=1):
            problems += _expect("view index", view["view"], i)
            problems += _expect_at_most(f"view {i} charts", len(view["charts"]), MAX_CHARTS)
            component = view["path"]["component"]
            per_component[component] = per_component.get(component, 0) + 1
        for component, n in sorted(per_component.items()):
            problems += _expect_at_most(f"component {component} views", n,
                                        MAX_VIEWS_PER_COMPONENT)
        return problems

    def _paths(self, paths: list) -> list[str]:
        scores = [p["path_score"] for p in paths]
        problems = _expect("paths", len(paths), self.shape["paths"])
        problems += _expect("components", len({p["component"] for p in paths}),
                            self.shape["components"])
        if any(s < 3 for s in scores):
            problems.append(f"path score below 3: {min(scores)}")
        if scores != sorted(scores):
            problems.append("path scores are not in ascending order")
        return problems


def _expect(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: {got}, expected {want}"]


def _expect_at_most(what: str, got: int, cap: int) -> list[str]:
    return [] if got <= cap else [f"{what}: {got}, cap is {cap}"]

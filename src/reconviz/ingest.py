"""Load heterogeneous data files into normalized datasets and explode their
attribute fields.

Supported inputs: CSV tables, Newick trees, FASTA sequence sets, GeoJSON
polygon collections, CSV edge lists, and raster images with a sidecar table.
Each payload exposes its raw values as one ordered name -> column mapping
(`raw_columns`); every dataset yields one Field per such column (table
column, tip label, sequence id, feature property, node id, or sidecar
column) carrying kind and cardinality metadata used for linkage and slot
assignment downstream, and charts read bound values from the same mapping.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from pathlib import Path

from .errors import AllMissing, ConfigError, DataMismatch, DuplicateDatasetId, KeyMismatch, ParseError

MISSING_MARKERS = {"", "na", "nan", "null"}

# Full-column agreement: one non-numeric token makes the field non-numeric.
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

SAMPLE_VALUES = 5

TABULAR = "tabular"
TREE = "tree"
GENOMIC = "genomic"
SPATIAL = "spatial"
NETWORK = "network"
IMAGE = "image"

DATA_TYPES = (TABULAR, TREE, GENOMIC, SPATIAL, NETWORK, IMAGE)

# Attachable metadata only makes sense where the primary payload has row ids.
_ASSOCIATED_OK = {TREE, GENOMIC, IMAGE}


def is_missing(value: str) -> bool:
    return value.strip().lower() in MISSING_MARKERS


def looks_numeric(value: str) -> bool:
    return bool(_NUMBER_RE.match(value.strip()))


def numeric_values(raw: list[str]) -> list[float]:
    """The values of `raw` that parse as numbers; missing markers are skipped."""
    out = []
    for v in raw:
        if is_missing(v):
            continue
        try:
            out.append(float(v))
        except ValueError:
            pass
    return out


def extent(values: list[float]) -> tuple[float, float]:
    """(min, max) of `values`, or (0.0, 1.0) when there are none."""
    return (min(values), max(values)) if values else (0.0, 1.0)


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column(self, name: str) -> list[str]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {name: [row[i] for row in self.rows] for i, name in enumerate(self.columns)}


@dataclass
class TreeNode:
    name: str | None = None
    length: float | None = None
    children: list["TreeNode"] = dc_field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["TreeNode"]:
        if self.is_leaf():
            return [self]
        out: list[TreeNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def leaf_labels(self) -> list[str]:
        return [leaf.name or "" for leaf in self.leaves()]

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {"tip_label": self.leaf_labels()}


@dataclass(frozen=True)
class SequenceSet:
    records: tuple[tuple[str, str], ...]  # (id, sequence)

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {"seq_id": [rec_id for rec_id, _ in self.records]}


@dataclass(frozen=True)
class Feature:
    properties: dict
    polygons: tuple  # tuple of polygons; each polygon is a tuple of (lon, lat) ring points


def _property_text(value) -> str:
    return "" if value is None else str(value)


@dataclass(frozen=True)
class FeatureSet:
    features: tuple[Feature, ...]

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        """One column per property name, in first-seen order; an absent or
        JSON null property reads as the empty (missing) string."""
        names = dict.fromkeys(prop for feat in self.features for prop in feat.properties)
        return {name: [_property_text(feat.properties.get(name)) for feat in self.features]
                for name in names}


@dataclass(frozen=True)
class EdgeTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def node_ids(self) -> list[str]:
        seen = []
        have = set()
        for row in self.rows:
            for endpoint in row[:2]:
                v = endpoint.strip()
                if v and v not in have:
                    have.add(v)
                    seen.append(v)
        return seen

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        """Node ids first; an attribute column also named `node_id` is shadowed."""
        columns = {"node_id": self.node_ids()}
        for i, name in enumerate(self.columns[2:], start=2):
            columns.setdefault(name, [row[i] for row in self.rows])
        return columns


@dataclass(frozen=True)
class ImageRef:
    path: str

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {}  # the lanes live in the sidecar table


@dataclass(frozen=True)
class Dataset:
    id: str
    dtype: str
    payload: object
    associated: Table | None = None
    associated_key: str | None = None  # column of `associated` matching primary ids

    @cached_property
    def raw_columns(self) -> dict[str, list[str]]:
        """Raw per-observation values by field name, in payload order: the
        primary payload's columns, then the associated table's. On a name
        clash the primary payload's column wins."""
        columns = self.payload.raw_columns
        if self.associated is not None:
            for name, values in self.associated.raw_columns.items():
                columns.setdefault(name, values)
        return columns

    def primary_ids(self) -> list[str]:
        """Row identifiers of the primary payload (its first column), in payload order."""
        return next(iter(self.raw_columns.values()), [])


@dataclass(frozen=True)
class Field:
    name: str
    source_id: str
    kind: str  # "numeric" | "non-numeric"
    cardinality: int | None
    values: frozenset | None
    row_count: int

    @property
    def qualified_name(self) -> str:
        return f"{self.source_id}.{self.name}"

    @property
    def numeric(self) -> bool:
        return self.kind == "numeric"


@dataclass(frozen=True)
class FieldMetadata:
    entries: tuple[dict, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["field", "source", "kind", "cardinality", "sample_values"])
        for entry in self.entries:
            writer.writerow(
                [
                    entry["field"],
                    entry["source"],
                    entry["kind"],
                    "" if entry["cardinality"] is None else entry["cardinality"],
                    ";".join(entry["sample_values"]),
                ]
            )
        return buf.getvalue()


def classify_field(raw_values: list[str]) -> tuple[str, int | None]:
    """Classify a column as numeric or non-numeric with a distinct-value count.

    Numeric requires every non-missing value to parse as a decimal number.
    """
    present = [v.strip() for v in raw_values if not is_missing(v)]
    if not present:
        raise AllMissing("every value is a missing marker")
    if all(looks_numeric(v) for v in present):
        return "numeric", None
    return "non-numeric", len(set(present))


def _make_field(name: str, source_id: str, raw_values: list[str]) -> Field | None:
    """Build a Field, or None when the column is entirely missing."""
    try:
        kind, cardinality = classify_field(raw_values)
    except AllMissing:
        return None
    if kind == "numeric":
        return Field(name, source_id, kind, None, None, len(raw_values))
    values = frozenset(v.strip() for v in raw_values if not is_missing(v))
    return Field(name, source_id, kind, cardinality, values, len(raw_values))


def field_raw_values(field: Field, dataset: Dataset) -> list[str]:
    """Raw per-observation values for a field, in payload order (shared; do not mutate)."""
    values = dataset.raw_columns.get(field.name)
    if values is None:
        raise DataMismatch(f"field {field.qualified_name} not present in dataset {dataset.id}")
    return values


# ---------------------------------------------------------------------------
# Format readers
# ---------------------------------------------------------------------------

def _read_csv_table(path: Path, dtype: str) -> Table:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(dtype, str(path), f"not UTF-8: {exc}")
    rows = list(csv.reader(io.StringIO(text)))
    rows = [row for row in rows if row]
    if not rows:
        raise ParseError(dtype, str(path), "file is empty")
    header = tuple(col.strip() for col in rows[0])
    if len(rows) == 1:
        raise ParseError(dtype, str(path), "header-only file has zero data rows")
    if len(set(header)) != len(header):
        raise ParseError(dtype, str(path), "duplicate column names in header")
    body = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(dtype, str(path), f"expected {len(header)} cells, got {len(row)}", line=i)
        body.append(tuple(cell for cell in row))
    return Table(header, tuple(body))


def parse_newick(text: str, path: str = "<newick>") -> TreeNode:
    """Parse a single Newick tree: named leaves, optional branch lengths,
    optional quoted labels; [] comment blocks are skipped."""
    pos = 0
    n = len(text)

    def error(detail: str) -> ParseError:
        return ParseError(TREE, path, detail, line=None)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n:
            ch = text[pos]
            if ch in " \t\r\n":
                pos += 1
            elif ch == "[":  # comment block
                end = text.find("]", pos)
                if end == -1:
                    raise error(f"unterminated comment at offset {pos}")
                pos = end + 1
            else:
                break

    def parse_label() -> str:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] in "'\"":
            quote = text[pos]
            end = text.find(quote, pos + 1)
            if end == -1:
                raise error(f"unterminated quoted label at offset {pos}")
            label = text[pos + 1 : end]
            pos = end + 1
            return label
        start = pos
        while pos < n and text[pos] not in "(),:;[":
            pos += 1
        return text[start:pos].strip()

    def parse_length() -> float | None:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == ":":
            pos += 1
            skip_ws()
            start = pos
            while pos < n and text[pos] not in "(),;[":
                pos += 1
            token = text[start:pos].strip()
            try:
                return float(token)
            except ValueError:
                raise error(f"bad branch length {token!r} at offset {start}")
        return None

    def parse_node() -> TreeNode:
        nonlocal pos
        skip_ws()
        node = TreeNode()
        if pos < n and text[pos] == "(":
            pos += 1
            while True:
                node.children.append(parse_node())
                skip_ws()
                if pos >= n:
                    raise error("unterminated clade: missing ')'")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                raise error(f"unexpected {text[pos]!r} at offset {pos}")
        label = parse_label()
        if label:
            node.name = label
        node.length = parse_length()
        return node

    root = parse_node()
    skip_ws()
    if pos >= n or text[pos] != ";":
        raise error("missing terminating ';'")
    pos += 1
    skip_ws()
    if pos != n:
        raise error(f"trailing content after ';' at offset {pos}")
    leaves = root.leaves()
    if not leaves:
        raise error("tree has no leaves")
    labels = [leaf.name for leaf in leaves]
    if any(not lbl for lbl in labels):
        raise error("tree has unnamed leaves")
    if len(set(labels)) != len(labels):
        raise error("tree has duplicate leaf labels")
    return root


def _read_tree(path: Path) -> TreeNode:
    return parse_newick(path.read_text(encoding="utf-8"), str(path))


def _read_fasta(path: Path) -> SequenceSet:
    records: list[tuple[str, str]] = []
    current_id: str | None = None
    chunks: list[str] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current_id is not None:
                records.append((current_id, "".join(chunks)))
            header = line[1:].strip()
            if not header:
                raise ParseError(GENOMIC, str(path), "empty FASTA header", line=lineno)
            current_id = header.split()[0]
            chunks = []
        else:
            if current_id is None:
                raise ParseError(GENOMIC, str(path), "sequence data before first header", line=lineno)
            chunks.append(line)
    if current_id is not None:
        records.append((current_id, "".join(chunks)))
    if not records:
        raise ParseError(GENOMIC, str(path), "no FASTA records")
    ids = [rec_id for rec_id, _ in records]
    if len(set(ids)) != len(ids):
        raise ParseError(GENOMIC, str(path), "duplicate sequence ids")
    return SequenceSet(tuple(records))


def _ring_points(ring: list) -> tuple:
    pts = []
    for pt in ring:
        if not isinstance(pt, list) or len(pt) < 2:
            raise ValueError("bad ring coordinate")
        pts.append((float(pt[0]), float(pt[1])))
    return tuple(pts)


def _read_geojson(path: Path) -> FeatureSet:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(SPATIAL, str(path), f"invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError(SPATIAL, str(path), "expected a GeoJSON FeatureCollection")
    features = []
    for i, feat in enumerate(doc.get("features", [])):
        geom = feat.get("geometry") or {}
        props = feat.get("properties")
        if not isinstance(props, dict):
            raise ParseError(SPATIAL, str(path), f"feature {i} has no properties object")
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        try:
            if gtype == "Polygon":
                polygons = (tuple(_ring_points(ring) for ring in coords),)
            elif gtype == "MultiPolygon":
                polygons = tuple(tuple(_ring_points(ring) for ring in poly) for poly in coords)
            else:
                raise ParseError(SPATIAL, str(path), f"feature {i}: unsupported geometry {gtype!r}")
        except (TypeError, ValueError):
            raise ParseError(SPATIAL, str(path), f"feature {i}: malformed coordinates")
        # keep outer rings only; holes add nothing at recon scale
        outer = tuple(poly[0] for poly in polygons if poly)
        features.append(Feature(dict(props), outer))
    if not features:
        raise ParseError(SPATIAL, str(path), "FeatureCollection has no features")
    return FeatureSet(tuple(features))


def _read_edge_list(path: Path) -> EdgeTable:
    table = _read_csv_table(path, NETWORK)
    if len(table.columns) < 2:
        raise ParseError(NETWORK, str(path), "edge list needs at least source,target columns")
    return EdgeTable(table.columns, table.rows)


_READERS = {
    TABULAR: lambda path: _read_csv_table(path, TABULAR),
    TREE: _read_tree,
    GENOMIC: _read_fasta,
    SPATIAL: _read_geojson,
    NETWORK: _read_edge_list,
}


def _associated_key(dataset_id: str, payload, table: Table) -> str:
    """The metadata column best matching the payload's row ids (its first column)."""
    ids = set(next(iter(payload.raw_columns.values())))
    best_col = None
    best_overlap = 0
    for col, values in table.raw_columns.items():
        overlap = len(ids.intersection(v.strip() for v in values))
        if overlap > best_overlap:
            best_overlap = overlap
            best_col = col
    if best_col is None:
        raise KeyMismatch(
            f"associated table for {dataset_id!r} shares no key values with the primary payload"
        )
    return best_col


def load_dataset(
    path: str | Path,
    dtype: str,
    associated_path: str | Path | None = None,
    dataset_id: str | None = None,
) -> Dataset:
    """Load one data source from disk into a normalized Dataset."""
    if dtype not in DATA_TYPES:
        raise ConfigError(f"unknown data type {dtype!r}; expected one of {', '.join(DATA_TYPES)}")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    if associated_path is not None and dtype not in _ASSOCIATED_OK:
        raise ConfigError(f"associated tables are not supported for {dtype} data")
    ds_id = dataset_id or path.stem

    if dtype == IMAGE:
        if associated_path is None:
            raise ParseError(IMAGE, str(path), "image data requires a sidecar table")
        sidecar = _read_csv_table(Path(associated_path), IMAGE)
        return Dataset(ds_id, dtype, ImageRef(str(path)), sidecar, sidecar.columns[0])

    payload = _READERS[dtype](path)
    if associated_path is None:
        return Dataset(ds_id, dtype, payload)
    assoc_path = Path(associated_path)
    if not assoc_path.exists():
        raise FileNotFoundError(str(assoc_path))
    table = _read_csv_table(assoc_path, TABULAR)
    return Dataset(ds_id, dtype, payload, table, _associated_key(ds_id, payload, table))


# ---------------------------------------------------------------------------
# Field explosion
# ---------------------------------------------------------------------------

def _dataset_fields(dataset: Dataset) -> list[Field]:
    fields = []
    for name, values in dataset.raw_columns.items():
        built = _make_field(name, dataset.id, values)
        if built is not None:
            fields.append(built)
    return fields


def explode_fields(datasets: list[Dataset]) -> tuple[list[Field], FieldMetadata]:
    """Extract one Field per attribute of every dataset.

    Output is sorted by (source_id, name) so results do not depend on load
    order.
    """
    seen_ids = set()
    for dataset in datasets:
        if dataset.id in seen_ids:
            raise DuplicateDatasetId(dataset.id)
        seen_ids.add(dataset.id)

    fields: list[Field] = []
    for dataset in datasets:
        fields.extend(_dataset_fields(dataset))
    fields.sort(key=lambda f: (f.source_id, f.name))

    entries = []
    for f in fields:
        samples = sorted(f.values)[:SAMPLE_VALUES] if f.values is not None else []
        entries.append(
            {
                "field": f.name,
                "source": f.source_id,
                "kind": f.kind,
                "cardinality": f.cardinality,
                "sample_values": samples,
            }
        )
    return fields, FieldMetadata(tuple(entries))

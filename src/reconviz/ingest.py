"""Load heterogeneous data files into normalized datasets and explode their
attribute fields.

Supported inputs: CSV tables, Newick trees, FASTA sequence sets, GeoJSON
polygon collections, CSV edge lists, and raster images with a sidecar table.
Each payload exposes its raw values as one ordered name -> column mapping
(`raw_columns`); every dataset yields one Field per such column (table
column, tip label, sequence id, feature property, node id, or sidecar
column) carrying kind and cardinality metadata used for linkage and slot
assignment downstream, and its cleaned column, which charts read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from functools import cached_property, partial
from pathlib import Path

from .errors import ConfigError, DuplicateDatasetId, KeyMismatch, ParseError
from .record import Record

MISSING_MARKERS = {"", "na", "nan", "null"}

# Full-column agreement: one non-numeric token makes the field non-numeric.
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DECIMAL_CHARS = "0123456789+-.eE"

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


def present(column) -> list:
    """The entries of a field column that are not missing, in row order."""
    return [v for v in column if v is not None]


def extent(values: list[float]) -> tuple[float, float]:
    """(min, max) of `values`, or (0.0, 1.0) when there are none."""
    return (min(values), max(values)) if values else (0.0, 1.0)


class Table(Record):
    __slots__ = ("columns", "rows")

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return dict(zip(self.columns, map(list, zip(*self.rows))))


class TreeNode:
    """One node; `parse_newick` fills in its name, length and children."""

    def __init__(self):
        self.name: str | None = None
        self.length: float | None = None
        self.children: list[TreeNode] = []

    @cached_property
    def leaf_order(self) -> tuple["TreeNode", ...]:
        """Leaves left to right, walked once, on first use: the tree must be
        complete by then (`parse_newick` asks for it last). Iterative, so a
        ladder tree of any depth works."""
        out: list[TreeNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return tuple(out)

    def leaf_labels(self) -> list[str]:
        return [leaf.name or "" for leaf in self.leaf_order]

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {"tip_label": self.leaf_labels()}


class SequenceSet(Record):
    __slots__ = ("records",)  # (id, sequence)

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {"seq_id": [rec_id for rec_id, _ in self.records]}


class Feature(Record):
    __slots__ = ("properties", "polygons")  # polygons: each a tuple of (lon, lat) ring points


def _property_text(value) -> str:
    return "" if value is None else str(value)


class FeatureSet(Record):
    __slots__ = ("features",)

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        """One column per property name, in first-seen order; an absent or
        JSON null property reads as the empty (missing) string."""
        names = dict.fromkeys(prop for feat in self.features for prop in feat.properties)
        return {name: [_property_text(feat.properties.get(name)) for feat in self.features]
                for name in names}


class EdgeTable(Record):
    __slots__ = ("columns", "rows")

    def node_ids(self) -> list[str]:
        return [v for v in dict.fromkeys(end.strip() for row in self.rows for end in row[:2]) if v]

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        """Node ids first; an attribute column also named `node_id` is shadowed."""
        columns = {"node_id": self.node_ids()}
        for i, name in enumerate(self.columns[2:], start=2):
            columns.setdefault(name, [row[i] for row in self.rows])
        return columns


class ImageRef(Record):
    __slots__ = ("path",)

    @property
    def raw_columns(self) -> dict[str, list[str]]:
        return {}  # the lanes live in the sidecar table


class Dataset:
    def __init__(self, id: str, dtype: str, payload: object, associated: Table | None = None,
                 associated_key: str | None = None):
        self.id = id
        self.dtype = dtype
        self.payload = payload
        self.associated = associated
        self.associated_key = associated_key  # column of `associated` matching primary ids

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


class Field:
    """Compared and hashed by everything but `column`."""

    __slots__ = ("name", "source_id", "kind", "cardinality", "values", "row_count", "column")

    def __init__(self, name: str, source_id: str, kind: str, cardinality: int | None,
                 values: frozenset | None, row_count: int, column: tuple = ()):
        self.name = name
        self.source_id = source_id
        self.kind = kind  # "numeric" | "non-numeric"
        self.cardinality = cardinality
        self.values = values
        self.row_count = row_count
        # One entry per row, in payload order: None for a missing marker, else
        # the stripped cell, parsed to a float in a numeric field.
        self.column = column

    def _key(self) -> tuple:
        return (self.name, self.source_id, self.kind, self.cardinality, self.values, self.row_count)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def qualified_name(self) -> str:
        return f"{self.source_id}.{self.name}"

    @property
    def numeric(self) -> bool:
        return self.kind == "numeric"


class FieldMetadata(Record):
    __slots__ = ("fields",)  # sorted by (source_id, name)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["field", "source", "kind", "cardinality", "sample_values"])
        for f in self.fields:
            samples = sorted(f.values)[:SAMPLE_VALUES] if f.values is not None else []
            writer.writerow([f.name, f.source_id, f.kind,
                             "" if f.cardinality is None else f.cardinality, ";".join(samples)])
        return buf.getvalue()


def _make_field(name: str, source_id: str, raw_values: list[str]) -> Field | None:
    """Build a Field, or None when the column is entirely missing.

    The column is stripped and tested for missing markers a column at a
    time. The field is numeric when every present cell is a decimal number,
    the numbers are finite and so is their range; an overflowing cell such as
    `1e999` makes the field non-numeric.
    """
    column = list(map(str.strip, raw_values))
    cells = column
    if not MISSING_MARKERS.isdisjoint(map(str.lower, column)):
        column = [None if v.lower() in MISSING_MARKERS else v for v in column]
        cells = present(column)
    if not cells:
        return None
    numbers = None
    # Over `_DECIMAL_CHARS` alone, float() accepts just what `_NUMBER_RE` matches
    # (`inf`, `1_000` and non-ASCII digits need other characters): skip the regex.
    if not "".join(cells).strip(_DECIMAL_CHARS) or all(map(_NUMBER_RE.match, cells)):
        try:
            numbers = list(map(float, cells))
        except ValueError:  # such as `1e`
            pass
    if numbers is not None and math.isfinite(max(numbers) - min(numbers)):
        if cells is not column:
            parsed = iter(numbers)
            numbers = [None if v is None else next(parsed) for v in column]
        return Field(name, source_id, "numeric", None, None, len(column), tuple(numbers))
    values = frozenset(cells)
    return Field(name, source_id, "non-numeric", len(values), values, len(column), tuple(column))


# ---------------------------------------------------------------------------
# Format readers
# ---------------------------------------------------------------------------

def read_text(path: str | Path, fail) -> str:
    """The text of the UTF-8 file `path`, a leading byte-order mark dropped.
    `fail(detail, line=None)` builds the error raised for a bad file, here and
    in `read_json` and `read_table`: a ParseError for a data file, and for the
    config or an asset file the ConfigError of `errors.config_file`."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise fail(f"not UTF-8: {exc}")


def read_json(path: str | Path, fail):
    """The JSON document in the file `path`, as `read_text` reads it."""
    try:
        return json.loads(read_text(path, fail))
    except json.JSONDecodeError as exc:
        raise fail(f"not valid JSON: {exc.msg}", exc.lineno)
    except ValueError as exc:  # an integer with more digits than int() converts
        raise fail(f"not valid JSON: {exc}")


def read_table(path: str | Path, fail) -> Table:
    """The rectangular CSV table in the file `path`, as `read_text` reads it:
    a header of distinct names, stripped, and at least one row of as many
    cells; blank lines are skipped."""
    reader = csv.reader(io.StringIO(read_text(path, fail)))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # such as a cell past the csv module's field size limit
        raise fail(str(exc), reader.line_num)
    if not rows:
        raise fail("file is empty")
    header = tuple(col.strip() for col in rows[0])
    if len(rows) == 1:
        raise fail("header-only file has zero data rows")
    if len(set(header)) != len(header):
        raise fail("duplicate column names in header")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise fail(f"expected {len(header)} cells, got {len(row)}", i)
    return Table(header, tuple(map(tuple, rows[1:])))


_BLANKS = re.compile(r"(?:[ \t\r\n]|\[[^\]]*\])*")  # blanks and closed [] comments
_LABEL = re.compile(r"[^(),:;\[]*")  # an unquoted label
_LENGTH = re.compile(r"[^(),;\[]*")  # a branch length


def parse_newick(text: str, path: str = "<newick>") -> TreeNode:
    """Parse a single Newick tree: named leaves, optional branch lengths,
    optional quoted labels; [] comment blocks are skipped."""
    pos = 0
    n = len(text)

    error = partial(ParseError, TREE, path)

    def skip() -> None:  # past blanks and comments
        nonlocal pos
        if pos < n and text[pos] in " \t\r\n[":
            pos = _BLANKS.match(text, pos).end()
            if pos < n and text[pos] == "[":
                raise error(f"unterminated comment at offset {pos}")

    def token(regex: re.Pattern) -> str:
        """The stripped text `regex` matches at `pos`, which moves past it."""
        nonlocal pos
        start, pos = pos, regex.match(text, pos).end()
        return text[start:pos].strip()

    def finish(node: TreeNode) -> None:  # the node's label and branch length
        nonlocal pos
        skip()
        if pos < n and text[pos] in "'\"":
            end = text.find(text[pos], pos + 1)
            if end == -1:
                raise error(f"unterminated quoted label at offset {pos}")
            label, pos = text[pos + 1 : end], end + 1
        else:
            label = token(_LABEL)
        if label:
            node.name = label
        skip()
        if pos < n and text[pos] == ":":
            pos += 1
            skip()
            start = pos
            length = token(_LENGTH)
            try:
                node.length = float(length)
            except ValueError:
                pass
            if node.length is None or not math.isfinite(node.length):
                raise error(f"bad branch length {length!r} at offset {start}")

    # Clades still waiting for their ')' are kept on an explicit stack, so
    # nesting depth is not limited by Python's recursion limit.
    open_clades: list[TreeNode] = []
    while True:
        skip()
        node = TreeNode()
        while pos < n and text[pos] == "(":
            pos += 1
            open_clades.append(node)
            skip()
            node = TreeNode()
        finish(node)
        while open_clades:
            open_clades[-1].children.append(node)
            skip()
            if pos >= n:
                raise error("unterminated clade: missing ')'")
            if text[pos] == ",":
                pos += 1
                break  # parse the next sibling
            if text[pos] != ")":
                raise error(f"unexpected {text[pos]!r} at offset {pos}")
            pos += 1
            node = open_clades.pop()
            finish(node)
        else:
            break

    skip()
    if pos >= n or text[pos] != ";":
        raise error("missing terminating ';'")
    pos += 1
    skip()
    if pos != n:
        raise error(f"trailing content after ';' at offset {pos}")
    labels = [leaf.name for leaf in node.leaf_order]
    if any(not lbl for lbl in labels):
        raise error("tree has unnamed leaves")
    if len(set(labels)) != len(labels):
        raise error("tree has duplicate leaf labels")
    return node


def _read_fasta(path: Path, fail) -> SequenceSet:
    records: list[tuple[str, str]] = []
    current_id: str | None = None
    chunks: list[str] = []
    for lineno, line in enumerate(read_text(path, fail).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current_id is not None:
                records.append((current_id, "".join(chunks)))
            header = line[1:].strip()
            if not header:
                raise fail("empty FASTA header", lineno)
            current_id = header.split()[0]
            chunks = []
        else:
            if current_id is None:
                raise fail("sequence data before first header", lineno)
            chunks.append(line)
    if current_id is not None:
        records.append((current_id, "".join(chunks)))
    if not records:
        raise fail("no FASTA records")
    ids = [rec_id for rec_id, _ in records]
    if len(set(ids)) != len(ids):
        raise fail("duplicate sequence ids")
    return SequenceSet(tuple(records))


def _ring_points(ring: list) -> tuple:
    pts = []
    for pt in ring:
        if not isinstance(pt, list) or len(pt) < 2:
            raise ValueError("bad ring coordinate")
        lon, lat = float(pt[0]), float(pt[1])
        if not (math.isfinite(lon) and math.isfinite(lat)):
            raise ValueError("non-finite ring coordinate")
        pts.append((lon, lat))
    return tuple(pts)


def _read_geojson(path: Path, fail) -> FeatureSet:
    doc = read_json(path, fail)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise fail("expected a GeoJSON FeatureCollection")
    raw_features = doc.get("features", [])
    if not isinstance(raw_features, list):
        raise fail("\"features\" is not an array")
    features = []
    for i, feat in enumerate(raw_features):
        if not isinstance(feat, dict):
            raise fail(f"feature {i} is not an object")
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict):
            raise fail(f"feature {i}: geometry is not an object")
        props = feat.get("properties")
        if not isinstance(props, dict):
            raise fail(f"feature {i} has no properties object")
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        try:
            if gtype == "Polygon":
                polygons = (tuple(_ring_points(ring) for ring in coords),)
            elif gtype == "MultiPolygon":
                polygons = tuple(tuple(_ring_points(ring) for ring in poly) for poly in coords)
            else:
                raise fail(f"feature {i}: unsupported geometry {gtype!r}")
        except (TypeError, ValueError, OverflowError):  # an int past the float range overflows
            raise fail(f"feature {i}: malformed coordinates")
        # keep non-empty outer rings only; holes add nothing at recon scale
        outer = tuple(poly[0] for poly in polygons if poly and poly[0])
        features.append(Feature(dict(props), outer))
    if not features:
        raise fail("FeatureCollection has no features")
    points = [pt for feat in features for ring in feat.polygons for pt in ring]
    if not points:
        raise fail("no feature has an outer ring point")
    # the map scales each axis by its span, which must be a finite float
    if not all(math.isfinite(max(axis) - min(axis)) for axis in zip(*points)):
        raise fail("coordinate span overflows the float range")
    return FeatureSet(tuple(features))


def _read_edge_list(path: Path, fail) -> EdgeTable:
    table = read_table(path, fail)
    if len(table.columns) < 2:
        raise fail("edge list needs at least source,target columns")
    return EdgeTable(table.columns, table.rows)


_READERS = {
    TABULAR: read_table,
    TREE: lambda path, fail: parse_newick(read_text(path, fail), str(path)),
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
        sidecar = read_table(associated_path, partial(ParseError, IMAGE, str(associated_path)))
        return Dataset(ds_id, dtype, ImageRef(str(path)), sidecar, sidecar.columns[0])

    payload = _READERS[dtype](path, partial(ParseError, dtype, str(path)))
    if associated_path is None:
        return Dataset(ds_id, dtype, payload)
    table = read_table(associated_path, partial(ParseError, TABULAR, str(associated_path)))
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
    return fields, FieldMetadata(tuple(fields))

"""Run configuration: dataset manifest plus every tunable, built once from
one JSON file and the command-line flags, which win over the file. A
`RunConfig` is frozen and validated when it is built. Relative paths resolve
against the config file's directory; unset resource paths fall back to the
shipped assets.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .chartspec import DEFAULT_COLOR_CARD_LIMIT, DEFAULT_HIGHCARD_THRESHOLD
from .designspace import DEFAULT_DECAY
from .entitygraph import DEFAULT_MIN_JACCARD
from .errors import ConfigError, config_file
from .ingest import DATA_TYPES, Dataset, load_dataset, read_json
from .record import Record

ASSETS_DIR = Path(__file__).parent / "assets"

DEFAULT_DESIGN_SPACE = ASSETS_DIR / "design_space_genepi.csv"
DEFAULT_ENCODING_MAP = ASSETS_DIR / "type_encodings.json"
DEFAULT_VIABILITY = ASSETS_DIR / "viability_matrix.csv"
DEFAULT_TEMPLATES = ASSETS_DIR / "chart_templates.json"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a config-file value must be -> its test
KINDS = {
    "a string": lambda value: isinstance(value, str),
    "an integer": _is_int,
    "a number": lambda value: _is_int(value) or isinstance(value, float),
    "a list of strings": lambda value: (isinstance(value, list)
                                        and all(isinstance(v, str) for v in value)),
}

# RunConfig field -> (config-file key, what the file's value must be, default),
# in the order the file's keys are checked
SETTINGS = {
    "design_space": ("design_space", "a string", DEFAULT_DESIGN_SPACE),
    "type_encodings": ("type_encodings", "a string", DEFAULT_ENCODING_MAP),
    "viability_matrix": ("viability_matrix", "a string", DEFAULT_VIABILITY),
    "templates": ("templates", "a string", DEFAULT_TEMPLATES),
    "out_dir": ("out_dir", "a string", Path("out")),
    "user_fields": ("user_fields", "a list of strings", ()),
    "min_jaccard": ("min_jaccard", "a number", DEFAULT_MIN_JACCARD),
    "decay": ("lambda", "a number", DEFAULT_DECAY),
    "highcard_threshold": ("highcard_threshold", "an integer", DEFAULT_HIGHCARD_THRESHOLD),
    "color_card_limit": ("color_card_limit", "an integer", DEFAULT_COLOR_CARD_LIMIT),
    "max_charts": ("max_charts", "an integer", 5),
    "max_views_per_component": ("max_views_per_component", "an integer", 10),
    "seed": ("seed", "an integer", 0),
}
# data files the pipeline reads; they and out_dir resolve against the config
# file's directory
ASSET_FIELDS = ("design_space", "type_encodings", "viability_matrix", "templates")


class ManifestEntry(Record):
    __slots__ = ("id", "path", "dtype", "associated")


class RunConfig:
    """The manifest, then each SETTINGS field: its keyword argument, else its default."""

    __slots__ = ("datasets", *SETTINGS)

    def __init__(self, datasets: tuple[ManifestEntry, ...] = (), **settings):
        unknown = sorted(settings.keys() - SETTINGS.keys())
        if unknown:
            raise TypeError(f"RunConfig() got an unexpected keyword argument {unknown[0]!r}")
        object.__setattr__(self, "datasets", datasets)
        for name, (_, _, default) in SETTINGS.items():
            object.__setattr__(self, name, settings.get(name, default))
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a RunConfig is frozen")

    def validate(self) -> None:
        # an empty manifest is legal: it yields an empty graph and no views
        for entry in self.datasets:
            if entry.dtype not in DATA_TYPES:
                raise ConfigError(f"dataset {entry.id!r}: unknown dtype {entry.dtype!r}")
            if not entry.path.exists():
                raise ConfigError(f"dataset {entry.id!r}: file not found: {entry.path}")
            if entry.associated is not None and not entry.associated.exists():
                raise ConfigError(f"dataset {entry.id!r}: file not found: {entry.associated}")
        for label in ASSET_FIELDS:
            path = getattr(self, label)
            if not Path(path).exists():
                raise ConfigError(f"{label} file not found: {path}")
        if not (0 <= self.min_jaccard < 1):
            raise ConfigError(f"min_jaccard must be in [0, 1), got {self.min_jaccard}")
        if not (0 < self.decay <= 1):
            raise ConfigError(f"lambda must be in (0, 1], got {self.decay}")
        for label in ("highcard_threshold", "color_card_limit", "max_charts",
                      "max_views_per_component"):
            value = getattr(self, label)
            if value < 1:
                raise ConfigError(f"{label} must be >= 1, got {value}")

    def load_datasets(self) -> list[Dataset]:
        return [
            load_dataset(e.path, e.dtype, e.associated, dataset_id=e.id) for e in self.datasets
        ]

    def canonical(self) -> dict:
        doc = {
            "datasets": [
                {
                    "id": e.id,
                    "path": str(e.path),
                    "dtype": e.dtype,
                    "associated": str(e.associated) if e.associated else None,
                }
                for e in self.datasets
            ],
        }
        for name, (key, _, _) in SETTINGS.items():
            value = getattr(self, name)
            if name in ASSET_FIELDS:
                doc[key] = str(value)
            elif name != "out_dir":  # where the output goes is not hashed
                doc[key] = list(value) if name == "user_fields" else value
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _check_kind(label: str, value, kind: str) -> None:
    if not KINDS[kind](value):
        raise ConfigError(f"{label} must be {kind}, got {json.dumps(value)}")


def _manifest_items(datasets, fail) -> list[dict]:
    """The config file's dataset entries, each checked to be an object with
    string `path` and `dtype` and, when given, string `id` and `associated`."""
    if datasets is None:
        return []
    if not isinstance(datasets, list) or not all(isinstance(item, dict) for item in datasets):
        raise ConfigError(f"config key 'datasets' must be a list of objects, got {json.dumps(datasets)}")
    for i, item in enumerate(datasets):
        if "path" not in item or "dtype" not in item:
            raise fail(f"dataset entry {i} needs path and dtype")
        for name in ("path", "dtype", "id", "associated"):
            if name in ("path", "dtype") or item.get(name) is not None:
                _check_kind(f"config key 'datasets': entry {i} {name!r}", item[name], "a string")
    return datasets


def load_config(path: str | Path, **overrides) -> RunConfig:
    """The run config in the JSON file at `path`, with `overrides` (RunConfig
    field -> value, such as the flags given on the command line) winning over
    the file's values."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    fail = config_file("config file", path)
    doc = read_json(path, fail)
    if not isinstance(doc, dict):
        raise fail("must be a JSON object")
    base = path.parent

    def resolve(value: str | None) -> Path | None:
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else base / p

    entries = [
        ManifestEntry(
            id=item.get("id") or Path(item["path"]).stem,
            path=resolve(item["path"]),
            dtype=item["dtype"],
            associated=resolve(item.get("associated")),
        )
        for item in _manifest_items(doc.get("datasets"), fail)
    ]
    ids = [e.id for e in entries]
    for ds_id in ids:
        if ids.count(ds_id) > 1:
            raise fail(f"duplicate dataset id {ds_id!r} in manifest")

    paths = (*ASSET_FIELDS, "out_dir")
    settings = {}
    for name, (key, kind, _) in SETTINGS.items():
        value = doc.get(key)
        if value is None or name in overrides:
            continue
        _check_kind(f"config key {key!r}", value, kind)
        settings[name] = resolve(value) if name in paths else value
    settings.update(overrides)
    if "user_fields" in settings:
        settings["user_fields"] = tuple(settings["user_fields"])
    return RunConfig(datasets=tuple(entries), **settings)

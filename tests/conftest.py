"""Shared fixtures: on-disk dataset collections at three scales, a config
writer, and a summary hook that prints one line per acceptance criterion.

Set HYPOTHESIS_PROFILE=ci for reproducible property tests: examples come from
a fixed seed, no example has a deadline, and a failure prints the blob that
replays it."""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DATA_DIR = Path(__file__).parent / "data"

SAMPLE_IDS = [f"S{i:03d}" for i in range(1, 14)]
LOCATIONS = ["east", "north", "west"]
EXPOSURES = ["water", "food", "contact"]

# leaf order deliberately differs from sorted order
SYNTH_NEWICK = (
    "((S003:0.2,(S001:0.1,S007:0.1):0.1):0.3,"
    "((S005:0.2,S002:0.1):0.2,(S009:0.1,(S004:0.2,S013:0.1):0.1):0.2):0.1,"
    "((S011:0.1,S006:0.2):0.3,((S008:0.1,S012:0.2):0.1,S010:0.3):0.1):0.2);"
)
SYNTH_LEAF_ORDER = [
    "S003", "S001", "S007", "S005", "S002", "S009", "S004",
    "S013", "S011", "S006", "S008", "S012", "S010",
]


def make_png(width: int, height: int) -> bytes:
    """Minimal truecolor PNG with a deterministic band pattern."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    raw = bytearray()
    for y in range(height):
        raw.append(0)
        for x in range(width):
            shade = 40 + (x * 13 + y * 7) % 180
            raw.extend((shade, shade, shade))
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw), 9))
        + chunk(b"IEND", b"")
    )


def write_config(directory: Path, datasets: list[dict], **overrides) -> Path:
    doc = {"datasets": datasets, "out_dir": str(directory / "out")}
    doc.update(overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fig1_dir() -> Path:
    return DATA_DIR / "fig1"


def fig1_datasets(root: Path) -> list[dict]:
    return [
        {"id": "phylo", "path": str(root / "phylo.nwk"), "dtype": "tree",
         "associated": str(root / "phylo_meta.csv")},
        {"id": "cases", "path": str(root / "cases.csv"), "dtype": "tabular"},
        {"id": "regions", "path": str(root / "regions.geojson"), "dtype": "spatial"},
    ]


@pytest.fixture(scope="session")
def fig1_manifest(fig1_dir) -> list[dict]:
    return fig1_datasets(fig1_dir)


def _write_synthetic(root: Path) -> None:
    onset = [f"2024-01-{5 + i:02d}" for i in range(13)]
    ages = [34, 21, 45, 29, 61, 18, 52, 37, 44, 26, 33, 47, 55]
    rows = ["sample_id,location,onset_date,age,exposure,susceptibility"]
    for i, sid in enumerate(SAMPLE_IDS):
        rows.append(
            f"{sid},{LOCATIONS[i % 3]},{onset[i]},{ages[i]},"
            f"{EXPOSURES[i % 3]},{'high' if i % 2 == 0 else 'low'}"
        )
    (root / "samples.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    (root / "phylo.nwk").write_text(SYNTH_NEWICK + "\n", encoding="utf-8")
    meta = ["sample_id,location"]
    for i, sid in enumerate(SAMPLE_IDS):
        meta.append(f"{sid},{LOCATIONS[i % 3]}")
    (root / "phylo_meta.csv").write_text("\n".join(meta) + "\n", encoding="utf-8")

    bases = "ACGT"
    fasta = []
    for i, sid in enumerate(SAMPLE_IDS):
        seq = "".join(bases[(i + j) % 4] for j in range(40))
        fasta.append(f">{sid} synthetic\n{seq}")
    (root / "seqs.fasta").write_text("\n".join(fasta) + "\n", encoding="utf-8")

    (root / "gel.png").write_bytes(make_png(96, 64))
    lanes = ["lane,band_kb"]
    for i, sid in enumerate(SAMPLE_IDS):
        lanes.append(f"{sid},{90 + (i * 37) % 400}")
    (root / "gel_lanes.csv").write_text("\n".join(lanes) + "\n", encoding="utf-8")


def synthetic_manifest(root: Path) -> list[dict]:
    return [
        {"id": "samples", "path": str(root / "samples.csv"), "dtype": "tabular"},
        {"id": "phylo", "path": str(root / "phylo.nwk"), "dtype": "tree",
         "associated": str(root / "phylo_meta.csv")},
        {"id": "seqs", "path": str(root / "seqs.fasta"), "dtype": "genomic"},
        {"id": "gel", "path": str(root / "gel.png"), "dtype": "image",
         "associated": str(root / "gel_lanes.csv")},
    ]


@pytest.fixture(scope="session")
def synthetic_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("synthetic")
    _write_synthetic(root)
    return root


def _newick_balanced(labels: list[str]) -> str:
    def build(chunk: list[str]) -> str:
        if len(chunk) == 1:
            return f"{chunk[0]}:0.1"
        mid = len(chunk) // 2
        return f"({build(chunk[:mid])},{build(chunk[mid:])}):0.05"

    return build(labels)[: -len(":0.05")] + ";"


EBOLA_COUNTRIES = ["guinea", "liberia", "sierra leone", "mali", "senegal"]
EXTRA_REGIONS = ["ghana", "nigeria", "ivory coast"]


def _write_ebola_scale(root: Path) -> None:
    ids = [f"E{i:04d}" for i in range(1, 1601)]
    (root / "tree.nwk").write_text(_newick_balanced(ids) + "\n", encoding="utf-8")

    rows = ["sample_id,country,onset_date,age"]
    for i, sid in enumerate(ids):
        day = i * 7 % 90
        rows.append(
            f"{sid},{EBOLA_COUNTRIES[i % 5]},"
            f"2014-{3 + day // 30:02d}-{1 + day % 30:02d},{15 + (i * 13) % 60}"
        )
    (root / "cases.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    names = EBOLA_COUNTRIES + EXTRA_REGIONS
    features = []
    for i in range(60):
        lon = -16.0 + (i % 10) * 1.2
        lat = 4.0 + (i // 10) * 1.4
        ring = [[lon, lat], [lon + 1.0, lat], [lon + 1.0, lat + 1.1], [lon, lat + 1.1], [lon, lat]]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"country": names[i % len(names)], "cases": 5 + (i * 31) % 700},
            }
        )
    (root / "regions.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="session")
def ebola_scale_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("ebola_scale")
    _write_ebola_scale(root)
    return root


def ebola_manifest(root: Path) -> list[dict]:
    return [
        {"id": "tree", "path": str(root / "tree.nwk"), "dtype": "tree"},
        {"id": "cases", "path": str(root / "cases.csv"), "dtype": "tabular"},
        {"id": "regions", "path": str(root / "regions.geojson"), "dtype": "spatial"},
    ]


@pytest.fixture(scope="session")
def relevance_table():
    from reconviz.config import DEFAULT_DESIGN_SPACE
    from reconviz.designspace import PrevalenceDesignSpace, relevance_from_space

    return relevance_from_space(PrevalenceDesignSpace.from_csv(DEFAULT_DESIGN_SPACE))


@pytest.fixture(scope="session")
def encoding_map():
    from reconviz.config import DEFAULT_ENCODING_MAP
    from reconviz.designspace import TypeEncodingMap

    return TypeEncodingMap.from_json(DEFAULT_ENCODING_MAP)


@pytest.fixture(scope="session")
def templates():
    from reconviz.charts import DRAWABLE
    from reconviz.config import DEFAULT_TEMPLATES
    from reconviz.chartspec import load_templates

    return load_templates(DEFAULT_TEMPLATES, DRAWABLE)


@pytest.fixture(scope="session")
def viability():
    from reconviz.config import DEFAULT_VIABILITY
    from reconviz.combine import ViabilityMatrix

    return ViabilityMatrix.from_csv(DEFAULT_VIABILITY)


def pytest_terminal_summary(terminalreporter):
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", None) != "call":
                continue
            if "test_acceptance" not in rep.nodeid:
                continue
            name = rep.nodeid.split("::")[-1]
            lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}")

"""Seeded generators for the benchmark's three dataset collections.

Each generator writes its input files and a reconviz run config into a
directory and returns a `Collection`: the config path plus the columns the
benchmark itself wrote, so output checks never have to trust reconviz to tell
them what the inputs were. The same (workload, seed) always gives
byte-identical files.

The shape counts in `SHAPES` follow from how the collections are built, not
from the seed; the benchmark checks them on every run so that a generator that
drifts shows up as a failure and not as a change in speed.
"""

from __future__ import annotations

import json
import random
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ebola_render", "hub_stress", "many_views")

# hubs, fields, links, components, paths (before the view cap) and views (after it)
SHAPES = {
    "ebola_render": {"hubs": 3, "fields": 7, "links": 2, "components": 1, "paths": 6, "views": 6},
    "hub_stress": {"hubs": 16, "fields": 80, "links": 360, "components": 1, "paths": 136,
                   "views": 10},
    "many_views": {"hubs": 80, "fields": 208, "links": 240, "components": 16, "paths": 240,
                   "views": 160},
}

# reconviz defaults the output checks rely on; written into every config
MAX_CHARTS = 5
MAX_VIEWS_PER_COMPONENT = 10


@dataclass
class Collection:
    config: Path
    # qualified field name ("dataset.field") -> distinct values, non-numeric fields only
    categorical: dict[str, frozenset] = field(default_factory=dict)
    numeric: set[str] = field(default_factory=set)
    manifest: list[dict] = field(default_factory=list)

    @property
    def field_count(self) -> int:
        return len(self.categorical) + len(self.numeric)

    def add_dataset(self, entry: dict, categorical: dict[str, list[str]], numeric: list[str]) -> None:
        self.manifest.append(entry)
        for name, values in categorical.items():
            self.categorical[f"{entry['id']}.{name}"] = frozenset(values)
        self.numeric.update(f"{entry['id']}.{name}" for name in numeric)


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [",".join(str(cell) for cell in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def yule_newick(labels: list[str], rng: random.Random) -> str:
    """Random binary topology grown by splitting a uniformly chosen leaf."""
    children: dict[int, tuple[int, int]] = {}
    leaves = [0]
    next_id = 1
    while len(leaves) < len(labels):
        i = rng.randrange(len(leaves))
        node = leaves[i]
        children[node] = (next_id, next_id + 1)
        leaves[i] = next_id
        leaves.append(next_id + 1)
        next_id += 2
    shuffled = list(labels)
    rng.shuffle(shuffled)
    name = dict(zip(sorted(leaves), shuffled))
    lengths = {node: f"{rng.uniform(0.001, 0.2):.4f}" for node in range(next_id)}

    # iterative post-order so deep topologies cannot hit the recursion limit
    text: dict[int, str] = {}
    stack = [(0, False)]
    while stack:
        node, expanded = stack.pop()
        if node not in children:
            text[node] = name[node]
        elif expanded:
            a, b = children.pop(node)
            text[node] = f"({text.pop(a)}:{lengths[a]},{text.pop(b)}:{lengths[b]})"
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in children[node])
    return text[0] + ";\n"


def png_bytes(width: int, height: int, offset: int) -> bytes:
    """Minimal truecolor PNG with a band pattern shifted by `offset`."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        crc = struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        return struct.pack(">I", len(data)) + tag + data + crc

    raw = bytearray()
    for y in range(height):
        raw.append(0)
        for x in range(width):
            shade = 40 + (x * 13 + y * 7 + offset) % 180
            raw.extend((shade, shade, shade))
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(raw), 9)) + chunk(b"IEND", b""))


EBOLA_COUNTRIES = ["guinea", "liberia", "sierra leone", "mali", "senegal"]
EXTRA_REGIONS = ["ghana", "nigeria", "ivory coast"]


def _ebola_render(root: Path, rng: random.Random, coll: Collection) -> None:
    """One 1,600-leaf tree, a 1,600-row case table and a 60-polygon map."""
    ids = [f"E{i:04d}" for i in range(1, 1601)]
    _write_text(root / "tree.nwk", yule_newick(ids, rng))
    coll.add_dataset({"id": "tree", "path": "tree.nwk", "dtype": "tree"}, {"tip_label": ids}, [])

    countries = [EBOLA_COUNTRIES[i % 5] for i in range(len(ids))]
    rng.shuffle(countries)
    rows, onsets = [], []
    for sid, country in zip(ids, countries):
        day = rng.randrange(240)
        onset = f"2014-{3 + day // 30:02d}-{1 + day % 30:02d}"
        onsets.append(onset)
        rows.append([sid, country, onset, rng.randint(1, 85)])
    _write_csv(root / "cases.csv", ["sample_id", "country", "onset_date", "age"], rows)
    coll.add_dataset({"id": "cases", "path": "cases.csv", "dtype": "tabular"},
                     {"sample_id": ids, "country": countries, "onset_date": onsets}, ["age"])

    names = EBOLA_COUNTRIES + EXTRA_REGIONS
    features, regions = [], []
    for i in range(60):
        lon = -16.0 + (i % 10) * 1.2 + round(rng.uniform(-0.2, 0.2), 3)
        lat = 4.0 + (i // 10) * 1.4 + round(rng.uniform(-0.2, 0.2), 3)
        ring = [[lon, lat], [lon + 1.0, lat], [lon + 1.0, lat + 1.1], [lon, lat + 1.1], [lon, lat]]
        regions.append(names[i % len(names)])
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"country": regions[-1], "cases": rng.randint(5, 700)},
        })
    _write_text(root / "regions.geojson",
                json.dumps({"type": "FeatureCollection", "features": features}) + "\n")
    coll.add_dataset({"id": "regions", "path": "regions.geojson", "dtype": "spatial"},
                     {"country": regions}, ["cases"])


def _hub_stress(root: Path, rng: random.Random, coll: Collection) -> None:
    """16 tables of 300 rows whose pid, site and grp columns all link pairwise.

    Every table holds every site and group, so those links are exact (J = 1)
    at every seed and the path search does the same work whatever the seed;
    only the pid overlaps (J of about 0.04) vary.
    """
    pool = [f"P{i:04d}" for i in range(4000)]
    sites = [f"site{i:02d}" for i in range(40)]
    groups = [f"g{i}" for i in range(8)]

    def covering(values: list[str], n: int) -> list[str]:
        column = values + [rng.choice(values) for _ in range(n - len(values))]
        rng.shuffle(column)
        return column

    for t in range(16):
        pids = rng.sample(pool, 300)
        site_col = covering(sites, len(pids))
        grp_col = covering(groups, len(pids))
        rows = [[pid, site, grp, f"{rng.uniform(0, 100):.3f}", rng.randint(0, 500)]
                for pid, site, grp in zip(pids, site_col, grp_col)]
        name = f"t{t:02d}"
        _write_csv(root / f"{name}.csv", ["pid", "site", "grp", "x", "y"], rows)
        coll.add_dataset({"id": name, "path": f"{name}.csv", "dtype": "tabular"},
                         {"pid": pids, "site": site_col, "grp": grp_col}, ["x", "y"])


def _many_views(root: Path, rng: random.Random, coll: Collection) -> None:
    """16 disjoint five-source investigations (table, tree, FASTA, gel, contacts)."""
    for inv in range(16):
        p = f"i{inv:02d}"
        ids = [f"{p}s{j:03d}" for j in range(40)]
        sites = [f"{p}-{s}" for s in ("north", "south", "east", "west")]
        settings = [f"{p}-{s}" for s in ("home", "school", "work")]

        site_of = {sid: rng.choice(sites) for sid in ids}
        collected = [f"{2000 + inv}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                     for _ in ids]
        _write_csv(root / f"{p}_samples.csv", ["sample_id", "collected", "site", "age"],
                   [[sid, day, site_of[sid], rng.randint(1, 90)] for sid, day in zip(ids, collected)])
        coll.add_dataset({"id": f"{p}_samples", "path": f"{p}_samples.csv", "dtype": "tabular"},
                         {"sample_id": ids, "collected": collected,
                          "site": [site_of[s] for s in ids]}, ["age"])

        tips = sorted(rng.sample(ids, 32))
        _write_text(root / f"{p}_tree.nwk", yule_newick(tips, rng))
        _write_csv(root / f"{p}_tree_meta.csv", ["sample_id", "site"],
                   [[sid, site_of[sid]] for sid in tips])
        coll.add_dataset({"id": f"{p}_tree", "path": f"{p}_tree.nwk", "dtype": "tree",
                          "associated": f"{p}_tree_meta.csv"},
                         {"tip_label": tips, "sample_id": tips,
                          "site": [site_of[s] for s in tips]}, [])

        seq_ids = sorted(rng.sample(ids, 30))
        fasta = "".join(f">{sid}\n{''.join(rng.choice('ACGT') for _ in range(60))}\n"
                        for sid in seq_ids)
        _write_text(root / f"{p}_seqs.fasta", fasta)
        coll.add_dataset({"id": f"{p}_seqs", "path": f"{p}_seqs.fasta", "dtype": "genomic"},
                         {"seq_id": seq_ids}, [])

        lanes = sorted(rng.sample(ids, 24))
        (root / f"{p}_gel.png").write_bytes(png_bytes(48, 32, inv))
        _write_csv(root / f"{p}_gel_lanes.csv", ["lane", "band_kb"],
                   [[lane, rng.randint(90, 900)] for lane in lanes])
        coll.add_dataset({"id": f"{p}_gel", "path": f"{p}_gel.png", "dtype": "image",
                          "associated": f"{p}_gel_lanes.csv"}, {"lane": lanes}, ["band_kb"])

        nodes = rng.sample(ids, 30)
        edges = [[node, rng.choice(nodes[:k])] for k, node in enumerate(nodes) if k]
        edges += [rng.sample(nodes, 2) for _ in range(10)]
        rows = [[a, b, rng.choice(settings), rng.randint(1, 14)] for a, b in edges]
        _write_csv(root / f"{p}_contacts.csv", ["source", "target", "setting", "days"], rows)
        coll.add_dataset({"id": f"{p}_contacts", "path": f"{p}_contacts.csv", "dtype": "network"},
                         {"node_id": nodes, "setting": [r[2] for r in rows]}, ["days"])


_GENERATORS = {"ebola_render": _ebola_render, "hub_stress": _hub_stress, "many_views": _many_views}


def generate(workload: str, seed: int, root: Path) -> Collection:
    """Write `workload`'s inputs for `seed` under `root` and return them."""
    root.mkdir(parents=True, exist_ok=True)
    coll = Collection(root / "config.json")
    _GENERATORS[workload](root, random.Random(f"{workload}:{seed}"), coll)
    doc = {
        "datasets": coll.manifest,
        "max_charts": MAX_CHARTS,
        "max_views_per_component": MAX_VIEWS_PER_COMPONENT,
    }
    _write_text(coll.config, json.dumps(doc, indent=2) + "\n")
    return coll

"""Acceptance gate: one test per criterion, run at the stated tolerances.

The terminal summary prints one PASS/FAIL line per criterion (see conftest).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from reconviz.chartspec import EncodingSlot, assign_field_to_slot, slot_accepts
from reconviz.cli import main
from reconviz.combine import IMMUTABLE_CHART_TYPES, bind_alignment
from reconviz.config import RunConfig
from reconviz.entitygraph import (
    build_entity_graph,
    connected_components,
    enumerate_paths,
    jaccard,
    render_entity_graph,
)
from reconviz.errors import ConstraintViolation
from reconviz.ingest import Dataset, Field, Table, explode_fields, load_dataset, parse_newick
from reconviz.pipeline import assemble
from reconviz.ranking import path_vis_relevance, rank_paths

from conftest import ebola_manifest, synthetic_manifest, write_config


def field(name, source, values=None, numeric=False, rows=None):
    if numeric:
        return Field(name, source, "numeric", None, None, rows or 10)
    vals = frozenset(values)
    return Field(name, source, "non-numeric", len(vals), vals, rows or len(vals))


def load_manifest(manifest):
    return [
        load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
        for m in manifest
    ]


# -- criterion 1: relevance reproduction -------------------------------------

def test_c01_relevance_reproduction(relevance_table, encoding_map):
    assert relevance_table.score("phylogenetic tree") == pytest.approx(10.0)
    assert relevance_table.score("bar chart") == pytest.approx(4.0, abs=0.05)

    # five trees chained hop by hop: each tree's metadata names the next
    # tree's tips, so the end-to-end pair path must transit every hub and the
    # relevance sum hits the exact upper bound
    def block(j):
        return {f"b{j}_{k}" for k in range(4)}

    fields = []
    for i in range(1, 6):
        fields.append(field("tip_label", f"t{i}", block(i)))
        fields.append(field("next_id", f"t{i}", block(i + 1)))
    component = connected_components(build_entity_graph(fields))[0]
    five_hub = next(p for p in enumerate_paths(component) if len(p.hubs) == 5)
    assert five_hub.hubs == ("t1", "t2", "t3", "t4", "t5")
    dtypes = {f"t{i}": "tree" for i in range(1, 6)}
    assert path_vis_relevance(five_hub, dtypes, encoding_map, relevance_table) == 50.0


# -- criterion 2: path-score bounds on randomized graphs ---------------------

def test_c02_path_score_bounds_fuzz(relevance_table, encoding_map):
    rng = random.Random(20240808)
    dtypes_pool = ["tabular", "tree", "spatial", "genomic", "network", "image"]
    started = time.monotonic()
    for _ in range(1000):
        n = rng.randint(1, 6)
        dtypes = {f"d{i}": rng.choice(dtypes_pool) for i in range(n)}
        fields = []
        for i in range(n):
            for k in range(rng.randint(1, 3)):
                values = {f"v{rng.randint(0, 15)}" for _ in range(rng.randint(1, 8))}
                fields.append(field(f"f{k}", f"d{i}", values))
        ranked = rank_paths(build_entity_graph(fields), dtypes, encoding_map, relevance_table)
        total = len(ranked)
        scores = [r.path_score for r in ranked]
        assert scores == sorted(scores)
        assert all(3 <= s <= 3 * total for s in scores)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"1000 graphs took {elapsed:.1f}s"


# -- criterion 3: jaccard vs brute-force oracle -------------------------------

def _dedup_sorted(values):
    out = []
    for v in sorted(values):
        if not out or out[-1] != v:
            out.append(v)
    return out


def _oracle_jaccard(a_list, b_list):
    """Sorted-merge intersection/union count, independent of set arithmetic."""
    a, b = _dedup_sorted(a_list), _dedup_sorted(b_list)
    i = j = inter = union = 0
    while i < len(a) and j < len(b):
        union += 1
        if a[i] == b[j]:
            inter += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    union += (len(a) - i) + (len(b) - j)
    return Fraction(inter, union)


def test_c03_jaccard_oracle_equivalence():
    rng = random.Random(8383)
    started = time.monotonic()
    for _ in range(10_000):
        a = [str(rng.randrange(150)) for _ in range(rng.randint(1, 100))]
        b = [str(rng.randrange(150)) for _ in range(rng.randint(1, 100))]
        assert jaccard(frozenset(a), frozenset(b)) == _oracle_jaccard(a, b)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"10k cases took {elapsed:.1f}s"


# -- criterion 4: Fig.-1 pipeline fixture -------------------------------------

def test_c04_fig1_fixture_structure(fig1_manifest, relevance_table, encoding_map):
    datasets = load_manifest(fig1_manifest)
    fields, _ = explode_fields(datasets)
    graph = build_entity_graph(fields)

    weights = sorted(graph.links.values())
    assert len(weights) == 2
    assert weights[0] < 1 and weights[1] == 1  # one inexact, one exact

    svg = render_entity_graph(graph)
    assert svg.count('class="link-exact"') == 1
    assert svg.count('class="link-inexact"') == 1

    ranked = rank_paths(graph, {d.id: d.dtype for d in datasets}, encoding_map, relevance_table)
    assert set(ranked[0].path.hubs) == {"phylo", "cases", "regions"}
    assert len(ranked[0].path.hubs) == 3


# -- criterion 5: synthetic scenario ------------------------------------------

def test_c05_synthetic_scenario(synthetic_dir, relevance_table, encoding_map, templates,
                                viability):
    asm = assemble(load_manifest(synthetic_manifest(synthetic_dir)), relevance_table,
                   encoding_map, templates, viability, RunConfig(seed=11))

    def satisfies(view):
        group = view.plan.spatial
        if group is None or len(group.member_ids) != 3:
            return False
        lead = next(s for s in view.specs if s.id == group.lead_id)
        if lead.chart_type != "phylogenetic tree":
            return False
        color_members = {
            tuple(sorted(next(s for s in view.specs if s.id == sid).chart_type
                         for sid in g.member_ids))
            for g in view.plan.color_groups
        }
        if ("phylogenetic tree", "scatter chart") not in color_members:
            return False
        bar_ids = [s.id for s in view.specs if s.chart_type == "bar chart"]
        return any(sid in view.plan.unaligned for sid in bar_ids)

    assert any(satisfies(v) for v in asm.views)

    # a tree and an image are never spatially aligned, in any emitted view
    for view in asm.views:
        if view.plan.spatial is None:
            continue
        member_types = {
            next(s for s in view.specs if s.id == sid).chart_type
            for sid in view.plan.spatial.member_ids
        }
        assert not ({"phylogenetic tree", "image"} <= member_types)


# -- criterion 6: alignment invariants over a fuzz corpus ----------------------

def _random_collection(rng):
    pool = [f"p{i:02d}" for i in range(rng.randint(6, 14))]
    cats = ["red", "green", "blue", "amber"]
    datasets = []
    n = rng.randint(2, 5)
    for i in range(n):
        kind = rng.choice(["tabular", "tabular", "tree", "spatial"])
        ds_id = f"ds{i}"
        if kind == "tabular":
            ids = rng.sample(pool, rng.randint(4, len(pool)))
            rows = [
                (sid, rng.choice(cats), str(rng.randint(10, 90)), f"2024-02-{rng.randint(1, 28):02d}")
                for sid in ids
            ]
            datasets.append(
                Dataset(ds_id, "tabular",
                        Table(("sample_id", "group", "value", "seen"), tuple(rows)))
            )
        elif kind == "tree":
            tips = rng.sample(pool, rng.randint(3, len(pool)))
            newick = "(" + ",".join(f"{t}:1" for t in tips) + ");"
            datasets.append(Dataset(ds_id, "tree", parse_newick(newick)))
        else:
            from reconviz.ingest import Feature, FeatureSet

            regions = rng.sample(cats, rng.randint(2, 4))
            features = tuple(
                Feature({"group": r, "total": (j + 1) * 5},
                        ((((float(j), 0.0), (float(j) + 0.9, 0.0), (float(j) + 0.9, 0.9)),)))
                for j, r in enumerate(regions)
            )
            datasets.append(Dataset(ds_id, "spatial", FeatureSet(features)))
    return datasets


def test_c06_alignment_invariants_fuzz(relevance_table, encoding_map, templates, viability):
    rng = random.Random(616161)
    for trial in range(40):
        datasets = _random_collection(rng)
        asm = assemble(datasets, relevance_table, encoding_map, templates, viability,
                       RunConfig(seed=trial))
        for view in asm.views:
            group = view.plan.spatial
            if group is not None:
                members = [next(s for s in view.specs if s.id == sid)
                           for sid in group.member_ids]
                immutable = [s for s in members if s.chart_type in IMMUTABLE_CHART_TYPES]
                assert len(immutable) <= 1
                orderings = {
                    json.dumps(s.annotations.get("domain_order")
                               or s.annotations.get("axis_domain"))
                    for s in members
                }
                assert len(orderings) == 1
                axes = {s.annotations.get("shared_axis") for s in members}
                assert len(axes) == 1
            for cgroup in view.plan.color_groups:
                palettes = [
                    next(s for s in view.specs if s.id == sid).annotations.get("palette")
                    for sid in cgroup.member_ids
                    if any(s.id == sid for s in view.specs)
                ]
                assert all(p == cgroup.palette for p in palettes)
            rebound = bind_alignment(view.specs, view.plan)
            assert (
                json.dumps([s.to_dict() for s in rebound], sort_keys=True)
                == json.dumps([s.to_dict() for s in view.specs], sort_keys=True)
            )


# -- criterion 7: view and chart limits ----------------------------------------

def test_c07_limits(relevance_table, encoding_map, templates, viability, synthetic_dir):
    # 5 fully linked datasets: C(5,2) + 5 = 15 paths in one component -> 10 views
    ids = [f"s{i:02d}" for i in range(13)]
    datasets = [
        Dataset(f"d{k}", "tabular",
                Table(("sample_id", "value"),
                      tuple((sid, str(i + k)) for i, sid in enumerate(ids))))
        for k in range(5)
    ]
    asm = assemble(datasets, relevance_table, encoding_map, templates, viability, RunConfig(seed=0))
    assert len(asm.ranked) == 15
    assert len({r.path.component_id for r in asm.ranked}) == 1
    assert len(asm.views) == 10

    # a path with 6 viable charts emits exactly 5
    samples = load_dataset(synthetic_dir / "samples.csv", "tabular", dataset_id="samples")
    solo = assemble([samples], relevance_table, encoding_map, templates, viability,
                    RunConfig(seed=0))
    assert len(solo.views) == 1
    assert len(solo.views[0].specs) == 5
    dropped = {"histogram", "line chart"}  # the two lowest-relevance candidates
    kept = {s.chart_type for s in solo.views[0].specs}
    assert len(kept & dropped) == 1  # exactly one of the two tied minimums survives


# -- criterion 8: byte-identical reruns ----------------------------------------

def test_c08_determinism(synthetic_dir, tmp_path):
    cfg = write_config(tmp_path, synthetic_manifest(synthetic_dir), seed=77)
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for command in (
            ["link", "--config", str(cfg), "--out", str(out)],
            ["graph", "--config", str(cfg), "--out", str(out)],
            ["specs", "--config", str(cfg), "--out", str(out)],
            ["render", "--config", str(cfg), "--out", str(out), "--view", "1"],
        ):
            assert main(command) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0].keys() == blobs[1].keys()
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name], f"{name} differs between runs"
    assert {"entity_graph.json", "entity_graph.svg", "specs.json", "view_001.svg",
            "view_001.json", "field_metadata.csv", "manifest.json"} <= set(blobs[0])


# -- criterion 9: runtime budget -------------------------------------------------

def test_c09_runtime_budget(ebola_scale_dir, tmp_path):
    cfg = write_config(tmp_path, ebola_manifest(ebola_scale_dir))
    started = time.monotonic()
    assert main(["specs", "--config", str(cfg)]) == 0
    assert main(["render", "--config", str(cfg), "--view", "1"]) == 0
    elapsed = time.monotonic() - started
    assert (tmp_path / "out" / "view_001.svg").exists()
    assert elapsed < 30.0, f"specs+render took {elapsed:.1f}s"
    # soft target: < 10s on commodity hardware
    assert elapsed < 10.0, f"missed the 10s target: {elapsed:.1f}s"


# -- criterion 10: constraint boundaries ------------------------------------------

def test_c10_constraint_boundaries():
    color = EncodingSlot("color", "non-numeric")
    eleven = field("c", "t", {f"v{i}" for i in range(11)}, rows=100)
    twelve = field("c", "t", {f"v{i}" for i in range(12)}, rows=100)
    assert slot_accepts(color, eleven)
    assert not slot_accepts(color, twelve)
    with pytest.raises(ConstraintViolation):
        assign_field_to_slot(color, twelve)

    size = EncodingSlot("size", "any")
    assert slot_accepts(size, field("n", "t", numeric=True))
    with pytest.raises(ConstraintViolation):
        assign_field_to_slot(size, field("c", "t", {"a", "b"}))

    # numeric fields never produce linkage edges, even with identical values
    graph = build_entity_graph(
        [field("v", "d1", numeric=True), field("v", "d2", numeric=True)]
    )
    assert len(graph.links) == 0

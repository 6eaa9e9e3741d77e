import json

import pytest

from reconviz.chartspec import (
    EncodingSlot,
    assign_field_to_slot,
    generate_single_chart_specs,
    prioritize_fields,
    slot_accepts,
)
from reconviz import pipeline
from reconviz.config import RunConfig
from reconviz.errors import ConstraintViolation
from reconviz.ingest import Dataset, Feature, FeatureSet, Field, Table, load_dataset

from conftest import fig1_datasets, synthetic_manifest


def field(name, source, values=None, numeric=False, rows=None):
    if numeric:
        return Field(name, source, "numeric", None, None, rows or 10)
    vals = frozenset(values)
    return Field(name, source, "non-numeric", len(vals), vals, rows or max(len(vals), 10))


def cats(prefix, n):
    return {f"{prefix}{i}" for i in range(n)}


class TestPrioritizeFields:
    def test_degree_order(self):
        fields = [
            (field("country", "t", cats("c", 3)), 2),
            (field("id", "t", cats("i", 9)), 3),
            (field("age", "t", numeric=True), 1),
        ]
        assert [f.name for f in prioritize_fields(fields)] == ["id", "country", "age"]

    def test_user_fields_come_first(self):
        fields = [
            (field("country", "t", cats("c", 3)), 2),
            (field("id", "t", cats("i", 9)), 3),
            (field("age", "t", numeric=True), 1),
        ]
        ordered = prioritize_fields(fields, user_fields=["age"])
        assert [f.name for f in ordered] == ["age", "id", "country"]

    def test_equal_degree_and_cardinality_breaks_alphabetically(self):
        fields = [
            (field("zeta", "t", cats("z", 4)), 1),
            (field("alpha", "t", cats("a", 4)), 1),
        ]
        assert [f.name for f in prioritize_fields(fields)] == ["alpha", "zeta"]

    def test_unknown_user_field_is_ignored(self):
        fields = [(field("a", "t", cats("a", 3)), 1)]
        assert [f.name for f in prioritize_fields(fields, ["nope"])] == ["a"]

    def test_qualified_user_name_matches(self):
        fields = [
            (field("x", "t1", cats("a", 3)), 1),
            (field("x", "t2", cats("b", 3)), 1),
        ]
        ordered = prioritize_fields(fields, ["t2.x"])
        assert (ordered[0].source_id, ordered[0].name) == ("t2", "x")


class TestSlotConstraints:
    def test_color_accepts_eleven_categories(self):
        slot = EncodingSlot("color", "non-numeric")
        assert slot_accepts(slot, field("c", "t", cats("v", 11), rows=100))

    def test_color_rejects_twelve_categories(self):
        slot = EncodingSlot("color", "non-numeric")
        assert not slot_accepts(slot, field("c", "t", cats("v", 12), rows=100))

    def test_size_accepts_numeric_only(self):
        slot = EncodingSlot("size", "any")
        assert slot_accepts(slot, field("n", "t", numeric=True))
        assert not slot_accepts(slot, field("c", "t", cats("v", 3)))

    def test_positional_any_needs_numeric_or_high_cardinality(self):
        slot = EncodingSlot("x", "any")
        assert slot_accepts(slot, field("n", "t", numeric=True))
        assert slot_accepts(slot, field("big", "t", cats("v", 30), rows=100))
        assert not slot_accepts(slot, field("small", "t", cats("v", 3), rows=100))

    def test_unique_key_counts_as_high_cardinality(self):
        slot = EncodingSlot("x", "any")
        assert slot_accepts(slot, field("key", "t", cats("k", 5), rows=5))

    def test_template_constraint_governs_positional_slot(self):
        slot = EncodingSlot("x", "non-numeric_low_card")
        assert slot_accepts(slot, field("country", "t", cats("c", 3), rows=100))
        assert not slot_accepts(slot, field("id", "t", cats("i", 30), rows=100))

    def test_assign_raises_on_rejection(self):
        slot = EncodingSlot("size", "any")
        with pytest.raises(ConstraintViolation):
            assign_field_to_slot(slot, field("c", "t", cats("v", 3)))

    def test_assign_returns_binding(self):
        binding = assign_field_to_slot(EncodingSlot("size", "any"), field("n", "t", numeric=True))
        assert (binding.source, binding.field) == ("t", "n")

    def test_configurable_color_limit(self):
        slot = EncodingSlot("color", "non-numeric")
        wide = field("c", "t", cats("v", 14), rows=100)
        assert not slot_accepts(slot, wide)
        assert slot_accepts(slot, wide, color_card_limit=20)


def tabular_dataset(ds_id, columns, rows):
    return Dataset(ds_id, "tabular", Table(tuple(columns), tuple(tuple(r) for r in rows)))


def spatial_dataset(ds_id, countries):
    features = tuple(
        Feature({"country": c, "cases": i * 10}, ((((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)),)))
        for i, c in enumerate(countries)
    )
    return Dataset(ds_id, "spatial", FeatureSet(features))


class TestGenerateSingleChartSpecs:
    def test_spatial_dataset_yields_exactly_one_map(self, templates, relevance_table):
        ds = spatial_dataset("regions", ["gin", "lbr", "sle"])
        fields = [
            (field("country", "regions", {"gin", "lbr", "sle"}, rows=3), 2),
            (field("cases", "regions", numeric=True, rows=3), 1),
        ]
        prioritized = prioritize_fields(fields)
        specs = generate_single_chart_specs([ds], prioritized, templates, relevance_table)
        assert [s.chart_type for s in specs] == ["geographic map"]
        assert specs[0].bindings["x"].field == "country"
        # the map's color slot reuses the region field as a last resort
        assert specs[0].bindings["color"].field == "country"

    def test_bar_chart_greedy_trace(self, templates, relevance_table):
        rows = [["gin", "5"], ["lbr", "3"], ["sle", "9"], ["gin", "2"], ["lbr", "4"], ["sle", "1"]]
        ds = tabular_dataset("t", ["country", "count"], rows)
        fields = [
            (field("country", "t", {"gin", "lbr", "sle"}, rows=6), 1),
            (field("count", "t", numeric=True, rows=6), 1),
        ]
        prioritized = prioritize_fields(fields)
        specs = generate_single_chart_specs([ds], prioritized, templates, relevance_table)
        bar = next(s for s in specs if s.chart_type == "bar chart")
        assert bar.bindings["x"].field == "country"
        assert bar.bindings["y"].field == "count"

    def test_scatter_excluded_without_two_positional_fields(self, templates, relevance_table):
        ds = tabular_dataset("t", ["country", "count"], [["gin", "5"], ["lbr", "3"], ["sle", "1"],
                                                         ["gin", "2"], ["lbr", "8"], ["sle", "4"]])
        fields = [
            (field("country", "t", {"gin", "lbr", "sle"}, rows=6), 1),
            (field("count", "t", numeric=True, rows=6), 1),
        ]
        specs = generate_single_chart_specs([ds], prioritize_fields(fields), templates,
                                            relevance_table)
        assert "scatter chart" not in {s.chart_type for s in specs}

    def test_output_sorted_by_relevance_descending(self, templates, relevance_table, synthetic_dir):
        from reconviz.ingest import explode_fields, load_dataset

        ds = load_dataset(synthetic_dir / "samples.csv", "tabular", dataset_id="samples")
        fields, _ = explode_fields([ds])
        prioritized = prioritize_fields([(f, 1) for f in fields])
        specs = generate_single_chart_specs([ds], prioritized, templates, relevance_table)
        scores = [s.relevance for s in specs]
        assert scores == sorted(scores, reverse=True)
        assert len(specs) == 6  # every tabular template completes on this table

    def test_every_emitted_binding_satisfies_its_slot(self, templates, relevance_table,
                                                      synthetic_dir):
        from reconviz.ingest import explode_fields, load_dataset

        ds = load_dataset(synthetic_dir / "samples.csv", "tabular", dataset_id="samples")
        fields, _ = explode_fields([ds])
        by_key = {(f.source_id, f.name): f for f in fields}
        prioritized = prioritize_fields([(f, 1) for f in fields])
        specs = generate_single_chart_specs([ds], prioritized, templates, relevance_table)
        slot_index = {
            (t.chart_type, s.channel): s for t in templates for s in t.slots
        }
        for spec in specs:
            for channel, binding in spec.bindings.items():
                slot = slot_index[(spec.chart_type, channel)]
                assert slot_accepts(slot, by_key[(binding.source, binding.field)])

    def test_deterministic_output(self, templates, relevance_table, synthetic_dir):
        from reconviz.ingest import explode_fields, load_dataset

        ds = load_dataset(synthetic_dir / "samples.csv", "tabular", dataset_id="samples")
        fields, _ = explode_fields([ds])
        prioritized = prioritize_fields([(f, 1) for f in fields])
        one = generate_single_chart_specs([ds], prioritized, templates, relevance_table)
        two = generate_single_chart_specs([ds], prioritized, templates, relevance_table)
        assert json.dumps([s.to_dict() for s in one]) == json.dumps([s.to_dict() for s in two])

    def test_user_field_never_removes_chart_types(self, templates, relevance_table, synthetic_dir):
        from reconviz.ingest import explode_fields, load_dataset

        ds = load_dataset(synthetic_dir / "samples.csv", "tabular", dataset_id="samples")
        fields, _ = explode_fields([ds])
        pairs = [(f, 1) for f in fields]
        baseline = {
            s.chart_type
            for s in generate_single_chart_specs([ds], prioritize_fields(pairs), templates,
                                                 relevance_table)
        }
        for f in fields:
            ordered = prioritize_fields(pairs, user_fields=[f.name])
            with_user = {
                s.chart_type
                for s in generate_single_chart_specs([ds], ordered, templates, relevance_table)
            }
            assert baseline <= with_user

    def test_incomplete_required_slot_drops_chart(self, templates, relevance_table):
        # only one numeric column: heatmap (two any-slots) cannot complete
        ds = tabular_dataset("t", ["v"], [["1"], ["2"], ["3"]])
        fields = [(field("v", "t", numeric=True, rows=3), 1)]
        specs = generate_single_chart_specs([ds], prioritize_fields(fields), templates,
                                            relevance_table)
        types = {s.chart_type for s in specs}
        assert "heatmap" not in types
        assert "scatter chart" not in types
        assert "histogram" in types


def _fixture_datasets(name, fig1_dir, synthetic_dir):
    manifest = fig1_datasets(fig1_dir) if name == "fig1" else synthetic_manifest(synthetic_dir)
    return [load_dataset(m["path"], m["dtype"], m.get("associated"), dataset_id=m["id"])
            for m in manifest]


class TestSingletonSpecsMadeOncePerDataset:
    """`assemble` makes each dataset's singleton specs once and merges them
    per view; the oracle generates them per path, as every view once did."""

    USER_FIELDS = {"fig1": ("country", "phylo.case_id"), "synthetic": ("location", "gel.lane")}

    @pytest.mark.parametrize("max_charts", [5, 2])
    @pytest.mark.parametrize("with_user_fields", [False, True])
    @pytest.mark.parametrize("name", ["fig1", "synthetic"])
    def test_view_specs_equal_the_per_path_generation(
        self, monkeypatch, fig1_dir, synthetic_dir, relevance_table, encoding_map, templates,
        viability, name, with_user_fields, max_charts,
    ):
        config = RunConfig(user_fields=self.USER_FIELDS[name] if with_user_fields else (),
                           max_charts=max_charts)
        planned = []
        build_plan = pipeline.build_plan
        monkeypatch.setattr(pipeline, "build_plan",
                            lambda specs, *a, **k: planned.append(specs) or build_plan(specs, *a, **k))
        asm = pipeline.assemble(_fixture_datasets(name, fig1_dir, synthetic_dir), relevance_table,
                                encoding_map, templates, viability, config)
        assert len(planned) == len(asm.views) > 1
        for view, specs in zip(asm.views, planned):
            hubs = set(view.ranked.path.hubs)
            path_fields = [(f, asm.graph.field_degree(f)) for f in asm.graph.fields.values()
                           if f.source_id in hubs]
            expected = generate_single_chart_specs(
                [asm.datasets[h] for h in view.ranked.path.hubs],
                prioritize_fields(path_fields, list(config.user_fields)), templates, relevance_table,
                color_card_limit=config.color_card_limit,
                highcard_threshold=config.highcard_threshold,
            )[:config.max_charts]
            assert specs == expected

    @pytest.mark.parametrize("name", ["fig1", "synthetic"])
    def test_each_dataset_once_and_left_unbound(
        self, monkeypatch, fig1_dir, synthetic_dir, relevance_table, encoding_map, templates,
        viability, name,
    ):
        made = []
        generate = pipeline.generate_single_chart_specs
        monkeypatch.setattr(pipeline, "generate_single_chart_specs",
                            lambda *a, **k: made.append(generate(*a, **k)) or made[-1])
        asm = pipeline.assemble(_fixture_datasets(name, fig1_dir, synthetic_dir), relevance_table,
                                encoding_map, templates, viability, RunConfig())
        views_hubs = {h for view in asm.views for h in view.ranked.path.hubs}
        assert len(made) == len(views_hubs)
        assert any("shared_axis" in s.annotations for view in asm.views for s in view.specs)
        for spec in (s for specs in made for s in specs):
            assert "render_ready" not in spec.annotations
            assert "shared_axis" not in spec.annotations

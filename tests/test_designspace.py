import pytest
from hypothesis import given, strategies as st

from reconviz.designspace import (
    PrevalenceDesignSpace,
    TypeEncodingMap,
    raw_relevance,
    relevance_from_space,
    scaled_relevance,
)
from reconviz.errors import AllZeroCounts, ConfigError, EmptyDesignSpace


def space(*entries):
    return PrevalenceDesignSpace(tuple(entries))


class TestRawRelevance:
    def test_current_year_has_weight_one(self):
        assert raw_relevance(space(("tree", 2020, 100)), 0.9) == {"tree": 100.0}

    def test_one_year_back_decays(self):
        totals = raw_relevance(space(("tree", 2020, 100), ("bar", 2019, 50)), 0.9)
        assert totals["bar"] == pytest.approx(45.0)

    def test_no_decay_is_plain_sum(self):
        totals = raw_relevance(
            space(("bar", 2018, 5), ("bar", 2019, 7), ("bar", 2020, 11)), 1.0
        )
        assert totals["bar"] == pytest.approx(23.0)

    def test_empty_space_rejected(self):
        with pytest.raises(EmptyDesignSpace):
            raw_relevance(space(), 0.9)

    def test_bad_decay_rejected(self):
        with pytest.raises(ConfigError):
            raw_relevance(space(("tree", 2020, 1)), 0.0)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ConfigError):
            space(("tree", 2020, 1), ("tree", 2020, 2))

    @given(st.integers(1, 500), st.floats(0.3, 0.99))
    def test_shifting_counts_older_strictly_decreases(self, count, decay):
        newer = raw_relevance(space(("x", 2020, count), ("anchor", 2020, 1)), decay)
        older = raw_relevance(space(("x", 2019, count), ("anchor", 2020, 1)), decay)
        assert older["x"] < newer["x"]


class TestScaledRelevance:
    def test_shipped_fixture_reproduces_ten_and_four(self, relevance_table):
        assert relevance_table.score("phylogenetic tree") == pytest.approx(10.0)
        assert relevance_table.score("bar chart") == pytest.approx(4.0, abs=0.05)

    def test_single_chart_is_its_own_max(self):
        table = scaled_relevance({"tree": 17.0})
        assert table.score("tree") == 10.0

    def test_floor_at_one(self):
        table = scaled_relevance({"big": 100.0, "tiny": 5.0})
        assert table.score("tiny") == 1.0  # 0.5 floored
        assert table.score("big") == 10.0

    def test_max_is_exactly_ten(self, relevance_table):
        assert max(relevance_table.scaled.values()) == 10.0
        assert min(relevance_table.scaled.values()) >= 1.0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(AllZeroCounts):
            scaled_relevance({"a": 0.0, "b": 0.0})

    @given(st.integers(2, 1000))
    def test_scale_invariance(self, k):
        base = {"tree": 40.0, "bar": 16.0, "map": 4.0}
        scaled_base = scaled_relevance(base).scaled
        scaled_mult = scaled_relevance({c: v * k for c, v in base.items()}).scaled
        for chart in base:
            assert scaled_mult[chart] == pytest.approx(scaled_base[chart])

    def test_decay_independent_for_proportional_fixture(self):
        from reconviz.config import DEFAULT_DESIGN_SPACE

        loaded = PrevalenceDesignSpace.from_csv(DEFAULT_DESIGN_SPACE)
        for decay in (0.5, 0.9, 1.0):
            table = relevance_from_space(loaded, decay)
            assert table.score("phylogenetic tree") == pytest.approx(10.0)
            assert table.score("bar chart") == pytest.approx(4.0)

    def test_csv_export_sorted_by_score(self, relevance_table):
        lines = relevance_table.to_csv().splitlines()
        assert lines[0] == "chart_type,raw,scaled"
        assert lines[1].startswith("phylogenetic tree,")
        scores = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)


class TestTypeEncodingMap:
    def test_every_candidate_in_relevance_table(self, encoding_map, relevance_table):
        encoding_map.validate_against(relevance_table)

    def test_unknown_chart_type_rejected(self, relevance_table):
        bad = TypeEncodingMap({"tabular": ("pie chart",)}, None)
        with pytest.raises(ConfigError):
            bad.validate_against(relevance_table)

    def test_shipped_defaults(self, encoding_map):
        assert encoding_map.charts_for("tree") == ("phylogenetic tree",)
        assert encoding_map.charts_for("spatial") == ("geographic map",)
        assert "bar chart" in encoding_map.charts_for("tabular")

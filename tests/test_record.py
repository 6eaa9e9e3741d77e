"""The `Record` base: a constructor generated from `__slots__`, and equality
by class and slots."""

from __future__ import annotations

from fractions import Fraction

import pytest

from reconviz.chartspec import Binding, ChartSpec
from reconviz.entitygraph import LinkEdge
from reconviz.record import Record


class Pair(Record):
    __slots__ = ("left", "right")


class OtherPair(Record):
    __slots__ = ("left", "right")


class Empty(Record):
    __slots__ = ()


def chart_spec(**changes) -> ChartSpec:
    args = {"id": "t:bar chart", "chart_type": "bar chart", "dataset_id": "t",
            "dtype": "tabular", "relevance": 1.0, "bindings": {"x": Binding("grp", "t")},
            "required_channels": ("x",), "annotations": {}, "swappable": True}
    return ChartSpec(**{**args, **changes})


class TestConstructor:
    @pytest.mark.parametrize("make", [lambda: Pair(1, 2), lambda: Pair(right=2, left=1),
                                      lambda: Pair(1, right=2)],
                             ids=["positional", "keyword", "mixed"])
    def test_arguments_fill_the_slots_in_order(self, make):
        pair = make()
        assert (pair.left, pair.right) == (1, 2)

    def test_record_without_slots_takes_no_argument(self):
        assert Empty() == Empty()
        with pytest.raises(TypeError):
            Empty(1)

    @pytest.mark.parametrize("args, kwargs", [((1,), {}), ((1, 2, 3), {}), ((1, 2), {"other": 3}),
                                              ((1,), {"left": 1})],
                             ids=["missing", "extra", "unknown keyword", "given twice"])
    def test_a_wrong_argument_list_raises_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    def test_missing_argument_is_named(self):
        with pytest.raises(TypeError, match="'weight'"):
            LinkEdge(("field", "a", "x"), ("field", "b", "x"))

    def test_a_record_has_no_instance_dict(self):
        with pytest.raises(AttributeError):
            Pair(1, 2).third = 3

    def test_a_subclass_with_its_own_init_keeps_it(self):
        """A record that defines `__init__`, say for a default, gets no
        constructor generated over it."""

        class Defaulted(Record):
            __slots__ = ("value", "note")

            def __init__(self, value, note=""):
                self.value = value
                self.note = note

        assert Defaulted.__init__.__code__.co_filename == __file__
        record = Defaulted(1)
        assert (record.value, record.note) == (1, "")
        assert record == Defaulted(1, "")


class TestEquality:
    def test_records_with_equal_slots_are_equal(self):
        weight = Fraction(1, 3)
        assert LinkEdge("a", "b", weight) == LinkEdge("a", "b", Fraction(2, 6))
        assert chart_spec() == chart_spec()

    @pytest.mark.parametrize("other", [Pair(1, 3), Pair(0, 2)])
    def test_one_unequal_slot_tells_records_apart(self, other):
        assert Pair(1, 2) != other

    def test_records_of_different_classes_with_equal_slots_are_not_equal(self):
        assert Pair(1, 2) != OtherPair(1, 2)
        assert OtherPair(1, 2) != Pair(1, 2)

    def test_chart_specs_compare_every_slot(self):
        assert chart_spec() != chart_spec(swappable=False)
        assert chart_spec() != chart_spec(annotations={"shared_axis": "x"})

    @pytest.mark.parametrize("record", [Pair(1, 2), LinkEdge("a", "b", Fraction(1)),
                                        Binding("grp", "t"), chart_spec()],
                             ids=["Pair", "LinkEdge", "Binding", "ChartSpec"])
    def test_records_are_not_hashable(self, record):
        with pytest.raises(TypeError):
            hash(record)

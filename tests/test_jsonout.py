"""The JSON writer against its oracle, `json.dumps(indent=2, sort_keys=True)`."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from reconviz.jsonout import json_text


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf, 1, True]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),  # control characters
    st.text(alphabet=st.characters(min_codepoint=0x80)),  # non-ASCII and astral
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(st.text(), max_size=6),
        st.dictionaries(st.text(), inner, max_size=6),
    ),
    max_leaves=40,
)


class TestJsonText:
    @settings(max_examples=200)
    @given(values)
    def test_equals_json_dumps(self, obj):
        assert json_text(obj) == oracle(obj)

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], [{}],
        [True, 1, 1.0, False, 0, None],
        {"b": -0.0, "a": 1e300, "c": [math.nan, math.inf, -math.inf]},
        {"big": 2**200, "neg": -(2**70)},
        ["café", "\U0001F600", "\x00\x1f\x7f", 'quote " and \\'],
        {"é": 1, "e": 2, "\U0001F600": 3, "": 4},
    ])
    def test_edge_cases(self, obj):
        assert json_text(obj) == oracle(obj)

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {("a",): 1},
                                     [{"a": {True: 1}}]])
    def test_non_string_key_is_a_type_error(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)

    @pytest.mark.parametrize("obj", [{1, 2}, b"bytes", object(), [1, {"a": 1j}], ["a", b"b"]])
    def test_unknown_type_is_a_type_error(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)

import math
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import pytest
from hypothesis import given, strategies as st

from reconviz.svg import SvgBuilder, escape, fmt, quoteattr


class TestNumberFormatting:
    def test_integers_stay_bare(self):
        assert fmt(12) == "12"
        assert fmt(0) == "0"

    def test_trailing_zeros_trimmed(self):
        assert fmt(12.0) == "12"
        assert fmt(12.50) == "12.5"
        assert fmt(0.25) == "0.25"

    def test_precision_capped_at_two_decimals(self):
        assert fmt(1.23456) == "1.23"
        assert fmt(1.006) == "1.01"

    def test_negative_zero_normalized(self):
        assert fmt(-0.001) == "0"

    def test_point_decimal_separator(self):
        assert "." in fmt(3.5)
        assert "," not in fmt(123456.78)


class TestBuilder:
    def test_document_is_well_formed(self):
        svg = SvgBuilder(100, 60)
        svg.rect(0, 0, 100, 60, fill="#fff")
        svg.circle(10, 10, 3, fill="#000")
        svg.line(0, 0, 100, 60, stroke="#333")
        svg.text(5, 12, "a < b & c")
        svg.open_group(transform="translate(1 2)")
        svg.polyline([(0, 0), (1.5, 2.5)], stroke="#111")
        svg.close_group()
        root = ET.fromstring(svg.render())
        assert root.get("viewBox") == "0 0 100 60"

    def test_attribute_values_escaped(self):
        svg = SvgBuilder(10, 10)
        svg.rect(0, 0, 1, 1, **{"data-category": 'x"y<z'})
        ET.fromstring(svg.render())

    def test_underscored_attrs_become_hyphenated(self):
        svg = SvgBuilder(10, 10)
        svg.line(0, 0, 1, 1, stroke_width=2, stroke_dasharray="3 2")
        body = svg.body()
        assert 'stroke-width="2"' in body
        assert 'stroke-dasharray="3 2"' in body


class TestEscapingMatchesSaxutils:
    @given(st.text(alphabet=st.sampled_from("&<>\"'\n\r\t aé\U0001F600")) | st.text())
    def test_escape_and_quoteattr(self, text):
        assert escape(text) == saxutils.escape(text)
        assert quoteattr(text) == saxutils.quoteattr(text)

    @pytest.mark.parametrize("text", ["", "plain", 'a"b', "a'b", "a\"b'c", "<&>", "x\ny\rz\tw"])
    def test_quote_choice(self, text):
        assert quoteattr(text) == saxutils.quoteattr(text)


# A frozen copy of the writer before each builder cached its formatted floats
# and attribute suffixes: every SvgBuilder method must give these bytes.
def frozen_escape(text):
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def frozen_quoteattr(text):
    text = frozen_escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def frozen_fmt(value):
    if isinstance(value, int):
        return str(value)
    text = f"{value:.2f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def frozen_attrs(attrs):
    parts = []
    for key, value in attrs.items():
        if value is None:
            continue
        name = key.rstrip("_").replace("_", "-")
        if isinstance(value, (int, float)):
            value = frozen_fmt(value)
        parts.append(f" {name}={frozen_quoteattr(str(value))}")
    return "".join(parts)


class FrozenSvgBuilder:
    def __init__(self, width, height):
        self.width = width
        self.height = height
        self._parts = []

    def raw(self, text):
        self._parts.append(text)

    def open_group(self, **attrs):
        self._parts.append(f"<g{frozen_attrs(attrs)}>")

    def close_group(self):
        self._parts.append("</g>")

    def rect(self, x, y, w, h, **attrs):
        f = frozen_fmt
        self._parts.append(
            f'<rect x="{f(x)}" y="{f(y)}" width="{f(w)}" height="{f(h)}"{frozen_attrs(attrs)}/>')

    def circle(self, cx, cy, r, **attrs):
        f = frozen_fmt
        self._parts.append(f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{f(r)}"{frozen_attrs(attrs)}/>')

    def line(self, x1, y1, x2, y2, **attrs):
        f = frozen_fmt
        self._parts.append(
            f'<line x1="{f(x1)}" y1="{f(y1)}" x2="{f(x2)}" y2="{f(y2)}"{frozen_attrs(attrs)}/>')

    def polyline(self, points, **attrs):
        joined = " ".join(f"{frozen_fmt(x)},{frozen_fmt(y)}" for x, y in points)
        self._parts.append(f'<polyline points="{joined}" fill="none"{frozen_attrs(attrs)}/>')

    def polygon(self, points, **attrs):
        joined = " ".join(f"{frozen_fmt(x)},{frozen_fmt(y)}" for x, y in points)
        self._parts.append(f'<polygon points="{joined}"{frozen_attrs(attrs)}/>')

    def text(self, x, y, content, **attrs):
        self._parts.append(f'<text x="{frozen_fmt(x)}" y="{frozen_fmt(y)}"{frozen_attrs(attrs)}>'
                           f"{frozen_escape(str(content))}</text>")

    def image(self, x, y, w, h, href, **attrs):
        f = frozen_fmt
        self._parts.append(
            f'<image x="{f(x)}" y="{f(y)}" width="{f(w)}" height="{f(h)}" '
            f"xlink:href={frozen_quoteattr(href)}{frozen_attrs(attrs)}/>")

    def metadata(self, content):
        self._parts.append(f"<metadata>{frozen_escape(content)}</metadata>")

    def body(self):
        return "\n".join(self._parts)

    def render(self):
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink" '
            f'version="1.1" width="{frozen_fmt(self.width)}" height="{frozen_fmt(self.height)}" '
            f'viewBox="0 0 {frozen_fmt(self.width)} {frozen_fmt(self.height)}">\n'
            f"{self.body()}\n"
            "</svg>\n"
        )


SPECIAL_FLOATS = [-0.0, 0.0, 0.005, -0.005, 0.015, 2.675, 1e16, 1e300, -1e300,
                  math.inf, -math.inf, math.nan]
_TEXT = st.text(alphabet=st.sampled_from("&<>\"'\n\r\t aZ0.-#_\u00e9\U0001F600"), max_size=8)
_NUMBERS = st.one_of(
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(),
)
# keyword names with leading, inner and trailing underscores; none of them
# clashes with a method's positional parameters
_KEYS = st.sampled_from(["fill", "stroke_width", "class_", "_lead", "in_ner", "trail_",
                         "__both__", "a__b", "data-category", "font_size"])


@st.composite
def element_calls(draw):
    """(method, args, attrs) calls whose numbers and attribute dicts are
    drawn partly from small pools, so that values repeat."""
    numbers = st.one_of(st.sampled_from(draw(st.lists(_NUMBERS, min_size=1, max_size=4))),
                        _NUMBERS)
    values = st.one_of(st.none(), numbers, _TEXT)
    attr_dicts = st.dictionaries(_KEYS, values, max_size=4)
    attrs = st.one_of(st.sampled_from(draw(st.lists(attr_dicts, min_size=1, max_size=3))),
                      attr_dicts)
    points = st.lists(st.tuples(numbers, numbers), max_size=4)
    call = st.one_of(
        st.tuples(st.just("rect"), st.tuples(numbers, numbers, numbers, numbers), attrs),
        st.tuples(st.just("circle"), st.tuples(numbers, numbers, numbers), attrs),
        st.tuples(st.just("line"), st.tuples(numbers, numbers, numbers, numbers), attrs),
        st.tuples(st.just("polyline"), st.tuples(points), attrs),
        st.tuples(st.just("polygon"), st.tuples(points), attrs),
        st.tuples(st.just("text"), st.tuples(numbers, numbers, _TEXT), attrs),
        st.tuples(st.just("image"), st.tuples(numbers, numbers, numbers, numbers, _TEXT), attrs),
        st.tuples(st.just("open_group"), st.just(()), attrs),
        st.tuples(st.just("close_group"), st.just(()), st.just({})),
        st.tuples(st.just("raw"), st.tuples(_TEXT), st.just({})),
        st.tuples(st.just("metadata"), st.tuples(_TEXT), st.just({})),
    )
    return draw(st.lists(call, max_size=12))


def replay(builder, calls):
    for method, args, attrs in calls:
        getattr(builder, method)(*args, **attrs)
    return builder


class TestBuilderMatchesFrozenWriter:
    @given(element_calls(), _NUMBERS, _NUMBERS)
    def test_every_method_gives_the_same_bytes(self, calls, width, height):
        # the calls twice in one builder (its caches are hit), then once in a
        # second builder, which starts with empty caches
        for times in (2, 1):
            got = replay(SvgBuilder(width, height), calls * times)
            want = replay(FrozenSvgBuilder(width, height), calls * times)
            assert got.body() == want.body()
            assert got.render() == want.render()

    @pytest.mark.parametrize("value", SPECIAL_FLOATS)
    def test_special_floats_as_coordinates_and_attributes(self, value):
        got, want = SvgBuilder(value, 1), FrozenSvgBuilder(value, 1)
        for b in (got, want):
            for _ in range(2):
                b.rect(value, -value, value, 0, stroke_width=value, opacity=value)
                b.polyline([(value, value)], data_v=value)
        assert got.render() == want.render()

    def test_cached_suffix_tells_true_from_one(self):
        svg = SvgBuilder(1, 1)
        for value in (1, True, 1.0, 1, False, 0, 0.0, -0.0, True):
            svg.circle(value, value, value, stroke_width=value)
        assert svg.body().splitlines() == [
            '<circle cx="1" cy="1" r="1" stroke-width="1"/>',
            '<circle cx="True" cy="True" r="True" stroke-width="True"/>',
            '<circle cx="1" cy="1" r="1" stroke-width="1"/>',
            '<circle cx="1" cy="1" r="1" stroke-width="1"/>',
            '<circle cx="False" cy="False" r="False" stroke-width="False"/>',
            '<circle cx="0" cy="0" r="0" stroke-width="0"/>',
            '<circle cx="0" cy="0" r="0" stroke-width="0"/>',
            '<circle cx="0" cy="0" r="0" stroke-width="0"/>',
            '<circle cx="True" cy="True" r="True" stroke-width="True"/>',
        ]

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

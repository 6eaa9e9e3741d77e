"""`ingest._make_field` against a frozen reference, the cell-at-a-time
classifier it replaced: on any column both build the same field (kind,
cardinality, values, row count and the cleaned column, compared by `repr` so
that `-0.0` against `0.0` shows), or both return None."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from reconviz.ingest import MISSING_MARKERS, Field, _make_field, present

_REFERENCE_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def reference_make_field(name: str, source_id: str, raw_values: list[str]) -> Field | None:
    """The per-cell `_make_field` it replaced, kept as it was."""
    column = [None if (v := raw.strip()).lower() in MISSING_MARKERS else v for raw in raw_values]
    cells = present(column)
    if not cells:
        return None
    if all(_REFERENCE_NUMBER_RE.match(v) for v in cells):
        parsed = [None if v is None else float(v) for v in column]
        numbers = present(parsed)
        if math.isfinite(max(numbers) - min(numbers)):
            return Field(name, source_id, "numeric", None, None, len(column), tuple(parsed))
    values = frozenset(cells)
    return Field(name, source_id, "non-numeric", len(values), values, len(column), tuple(column))


_SIGNS = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=4)

# ASCII decimals with signs, exponents and a dot at either edge
DECIMALS = st.one_of(
    st.builds(lambda s, d: s + d, _SIGNS, _DIGITS),
    st.builds(lambda s, d: f"{s}{d}.", _SIGNS, _DIGITS),
    st.builds(lambda s, d: f"{s}.{d}", _SIGNS, _DIGITS),
    st.builds(lambda s, a, b: f"{s}{a}.{b}", _SIGNS, _DIGITS, _DIGITS),
    st.builds(lambda s, m, e, es, x: f"{s}{m}{e}{es}{x}", _SIGNS, _DIGITS,
              st.sampled_from("eE"), _SIGNS, _DIGITS),
    st.sampled_from(["0", "-0", "-0.0", "+0.", ".0", "1e308", "-1e308", "1e-400"]),
)
MARKERS = st.sampled_from(sorted(MISSING_MARKERS)).flatmap(
    lambda m: st.lists(st.booleans(), min_size=len(m), max_size=len(m)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(m, upper))))
# cells `float()` or `\d` treat apart from ASCII decimals, and fragments of
# decimals that neither accepts
ODD = st.sampled_from([
    "١٢", "１２", "𝟏", "inf", "-inf", "NaN", "Infinity", "1_000", "1e999", "-1e999",
    "+", "-", ".", "e", "E", "1e", "1e+", "..", "+-1", "1.2.3", "e5", ".e1",
])
TEXT = st.sampled_from(["a", "id7", "x y", "1 2", "1\n2", "3\t", "b\r\nc", "NA x"])
PADS = st.sampled_from(["", " ", "\t", "\n", " \r\n "])
CELLS = st.builds(lambda pad, cell, tail: pad + cell + tail, PADS,
                  st.one_of(DECIMALS, MARKERS, ODD, TEXT), PADS)

# most columns hold decimals, markers and at most a few odd cells, so that
# one odd cell among numbers decides the field's kind
COLUMNS = st.one_of(
    st.lists(st.builds(lambda pad, cell: pad + cell, PADS, DECIMALS), max_size=12),
    st.lists(st.one_of(DECIMALS, MARKERS), max_size=12),
    st.builds(lambda column, odd, at: column[:at] + [odd] + column[at:],
              st.lists(st.one_of(DECIMALS, MARKERS), max_size=12), ODD, st.integers(0, 12)),
    st.lists(CELLS, max_size=12),
)


def _described(field: Field | None):
    if field is None:
        return None
    return (field.kind, field.cardinality, field.values, field.row_count, repr(field.column))


@settings(max_examples=600)
@given(COLUMNS)
def test_column_checks_match_the_per_cell_reference(raw_values):
    assert _described(_make_field("f", "d", raw_values)) == _described(
        reference_make_field("f", "d", raw_values))


@pytest.mark.parametrize("raw_values", [
    ["-0", "0"], ["-0.0", "1"], ["١٢", "3"], ["𝟏", "na", "2"], ["１２", "-0."],
    ["1_000", "2"], ["inf", "1"], ["NaN", "NA", "1"], ["1e999", "1"], ["1", "e"], ["1e", " 2"],
])
def test_odd_cells_among_numbers(raw_values):
    assert _described(_make_field("f", "d", raw_values)) == _described(
        reference_make_field("f", "d", raw_values))

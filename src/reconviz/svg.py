"""Minimal SVG 1.1 writer.

Numbers are formatted with fixed precision and a '.' decimal separator so
output is byte-identical across platforms and locales. An int or float is
written as an attribute value without an escaping pass: `fmt` gives it as
digits, `-`, `.`, `inf` or `nan` (a bool as `True` or `False`). Each builder
formats a repeated number, and a repeated set of extra attributes, once.
A renderer that draws a run of marks builds each distinct attribute suffix
once with `attrs` and hands the whole run to `lines`, `rects` or `circles`.
"""

from __future__ import annotations

_ATTR_SPECIALS = frozenset('&<>"\n\r\t')


def escape(text: str) -> str:
    """`&`, `>` and `<` as entities, as `xml.sax.saxutils.escape` writes
    them (that module's import pulls in `urllib` and `email`)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """`text` escaped and quoted as an attribute value, as
    `xml.sax.saxutils.quoteattr` writes it: line breaks and tabs become
    character references, and the quotes are double unless the text holds
    a double quote and no single one."""
    if _ATTR_SPECIALS.isdisjoint(text):
        return f'"{text}"'
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def fmt(value: float | int) -> str:
    """Format a coordinate with at most 2 decimals, trimming trailing zeros."""
    if isinstance(value, int):
        return str(value)
    text = f"{value:.2f}"
    if text[-1] != "0":  # nothing to trim: most coordinates, `inf` and `nan`
        return text
    text = text.rstrip("0").rstrip(".")  # a fixed-point text that ends in 0 holds a '.'
    return text if text != "-0" else "0"


class _Formatted(dict):
    """value -> `fmt(value)`, each value formatted once: about 3 in 4
    coordinates of a chart repeat (grid lines, bars on one baseline, a tree's
    shared branch ends). Values equal to 0 or 1 are never stored, because a
    dict cannot tell them from `False` and `True`, which print as words."""

    def __missing__(self, value):
        text = fmt(value)
        if value != 0 and value != 1:
            self[value] = text
        return text


class SvgBuilder:
    """Accumulates SVG elements; render() emits the complete document.

    One builder draws one fragment, so its caches of formatted numbers and
    attribute suffixes live exactly as long as that fragment's builder.
    """

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []
        self._numbers: dict[float | int, str] = _Formatted()
        self._suffixes: dict[tuple, str] = {}

    def attrs(self, **attrs) -> str:
        """` name="value"` for each attribute that is not None; a keyword's
        trailing `_` is dropped (`class_`) and each inner `_` becomes `-`.
        The suffix is built once per distinct attribute set and then reused;
        the cache key holds each value's type, so `True` and `1` stay apart."""
        if not attrs:
            return ""
        key = (tuple(attrs.items()), tuple(map(type, attrs.values())))
        suffix = self._suffixes.get(key)
        if suffix is None:
            parts = []
            for keyword, value in attrs.items():
                if value is None:
                    continue
                name = keyword.rstrip("_").replace("_", "-")
                if isinstance(value, (int, float)):
                    parts.append(f' {name}="{self._numbers[value]}"')
                else:
                    parts.append(f" {name}={quoteattr(str(value))}")
            suffix = self._suffixes[key] = "".join(parts)
        return suffix

    def raw(self, text: str) -> None:
        self._parts.append(text)

    def open_group(self, **attrs) -> None:
        self._parts.append(f"<g{self.attrs(**attrs)}>")

    def close_group(self) -> None:
        self._parts.append("</g>")

    # The bulk writers take (coordinates..., suffix) tuples, where the suffix
    # comes from `attrs`, and write one element per tuple, in order.

    def rects(self, marks) -> None:
        """One `<rect>` per (x, y, width, height, suffix)."""
        f = self._numbers
        self._parts.extend([
            f'<rect x="{f[x]}" y="{f[y]}" width="{f[w]}" height="{f[h]}"{suffix}/>'
            for x, y, w, h, suffix in marks
        ])

    def circles(self, marks) -> None:
        """One `<circle>` per (cx, cy, r, suffix)."""
        f = self._numbers
        self._parts.extend([
            f'<circle cx="{f[cx]}" cy="{f[cy]}" r="{f[r]}"{suffix}/>' for cx, cy, r, suffix in marks
        ])

    def lines(self, marks) -> None:
        """One `<line>` per (x1, y1, x2, y2, suffix)."""
        f = self._numbers
        self._parts.extend([
            f'<line x1="{f[x1]}" y1="{f[y1]}" x2="{f[x2]}" y2="{f[y2]}"{suffix}/>'
            for x1, y1, x2, y2, suffix in marks
        ])

    def rect(self, x, y, w, h, **attrs) -> None:
        self.rects([(x, y, w, h, self.attrs(**attrs))])

    def circle(self, cx, cy, r, **attrs) -> None:
        self.circles([(cx, cy, r, self.attrs(**attrs))])

    def line(self, x1, y1, x2, y2, **attrs) -> None:
        self.lines([(x1, y1, x2, y2, self.attrs(**attrs))])

    def _points(self, points) -> str:
        f = self._numbers
        return " ".join(f"{f[x]},{f[y]}" for x, y in points)

    def polyline(self, points, **attrs) -> None:
        self._parts.append(
            f'<polyline points="{self._points(points)}" fill="none"{self.attrs(**attrs)}/>'
        )

    def polygon(self, points, **attrs) -> None:
        self._parts.append(f'<polygon points="{self._points(points)}"{self.attrs(**attrs)}/>')

    def text(self, x, y, content, **attrs) -> None:
        f = self._numbers
        self._parts.append(
            f'<text x="{f[x]}" y="{f[y]}"{self.attrs(**attrs)}>{escape(str(content))}</text>'
        )

    def image(self, x, y, w, h, href: str, **attrs) -> None:
        f = self._numbers
        self._parts.append(
            f'<image x="{f[x]}" y="{f[y]}" width="{f[w]}" height="{f[h]}" '
            f"xlink:href={quoteattr(href)}{self.attrs(**attrs)}/>"
        )

    def metadata(self, content: str) -> None:
        self._parts.append(f"<metadata>{escape(content)}</metadata>")

    def body(self) -> str:
        return "\n".join(self._parts)

    def render(self) -> str:
        """The whole document, built by one join over the elements."""
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink" '
            f'version="1.1" width="{fmt(self.width)}" height="{fmt(self.height)}" '
            f'viewBox="0 0 {fmt(self.width)} {fmt(self.height)}">'
        )
        return "\n".join([head, *(self._parts or [""]), "</svg>\n"])

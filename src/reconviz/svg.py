"""Minimal SVG 1.1 writer.

Numbers are formatted with fixed precision and a '.' decimal separator so
output is byte-identical across platforms and locales. An int or float is
written as an attribute value without an escaping pass: `fmt` gives it as
digits, `-`, `.`, `inf` or `nan` (a bool as `True` or `False`). Each builder
formats a repeated float, and a repeated set of extra attributes, once.
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


class SvgBuilder:
    """Accumulates SVG elements; render() emits the complete document.

    One builder draws one fragment, so its caches of formatted floats and
    attribute suffixes live exactly as long as that fragment's builder.
    """

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []
        self._floats: dict[float, str] = {}
        self._suffixes: dict[tuple, str] = {}

    def _fmt(self, value: float | int) -> str:
        # about 3 in 4 float coordinates of a chart repeat (grid lines, bars
        # on one baseline, a tree's shared branch ends)
        if value.__class__ is not float:
            return fmt(value)
        text = self._floats.get(value)
        if text is None:
            text = self._floats[value] = fmt(value)
        return text

    def _attrs(self, attrs: dict) -> str:
        """` name="value"` for each attribute that is not None; a keyword's
        trailing `_` is dropped (`class_`) and each inner `_` becomes `-`.
        The cache key holds each value's type, so `True` and `1` stay apart."""
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
                    parts.append(f' {name}="{self._fmt(value)}"')
                else:
                    parts.append(f" {name}={quoteattr(str(value))}")
            suffix = self._suffixes[key] = "".join(parts)
        return suffix

    def raw(self, text: str) -> None:
        self._parts.append(text)

    def open_group(self, **attrs) -> None:
        self._parts.append(f"<g{self._attrs(attrs)}>")

    def close_group(self) -> None:
        self._parts.append("</g>")

    def rect(self, x, y, w, h, **attrs) -> None:
        f = self._fmt
        self._parts.append(
            f'<rect x="{f(x)}" y="{f(y)}" width="{f(w)}" height="{f(h)}"{self._attrs(attrs)}/>'
        )

    def circle(self, cx, cy, r, **attrs) -> None:
        f = self._fmt
        self._parts.append(f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{f(r)}"{self._attrs(attrs)}/>')

    def line(self, x1, y1, x2, y2, **attrs) -> None:
        f = self._fmt
        self._parts.append(
            f'<line x1="{f(x1)}" y1="{f(y1)}" x2="{f(x2)}" y2="{f(y2)}"{self._attrs(attrs)}/>'
        )

    def _points(self, points) -> str:
        f = self._fmt
        return " ".join(f"{f(x)},{f(y)}" for x, y in points)

    def polyline(self, points, **attrs) -> None:
        self._parts.append(
            f'<polyline points="{self._points(points)}" fill="none"{self._attrs(attrs)}/>'
        )

    def polygon(self, points, **attrs) -> None:
        self._parts.append(f'<polygon points="{self._points(points)}"{self._attrs(attrs)}/>')

    def text(self, x, y, content, **attrs) -> None:
        f = self._fmt
        self._parts.append(
            f'<text x="{f(x)}" y="{f(y)}"{self._attrs(attrs)}>{escape(str(content))}</text>'
        )

    def image(self, x, y, w, h, href: str, **attrs) -> None:
        f = self._fmt
        self._parts.append(
            f'<image x="{f(x)}" y="{f(y)}" width="{f(w)}" height="{f(h)}" '
            f"xlink:href={quoteattr(href)}{self._attrs(attrs)}/>"
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

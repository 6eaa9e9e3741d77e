"""Minimal SVG 1.1 writer.

Numbers are formatted with fixed precision and a '.' decimal separator so
output is byte-identical across platforms and locales.
"""

from __future__ import annotations


def escape(text: str) -> str:
    """`&`, `>` and `<` as entities, as `xml.sax.saxutils.escape` writes
    them (that module's import pulls in `urllib` and `email`)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """`text` escaped and quoted as an attribute value, as
    `xml.sax.saxutils.quoteattr` writes it: line breaks and tabs become
    character references, and the quotes are double unless the text holds
    a double quote and no single one."""
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
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def _attrs(attrs: dict) -> str:
    parts = []
    for key, value in attrs.items():
        if value is None:
            continue
        name = key.rstrip("_").replace("_", "-")
        if isinstance(value, (int, float)):
            value = fmt(value)
        parts.append(f" {name}={quoteattr(str(value))}")
    return "".join(parts)


class SvgBuilder:
    """Accumulates SVG elements; render() emits the complete document."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def raw(self, text: str) -> None:
        self._parts.append(text)

    def open_group(self, **attrs) -> None:
        self._parts.append(f"<g{_attrs(attrs)}>")

    def close_group(self) -> None:
        self._parts.append("</g>")

    def rect(self, x, y, w, h, **attrs) -> None:
        self._parts.append(
            f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}"{_attrs(attrs)}/>'
        )

    def circle(self, cx, cy, r, **attrs) -> None:
        self._parts.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}"{_attrs(attrs)}/>')

    def line(self, x1, y1, x2, y2, **attrs) -> None:
        self._parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}"{_attrs(attrs)}/>'
        )

    def polyline(self, points, **attrs) -> None:
        joined = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        self._parts.append(f'<polyline points="{joined}" fill="none"{_attrs(attrs)}/>')

    def polygon(self, points, **attrs) -> None:
        joined = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        self._parts.append(f'<polygon points="{joined}"{_attrs(attrs)}/>')

    def text(self, x, y, content, **attrs) -> None:
        self._parts.append(f'<text x="{fmt(x)}" y="{fmt(y)}"{_attrs(attrs)}>{escape(str(content))}</text>')

    def image(self, x, y, w, h, href: str, **attrs) -> None:
        self._parts.append(
            f'<image x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}" '
            f"xlink:href={quoteattr(href)}{_attrs(attrs)}/>"
        )

    def metadata(self, content: str) -> None:
        self._parts.append(f"<metadata>{escape(content)}</metadata>")

    def body(self) -> str:
        return "\n".join(self._parts)

    def render(self) -> str:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink" '
            f'version="1.1" width="{fmt(self.width)}" height="{fmt(self.height)}" '
            f'viewBox="0 0 {fmt(self.width)} {fmt(self.height)}">\n'
            f"{self.body()}\n"
            "</svg>\n"
        )

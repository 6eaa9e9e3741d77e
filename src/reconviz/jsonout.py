"""The one writer of every JSON output file.

`json_text(obj)` returns exactly `json.dumps(obj, indent=2, sort_keys=True)`
plus a final newline. `json.dumps` with an indent runs the pure-Python
encoder; this writer builds the same text from the C string escaper and the
number reprs `json` itself uses, and writes a list of strings in one join.
Dict keys and the items of an all-string list (the join) may be any `str`,
a subclass too; every other scalar must be of the exact type `str`, `int`,
`float`, `bool` or `None`: a subclass such as an `IntEnum` raises `TypeError`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_int = int.__repr__
_float = float.__repr__
_INF = float("inf")


def _number(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return _float(value)


# exact scalar type -> its text; a subclass is not JSON serializable here
_scalar = {
    str: _string,
    int: _int,
    float: _number,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}.get


def _write(obj, newline: str, out) -> None:
    """Append `obj`'s text to `out`; `newline` is a line break followed by the
    indent of the line `obj` starts on."""
    text = _scalar(type(obj))
    if text is not None:
        out(text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        # a key that is not a str makes _string (or sorting) raise TypeError
        for key in sorted(obj):
            value = obj[key]
            text = _scalar(type(value))
            if text is not None:
                out(separator + _string(key) + ": " + text(value))
            else:
                out(separator + _string(key) + ": ")
                _write(value, inner, out)
            separator = "," + inner
        out(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        try:  # a list of strings is one join; any other item raises TypeError
            out("[" + inner + ("," + inner).join(map(_string, obj)) + newline + "]")
            return
        except TypeError:
            pass
        separator = "[" + inner
        for item in obj:
            text = _scalar(type(item))
            if text is not None:
                out(separator + text(item))
            else:
                out(separator)
                _write(item, inner, out)
            separator = "," + inner
        out(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, for the types the
    module docstring lists where it lists them; others raise `TypeError`."""
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)

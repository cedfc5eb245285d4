"""JSON serializer.

``dumps`` renders a JSON value to text, with compact and pretty modes.
It refuses non-JSON values loudly (tuples, sets, NaN/Infinity by default),
because a serializer that guesses is how host-language artifacts leak into
datasets.  ``dump_lines`` writes NDJSON, the dataset format used throughout
the benchmarks.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator

from repro.errors import JsonError

# Characters that must be escaped inside JSON strings, mapped to their
# two-character escape where one exists.
_SHORT_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


class DumpOptions:
    """Knobs for :func:`dumps`.

    ``indent=None`` yields compact output with no insignificant whitespace;
    an integer yields pretty-printed output.  ``ensure_ascii`` escapes all
    non-ASCII characters with ``\\uXXXX``.  ``allow_nan`` permits the
    JavaScript extensions ``NaN``/``Infinity`` (off by default: RFC 8259
    forbids them).  Immutable.
    """

    def __init__(
        self,
        indent: int | None = None,
        sort_keys: bool = False,
        ensure_ascii: bool = False,
        allow_nan: bool = False,
    ) -> None:
        object.__setattr__(self, "indent", indent)
        object.__setattr__(self, "sort_keys", sort_keys)
        object.__setattr__(self, "ensure_ascii", ensure_ascii)
        object.__setattr__(self, "allow_nan", allow_nan)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


DEFAULT_DUMP_OPTIONS = DumpOptions()
COMPACT = DEFAULT_DUMP_OPTIONS
PRETTY = DumpOptions(indent=2)
CANONICAL = DumpOptions(sort_keys=True, ensure_ascii=True)


def escape_string(value: str, *, ensure_ascii: bool = False) -> str:
    """Return ``value`` quoted and escaped as a JSON string literal."""
    parts: list[str] = ['"']
    for ch in value:
        escape = _SHORT_ESCAPES.get(ch)
        if escape is not None:
            parts.append(escape)
        elif ch < "\x20":
            parts.append(f"\\u{ord(ch):04x}")
        elif ensure_ascii and ord(ch) > 0x7F:
            code = ord(ch)
            if code > 0xFFFF:
                # Encode as a surrogate pair.
                code -= 0x10000
                high = 0xD800 + (code >> 10)
                low = 0xDC00 + (code & 0x3FF)
                parts.append(f"\\u{high:04x}\\u{low:04x}")
            else:
                parts.append(f"\\u{code:04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def _format_number(value: Any, allow_nan: bool) -> str:
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        if not allow_nan:
            raise JsonError(f"non-finite float {value!r} is not valid JSON")
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    # repr() gives the shortest round-tripping representation in Python 3.
    text = repr(value)
    return text


def dumps(value: Any, options: DumpOptions = DEFAULT_DUMP_OPTIONS) -> str:
    """Serialize ``value`` to a JSON text string.

    Raises :class:`~repro.errors.JsonError` for values outside the JSON data
    model (non-string keys, host containers, non-finite floats unless
    ``allow_nan``).
    """
    parts: list[str] = []
    _write(value, options, parts, 0)
    return "".join(parts)


def _write(value: Any, options: DumpOptions, parts: list[str], depth: int) -> None:
    if value is None:
        parts.append("null")
        return
    if isinstance(value, bool):
        parts.append("true" if value else "false")
        return
    if isinstance(value, (int, float)):
        parts.append(_format_number(value, options.allow_nan))
        return
    if isinstance(value, str):
        parts.append(escape_string(value, ensure_ascii=options.ensure_ascii))
        return
    if isinstance(value, list):
        _write_array(value, options, parts, depth)
        return
    if isinstance(value, dict):
        _write_object(value, options, parts, depth)
        return
    raise JsonError(f"cannot serialize {type(value).__name__} as JSON")


def _newline_indent(options: DumpOptions, depth: int) -> str:
    assert options.indent is not None
    return "\n" + " " * (options.indent * depth)


def _write_array(value: list, options: DumpOptions, parts: list[str], depth: int) -> None:
    if not value:
        parts.append("[]")
        return
    parts.append("[")
    pretty = options.indent is not None
    for i, item in enumerate(value):
        if i:
            parts.append(",")
        if pretty:
            parts.append(_newline_indent(options, depth + 1))
        _write(item, options, parts, depth + 1)
    if pretty:
        parts.append(_newline_indent(options, depth))
    parts.append("]")


def _write_object(value: dict, options: DumpOptions, parts: list[str], depth: int) -> None:
    if not value:
        parts.append("{}")
        return
    keys = sorted(value.keys()) if options.sort_keys else list(value.keys())
    parts.append("{")
    pretty = options.indent is not None
    for i, key in enumerate(keys):
        if not isinstance(key, str):
            raise JsonError(f"object keys must be strings, got {type(key).__name__}")
        if i:
            parts.append(",")
        if pretty:
            parts.append(_newline_indent(options, depth + 1))
        parts.append(escape_string(key, ensure_ascii=options.ensure_ascii))
        parts.append(": " if pretty else ":")
        _write(value[key], options, parts, depth + 1)
    if pretty:
        parts.append(_newline_indent(options, depth))
    parts.append("}")


def dump_lines(values: Iterable[Any], options: DumpOptions = DEFAULT_DUMP_OPTIONS) -> Iterator[str]:
    """Yield one compact JSON text per value (NDJSON lines, no newline)."""
    if options.indent is not None:
        raise JsonError("NDJSON lines must be compact; indent is not allowed")
    for value in values:
        yield dumps(value, options)

"""Typing through the C decoder: depth limits, chunk typing, memory.

Every text route types a document by decoding it with the stdlib C
decoder (behind :func:`repro.jsonvalue.parser.parse`) and walking the
value; the token parser ``_parse_reference`` stays the one source of
errors.  These tests pin:

- ``parse`` uses the C decoder for shallow documents whatever their
  bracket count, and still raises the token parser's exact nesting
  error one level past the limit;
- the depth boundary (512 types, 513 raises the parser's error) through
  ``encode_text``, ``encode_lines``, ``type_subtree_chunks`` and
  ``repro infer FILE``;
- ``type_subtree_chunks`` accepts a chunk exactly when the token parser
  accepts it wrapped in its container's brackets, and then yields the
  wrapped document's parts;
- typing a chunk of several MB keeps only one element's value alive.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.inference.engine import type_subtree_chunks
from repro.jsonvalue import parser as parser_module
from repro.jsonvalue.lexer import JsonLexError
from repro.jsonvalue.parser import JsonParseError, ParseOptions, _parse_reference, parse
from repro.jsonvalue.serializer import dumps
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable
from repro.types.terms import BotType, UnionType

from strategies import json_values


def _nested(depth: int) -> str:
    """``depth`` levels of alternating arrays and objects around ``1``."""
    text = "1"
    for level in range(depth):
        text = "[" + text + "]" if level % 2 == 0 else '{"k": ' + text + "}"
    return text


def _error(fn):
    """``(class, message, offset)`` of what ``fn`` raises, or ``None``."""
    try:
        fn()
    except JsonParseError as exc:
        return (type(exc), str(exc), exc.token.offset)
    except JsonLexError as exc:
        return (type(exc), str(exc), exc.offset)
    return None


# ---------------------------------------------------------------------------
# parse: the C decoder whatever the bracket count
# ---------------------------------------------------------------------------


def _no_reference(monkeypatch):
    def refuse(text, options=None):
        raise AssertionError("_parse_reference must not run")

    monkeypatch.setattr(parser_module, "_parse_reference", refuse)


def test_shallow_document_with_many_brackets_skips_the_token_parser(monkeypatch):
    events = [{"id": i, "tags": [i, i + 1], "meta": {}} for i in range(200)]
    text = json.dumps(events)
    assert text.count("{") + text.count("[") > 512
    _no_reference(monkeypatch)
    assert parse(text) == events


def test_depth_512_skips_the_token_parser(monkeypatch):
    text = _nested(512)
    _no_reference(monkeypatch)
    assert parse(text) == json.loads(text)


@pytest.mark.parametrize("max_depth", [1, 8, 512])
def test_one_level_past_the_limit_raises_the_token_parser_error(max_depth):
    text = _nested(max_depth + 1)
    options = ParseOptions(max_depth=max_depth)
    expected = _error(lambda: _parse_reference(text, options))
    assert expected is not None
    assert f"maximum nesting depth of {max_depth} exceeded" in expected[1]
    assert _error(lambda: parse(text, options)) == expected


def test_nesting_past_the_recursion_limit_raises_the_token_parser_error():
    text = "[" * 5000 + "]" * 5000
    expected = _error(lambda: _parse_reference(text))
    assert _error(lambda: parse(text)) == expected


# ---------------------------------------------------------------------------
# the depth boundary through every typing route
# ---------------------------------------------------------------------------


DEPTH_ERROR = _error(lambda: _parse_reference(_nested(513)))


def test_depth_boundary_encode_text():
    encoder = EventTypeEncoder(InternTable())
    text = _nested(512)
    assert encoder.encode_text(text) is encoder.encode(_parse_reference(text))
    assert _error(lambda: encoder.encode_text(_nested(513))) == DEPTH_ERROR


def test_depth_boundary_encode_lines():
    encoder = EventTypeEncoder(InternTable())
    shallow = _nested(512).encode()
    assert encoder.encode_lines([shallow]) == [encoder.encode_bytes(shallow)]
    deep = _nested(513).encode()
    assert _error(lambda: encoder.encode_lines([shallow, deep])) == DEPTH_ERROR


def test_depth_boundary_type_subtree_chunks():
    # The wrapper takes one level, so a chunk element may nest 511 deep.
    encoder = EventTypeEncoder(InternTable())
    for depth, accepted in ((511, True), (512, False)):
        element = _nested(depth)
        chunk = (element + ", " + element).encode()
        wrapped = "[" + chunk.decode() + "]"
        reference = _error(lambda: _parse_reference(wrapped))
        assert (reference is None) is accepted
        if accepted:
            parts = type_subtree_chunks(encoder, chunk, "array", [(0, len(chunk))])
            assert parts == [[encoder.encode_text(element)]]
        else:
            with pytest.raises(Exception):
                type_subtree_chunks(encoder, chunk, "array", [(0, len(chunk))])


def test_depth_boundary_cli_infer(tmp_path, capsys):
    path = tmp_path / "deep.ndjson"
    path.write_text(_nested(512) + "\n", encoding="utf-8")
    # Typing is iterative, but the merge still recurses once per level
    # or two, so a 512-deep type needs more than the default 1000 frames.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        assert main(["infer", str(path)]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert "# 1 documents" in capsys.readouterr().out
    path.write_text('{"a": 1}\n' + _nested(513) + "\n", encoding="utf-8")
    assert main(["infer", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {DEPTH_ERROR[1]}\n"


# ---------------------------------------------------------------------------
# chunk typing: the wrapped document is the oracle
# ---------------------------------------------------------------------------


def _wrapped_parts(kind: str, t):
    """The contributions the wrapped document's type makes."""
    if kind == "array":
        item = t.item
        if isinstance(item, BotType):
            return set()
        return set(item.members) if isinstance(item, UnionType) else {item}
    return {(f.name, f.type, f.required) for f in t.fields}


def _check_chunk(kind: str, chunk: str) -> None:
    wrapped = ("[" + chunk + "]") if kind == "array" else ("{" + chunk + "}")
    encoder = EventTypeEncoder(InternTable())
    try:
        expected = _wrapped_parts(kind, encoder.encode(_parse_reference(wrapped)))
    except (JsonParseError, JsonLexError, ValueError):
        expected = None
    data = chunk.encode("utf-8")
    try:
        (got,) = type_subtree_chunks(encoder, data, kind, [(0, len(data))])
    except Exception:
        assert expected is None, chunk
        return
    assert expected is not None, chunk
    assert len(got) == len(expected)
    assert set(got) == expected


_SEPARATORS = st.sampled_from([",", ", ", " ,\n", ",,", "", " ", ":"])
_KEYS = st.one_of(
    st.text(max_size=4).map(json.dumps),
    st.sampled_from(["1", "a", "'a'", '"a', '"k"', '"k"', "null", ""]),
)


@st.composite
def _array_chunks(draw):
    values = draw(st.lists(json_values(max_leaves=6).map(dumps), max_size=5))
    malformed = st.sampled_from(["NaN", "-Infinity", "01", "1 2", "tru"])
    values += draw(st.lists(malformed, max_size=1))
    values = draw(st.permutations(values))
    out = draw(st.sampled_from(["", " ", "\n"]))
    for i, value in enumerate(values):
        if i:
            out += draw(_SEPARATORS)
        out += value
    return out + draw(st.sampled_from(["", ",", " ", ", "]))


@st.composite
def _object_chunks(draw):
    count = draw(st.integers(min_value=0, max_value=5))
    out = draw(st.sampled_from(["", " "]))
    for i in range(count):
        if i:
            out += draw(_SEPARATORS)
        value = draw(st.one_of(json_values(max_leaves=6).map(dumps), st.just("NaN")))
        out += draw(_KEYS) + draw(st.sampled_from([":", " : ", "", ","])) + value
    return out + draw(st.sampled_from(["", ",", " "]))


@given(_array_chunks())
@settings(max_examples=300, deadline=None)
def test_array_chunk_accepted_iff_wrapped_parses(chunk):
    _check_chunk("array", chunk)


@given(_object_chunks())
@settings(max_examples=300, deadline=None)
def test_object_chunk_accepted_iff_wrapped_parses(chunk):
    _check_chunk("object", chunk)


@pytest.mark.parametrize(
    "kind, chunk",
    [
        ("array", "1, 2,"),
        ("array", ",1"),
        ("array", "1 2"),
        ("array", "1,,2"),
        ("array", "1: 2"),
        ("array", "NaN"),
        ("array", "[1], {}, []"),
        ("array", "  "),
        ("array", '"a\\u0000b", "\\ud800"'),
        ("object", '"a": 1, "a": "x"'),
        ("object", '"a": 1, "b": 2,'),
        ("object", '"a": 1 "b": 2'),
        ("object", '"a": 1: "b": 2'),
        ("object", "a: 1"),
        ("object", '"a" 1'),
        ("object", '"a": Infinity'),
        ("object", ""),
    ],
)
def test_named_chunk_edges(kind, chunk):
    _check_chunk(kind, chunk)


def test_duplicate_keys_keep_the_last_value():
    encoder = EventTypeEncoder(InternTable())
    data = b'"a": 1, "b": true, "a": "x"'
    (parts,) = type_subtree_chunks(encoder, data, "object", [(0, len(data))])
    assert sorted(name for name, _, _ in parts) == ["a", "b"]
    assert dict((n, t) for n, t, _ in parts)["a"] is encoder.encode_text('"x"')


# ---------------------------------------------------------------------------
# memory: one element at a time
# ---------------------------------------------------------------------------


def test_typing_a_large_chunk_holds_one_element_at_a_time():
    element = '{"id": 12345, "name": "abcdefgh", "tags": ["x", "y"], "ok": true}'
    data = ", ".join([element] * 60000).encode()
    assert len(data) > 4_000_000
    encoder = EventTypeEncoder(InternTable())
    type_subtree_chunks(encoder, element.encode(), "array", [(0, len(element))])
    tracemalloc.start()
    try:
        (parts,) = type_subtree_chunks(encoder, data, "array", [(0, len(data))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parts) == 1
    # The decoded chunk text costs one byte per character; a DOM of the
    # whole chunk would cost several times the text.
    assert peak < len(data) + (1 << 20)

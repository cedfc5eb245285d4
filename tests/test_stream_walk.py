"""The stream translator's walk over decoded values.

:class:`~repro.translation.stream.StreamTranslator` decodes each line
with ``parse`` and walks the column program over the value; a record or
list with a JSON-text fallback beneath it is walked over the text
instead, one ``c_scan_once`` value at a time, so the fallback keeps its
source slice.  These tests pin what that design promises beyond the
differential tier (``tests/test_stream_translate_fuzz.py``):

- a repeated key in a record with no fallback beneath it translates
  without delegating — the decoder keeps the last value, as the DOM
  oracle does;
- non-canonical spellings around fallbacks (spaced separators, escaped
  keys and strings) walk without delegating: typed columns equal the
  oracle's and each fallback holds text that re-serialises to the
  oracle's value;
- the nesting limit: 512 levels translate and 513 raise ``parse``'s
  error, for a fallback-free program and under a fallback column,
  where ``c_scan_once`` alone would accept any depth;
- a line that does not fit the schema (an unknown or missing key, a
  wrong type) delegates and raises the DOM path's error.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.jsonvalue.parser import parse, parse_lines
from repro.jsonvalue.serializer import dumps
from repro.translation import (
    Shredder,
    avro,
    column_store_json,
    resolve_interned,
    stream,
    translate_interned,
    translate_report_path,
)
from repro.translation.translate import compiled_avro, compiled_parquet, textify
from repro.types import Equivalence, merge_all, type_of
from tests.strategies import json_documents


@contextmanager
def _recording():
    """Collect every :class:`StreamTranslator` built inside the block."""
    made = []
    original = stream.StreamTranslator

    class Recording(original):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    stream.StreamTranslator = Recording
    try:
        yield made
    finally:
        stream.StreamTranslator = original


@pytest.fixture()
def translators():
    with _recording() as made:
        yield made


def _write(tmp_path, lines, name="corpus.ndjson"):
    path = tmp_path / name
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    return str(path)


def _oracle(lines):
    return translate_interned(list(parse_lines(lines)))


def _error(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - comparing error parity
        return type(exc), str(exc)
    return None


def _nested(depth: int, leaf: str = "1") -> str:
    """``depth`` levels of arrays around ``leaf``."""
    return "[" * depth + leaf + "]" * depth


@pytest.fixture()
def deep_recursion():
    # Typing is iterative, but the merge and the schema compilers still
    # recurse once per level or two: a 512-deep type needs more than the
    # default 1000 frames.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    yield
    sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# repeated keys
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lines",
    [
        ['{"a":1,"a":2}', '{"a":3}'],
        ['{"a":1,"b":{"c":"x","d":true,"c":"y"}}', '{"a":2,"b":{"c":"z","d":false}}'],
        ['{"a":[{"c":1,"c":null}]}', '{"a":[{"c":2},{"c":3}]}'],
    ],
    ids=["top-level", "nested-record", "record-in-list"],
)
def test_duplicate_key_without_fallback_does_not_delegate(
    tmp_path, translators, lines
):
    run = translate_report_path(_write(tmp_path, lines)).translation
    dom = _oracle(lines)
    assert run.fallback_count == 0
    assert run.avro_rows == dom.avro_rows
    assert column_store_json(run.columnar) == column_store_json(dom.columnar)
    assert [t.delegated for t in translators] == [0]


def test_duplicate_key_above_a_fallback_delegates(tmp_path, translators):
    # The text walk emits a member as it meets it, so a repeated key in a
    # text-walked record hands the document to the DOM path.
    lines = ['{"a":1,"a":2,"b":1}', '{"a":"s","b":2}']
    run = translate_report_path(_write(tmp_path, lines)).translation
    dom = _oracle(lines)
    assert run.fallback_count == 1
    assert run.avro_rows == dom.avro_rows
    assert column_store_json(run.columnar) == column_store_json(dom.columnar)
    assert [t.delegated for t in translators] == [1]


# ---------------------------------------------------------------------------
# the text walk around fallbacks
# ---------------------------------------------------------------------------


def test_escaped_and_spaced_members_keep_fallback_slices(tmp_path, translators):
    lines = [
        '{ "\\u0061" : [ 1 , {"z" :  null} ] , "b" : "caf\\u00e9" }',
        '{"a":"s","b":"x"}',
        '{"b":"y", "a" : 1e2}',
    ]
    run = translate_report_path(_write(tmp_path, lines)).translation
    assert [t.delegated for t in translators] == [0]
    assert run.columnar.columns["a"].values == [
        '[ 1 , {"z" :  null} ]',
        '"s"',
        "1e2",
    ]
    assert run.columnar.columns["b"].values == ["café", "x", "y"]


def test_fallback_under_list_of_records_keeps_slices(tmp_path, translators):
    lines = [
        '{"r":[{"f":[1, 2],"n":1},{"f":"t" ,"n":2}],"k":true}',
        '{"k":false,"r":[]}',
        '{"r":[{"n":3,"f":{"x" :1}}],"k":true}',
    ]
    run = translate_report_path(_write(tmp_path, lines)).translation
    dom = _oracle(lines)
    assert [t.delegated for t in translators] == [0]
    assert run.columnar.columns["r.[].f"].values == [
        "[1, 2]",
        '"t"',
        '{"x" :1}',
    ]
    for path, column in dom.columnar.columns.items():
        mine = run.columnar.columns[path]
        assert mine.repetition_levels == column.repetition_levels
        assert mine.definition_levels == column.definition_levels
        if column.kind != "json":
            assert mine.values == column.values


@given(json_documents(max_size=6))
@settings(max_examples=40, deadline=None)
def test_spaced_spellings_walk_without_delegating(tmp_path_factory, docs):
    # The stdlib's spaced separators and ASCII escapes: no line is
    # repo-canonical, yet every one walks.  Typed columns match the
    # oracle's, and each fallback value is source text that the oracle
    # re-serialises.
    tmp_path = tmp_path_factory.mktemp("spaced")
    lines = [
        json.dumps(d, separators=(" , ", " : "), ensure_ascii=True)
        for d in docs
    ]
    with _recording() as made:
        run = translate_report_path(_write(tmp_path, lines)).translation
    dom = _oracle(lines)
    assert [t.delegated for t in made] == [0]
    assert run.fallback_count == dom.fallback_count
    assert run.columnar.columns.keys() == dom.columnar.columns.keys()
    for path, column in dom.columnar.columns.items():
        mine = run.columnar.columns[path]
        assert mine.repetition_levels == column.repetition_levels
        assert mine.definition_levels == column.definition_levels
        if column.kind == "json":
            assert [dumps(parse(v)) for v in mine.values] == column.values
        else:
            assert mine.values == column.values


# ---------------------------------------------------------------------------
# the nesting limit
# ---------------------------------------------------------------------------


def test_depth_boundary_fallback_free(tmp_path, translators, deep_recursion):
    ok = ['{"a":' + _nested(511) + "}"]  # 512 levels with the record
    run = translate_report_path(_write(tmp_path, ok)).translation
    assert run.fallback_count == 0
    assert run.avro_rows == _oracle(ok).avro_rows
    assert [t.delegated for t in translators] == [0]
    deep = ['{"a":' + _nested(512) + "}"]
    path = _write(tmp_path, deep, "deep.ndjson")
    error = _error(lambda: translate_report_path(path))
    assert error is not None
    assert error == _error(lambda: parse(deep[0]))


def test_depth_boundary_under_a_fallback(tmp_path, translators, deep_recursion):
    ok = ['{"a":' + _nested(511) + "}", '{"a":"s"}']
    run = translate_report_path(_write(tmp_path, ok)).translation
    assert run.fallback_count == 1
    assert run.columnar.columns["a"].values == [_nested(511), '"s"']
    assert [t.delegated for t in translators] == [0]
    deep = ['{"a":' + _nested(512) + "}", '{"a":"s"}']
    path = _write(tmp_path, deep, "deep.ndjson")
    error = _error(lambda: translate_report_path(path))
    assert error is not None
    assert error == _error(lambda: parse(deep[0]))


def _translator(docs):
    """A translator for the schema ``docs`` resolve to, driven directly:
    inference never sees the lines it is given."""
    resolution = resolve_interned(
        merge_all([type_of(d) for d in docs], Equivalence.KIND)
    )
    shredder = Shredder(compiled_parquet(resolution.resolved))
    encoder = avro.RowEncoder(compiled_avro(resolution.resolved))
    return stream.StreamTranslator(resolution, shredder, encoder)


def _translate_line(translator, line: str):
    data = line.encode("utf-8")
    return translator.translate_range(data, 0, len(data))


@pytest.mark.parametrize("depth, fails", [(511, False), (512, True)])
def test_text_walk_checks_the_nesting_limit(depth, fails):
    # Inference rejects a too-deep line before translation starts, so
    # drive the translator with a schema from shallow lines: ``a`` is a
    # fallback, and ``c_scan_once`` would decode any depth.
    translator = _translator([{"a": 1}, {"a": "s"}])
    assert isinstance(translator.program.by_name["a"].op, stream._FallbackOp)
    line = '{"a": ' + _nested(depth) + "}"
    error = _error(lambda: _translate_line(translator, line))
    assert error == _error(lambda: parse(line))
    assert (error is not None) is fails
    if not fails:
        column = translator.shredder.columns["a"]
        assert column.values == [_nested(depth)]
        assert translator.delegated == 0


@pytest.mark.parametrize(
    "docs, line",
    [
        ([{"a": 1}], '{"a":1,"b":2}'),
        ([{"a": 1}], "{}"),
        ([{"a": 1}], '{"a":"s"}'),
        ([{"a": 1.5}], '{"a":true}'),
        ([{"a": [1]}], '{"a":{"b":1}}'),
        ([{"a": {"b": 1}}], '{"a":{"b":1,"c":[2]}}'),
        ([{"a": 1}, {"a": "s"}, {"b": 1}], '{"a":[1],"c":2}'),
        ([{"a": 1}, {"a": "s"}, {"b": 1}], '{"a":1,"a":2,"c":2}'),
    ],
    ids=[
        "unknown-key", "missing-required", "string-for-long",
        "bool-for-double", "record-for-list", "unknown-nested-key",
        "unknown-key-text-walk", "duplicate-then-unknown-text-walk",
    ],
)
def test_declined_documents_raise_the_dom_error(docs, line):
    # A line that does not fit the schema reaches the DOM path, whose
    # textify / shredder / row encoder name the problem.
    translator = _translator(docs)
    reference = _translator(docs)

    def dom():
        prepared = textify(parse(line), reference.plan)
        reference.shredder.add(prepared)
        reference.encoder.encode_row(prepared)

    error = _error(lambda: _translate_line(translator, line))
    assert error is not None
    assert error == _error(dom)
    assert translator.delegated == 1


@pytest.mark.parametrize(
    "line",
    [
        '{"a":"s"} x',
        '{"a":01}',
        '{"a":[1,]}',
        '{"a":1 "b":2}',
        '{"a":NaN}',
        '{"\\x":1}',
        '{"a":"s",}',
        '{"a":1',
        '{"a":[1}',
        '{"b":1,"a":tru}',
        '{"a":"\x01"}',
    ],
)
def test_malformed_text_walk_raises_the_parse_error(line):
    # Under a fallback the walk reads the text itself; whatever it cannot
    # read goes to the DOM path, and parse raises the positioned error.
    translator = _translator([{"a": 1}, {"a": "s"}, {"b": 1}])
    error = _error(lambda: _translate_line(translator, line))
    assert error is not None
    assert error == _error(lambda: parse(line))

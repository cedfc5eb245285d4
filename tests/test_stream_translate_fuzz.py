"""Stream-translate differential tier: the stream machine is
byte-identical to the DOM translator.

The stream engine (:mod:`repro.translation.stream`) decodes each
document's span once and walks its column program over the value,
emitting Parquet column entries and Avro row bytes in one pass — no
textify, no separate shredder and encoder walks; records and lists with
a JSON-text fallback beneath them walk the text, one decoder value at a
time.  This tier turns hypothesis loose on the pin, with
:func:`translate_interned` over the parsed lines as the oracle:

- on serializer-canonical corpora (lines produced by the repo's
  ``dumps``) ``translate_report_path`` and the oracle produce identical
  Avro rows and identical canonical column-store renderings, across
  equivalences and through the gzip transport;
- unicode escapes (``\\uXXXX`` in strings *and* keys) decode to the same
  column values and the same row bytes as the DOM's decoded strings;
- duplicate keys and exotic spellings (spaced separators, exponent
  and negative-zero spellings) translate to the oracle's results,
  whether the walk takes them or delegates them to the DOM path;
- fallback (JSON-text) columns capture the **raw source slice
  verbatim** where the DOM translator re-serialises — identical on
  canonical corpora, source-preserving on non-canonical spellings;
- malformed documents raise the error the parser (or the UTF-8 decode)
  raises for that line;
- the counted-parallel byte-range fold (:func:`infer_counted_parallel`
  over an mmap corpus) reproduces the serial counting fold exactly.
"""

from __future__ import annotations

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.ndjson import open_corpus
from repro.inference.distributed import infer_counted_parallel
from repro.inference.engine import CountingAccumulator
from repro.jsonvalue.parser import parse_lines
from repro.jsonvalue.serializer import dumps
from repro.translation import (
    column_store_json,
    translate_interned,
    translate_report_path,
)
from repro.types import Equivalence
from tests.strategies import json_documents

EQUIVALENCES = [Equivalence.KIND, Equivalence.LABEL]


def _write_corpus(tmp_path, lines, *, compress=False, name="corpus"):
    raw = "".join(lines)
    if compress:
        path = tmp_path / f"{name}.ndjson.gz"
        path.write_bytes(gzip.compress(raw.encode("utf-8")))
    else:
        path = tmp_path / f"{name}.ndjson"
        path.write_bytes(raw.encode("utf-8"))
    return str(path)


def _assert_matches_dom(path, lines, equivalence=Equivalence.KIND):
    """Translate the corpus file at ``path`` and its parsed ``lines``
    through the DOM oracle; the artifacts must be identical."""
    stream = translate_report_path(path, equivalence).translation
    dom = translate_interned(list(parse_lines(lines)), equivalence=equivalence)
    assert stream.avro_rows == dom.avro_rows
    assert column_store_json(stream.columnar) == column_store_json(
        dom.columnar
    )
    assert stream.document_count == dom.document_count
    assert stream.fallback_count == dom.fallback_count
    assert stream.input_bytes == sum(
        len(line.rstrip("\n").encode("utf-8")) for line in lines if line.strip()
    )
    return stream, dom


def _error(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - comparing error parity
        return type(exc), str(exc)
    return None


def _reference_error(raw: bytes):
    """The error of decoding and parsing ``raw`` line by line."""
    return _error(
        lambda: list(
            parse_lines(line.decode("utf-8") for line in raw.splitlines())
        )
    )


@given(
    json_documents(max_size=6),
    st.sampled_from(EQUIVALENCES),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_stream_matches_dom_on_generated_corpora(
    tmp_path_factory, docs, equivalence, compress
):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    lines = [dumps(d) + "\n" for d in docs]
    path = _write_corpus(tmp_path, lines, compress=compress)
    _assert_matches_dom(path, lines, equivalence)


@given(json_documents(min_size=2, max_size=5))
@settings(max_examples=20, deadline=None)
def test_stream_matches_dom_with_blank_interior_lines(tmp_path_factory, docs):
    tmp_path = tmp_path_factory.mktemp("blank")
    lines = [dumps(d) + "\n" for d in docs]
    # Interior blanks in every flavour the fold skips: empty, ASCII
    # whitespace, and a non-ASCII str.isspace line.
    lines[1:1] = ["\n", "   \t \n", "  \n"]
    path = _write_corpus(tmp_path, lines)
    stream, _ = _assert_matches_dom(path, lines)
    assert stream.document_count == len(docs)


def test_unicode_escape_spellings_match(tmp_path):
    # Escaped strings and *escaped keys*: the decoder unescapes the key,
    # so "\u0061" is the field a.
    lines = [
        '{"a":"caf\\u00e9","s":"\\n\\t\\"\\\\"}\n',
        '{"\\u0061":"\\ud83d\\ude00","s":"snow\\u2603"}\n',
        '{"a":"plain","s":""}\n',
    ]
    path = _write_corpus(tmp_path, lines)
    stream, _ = _assert_matches_dom(path, lines)
    assert stream.document_count == 3


@pytest.mark.parametrize(
    "line",
    [
        '{"a":1,"a":2}\n{"a":3}\n',  # duplicate key: DOM last-wins
        '{ "a" : 1 }\n{"a":2}\n',  # non-canonical whitespace
        '{"a":1e2}\n{"a":2.5}\n',  # exponent spelling of a double
        '{"a":-0}\n{"a":1}\n',  # negative zero int spelling
    ],
)
def test_unspeculable_spellings_delegate_identically(tmp_path, line):
    path = _write_corpus(tmp_path, [line])
    _assert_matches_dom(path, line.splitlines())


def test_fallback_columns_capture_raw_slice_verbatim(tmp_path):
    # A heterogeneous position resolves to a JSON-text fallback column.
    # On non-canonical spellings the stream engine keeps the *source*
    # bytes where the DOM oracle re-serialises: rows/columns differ
    # exactly by that column's text.
    lines = ['{"a": [1,  2]}\n', '{"a": "s"}\n', '{"a": true}\n']
    path = _write_corpus(tmp_path, lines)
    stream = translate_report_path(path)
    assert stream.translation.fallback_count == 1
    assert stream.translation.columnar.columns["a"].values == [
        "[1,  2]",  # verbatim, inner double space preserved
        '"s"',
        "true",
    ]
    dom = translate_interned(list(parse_lines(lines)))
    assert dom.columnar.columns["a"].values == [
        "[1,2]",  # the DOM re-serialisation
        '"s"',
        "true",
    ]


def test_canonical_fallback_is_byte_identical(tmp_path):
    docs = [{"a": [1, {"z": None}]}, {"a": "s"}, {"a": 2.5}, {"a": True}]
    path = _write_corpus(tmp_path, [dumps(d) + "\n" for d in docs])
    stream, _ = _assert_matches_dom(path, [dumps(d) for d in docs])
    assert stream.fallback_count == 1


@pytest.mark.parametrize(
    "bad",
    [
        '{"a":1}\n{"a":\n',  # truncated document
        '{"a":1}\n{"a":1}trailing\n',  # trailing garbage
        '{"a":tru}\n',  # bad literal
        '{"a":01}\n',  # leading zero
    ],
)
def test_malformed_documents_raise_identically(tmp_path, bad):
    path = _write_corpus(tmp_path, [bad])
    error = _error(lambda: translate_report_path(path))
    assert error is not None
    assert error == _reference_error(bad.encode("utf-8"))


@pytest.mark.parametrize(
    "raw",
    [b'{"a":"\xff\xfe"}\n', b'{"a":1}\n{"a":"\xff"}\n'],
    ids=["line-1", "line-2"],
)
def test_invalid_utf8_raises_identically(tmp_path, raw):
    # The decode error's position is relative to its line.
    path = tmp_path / "bad.ndjson"
    path.write_bytes(raw)
    error = _error(lambda: translate_report_path(str(path)))
    assert error is not None
    assert error == _reference_error(raw)


def test_stream_spill_matches_in_memory_artifacts(tmp_path):
    from repro.translation import write_artifacts

    docs = [{"a": i, "b": [f"s{i}"] * (i % 3)} for i in range(25)]
    path = _write_corpus(tmp_path, [dumps(d) + "\n" for d in docs])
    out = tmp_path / "out"
    run = translate_report_path(path, out=str(out))
    # Spilled run: rows live on disk only, sizes recorded exactly.
    assert run.translation.avro_rows is None
    assert run.translation.avro_bytes == run.translation.row_bytes > 0
    for artifact, size in run.artifacts.items():
        import os

        assert os.path.getsize(artifact) == size
    mem = translate_report_path(path)
    out2 = tmp_path / "out2"
    write_artifacts(mem, out2)
    for name in ("rows.avro", "columns.json", "schema.txt"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


@given(json_documents(max_size=5), st.sampled_from(EQUIVALENCES))
@settings(max_examples=25, deadline=None)
def test_counted_parallel_corpus_matches_serial(
    tmp_path_factory, docs, equivalence
):
    tmp_path = tmp_path_factory.mktemp("counted")
    # Blank lines, including ones only str.isspace calls blank.
    lines = [dumps(d) + "\n" for d in docs] + ["  \n", "\u3000\n", "\x0c\n"]
    path = _write_corpus(tmp_path, lines)
    corpus = open_corpus(path)
    try:
        serial = CountingAccumulator(equivalence)
        for d in docs:
            serial.add(d)
        run = infer_counted_parallel(
            corpus, partitions=3, equivalence=equivalence, processes=1
        )
        assert run.result == serial.result()
        assert run.document_count == len(docs)
    finally:
        corpus.close()


def test_counted_parallel_corpus_multiprocess(tmp_path):
    docs = [{"a": i % 3, "b": ["x"] * (i % 4)} for i in range(40)]
    path = _write_corpus(tmp_path, [dumps(d) + "\n" for d in docs])
    corpus = open_corpus(path)
    try:
        serial = CountingAccumulator(Equivalence.KIND)
        for d in docs:
            serial.add(d)
        run = infer_counted_parallel(corpus, partitions=4, processes=2)
        assert run.result == serial.result()
        assert run.document_count == len(docs)
        assert run.processes == 2
    finally:
        corpus.close()

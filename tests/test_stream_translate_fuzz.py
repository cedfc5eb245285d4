"""Stream-translate differential tier: the DOM-free machine is
byte-identical to the DOM path.

The stream engine (:mod:`repro.translation.stream`) emits Parquet column
entries and Avro row bytes straight from each document's byte span — no
DOM, no textify pass.  This tier turns hypothesis loose on the pin:

- on serializer-canonical corpora (lines produced by the repo's
  ``dumps``) the stream and interned engines produce identical Avro rows
  and identical canonical column-store renderings, across equivalences
  and through the gzip transport;
- unicode escapes (``\\uXXXX`` in strings *and* keys) decode to the same
  column values and the same row bytes as the DOM's decoded strings;
- structural shapes the fused scan cannot speculate (duplicate keys,
  exotic spellings) delegate per-document to the DOM path, keeping
  results exact;
- fallback (JSON-text) columns capture the **raw source slice
  verbatim** where the DOM engine re-serialises — identical on canonical
  corpora, source-preserving on non-canonical spellings (the one
  documented divergence);
- malformed documents raise the same error through either engine;
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
from repro.jsonvalue.serializer import dumps
from repro.translation import column_store_json, translate_report_path
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


def _assert_engines_identical(path, equivalence=Equivalence.KIND):
    stream = translate_report_path(path, equivalence, engine="stream")
    dom = translate_report_path(path, equivalence, engine="interned")
    assert stream.translation.avro_rows == dom.translation.avro_rows
    assert column_store_json(stream.translation.columnar) == column_store_json(
        dom.translation.columnar
    )
    assert stream.translation.document_count == dom.translation.document_count
    assert stream.translation.fallback_count == dom.translation.fallback_count
    assert stream.translation.input_bytes == dom.translation.input_bytes
    return stream, dom


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
    _assert_engines_identical(path, equivalence)


@given(json_documents(min_size=2, max_size=5))
@settings(max_examples=20, deadline=None)
def test_stream_matches_dom_with_blank_interior_lines(tmp_path_factory, docs):
    tmp_path = tmp_path_factory.mktemp("blank")
    lines = [dumps(d) + "\n" for d in docs]
    # Interior blanks in every flavour the fold skips: empty, ASCII
    # whitespace, and a non-ASCII str.isspace line.
    lines[1:1] = ["\n", "   \t \n", "  \n"]
    path = _write_corpus(tmp_path, lines)
    stream, _ = _assert_engines_identical(path)
    assert stream.translation.document_count == len(docs)


def test_unicode_escape_spellings_match(tmp_path):
    # Escaped strings and *escaped keys*: the fused member scan decodes
    # the key slice through the real lexer, so "a" is the field a.
    lines = [
        '{"a":"caf\\u00e9","s":"\\n\\t\\"\\\\"}\n',
        '{"\\u0061":"\\ud83d\\ude00","s":"snow\\u2603"}\n',
        '{"a":"plain","s":""}\n',
    ]
    path = _write_corpus(tmp_path, lines)
    stream, dom = _assert_engines_identical(path)
    assert stream.translation.document_count == 3


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
    _assert_engines_identical(path)


def test_fallback_columns_capture_raw_slice_verbatim(tmp_path):
    # A heterogeneous position resolves to a JSON-text fallback column.
    # On non-canonical spellings the stream engine keeps the *source*
    # bytes where the DOM re-serialises — the documented divergence, and
    # the only one: rows/columns differ exactly by that column's text.
    lines = ['{"a": [1,  2]}\n', '{"a": "s"}\n', '{"a": true}\n']
    path = _write_corpus(tmp_path, lines)
    stream = translate_report_path(path, engine="stream")
    assert stream.translation.fallback_count == 1
    assert stream.translation.columnar.columns["a"].values == [
        "[1,  2]",  # verbatim, inner double space preserved
        '"s"',
        "true",
    ]
    dom = translate_report_path(path, engine="interned")
    assert dom.translation.columnar.columns["a"].values == [
        "[1,2]",  # the DOM re-serialisation
        '"s"',
        "true",
    ]


def test_canonical_fallback_is_byte_identical(tmp_path):
    docs = [{"a": [1, {"z": None}]}, {"a": "s"}, {"a": 2.5}, {"a": True}]
    path = _write_corpus(tmp_path, [dumps(d) + "\n" for d in docs])
    stream, dom = _assert_engines_identical(path)
    assert stream.translation.fallback_count == 1


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
    errors = {}
    for engine in ("stream", "interned"):
        try:
            translate_report_path(path, engine=engine)
        except Exception as exc:  # noqa: BLE001 - comparing error parity
            errors[engine] = (type(exc), str(exc))
        else:
            errors[engine] = None
    assert errors["stream"] == errors["interned"]
    assert errors["stream"] is not None


def test_invalid_utf8_raises_identically(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_bytes(b'{"a":"\xff\xfe"}\n')
    errors = {}
    for engine in ("stream", "interned"):
        try:
            translate_report_path(str(path), engine=engine)
        except Exception as exc:  # noqa: BLE001 - comparing error parity
            errors[engine] = (type(exc), str(exc))
        else:
            errors[engine] = None
    assert errors["stream"] == errors["interned"]
    assert errors["stream"] is not None


def test_unknown_engine_rejected(tmp_path):
    from repro.errors import TranslationError

    path = _write_corpus(tmp_path, ['{"a":1}\n'])
    with pytest.raises(TranslationError, match="unknown translate engine"):
        translate_report_path(path, engine="dom")


def test_stream_spill_matches_in_memory_artifacts(tmp_path):
    from repro.translation import write_artifacts

    docs = [{"a": i, "b": [f"s{i}"] * (i % 3)} for i in range(25)]
    path = _write_corpus(tmp_path, [dumps(d) + "\n" for d in docs])
    out = tmp_path / "out"
    run = translate_report_path(path, engine="stream", out=str(out))
    # Spilled run: rows live on disk only, sizes recorded exactly.
    assert run.translation.avro_rows is None
    assert run.translation.avro_bytes == run.translation.row_bytes > 0
    for artifact, size in run.artifacts.items():
        import os

        assert os.path.getsize(artifact) == size
    mem = translate_report_path(path, engine="interned")
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

"""Translation conformance tier: the stream flow is byte-identical to
the DOM reference.

Two implementations produce the translation artifacts — the
materialised reference (:func:`schema_aware_translate`) and the
single-pass stream flow (:func:`translate_report_path`).  This tier pins
them to each other: identical Avro row bytes and identical canonical
column-store renderings on the benchmark corpora under both
equivalences, and through every corpus source (plain file, gzip file,
stdin, line list) — which must also agree with each other on
non-canonical spellings, where fallback columns keep the source text.
The reference itself is pinned to its input: its columns reassemble
and its rows decode back on the same corpora.

It also carries the regression contracts of the resolver rework:
explicit resolutions pickle, fallback relabeling is strict (the root
path included), nullable numeric and nullable record unions stay typed,
and unknown document fields raise :class:`TranslationError` naming the
offending path instead of leaking ``KeyError``.
"""

from __future__ import annotations

import gzip
import io
import pickle
import random

import pytest

from repro.datasets import github_events, nyt_articles, tweets
from repro.errors import TranslationError
from repro.jsonvalue.model import sort_keys_deep, strict_equal
from repro.jsonvalue.serializer import dumps
from repro.translation import (
    assemble,
    avro,
    column_store_json,
    resolve_interned,
    resolve_type,
    schema_aware_translate,
    translate_report_path,
    write_artifacts,
)
from repro.types import Equivalence, merge_all, type_of
from repro.types.terms import ArrType, AtomType, RecType, UnionType

def _nested_records(n: int, seed: int = 22) -> list:
    """Variable-structure records: variable-length arrays, int|flt
    drift and a nullable record — shapes the three dataset corpora
    leave out (none drifts between int and flt)."""
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "user": {"name": f"user-{rng.randint(0, 10**6)}",
                     "verified": bool(i % 7)},
            "score": rng.random() * 100 if i % 3 else rng.randint(0, 100),
            "geo": {"lat": rng.random() * 90, "lon": rng.random() * 180}
            if i % 5
            else None,
            "tags": ["a", "b", "c"][: rng.randint(0, 3)],
        }
        for i in range(n)
    ]


def _flat_records(n: int, seed: int = 21) -> list:
    """Constant-structure records (the telemetry shape): every document
    has the same keys, in the same order, with the same kinds."""
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "user": {"name": f"user-{rng.randint(0, 10**6)}",
                     "verified": bool(i % 7)},
            "score": rng.random() * 100,
            "geo": {"lat": rng.random() * 90, "lon": rng.random() * 180},
            "level": rng.randint(0, 5),
        }
        for i in range(n)
    ]


CORPORA = {
    "flat": lambda: _flat_records(120),
    "twitter": lambda: tweets(120),
    "github": lambda: github_events(120),
    "nyt": lambda: nyt_articles(120),
    "nested": lambda: _nested_records(120),
}


def _assert_identical(left, right):
    assert left.document_count == right.document_count
    assert left.fallback_count == right.fallback_count
    assert left.avro_rows == right.avro_rows
    assert column_store_json(left.columnar) == column_store_json(
        right.columnar
    )


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("equivalence", [Equivalence.KIND, Equivalence.LABEL])
def test_stream_engine_matches_dom_on_benchmark_corpora(
    tmp_path, corpus, equivalence
):
    docs = CORPORA[corpus]()
    path = tmp_path / f"{corpus}.ndjson"
    path.write_text(
        "".join(dumps(d) + "\n" for d in docs), encoding="utf-8"
    )
    stream = translate_report_path(str(path), equivalence)
    dom = schema_aware_translate(docs, equivalence=equivalence)
    _assert_identical(dom, stream.translation)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("equivalence", [Equivalence.KIND, Equivalence.LABEL])
def test_dom_artifacts_round_trip_on_benchmark_corpora(corpus, equivalence):
    # The DOM reference is the oracle of every other tier, so pin it to
    # its input: the columns reassemble the resolved (fallback-textified)
    # documents, and the rows decode under the resolved schema and
    # re-encode to the same bytes.
    docs = CORPORA[corpus]()
    report = schema_aware_translate(docs, equivalence=equivalence)
    resolution = resolve_interned(
        merge_all((type_of(d) for d in docs), equivalence)
    )
    prepared = [resolution.textify(d) for d in docs]
    rebuilt = assemble(report.columnar)
    assert len(rebuilt) == len(docs)
    for expected, back in zip(prepared, rebuilt):
        assert strict_equal(sort_keys_deep(expected), sort_keys_deep(back))
    schema = avro.from_algebra(resolution.resolved)
    decoded = [avro.decode(schema, row) for row in report.avro_rows]
    assert avro.encode_rows(schema, decoded) == report.avro_rows


SOURCES = ["file", "gzip", "stdin", "lines"]


def _source(kind, tmp_path, monkeypatch, raw: bytes):
    """The same corpus bytes as a ``translate_report_path`` source."""
    if kind == "file":
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(raw)
        return str(path)
    if kind == "gzip":
        path = tmp_path / "corpus.ndjson.gz"
        path.write_bytes(gzip.compress(raw))
        return str(path)
    if kind == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
        return "-"
    return raw.decode("utf-8").split("\n")


@pytest.mark.parametrize("source", SOURCES)
def test_translate_report_path_matches_in_memory(tmp_path, monkeypatch, source):
    docs = tweets(80)
    raw = "".join(dumps(d) + "\n" for d in docs)
    # A blank interior line: skipped by inference and translation alike.
    raw = raw.replace("\n", "\n\n", 1)
    run = translate_report_path(
        _source(source, tmp_path, monkeypatch, raw.encode("utf-8"))
    )
    reference = schema_aware_translate(docs)
    assert run.translation.avro_rows == reference.avro_rows
    assert column_store_json(run.translation.columnar) == column_store_json(
        reference.columnar
    )
    assert run.translation.document_count == len(docs)
    # The flow measures raw corpus bytes (blank line excluded).
    assert run.translation.input_bytes == sum(
        len(dumps(d).encode("utf-8")) for d in docs
    )


# Fallback columns (a: int|str, b.x: flt|str) spelled non-canonically.
NON_CANONICAL = b'{"a": 1, "b": {"x" : 1e2}}\r\n\n{"a": "s", "b": {"x": "A"}}\n'


@pytest.mark.parametrize("source", SOURCES)
def test_every_source_keeps_the_source_spelling(tmp_path, monkeypatch, source):
    run = translate_report_path(
        _source(source, tmp_path, monkeypatch, NON_CANONICAL)
    )
    columns = run.translation.columnar.columns
    assert columns["a"].values == ["1", '"s"']
    assert columns["b.x"].values == ["1e2", '"A"']
    on_file = translate_report_path(
        _source("file", tmp_path, monkeypatch, NON_CANONICAL)
    )
    assert run.translation.avro_rows == on_file.translation.avro_rows
    assert column_store_json(run.translation.columnar) == column_store_json(
        on_file.translation.columnar
    )
    assert run.translation.input_bytes == on_file.translation.input_bytes


def test_write_artifacts_round_trip(tmp_path):
    run = _run_on_disk(tmp_path, nyt_articles(20))
    out = tmp_path / "out"
    written = write_artifacts(run, out)
    assert set(written) == {
        str(out / "rows.avro"),
        str(out / "columns.json"),
        str(out / "schema.txt"),
    }
    # The framed row file: length-prefixed rows concatenate back to the
    # report's rows.
    from repro.translation.avro import _Reader

    framed = (out / "rows.avro").read_bytes()
    reader = _Reader(framed)
    rows = []
    while reader.pos < len(framed):
        length = reader.read_long()
        rows.append(framed[reader.pos : reader.pos + length])
        reader.pos += length
    assert rows == run.translation.avro_rows
    assert (out / "columns.json").read_text(
        encoding="utf-8"
    ) == column_store_json(run.translation.columnar) + "\n"
    assert "resolved:" in (out / "schema.txt").read_text(encoding="utf-8")


def _run_on_disk(tmp_path, docs):
    path = tmp_path / "corpus.ndjson"
    path.write_text(
        "".join(dumps(d) + "\n" for d in docs), encoding="utf-8"
    )
    return translate_report_path(str(path))


# ---------------------------------------------------------------------------
# resolution contracts
# ---------------------------------------------------------------------------


def test_resolution_survives_pickling():
    inferred = merge_all(
        (type_of(d) for d in [{"a": 1, "b": [1, "x"]}, {"a": None}]),
        Equivalence.KIND,
    )
    resolution = resolve_interned(inferred)
    thawed = pickle.loads(pickle.dumps(resolution))
    assert thawed.fallbacks == resolution.fallbacks
    doc = {"a": 1, "b": [1, "x"]}
    assert thawed.textify(doc) == resolution.textify(doc)


def test_root_fallback_relabels_the_root_column():
    # Heterogeneous top-level values degrade the whole document to JSON
    # text; the escape-hatch column lives at the root path "" and the
    # strict relabel must find it there (the seed skipped it silently).
    report = schema_aware_translate([1, "x"])
    assert report.fallback_count == 1
    assert list(report.columnar.columns) == [""]
    assert report.columnar.columns[""].kind == "json"
    assert report.typed_fraction == 0.0


def test_nullable_numeric_union_stays_typed():
    docs = [{"v": 1.5}, {"v": 2}, {"v": None}]
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    resolved, fallbacks = resolve_type(inferred)
    assert fallbacks == []
    report = schema_aware_translate(docs)
    assert report.fallback_count == 0
    assert report.columnar.columns["v"].kind != "json"
    assert report.columnar.columns["v"].values == [1.5, 2]


def test_nullable_record_union_keeps_leaves_typed():
    docs = [
        {"geo": {"lat": 1.5, "lon": 2.5}},
        {"geo": None},
        {"geo": {"lat": 3.0, "lon": 4.0}},
    ]
    report = schema_aware_translate(docs)
    assert report.fallback_count == 0
    assert sorted(report.columnar.columns) == ["geo.lat", "geo.lon"]
    assert report.columnar.columns["geo.lat"].values == [1.5, 3.0]


def test_empty_field_name_fallback_path_matches_its_column():
    # A field literally named "" shreds to the column "parent." — the
    # resolver's relative-suffix join used "" as the node-itself sentinel
    # and collapsed the empty segment, so the strict relabel missed the
    # column (hypothesis counterexample: [{}, {"0": [{"": False},
    # {"": 0}]}]).  Suffixes are segment tuples now; the paths agree.
    docs = [{}, {"0": [{"": False}, {"": 0}]}]
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    _, fallbacks = resolve_type(inferred)
    assert fallbacks == ["0.[]."]
    dom = schema_aware_translate(docs)
    stream = translate_report_path([dumps(d) for d in docs]).translation
    _assert_identical(dom, stream)
    assert dom.columnar.columns["0.[]."].kind == "json"


def _seed_fallback_paths(t, path=""):
    """The seed resolve rule: a union stays typed only as null + one
    atom, or as exactly int|flt; any other union falls back."""
    if isinstance(t, ArrType):
        return _seed_fallback_paths(t.item, f"{path}.[]" if path else "[]")
    if isinstance(t, RecType):
        return [
            p
            for f in t.fields
            for p in _seed_fallback_paths(f.type, f"{path}.{f.name}" if path else f.name)
        ]
    if isinstance(t, UnionType):
        members = list(t.members)
        tags = {m.tag for m in members if isinstance(m, AtomType)}
        rest = [m for m in members if not (isinstance(m, AtomType) and m.tag == "null")]
        nullable_atom = len(rest) == 1 < len(members) and isinstance(rest[0], AtomType)
        widened = len(members) == 2 and tags == {"int", "flt"}
        if not (nullable_atom or widened):
            return [path]
    return []


def test_tweets_coordinates_no_longer_fall_back():
    # The optional-object shape null | {…} used to degrade to JSON text;
    # on the tweets corpus that cost the coordinates subtrees.  The
    # resolver now types them, so the corpus translates fallback-free
    # where the seed rule degraded them.
    docs = tweets(300)
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    _, fallbacks = resolve_type(inferred)
    assert fallbacks == []
    assert _seed_fallback_paths(inferred) != []


def test_unknown_field_raises_translation_error_with_path():
    inferred = merge_all(
        (type_of(d) for d in [{"a": {"x": 1}}]), Equivalence.KIND
    )
    with pytest.raises(TranslationError, match=r"a\.y"):
        schema_aware_translate([{"a": {"x": 1, "y": 2}}], inferred)

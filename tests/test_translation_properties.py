"""Property tests for the translation substrate (DESIGN.md invariant 6)."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import TranslationError
from repro.jsonvalue.model import sort_keys_deep, strict_equal
from repro.jsonvalue.serializer import dumps
from repro.translation import (
    Column,
    ColumnStore,
    assemble,
    avro,
    column_store_json,
    compile_schema,
    shred,
)
from repro.translation.translate import resolve_type, schema_aware_translate
from repro.types import Equivalence, merge_all, type_of

from tests.strategies import json_documents, json_values


@given(json_documents())
@settings(max_examples=60, deadline=None)
def test_parquet_roundtrip_with_resolved_schema(docs):
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    resolved, _ = resolve_type(inferred)
    try:
        schema = compile_schema(resolved)
    except TranslationError:
        assume(False)
        return
    # Resolution may turn heterogeneous subtrees into JSON text; replay
    # through the full pipeline instead of raw shredding for those.
    report = schema_aware_translate(docs, inferred)
    rebuilt = assemble(report.columnar)
    assert len(rebuilt) == len(docs)
    if report.fallback_count == 0:
        for original, back in zip(docs, rebuilt):
            assert strict_equal(sort_keys_deep(original), sort_keys_deep(back))


@given(json_values(max_leaves=12))
@settings(max_examples=80, deadline=None)
@example(
    value=[{'0': False}, {'': None, '0': False}],
).via('discovered failure')
@example(
    value=[[None, 0], [None, False, 0.0]],
).via('discovered failure')
def test_avro_roundtrip(value):
    t = type_of(value)
    schema = avro.from_algebra(t)
    assert strict_equal(avro.decode(schema, avro.encode(schema, value)), value)


@given(st.lists(st.integers(min_value=-(2**50), max_value=2**50), max_size=20))
def test_avro_long_array_roundtrip(xs):
    schema = avro.AArray(avro.LONG)
    assert avro.decode(schema, avro.encode(schema, xs)) == xs


@given(json_documents())
@settings(max_examples=40, deadline=None)
def test_translation_report_consistent(docs):
    report = schema_aware_translate(docs)
    assert report.document_count == len(docs)
    assert 0.0 <= report.typed_fraction <= 1.0
    assert len(report.avro_rows) == len(docs)


# ``columns.json`` text: control characters, non-ASCII, lone surrogates.
_store_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0, max_codepoint=0x1F),
        st.sampled_from('"\\/\x7f é☃'),
        st.characters(blacklist_categories=()),  # surrogates included
    ),
    max_size=8,
)
_store_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([0, 1, True, False, -0.0, 0.0, 10**4300]),
    st.floats(),  # NaN and infinities included
    _store_text,
)


@st.composite
def column_stores(draw):
    paths = draw(
        st.lists(st.one_of(st.just(""), _store_text), max_size=4, unique=True)
    )
    columns = {}
    for path in paths:
        levels = st.lists(st.integers(min_value=0, max_value=3), max_size=5)
        columns[path] = Column(
            path=path,
            kind=draw(st.sampled_from(["bool", "long", "double", "string", "json"])),
            max_repetition=draw(st.integers(min_value=0, max_value=3)),
            max_definition=draw(st.integers(min_value=0, max_value=3)),
            repetition_levels=draw(levels),
            definition_levels=draw(levels),
            values=draw(st.lists(_store_values, max_size=6)),
        )
    row_count = draw(st.integers(min_value=0, max_value=10))
    return ColumnStore(schema=None, columns=columns, row_count=row_count)


def _rendered(render):
    try:
        return "text", render()
    except Exception as exc:  # noqa: BLE001 - comparing error parity
        return "error", type(exc)


def _one_column_store(values, path=""):
    n = len(values)
    column = Column(path, "string", 0, 1, [0] * n, [1] * n, values)
    return ColumnStore(schema=None, columns={path: column}, row_count=n)


@given(column_stores())
@settings(max_examples=200, deadline=None)
@example(store=_one_column_store([float("nan")]))
@example(store=_one_column_store([1.5, float("-inf")]))
@example(store=_one_column_store([10**4300]))
@example(
    store=_one_column_store(["\x00\x1f\x7f\ud800é☃\"\\", -0.0, True, 1], "\n")
)
def test_column_store_json_is_the_serializer_text(store):
    # The C encoder renders columns.json; the repo's serializer defines
    # the text and, when rendering fails, the error.
    mapping = {
        "row_count": store.row_count,
        "columns": [
            {
                "path": column.path,
                "kind": column.kind,
                "max_repetition": column.max_repetition,
                "max_definition": column.max_definition,
                "repetition_levels": column.repetition_levels,
                "definition_levels": column.definition_levels,
                "values": column.values,
            }
            for _, column in sorted(store.columns.items())
        ],
    }
    assert _rendered(lambda: column_store_json(store)) == _rendered(
        lambda: dumps(mapping)
    )

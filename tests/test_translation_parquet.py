"""Tests for the Parquet-like Dremel shredder."""

import pytest

from repro.errors import TranslationError
from repro.jsonvalue.model import sort_keys_deep, strict_equal
from repro.translation import assemble, compile_schema, shred
from repro.translation.parquet import PLeaf, PList, PRecord
from repro.types import (
    ArrType,
    BOT,
    Equivalence,
    FLT,
    INT,
    NULL,
    RecType,
    STR,
    merge_all,
    type_of,
    union2,
)


def schema_for(docs):
    return compile_schema(merge_all((type_of(d) for d in docs), Equivalence.KIND))


def assert_roundtrip(docs):
    schema = schema_for(docs)
    store = shred(docs, schema)
    out = assemble(store)
    assert len(out) == len(docs)
    for original, rebuilt in zip(docs, out):
        assert strict_equal(sort_keys_deep(original), sort_keys_deep(rebuilt)), (
            original,
            rebuilt,
        )
    return store


class TestCompileSchema:
    def test_atoms(self):
        assert compile_schema(INT) == PLeaf("long")
        assert compile_schema(FLT) == PLeaf("double")
        assert compile_schema(NULL) == PLeaf("null")

    def test_nullable_leaf(self):
        assert compile_schema(union2(STR, NULL)) == PLeaf("string", nullable=True)

    def test_int_flt_widen(self):
        assert compile_schema(union2(INT, FLT)) == PLeaf("double")

    def test_record_and_list(self):
        t = RecType.of({"a": INT, "xs": ArrType(STR)}, optional=frozenset({"xs"}))
        node = compile_schema(t)
        assert isinstance(node, PRecord)
        assert isinstance(node.fields[1].node, PList)

    def test_general_union_rejected(self):
        with pytest.raises(TranslationError):
            compile_schema(union2(INT, STR))

    def test_empty_array(self):
        assert compile_schema(ArrType(BOT)) == PList(PLeaf("null"))


class TestDremelLevels:
    """The worked Dremel example shape: nested repeated structures."""

    DOCS = [
        {"id": 1, "links": [{"url": "a", "w": 1}, {"url": "b", "w": 2}]},
        {"id": 2, "links": []},
        {"id": 3},
    ]

    def test_levels(self):
        # Make 'links' optional by the merge (doc 3 lacks it).
        store = assert_roundtrip(self.DOCS)
        url = store.column("links.[].url")
        # max rep: one list level; max def: optional field + list level.
        assert url.max_repetition == 1
        assert url.max_definition == 2
        assert url.repetition_levels == [0, 1, 0, 0]
        assert url.definition_levels == [2, 2, 1, 0]
        assert url.values == ["a", "b"]

    def test_scalar_column(self):
        store = assert_roundtrip(self.DOCS)
        id_col = store.column("id")
        assert id_col.max_repetition == 0
        assert id_col.max_definition == 0
        assert id_col.values == [1, 2, 3]


class TestRoundtrips:
    def test_flat(self):
        assert_roundtrip([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])

    def test_optional_fields(self):
        assert_roundtrip([{"a": 1, "b": "x"}, {"a": 2}, {"b": "z", "a": 3}])

    def test_nullable_values(self):
        assert_roundtrip([{"v": None}, {"v": "s"}, {"v": None}])

    def test_lists_of_scalars(self):
        assert_roundtrip([{"xs": [1, 2, 3]}, {"xs": []}, {"xs": [4]}])

    def test_lists_of_records(self):
        assert_roundtrip(
            [
                {"es": [{"t": "a", "w": 1}, {"t": "b"}]},
                {"es": [{"w": 2}]},
                {"es": []},
            ]
        )

    def test_nested_lists(self):
        assert_roundtrip([{"m": [[1], [], [2, 3]]}, {"m": []}, {"m": [[4]]}])

    def test_deep_mixed(self):
        assert_roundtrip(
            [
                {
                    "user": {"name": "ada", "geo": {"lat": 1.5}},
                    "posts": [{"tags": ["x", "y"], "n": 1}],
                },
                {"user": {"name": "bob"}, "posts": []},
                {"user": {"name": "cleo", "geo": {"lat": 2.0}}},
            ]
        )

    def test_empty_object_field(self):
        assert_roundtrip([{"meta": {}}, {"meta": {}}])

    def test_optional_record_vs_empty_record(self):
        docs = [{"m": {"a": 1}}, {"m": {}}, {}]
        assert_roundtrip(docs)

    def test_null_only_column(self):
        assert_roundtrip([{"z": None}, {"z": None}])

    def test_root_scalar(self):
        docs = ["a", "b", "c"]
        schema = schema_for(docs)
        store = shred(docs, schema)
        assert assemble(store) == docs


class TestErrors:
    def test_schema_violation(self):
        schema = schema_for([{"a": 1}])
        with pytest.raises(TranslationError):
            shred([{"a": "not-a-long"}], schema)

    def test_missing_required(self):
        schema = schema_for([{"a": 1}])
        with pytest.raises(TranslationError):
            shred([{}], schema)

    def test_unknown_column(self):
        store = shred([{"a": 1}], schema_for([{"a": 1}]))
        with pytest.raises(TranslationError):
            store.column("nope")


class TestSizeAccounting:
    def test_columnar_smaller_than_text(self):
        from repro.jsonvalue.serializer import dumps

        docs = [
            {"id": i, "label": "stable", "score": i / 2, "ok": i % 2 == 0}
            for i in range(200)
        ]
        store = assert_roundtrip(docs)
        text_bytes = sum(len(dumps(d).encode()) for d in docs)
        assert store.total_encoded_size() < text_bytes

    def test_encoded_size_counts_utf8_bytes_and_varint_longs(self):
        from repro.translation import Column

        strings = Column("s", "string", 0, 1, [0, 0, 0], [1, 1, 0], ["ab", "é☃"])
        # 3 definition levels; (4 + 2) + (4 + 2 + 3) value bytes.
        assert strings.encoded_size() == 3 + 15
        longs = Column("n", "long", 1, 0, [0] * 5, [0] * 5,
                       [0, 63, 64, -8192, 2**40])
        # 5 repetition levels; 1 + 1 + 2 + 3 + 6 varint-ish bytes.
        assert longs.encoded_size() == 5 + 13
        flags = Column("f", "bool", 0, 0, [0, 0], [0, 0], [True, False])
        doubles = Column("d", "double", 0, 0, [0], [0], [1.5])
        nulls = Column("z", "null", 0, 0, [0], [0], [])
        assert (flags.encoded_size(), doubles.encoded_size()) == (2, 8)
        assert nulls.encoded_size() == 0

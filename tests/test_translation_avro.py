"""Tests for the Avro-like row codec."""

import pytest

from repro.errors import TranslationError
from repro.translation import avro
from repro.translation.avro import (
    AArray,
    AField,
    AMap,
    APrimitive,
    ARecord,
    AUnion,
    BOOLEAN,
    DOUBLE,
    LONG,
    NULL,
    STRING,
    decode,
    encode,
)


def roundtrip(schema, value):
    data = encode(schema, value)
    assert decode(schema, data) == value
    return data


class TestPrimitives:
    def test_null(self):
        assert roundtrip(NULL, None) == b""

    def test_boolean(self):
        assert roundtrip(BOOLEAN, True) == b"\x01"
        assert roundtrip(BOOLEAN, False) == b"\x00"

    @pytest.mark.parametrize("n", [0, 1, -1, 63, 64, -64, -65, 2**40, -(2**40)])
    def test_long_zigzag(self, n):
        roundtrip(LONG, n)

    def test_zigzag_small_values_one_byte(self):
        assert len(encode(LONG, 0)) == 1
        assert len(encode(LONG, -1)) == 1
        assert len(encode(LONG, 63)) == 1
        assert len(encode(LONG, 64)) == 2

    def test_double(self):
        roundtrip(DOUBLE, 2.5)
        assert len(encode(DOUBLE, 2.5)) == 8

    def test_double_accepts_int(self):
        assert decode(DOUBLE, encode(DOUBLE, 3)) == 3.0

    def test_string_utf8(self):
        roundtrip(STRING, "héllo 😀")

    @pytest.mark.parametrize(
        "schema,bad",
        [
            (NULL, 0),
            (BOOLEAN, 1),
            (LONG, 1.5),
            (LONG, True),
            (DOUBLE, "x"),
            (STRING, 3),
        ],
    )
    def test_type_mismatch(self, schema, bad):
        with pytest.raises(TranslationError):
            encode(schema, bad)

    @pytest.mark.parametrize(
        "schema,value",
        [(STRING, "x\ud800y"), (AMap(LONG), {"\udfff": 1})],
        ids=["string", "map-key"],
    )
    def test_lone_surrogate_is_a_translation_error(self, schema, value):
        with pytest.raises(TranslationError, match="surrogates not allowed"):
            encode(schema, value)

    def test_unknown_primitive(self):
        with pytest.raises(TranslationError):
            APrimitive("int32")


class TestContainers:
    def test_record(self):
        schema = ARecord("T", (AField("a", LONG), AField("b", STRING)))
        roundtrip(schema, {"a": 7, "b": "x"})

    def test_record_field_order_from_schema(self):
        schema = ARecord("T", (AField("a", LONG), AField("b", LONG)))
        assert encode(schema, {"b": 2, "a": 1}) == encode(schema, {"a": 1, "b": 2})

    def test_record_missing_field(self):
        schema = ARecord("T", (AField("a", LONG),))
        with pytest.raises(TranslationError):
            encode(schema, {})

    def test_array(self):
        roundtrip(AArray(LONG), [1, 2, 3])
        roundtrip(AArray(LONG), [])

    def test_nested_arrays(self):
        roundtrip(AArray(AArray(STRING)), [["a"], [], ["b", "c"]])

    def test_map(self):
        roundtrip(AMap(LONG), {"x": 1, "y": 2})
        roundtrip(AMap(LONG), {})

    def test_union(self):
        schema = AUnion((NULL, LONG, STRING))
        roundtrip(schema, None)
        roundtrip(schema, 42)
        roundtrip(schema, "s")

    def test_union_no_branch(self):
        schema = AUnion((NULL, LONG))
        with pytest.raises(TranslationError):
            encode(schema, "string")

    def test_empty_union_invalid(self):
        with pytest.raises(TranslationError):
            AUnion(())

    def test_trailing_bytes_rejected(self):
        data = encode(LONG, 1) + b"\x00"
        with pytest.raises(TranslationError):
            decode(LONG, data)

    def test_truncated_rejected(self):
        schema = ARecord("T", (AField("a", STRING),))
        data = encode(schema, {"a": "hello"})
        with pytest.raises(TranslationError):
            decode(schema, data[:-1])


class TestFromAlgebra:
    def test_record_with_optional(self):
        from repro.types import INT, RecType, STR

        t = RecType.of({"a": INT, "b": STR}, optional=frozenset({"b"}))
        schema = avro.from_algebra(t)
        assert isinstance(schema, ARecord)
        field_b = {f.name: f.type for f in schema.fields}["b"]
        assert field_b == AUnion((NULL, STRING))

    def test_encode_rows_fills_optionals(self):
        from repro.types import Equivalence, merge_all, type_of

        docs = [{"a": 1, "b": "x"}, {"a": 2}]
        t = merge_all((type_of(d) for d in docs), Equivalence.KIND)
        schema = avro.from_algebra(t)
        rows = avro.encode_rows(schema, docs)
        assert decode(schema, rows[1]) == {"a": 2, "b": None}

    def test_missing_field_bytes_encode_an_absent_value(self):
        assert avro.missing_field_bytes(AUnion((NULL, LONG))) == b"\x00"
        assert avro.missing_field_bytes(AUnion((LONG, NULL))) == b"\x02"
        assert avro.missing_field_bytes(NULL) == b""
        assert avro.missing_field_bytes(LONG) is None

    def test_union_type(self):
        from repro.types import INT, STR, union2

        schema = avro.from_algebra(union2(INT, STR))
        assert isinstance(schema, AUnion)
        roundtrip(schema, 1)
        roundtrip(schema, "x")

    def test_rows_smaller_than_json(self):
        from repro.jsonvalue.serializer import dumps
        from repro.types import Equivalence, merge_all, type_of

        docs = [{"id": i, "score": float(i), "name": f"user_{i}"} for i in range(50)]
        t = merge_all((type_of(d) for d in docs), Equivalence.KIND)
        schema = avro.from_algebra(t)
        avro_bytes = sum(len(r) for r in avro.encode_rows(schema, docs))
        json_bytes = sum(len(dumps(d).encode()) for d in docs)
        assert avro_bytes < json_bytes

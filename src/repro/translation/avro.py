"""An Avro-like schema model and binary row codec (tutorial §5).

"While JSON is very frequently used for exchanging and publishing data, it
is hardly used as internal data format in Big Data management tools, that,
instead, usually rely on formats like Avro and Parquet."  The schema-aware
translation experiment (E9) needs a real row format on the other side, so
this module implements the Avro wire encoding from scratch:

- ``long`` — zig-zag varint (Avro's integer encoding);
- ``double`` — 8-byte IEEE 754 little-endian;
- ``string`` — varint byte length + UTF-8;
- ``boolean`` — one byte; ``null`` — zero bytes;
- ``record`` — field values in declared order, no tags (schema-resolved);
- ``array`` — non-empty count blocks terminated by a zero block;
- ``union`` — zig-zag branch index + encoded branch;
- ``map`` — blocks of key/value pairs, zero-terminated.

``decode(schema, encode(schema, v)) == v`` is property-tested.  The point
the benchmark makes: with a schema, a JSON object becomes a compact,
tagless byte row; without one you are stuck shipping the text.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Optional, Tuple

from repro.errors import TranslationError
from repro.jsonvalue.model import is_integer_value

PRIMITIVES = ("null", "boolean", "long", "double", "string")


class AvroSchema:
    """Base class of Avro-like schema nodes.

    Nodes are immutable values: equal (and hashed) by class and fields,
    the attributes each node's constructor sets, in order.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class APrimitive(AvroSchema):
    name: str

    def __init__(self, name: str) -> None:
        if name not in PRIMITIVES:
            raise TranslationError(f"unknown Avro primitive {name!r}")
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        return self.name


class AField(AvroSchema):
    name: str
    type: AvroSchema

    def __init__(self, name: str, type: AvroSchema) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type", type)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.type}"


class ARecord(AvroSchema):
    name: str
    fields: Tuple[AField, ...]

    def __init__(self, name: str, fields: Tuple[AField, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", fields)

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.fields)
        return f"record {self.name} {{{inner}}}"


class AArray(AvroSchema):
    items: AvroSchema

    def __init__(self, items: AvroSchema) -> None:
        object.__setattr__(self, "items", items)

    def __str__(self) -> str:
        return f"array<{self.items}>"


class AUnion(AvroSchema):
    branches: Tuple[AvroSchema, ...]

    def __init__(self, branches: Tuple[AvroSchema, ...]) -> None:
        if not branches:
            raise TranslationError("Avro unions need at least one branch")
        object.__setattr__(self, "branches", branches)

    def __str__(self) -> str:
        return "union[" + ", ".join(str(b) for b in self.branches) + "]"


class AMap(AvroSchema):
    values: AvroSchema

    def __init__(self, values: AvroSchema) -> None:
        object.__setattr__(self, "values", values)

    def __str__(self) -> str:
        return f"map<{self.values}>"


NULL = APrimitive("null")
BOOLEAN = APrimitive("boolean")
LONG = APrimitive("long")
DOUBLE = APrimitive("double")
STRING = APrimitive("string")


# ---------------------------------------------------------------------------
# wire encoding
# ---------------------------------------------------------------------------


def _zigzag(n: int) -> int:
    # Python ints are unbounded, so use the sign split rather than the
    # fixed-width shift trick.
    return (n << 1) if n >= 0 else (((-n) << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def _write_varint(out: bytearray, z: int) -> None:
    while True:
        byte = z & 0x7F
        z >>= 7
        if z:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_long(out: bytearray, n: int) -> None:
    _write_varint(out, _zigzag(n))


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read_varint(self) -> int:
        shift = 0
        result = 0
        while True:
            if self.pos >= len(self.data):
                raise TranslationError("truncated Avro data (varint)")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    def read_long(self) -> int:
        return _unzigzag(self.read_varint())

    def read_bytes(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise TranslationError("truncated Avro data (bytes)")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk


def encode(schema: AvroSchema, value: Any) -> bytes:
    """Encode one value under ``schema``; raises on schema mismatch."""
    out = bytearray()
    _encode(schema, value, out)
    return bytes(out)


def _encode(schema: AvroSchema, value: Any, out: bytearray) -> None:
    if isinstance(schema, APrimitive):
        name = schema.name
        if name == "null":
            if value is not None:
                raise TranslationError(f"expected null, got {value!r}")
            return
        if name == "boolean":
            if not isinstance(value, bool):
                raise TranslationError(f"expected boolean, got {value!r}")
            out.append(1 if value else 0)
            return
        if name == "long":
            if not is_integer_value(value):
                raise TranslationError(f"expected long, got {value!r}")
            _write_long(out, value)
            return
        if name == "double":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TranslationError(f"expected double, got {value!r}")
            out.extend(struct.pack("<d", float(value)))
            return
        # string
        if not isinstance(value, str):
            raise TranslationError(f"expected string, got {value!r}")
        raw = value.encode("utf-8")
        _write_long(out, len(raw))
        out.extend(raw)
        return
    if isinstance(schema, ARecord):
        if not isinstance(value, dict):
            raise TranslationError(f"expected record {schema.name}, got {value!r}")
        for field in schema.fields:
            if field.name not in value:
                raise TranslationError(
                    f"record {schema.name} is missing field {field.name!r}"
                )
            _encode(field.type, value[field.name], out)
        return
    if isinstance(schema, AArray):
        if not isinstance(value, list):
            raise TranslationError(f"expected array, got {value!r}")
        if value:
            _write_long(out, len(value))
            for item in value:
                _encode(schema.items, item, out)
        _write_long(out, 0)
        return
    if isinstance(schema, AMap):
        if not isinstance(value, dict):
            raise TranslationError(f"expected map, got {value!r}")
        if value:
            _write_long(out, len(value))
            for key, item in value.items():
                raw = key.encode("utf-8")
                _write_long(out, len(raw))
                out.extend(raw)
                _encode(schema.values, item, out)
        _write_long(out, 0)
        return
    if isinstance(schema, AUnion):
        # Two-pass pick.  First an *exact* branch (every record field
        # present, numbers by their own kind), so roundtrips are
        # lossless whenever a lossless branch exists; then the lenient
        # fallback where an int may ride a double branch (the fused
        # ``Num`` idiom).  Field presence is required in both passes —
        # the record encoder below never fills gaps.
        for index, branch in enumerate(schema.branches):
            if _accepts(branch, value, strict=True, exact_numbers=True):
                _write_long(out, index)
                _encode(branch, value, out)
                return
        for index, branch in enumerate(schema.branches):
            if _accepts(branch, value, strict=True):
                _write_long(out, index)
                _encode(branch, value, out)
                return
        raise TranslationError(f"no union branch accepts {value!r}")
    raise TranslationError(f"cannot encode with schema node {schema!r}")


def _accepts(
    schema: AvroSchema,
    value: Any,
    strict: bool = False,
    exact_numbers: bool = False,
) -> bool:
    """Fully recursive membership test, used to pick union branches.

    ``strict`` requires every record field to be *present* (at every
    depth) — what :func:`encode` needs when picking a union branch,
    since its record encoder does not fill gaps.  The default, lenient
    mode additionally admits documents whose missing fields are
    nullable — what :func:`_fill_missing` needs to pick the branch it
    is about to fill.  ``exact_numbers`` makes ``double`` accept only
    floats, so :func:`encode` can prefer a lossless branch before
    falling back to the int-as-double idiom.
    """
    if isinstance(schema, APrimitive):
        if schema.name == "null":
            return value is None
        if schema.name == "boolean":
            return isinstance(value, bool)
        if schema.name == "long":
            return is_integer_value(value)
        if schema.name == "double":
            if exact_numbers:
                return isinstance(value, float)
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, str)
    if isinstance(schema, ARecord):
        if not isinstance(value, dict):
            return False
        names = {f.name for f in schema.fields}
        if not set(value.keys()) <= names:
            return False
        for f in schema.fields:
            if f.name in value:
                if not _accepts(f.type, value[f.name], strict, exact_numbers):
                    return False
            elif strict or not _accepts(f.type, None):
                return False  # missing (strict) / non-nullable field
        return True
    if isinstance(schema, AMap):
        return isinstance(value, dict) and all(
            isinstance(k, str) and _accepts(schema.values, v, strict, exact_numbers)
            for k, v in value.items()
        )
    if isinstance(schema, AArray):
        return isinstance(value, list) and all(
            _accepts(schema.items, v, strict, exact_numbers) for v in value
        )
    if isinstance(schema, AUnion):
        return any(_accepts(b, value, strict, exact_numbers) for b in schema.branches)
    return False


def decode(schema: AvroSchema, data: bytes) -> Any:
    """Decode one value; raises on trailing bytes."""
    reader = _Reader(data)
    value = _decode(schema, reader)
    if reader.pos != len(data):
        raise TranslationError(
            f"{len(data) - reader.pos} trailing bytes after Avro value"
        )
    return value


def _decode(schema: AvroSchema, reader: _Reader) -> Any:
    if isinstance(schema, APrimitive):
        name = schema.name
        if name == "null":
            return None
        if name == "boolean":
            byte = reader.read_bytes(1)[0]
            if byte not in (0, 1):
                raise TranslationError(f"invalid boolean byte {byte}")
            return byte == 1
        if name == "long":
            return reader.read_long()
        if name == "double":
            return struct.unpack("<d", reader.read_bytes(8))[0]
        length = reader.read_long()
        return reader.read_bytes(length).decode("utf-8")
    if isinstance(schema, ARecord):
        return {f.name: _decode(f.type, reader) for f in schema.fields}
    if isinstance(schema, AArray):
        out = []
        while True:
            count = reader.read_long()
            if count == 0:
                return out
            if count < 0:  # block with byte size (writers may emit); unsupported
                raise TranslationError("negative array block counts are not supported")
            for _ in range(count):
                out.append(_decode(schema.items, reader))
    if isinstance(schema, AMap):
        out_map: dict[str, Any] = {}
        while True:
            count = reader.read_long()
            if count == 0:
                return out_map
            if count < 0:
                raise TranslationError("negative map block counts are not supported")
            for _ in range(count):
                key_length = reader.read_long()
                key = reader.read_bytes(key_length).decode("utf-8")
                out_map[key] = _decode(schema.values, reader)
    if isinstance(schema, AUnion):
        index = reader.read_long()
        if not 0 <= index < len(schema.branches):
            raise TranslationError(f"union branch {index} out of range")
        return _decode(schema.branches[index], reader)
    raise TranslationError(f"cannot decode with schema node {schema!r}")


# ---------------------------------------------------------------------------
# from the inference algebra
# ---------------------------------------------------------------------------


def from_algebra(
    t: "Type", name: str = "Root", memo: "dict | None" = None  # noqa: F821
) -> AvroSchema:
    """Translate an inferred type into an Avro-like schema.

    Optional record fields become ``union[null, T]`` with a ``null``
    default convention — the standard Avro idiom for JSON optionality.

    ``memo`` (id-of-node → schema) lets callers holding canonical
    interned types translate each shared subtree once.  Record *names*
    are documentation only — they are never written to the wire — so a
    memoized subtree keeps the name of the first position that reached
    it; encoded rows are byte-identical either way.
    """
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit
    out = _from_algebra(t, name, memo)
    if memo is not None:
        memo[id(t)] = out
    return out


def _from_algebra(t: "Type", name: str, memo: "dict | None") -> AvroSchema:  # noqa: F821
    from repro.types.terms import (
        AnyType,
        ArrType,
        AtomType,
        BotType,
        RecType,
        UnionType,
    )

    if isinstance(t, AtomType):
        return {
            "null": NULL,
            "bool": BOOLEAN,
            "int": LONG,
            "flt": DOUBLE,
            "num": DOUBLE,
            "str": STRING,
        }[t.tag]
    if isinstance(t, ArrType):
        if isinstance(t.item, BotType):
            return AArray(NULL)
        return AArray(from_algebra(t.item, name + "_item", memo))
    if isinstance(t, RecType):
        fields = []
        for f in t.fields:
            ftype = from_algebra(f.type, f"{name}_{f.name}", memo)
            if not f.required:
                branches = (
                    ftype.branches if isinstance(ftype, AUnion) else (ftype,)
                )
                if NULL not in branches:
                    ftype = AUnion((NULL,) + branches)
            fields.append(AField(f.name, ftype))
        return ARecord(name, tuple(fields))
    if isinstance(t, UnionType):
        return AUnion(
            tuple(
                from_algebra(m, f"{name}_{i}", memo)
                for i, m in enumerate(t.members)
            )
        )
    if isinstance(t, AnyType):
        raise TranslationError("Any cannot be represented in Avro")
    if isinstance(t, BotType):
        raise TranslationError("Bot cannot be represented in Avro")
    raise TranslationError(f"cannot translate {t!r} to Avro")


def encode_rows(schema: AvroSchema, documents: Iterable[Any]) -> list[bytes]:
    """Encode a collection, one byte row per document.

    Optional fields absent from a document are treated as ``null`` (the
    union idiom from :func:`from_algebra`).
    """
    rows = []
    for doc in documents:
        rows.append(encode(schema, _fill_missing(schema, doc)))
    return rows


class RowEncoder:
    """Single-walk document→row encoder for resolved-schema unions.

    ``encode_rows`` walks every document three times per union position:
    once in :func:`_fill_missing` to pick a branch and copy the document
    with absent optional fields filled, then twice more inside
    :func:`encode` for the strict/lenient branch passes.  The schemas
    the translation resolver produces only ever contain two-branch
    ``union[null, T]`` nodes, where the branch index is decided by
    ``value is None`` alone — this encoder fuses the fill into the walk
    and emits straight to the output buffer, no copies, no recursive
    branch probes.

    On schema-conforming documents the rows are **byte-identical** to
    ``encode(schema, _fill_missing(schema, doc))`` — the translation
    conformance tier pins this against the reference path.  Exotic union
    shapes (more than two branches, non-null first branch) defer to the
    reference fill+encode for that subtree, so the encoder is total; a
    non-conforming document still raises :class:`TranslationError`,
    though possibly naming the offending leaf rather than the union.
    """

    __slots__ = ("schema",)

    def __init__(self, schema: AvroSchema) -> None:
        self.schema = schema

    def encode_row(self, value: Any) -> bytes:
        out = bytearray()
        self._emit(self.schema, value, out)
        return bytes(out)

    def encode_rows(self, documents: Iterable[Any]) -> list:
        return [self.encode_row(doc) for doc in documents]

    def _emit(self, schema: AvroSchema, value: Any, out: bytearray) -> None:
        cls = schema.__class__
        if cls is ARecord:
            if not isinstance(value, dict):
                raise TranslationError(
                    f"expected record {schema.name}, got {value!r}"
                )
            for field in schema.fields:
                ftype = field.type
                if field.name in value:
                    self._emit(ftype, value[field.name], out)
                elif ftype.__class__ is AUnion and _is_optional_union(ftype):
                    _write_long(out, 0)  # the null branch of union[null, T]
                elif ftype.__class__ is APrimitive and ftype.name == "null":
                    pass  # null encodes to zero bytes
                elif _accepts(ftype, None):
                    _encode(ftype, _fill_missing(ftype, None), out)
                else:
                    raise TranslationError(
                        f"document is missing required field {field.name!r}"
                    )
            return
        if cls is AUnion:
            if _is_optional_union(schema):
                if value is None:
                    _write_long(out, 0)
                else:
                    _write_long(out, 1)
                    self._emit(schema.branches[1], value, out)
                return
            _encode(schema, _fill_missing(schema, value), out)
            return
        if cls is AArray:
            if not isinstance(value, list):
                raise TranslationError(f"expected array, got {value!r}")
            if value:
                _write_long(out, len(value))
                for item in value:
                    self._emit(schema.items, item, out)
            _write_long(out, 0)
            return
        # Primitives encode directly; maps (never produced by
        # from_algebra over resolved types) take the reference path.
        if cls is APrimitive:
            _encode(schema, value, out)
            return
        _encode(schema, _fill_missing(schema, value), out)


def _is_optional_union(schema: AUnion) -> bool:
    """Is this the resolver's ``union[null, T]`` shape?  (T non-null,
    non-union — the branch index is then decided by ``value is None``.)"""
    branches = schema.branches
    return (
        len(branches) == 2
        and branches[0] == NULL
        and branches[1] != NULL
        and branches[1].__class__ is not AUnion
    )


def _fill_missing(schema: AvroSchema, value: Any) -> Any:
    if isinstance(schema, ARecord) and isinstance(value, dict):
        filled = {}
        for field in schema.fields:
            if field.name in value:
                filled[field.name] = _fill_missing(field.type, value[field.name])
            elif _accepts(field.type, None):
                filled[field.name] = None
            else:
                raise TranslationError(
                    f"document is missing required field {field.name!r}"
                )
        return filled
    if isinstance(schema, AArray) and isinstance(value, list):
        return [_fill_missing(schema.items, v) for v in value]
    if isinstance(schema, AUnion):
        for branch in schema.branches:
            if _accepts(branch, value):
                return _fill_missing(branch, value)
    return value


def missing_field_bytes(schema: AvroSchema) -> Optional[bytes]:
    """The exact bytes :meth:`RowEncoder._emit` writes for an *absent*
    record field of type ``schema``, or ``None`` when absence raises
    (a missing required field).

    The stream translate machine precompiles these per field at program
    build time, so an absent optional field costs one buffer append at
    translate time instead of re-deciding the cascade per document.
    """
    if schema.__class__ is AUnion and _is_optional_union(schema):
        return b"\x00"  # zigzag(0): the null branch of union[null, T]
    if schema.__class__ is APrimitive and schema.name == "null":
        return b""  # null encodes to zero bytes
    if _accepts(schema, None):
        out = bytearray()
        _encode(schema, _fill_missing(schema, None), out)
        return bytes(out)
    return None

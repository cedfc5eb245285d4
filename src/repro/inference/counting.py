"""Counting types (Baazizi et al., DBPL '17).

Counting types decorate the inferred type with **cardinalities**: how many
values matched each union member, how many records carried each field, how
many elements each array position contributed.  The result answers
questions a plain type cannot — "is this field rare or common?", "which
variant dominates?" — at a modest size overhead (E5 measures it).

The counted algebra mirrors :mod:`repro.types.terms`:

- ``CAtom(tag, count)``
- ``CArr(item, count, element_count)``
- ``CRec(fields, count)`` with per-field presence counts
- ``CUnion(members)`` where every member carries its own count

Merging adds counts; the underlying plain type of a merge equals the plain
merge of the underlying types (a property test pins this commuting square).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.errors import InferenceError
from repro.jsonvalue.model import JsonKind, is_integer_value, kind_of
from repro.jsonvalue.parser import ParseOptions, parse
from repro.types import Equivalence, Type, union
from repro.types.terms import (
    ArrType,
    AtomType,
    FieldType,
    RecType,
)


class CType:
    """Base class of counted type terms."""

    __slots__ = ()

    count: int

    def plain(self) -> Type:
        """Strip counts, producing a term of the plain algebra."""
        raise NotImplementedError

    def size(self) -> int:
        """AST size including one node per counter (the overhead measure)."""
        raise NotImplementedError


@dataclass(frozen=True)
class CAtom(CType):
    tag: str
    count: int

    def plain(self) -> Type:
        return AtomType(self.tag)

    def size(self) -> int:
        return 2  # the atom + its counter

    def __str__(self) -> str:
        return f"{self.tag.capitalize()}({self.count})"


@dataclass(frozen=True)
class CArr(CType):
    item: "CUnion"
    count: int
    element_count: int

    def plain(self) -> Type:
        return ArrType(self.item.plain())

    def size(self) -> int:
        return 3 + self.item.size()

    def __str__(self) -> str:
        return f"[{self.item}]({self.count}x{self.element_count})"


@dataclass(frozen=True)
class CField(CType):
    name: str
    type: "CUnion"
    count: int  # how many parent records carry this field

    def plain(self) -> FieldType:
        # required relative to the parent is decided by CRec.plain().
        raise NotImplementedError("CField.plain is context-dependent")

    def size(self) -> int:
        return 2 + self.type.size()

    def __str__(self) -> str:
        return f"{self.name}({self.count}): {self.type}"


@dataclass(frozen=True)
class CRec(CType):
    fields: Tuple[CField, ...]
    count: int

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if names != sorted(names):
            object.__setattr__(
                self, "fields", tuple(sorted(self.fields, key=lambda f: f.name))
            )

    def plain(self) -> Type:
        return RecType(
            tuple(
                FieldType(f.name, f.type.plain(), required=f.count == self.count)
                for f in self.fields
            )
        )

    def size(self) -> int:
        return 2 + sum(f.size() for f in self.fields)

    def field_map(self) -> dict[str, CField]:
        return {f.name: f for f in self.fields}

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.fields)
        return f"{{{inner}}}({self.count})"


@dataclass(frozen=True)
class CUnion(CType):
    """A counted union: zero or more counted members (zero = Bot)."""

    members: Tuple[CType, ...]

    @property
    def count(self) -> int:  # type: ignore[override]
        return sum(m.count for m in self.members)

    def plain(self) -> Type:
        return union(m.plain() for m in self.members)

    def size(self) -> int:
        if not self.members:
            return 1
        return sum(m.size() for m in self.members)

    def __str__(self) -> str:
        if not self.members:
            return "Bot"
        return " + ".join(str(m) for m in self.members)


# ---------------------------------------------------------------------------
# map phase
# ---------------------------------------------------------------------------


def _counted_scalar(value: Any, kind: JsonKind) -> CUnion:
    if kind is JsonKind.NULL:
        return CUnion((CAtom("null", 1),))
    if kind is JsonKind.BOOLEAN:
        return CUnion((CAtom("bool", 1),))
    if kind is JsonKind.NUMBER:
        return CUnion((CAtom("int" if is_integer_value(value) else "flt", 1),))
    return CUnion((CAtom("str", 1),))


def counted_type_of(value: Any, equivalence: Equivalence = Equivalence.KIND) -> CUnion:
    """Type a single value with all counters at 1.

    ``equivalence`` controls how array *elements* fuse (the only place the
    map phase already merges); it must match the reduce-phase parameter.

    Like the plain fused encoder (:class:`repro.types.build.TypeEncoder`),
    the traversal uses an explicit frame stack, so deeply nested
    documents type without hitting the recursion limit.
    """
    kind = kind_of(value)
    if kind not in (JsonKind.ARRAY, JsonKind.OBJECT):
        return _counted_scalar(value, kind)
    # Frames: [is_object, iterator, parts, pending name, element count].
    # Object parts collect CField; array parts collect element CUnions.
    stack: list[list] = [_counted_open(value, kind)]
    result: CUnion | None = None
    while stack:
        frame = stack[-1]
        parts = frame[2]
        pushed = False
        if frame[0]:
            for name, v in frame[1]:
                ckind = kind_of(v)
                if ckind in (JsonKind.ARRAY, JsonKind.OBJECT):
                    frame[3] = name
                    stack.append(_counted_open(v, ckind))
                    pushed = True
                    break
                parts.append(CField(name, _counted_scalar(v, ckind), 1))
            if pushed:
                continue
            done = CUnion((CRec(tuple(parts), 1),))
        else:
            for v in frame[1]:
                ckind = kind_of(v)
                if ckind in (JsonKind.ARRAY, JsonKind.OBJECT):
                    stack.append(_counted_open(v, ckind))
                    pushed = True
                    break
                parts.append(_counted_scalar(v, ckind))
            if pushed:
                continue
            if len(parts) == 1:
                # Merging a singleton union deep-rebuilds an equal
                # structure (counts sum trivially, field/member order is
                # already canonical) — skip it, keeping single-element
                # arrays O(depth) instead of O(depth²).
                items = parts[0]
            else:
                items = merge_counted(parts, equivalence, _empty_ok=True)
            done = CUnion((CArr(items, 1, frame[4]),))
        stack.pop()
        if stack:
            parent = stack[-1]
            if parent[0]:
                parent[2].append(CField(parent[3], done, 1))
                parent[3] = None
            else:
                parent[2].append(done)
        else:
            result = done
    assert result is not None
    return result


def _counted_open(value: Any, kind: JsonKind) -> list:
    if kind is JsonKind.OBJECT:
        return [True, iter(value.items()), [], None, 0]
    return [False, iter(value), [], None, len(value)]


def counted_type_of_text(
    text: str,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    max_depth: int = 512,
) -> CUnion:
    """Counted type of one JSON text: ``counted_type_of(parse(text),
    equivalence)`` with the nesting limit ``max_depth``.

    The C decoder behind :func:`repro.jsonvalue.parser.parse` builds the
    value; malformed text raises the parser's exact error.
    """
    return counted_type_of(
        parse(text, ParseOptions(max_depth=max_depth)), equivalence
    )


def counted_type_of_bytes(
    data,
    start: int = 0,
    end: Optional[int] = None,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    max_depth: int = 512,
) -> CUnion:
    """Counted type of one JSON document held as UTF-8 bytes:
    ``counted_type_of_text(str(memoryview(data)[start:end], "utf-8"),
    equivalence, max_depth=max_depth)``.

    ``data`` is anything the buffer protocol covers (``bytes``, an mmap,
    a ``memoryview``).  Undecodable input raises the decode's
    ``UnicodeDecodeError``; malformed JSON raises the parser's exact
    error, with character offsets relative to ``start``.
    """
    return counted_type_of_text(
        str(memoryview(data)[start:end], "utf-8"), equivalence, max_depth=max_depth
    )


# ---------------------------------------------------------------------------
# reduce phase
# ---------------------------------------------------------------------------


def merge_counted(
    types: Iterable[CUnion],
    equivalence: Equivalence = Equivalence.KIND,
    *,
    _empty_ok: bool = False,
) -> CUnion:
    """Merge counted unions; counts add within each fused class."""
    members: list[CType] = []
    for t in types:
        members.extend(t.members)
    if not members:
        if _empty_ok:
            return CUnion(())
        return CUnion(())

    classes: dict[Hashable, list[CType]] = {}
    order: list[Hashable] = []
    for member in members:
        key = _class_key(member, equivalence)
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append(member)

    fused = tuple(_fuse(classes[key], equivalence) for key in order)
    return CUnion(fused)


def _class_key(t: CType, equivalence: Equivalence) -> Hashable:
    if isinstance(t, CRec):
        if equivalence is Equivalence.KIND:
            return ("rec",)
        return ("rec", frozenset(f.name for f in t.fields))
    if isinstance(t, CArr):
        return ("arr",)
    if isinstance(t, CAtom):
        if equivalence is Equivalence.KIND:
            kind = "number" if t.tag in ("int", "flt", "num") else t.tag
            return ("atom", kind)
        return ("atom", t.tag)
    raise InferenceError(f"unexpected counted member {t!r}")  # pragma: no cover


def _fuse(members: list[CType], equivalence: Equivalence) -> CType:
    first = members[0]
    if isinstance(first, CAtom):
        tags = {m.tag for m in members}  # type: ignore[union-attr]
        total = sum(m.count for m in members)
        tag = first.tag if len(tags) == 1 else "num"
        return CAtom(tag, total)
    if isinstance(first, CArr):
        item = merge_counted(
            (m.item for m in members), equivalence, _empty_ok=True  # type: ignore[union-attr]
        )
        return CArr(
            item,
            sum(m.count for m in members),
            sum(m.element_count for m in members),  # type: ignore[union-attr]
        )
    if isinstance(first, CRec):
        by_name: dict[str, list[CField]] = {}
        for rec in members:
            for f in rec.fields:  # type: ignore[union-attr]
                by_name.setdefault(f.name, []).append(f)
        fields = tuple(
            CField(
                name,
                merge_counted((f.type for f in occurrences), equivalence, _empty_ok=True),
                sum(f.count for f in occurrences),
            )
            for name, occurrences in by_name.items()
        )
        return CRec(fields, sum(m.count for m in members))
    raise InferenceError(f"unexpected counted member {first!r}")  # pragma: no cover


def infer_counted(
    documents: Iterable[Any], equivalence: Equivalence = Equivalence.KIND
) -> CUnion:
    """Full counting-types inference over a collection.

    Folds through the engine's
    :class:`~repro.inference.engine.CountingAccumulator`, so the stream
    is never materialized and state stays O(fused schema).
    """
    from repro.inference.engine import CountingAccumulator

    accumulator = CountingAccumulator(equivalence)
    for document in documents:
        accumulator.add(document)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a counted schema from an empty collection")
    return accumulator.result()


def infer_counted_streaming(
    lines: Iterable[str], equivalence: Equivalence = Equivalence.KIND
) -> CUnion:
    """Counting-types inference over NDJSON lines without building DOMs.

    The text-path twin of :func:`infer_counted`: each line's counted type
    comes from :func:`counted_type_of_text` and folds through the
    engine's :class:`~repro.inference.engine.CountingAccumulator`.
    Blank lines are skipped.
    """
    from repro.inference.engine import CountingAccumulator

    accumulator = CountingAccumulator(equivalence)
    for line in lines:
        if not line or line.isspace():
            continue
        accumulator.add_counted(counted_type_of_text(line, equivalence))
    if accumulator.is_empty():
        raise InferenceError("cannot infer a counted schema from an empty stream")
    return accumulator.result()


def _add_counted_spans(accumulator, data: bytes, spans) -> None:
    """Fold the line spans of ``data`` into a counting accumulator, one
    :func:`counted_type_of_bytes` per line; blank lines are skipped by
    the bytes folds' one rule (:func:`~repro.inference.engine._blank_span`),
    so counts reconcile with every serial path."""
    from repro.inference.engine import _blank_span

    equivalence = accumulator.equivalence
    for start, end in spans:
        if _blank_span(data, start, end):
            continue
        accumulator.add_counted(
            counted_type_of_bytes(data, start, end, equivalence)
        )


def infer_counted_compressed(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    format: Optional[str] = None,
) -> CUnion:
    """Counting-types inference straight off a gzip/zstd NDJSON corpus.

    The compressed twin of :func:`infer_counted_streaming`: the chunked
    decompression reader yields line-aligned byte blocks and every line
    span is typed by :func:`counted_type_of_bytes` — no decompressed
    corpus is ever held whole.  Blank lines are skipped with the bytes
    fold's exact ``str.isspace`` parity.
    """
    from repro.datasets.compressed import iter_block_line_spans, iter_line_blocks
    from repro.inference.engine import CountingAccumulator

    accumulator = CountingAccumulator(equivalence)
    for block in iter_line_blocks(source, format=format):
        _add_counted_spans(accumulator, block, iter_block_line_spans(block))
    if accumulator.is_empty():
        raise InferenceError("cannot infer a counted schema from an empty stream")
    return accumulator.result()


def field_presence_ratios(counted: CUnion) -> dict[str, float]:
    """Top-level record field presence ratios (the headline statistic)."""
    out: dict[str, float] = {}
    for member in counted.members:
        if isinstance(member, CRec) and member.count:
            for f in member.fields:
                out[f.name] = f.count / member.count
    return out

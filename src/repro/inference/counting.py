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

Counting is one more fold of the plain machinery: every route runs the
plain fold's loop with a :class:`~repro.inference.engine.CountingAccumulator`
(one :func:`merge_counted` per line batch) whose lines are typed by
:class:`CountedEncoder`, and equals ``merge_counted([counted_type_of(d)
for d in docs])`` by ``==``, member order included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.errors import InferenceError
from repro.jsonvalue.model import JsonKind, is_integer_value, kind_of
from repro.types import Equivalence, Type, union
from repro.types.build import TextFrontEnd
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
                items = merge_counted(parts, equivalence)
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


class CountedEncoder(TextFrontEnd):
    """The counted map phase over JSON text: the plain encoder's decode
    and parse (same nesting limit, same errors), then
    :func:`counted_type_of`."""

    __slots__ = ("equivalence",)

    def __init__(self, equivalence: Equivalence = Equivalence.KIND) -> None:
        self.equivalence = equivalence

    def encode(self, value: Any) -> CUnion:
        return counted_type_of(value, self.equivalence)


def counted_type_of_text(
    text: str,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    max_depth: int = 512,
) -> CUnion:
    """Counted type of one JSON text: ``counted_type_of(parse(text),
    equivalence)`` with the nesting limit ``max_depth``; malformed text
    raises the parser's exact error."""
    return CountedEncoder(equivalence).encode_text(text, max_depth=max_depth)


def counted_type_of_bytes(
    data,
    start: int = 0,
    end: Optional[int] = None,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    max_depth: int = 512,
) -> CUnion:
    """Counted type of one JSON document held as UTF-8 bytes (see
    :meth:`~repro.types.build.TextFrontEnd.encode_bytes`)."""
    return CountedEncoder(equivalence).encode_bytes(
        data, start, end, max_depth=max_depth
    )


# ---------------------------------------------------------------------------
# reduce phase
# ---------------------------------------------------------------------------


def merge_counted(
    types: Iterable[CUnion], equivalence: Equivalence = Equivalence.KIND
) -> CUnion:
    """Merge counted unions in one pass; counts add within each fused
    class, and classes keep first-appearance order."""
    members: list[CType] = []
    for t in types:
        members.extend(t.members)

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
            (m.item for m in members), equivalence  # type: ignore[union-attr]
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
                merge_counted((f.type for f in occurrences), equivalence),
                sum(f.count for f in occurrences),
            )
            for name, occurrences in by_name.items()
        )
        return CRec(fields, sum(m.count for m in members))
    raise InferenceError(f"unexpected counted member {first!r}")  # pragma: no cover


def infer_counted(
    documents: Iterable[Any], equivalence: Equivalence = Equivalence.KIND
) -> CUnion:
    """Full counting-types inference over a collection, one
    :func:`merge_counted` per batch of documents: the stream is never
    materialized and state stays O(fused schema)."""
    from repro.inference.engine import _RANGE_BATCH_LINES, CountingAccumulator

    accumulator = CountingAccumulator(equivalence)
    documents = iter(documents)
    while batch := [
        counted_type_of(d, equivalence) for d in islice(documents, _RANGE_BATCH_LINES)
    ]:
        accumulator.add_types(batch)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a counted schema from an empty collection")
    return accumulator.result()


def infer_counted_streaming(
    lines: Iterable[str], equivalence: Equivalence = Equivalence.KIND
) -> CUnion:
    """Counting-types inference over NDJSON lines without building DOMs:
    :func:`~repro.inference.engine.accumulate_lines`' loop (blank lines
    skipped) with a counting accumulator."""
    from repro.inference.engine import CountingAccumulator, _fold_lines

    accumulator = _fold_lines(CountingAccumulator(equivalence), lines)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a counted schema from an empty stream")
    return accumulator.result()


def infer_counted_compressed(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    format: Optional[str] = None,
) -> CUnion:
    """Counting-types inference straight off a gzip/zstd NDJSON corpus:
    :func:`~repro.inference.streaming.fold_line_blocks`' loop (one block
    in memory, batched lines flushed before a decompression error) with
    a counting accumulator."""
    from repro.inference.engine import CountingAccumulator
    from repro.inference.streaming import _fold_blocks

    accumulator = _fold_blocks(CountingAccumulator(equivalence), source, format)
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

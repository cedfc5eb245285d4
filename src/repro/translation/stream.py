"""DOM-free translation: the shredder and row encoder driven by one walk
of the decoded value.

A DOM translate pass textifies each parsed document and walks it twice
more — once for the Parquet shredder, once for the Avro row encoder.
This module, the engine of ``translate_report_path`` for every corpus
source, replaces the three walks with one.  A :class:`Resolution`
(resolved type + textify plan) is compiled *together with* the
``PNode`` and ``AvroSchema`` trees into one fused **column program**: a
tree of small op objects, one per schema position, each carrying

- the position's :class:`~repro.translation.parquet.Column` plus its
  *static* definition levels (max, null, and the precompiled
  ``(column, level)`` emission lists for absent fields / null records /
  empty lists — ``_emit_missing`` flattened at compile time);
- the position's Avro framing (is it wrapped in the resolver's
  ``union[null, T]``; the precomputed bytes an absent optional field
  writes, via :func:`~repro.translation.avro.missing_field_bytes`).

:class:`StreamTranslator` decodes each document's span once with
:func:`~repro.jsonvalue.parser.parse` (the stdlib C decoder, with the
token parser behind it for every error and the nesting limit) and walks
the program over the value: record fields are dict lookups in schema
order — which is also the order Avro writes them — each scalar's type
is checked by its class, Parquet ``(rep, def, value)`` entries append
straight to the columns and Avro bytes to the row.  Parquet entry order
is invariant under record key order (each column is fed only by its own
path; several entries per row come only from arrays, in element order),
so walking fields in schema order emits exactly what the DOM shredder
emits.  A repeated key needs no special case: the decoder keeps the last
value, as the DOM translators do.

**Fallback (JSON-text) columns capture the raw source slice verbatim**,
where the DOM translators re-serialise the parsed value.  So a record or
list *with a fallback beneath it* is walked over the document text
instead, member by member: a key regex, then the C decoder's
``scan_once`` (:data:`~repro.jsonvalue.parser.c_scan_once`) for each
value.  A fallback stores ``text[start:end]`` of its value, a fallback-
free child walks the value ``scan_once`` decoded, and a deeper ancestor
of a fallback recurses over the text.  ``scan_once`` has no nesting
limit of its own, so a text-walked document with more brackets than the
limit is checked by ``parse`` first.  On serializer-canonical corpora
(lines produced by :func:`~repro.jsonvalue.serializer.dumps`) the raw
slice and the re-serialisation are byte-identical — the differential
tier pins this; on non-canonical spellings (``\\uXXXX`` escapes,
``1e3``, interior whitespace) the stream engine keeps the source
spelling.  A delegated document (below) is the exception: its fallbacks
are re-serialised.

Anything the walk cannot prove — an unknown key, a missing required
field, a type mismatch, a duplicate key in a text-walked record,
malformed text under a text-walked record — raises the internal
``_Decline``: the document's column entries are rolled back (each
column's lengths were marked at document start) and the **whole
document delegates to the DOM path** (textify → ``Shredder.add`` →
``RowEncoder.encode_row``) with the value already decoded, or with
``parse`` of the span when the text walk declined.  That path owns the
exact result and error behaviour.  Declines are per-document, so a
poisoned line never degrades its neighbours.
"""

from __future__ import annotations

import re
import struct

from repro.errors import TranslationError
from repro.jsonvalue.lexer import STRING_BODY_PATTERN, WHITESPACE_PATTERN
from repro.jsonvalue.parser import DEFAULT_OPTIONS, c_scan_once, parse
from repro.translation import avro
from repro.translation.parquet import (
    PLeaf,
    PList,
    PNode,
    PRecord,
    Shredder,
    _rep_of,
    leaf_paths,
)
from repro.translation.translate import (
    ArrPlan,
    CLEAN,
    RecPlan,
    Resolution,
    _Fallback,
    textify,
)

_PACK_DOUBLE = struct.Struct("<d").pack
_write_long = avro._write_long
_MISSING = object()


class _Decline(Exception):
    """Internal: this document cannot be stream-translated; delegate."""

    __slots__ = ()


# --------------------------------------------------------------------------
# the text walk's scans (records and lists with a fallback beneath them)
#
# A member match covers ``"key" : `` (group 1 the raw key body, escapes
# and all) or the closing brace (group 2); an element match covers the
# "," before the next element or the closing bracket (group 1).  Values
# themselves are the C decoder's: ``c_scan_once(text, pos)``.
# --------------------------------------------------------------------------

_WS = WHITESPACE_PATTERN
_KEY = (
    '"(' + STRING_BODY_PATTERN + r"(?:\\." + STRING_BODY_PATTERN + ')*)"'
    + _WS + ":" + _WS
)
_MEMBER_FIRST = re.compile(_WS + "(?:" + _KEY + r"|(\}))")
_MEMBER_NEXT = re.compile(_WS + "(?:," + _WS + _KEY + r"|(\}))")
_ELEMENT_NEXT = re.compile(_WS + "(?:," + _WS + r"|(\]))")
_ARRAY_EMPTY = re.compile(_WS + r"\]")
_WS_RUN = re.compile(_WS)

_MAX_DEPTH = DEFAULT_OPTIONS.max_depth


def _levels(cols):
    """``(column, level)`` pairs as ``(rep append, def append, level)``."""
    return tuple(
        (c.repetition_levels.append, c.definition_levels.append, level)
        for c, level in cols
    )


# --------------------------------------------------------------------------
# the column program
#
# Every op has ``walk(value, rep, out)`` — emit a decoded value — and
# ``scan(text, pos, rep, out) -> end`` — emit the value starting at
# ``text[pos]`` (no leading whitespace) and return where it ends.  Only
# ops with a fallback beneath them (``deep``) scan the text themselves;
# the rest decode their value with ``c_scan_once`` and walk it.
# --------------------------------------------------------------------------


class _Op:
    __slots__ = ("deep",)

    def scan(self, text, pos, rep, out) -> int:
        value, end = c_scan_once(text, pos)
        self.walk(value, rep, out)
        return end


class _ScalarOp(_Op):
    """A typed leaf: one column, one Avro primitive."""

    __slots__ = ("column", "kind", "nullable", "max_def", "null_def",
                 "aunion", "walk", "_rep", "_def", "_value")

    def __init__(self, column, kind, nullable, aunion):
        self.deep = False
        self.column = column
        self.kind = kind  # bool | long | double | string | null
        self.nullable = nullable
        self.max_def = column.max_definition
        self.null_def = column.max_definition - 1
        self.aunion = aunion  # wrapped in union[null, T]
        self._rep = column.repetition_levels.append
        self._def = column.definition_levels.append
        self._value = column.values.append
        self.walk = getattr(self, "_walk_" + kind)

    def _null(self, value, rep, out) -> None:
        """An explicit null at a (necessarily nullable) leaf."""
        if value is not None or not self.nullable:
            raise _Decline
        self._rep(rep)
        self._def(self.null_def)
        out.append(0)  # nullable leaves are always union-wrapped

    def _walk_string(self, value, rep, out) -> None:
        if value.__class__ is not str:
            return self._null(value, rep, out)
        self._rep(rep)
        self._def(self.max_def)
        self._value(value)
        if self.aunion:
            out.append(2)
        raw = value.encode("utf-8")
        size = len(raw)
        if size < 64:
            out.append(size << 1)  # the one-byte zigzag varint
        else:
            _write_long(out, size)
        out += raw

    def _walk_long(self, value, rep, out) -> None:
        if value.__class__ is not int:
            return self._null(value, rep, out)
        self._rep(rep)
        self._def(self.max_def)
        self._value(value)
        if self.aunion:
            out.append(2)
        if -64 <= value < 64:  # the one-byte zigzag varint
            out.append(value << 1 if value >= 0 else -2 * value - 1)
        else:
            _write_long(out, value)

    def _walk_double(self, value, rep, out) -> None:
        # An int stays an int in the column (DOM parity); Avro packs it.
        cls = value.__class__
        if cls is not float and cls is not int:
            return self._null(value, rep, out)
        self._rep(rep)
        self._def(self.max_def)
        self._value(value)
        if self.aunion:
            out.append(2)
        out += _PACK_DOUBLE(value if cls is float else float(value))

    def _walk_bool(self, value, rep, out) -> None:
        if value.__class__ is not bool:
            return self._null(value, rep, out)
        self._rep(rep)
        self._def(self.max_def)
        self._value(value)
        if self.aunion:
            out.append(2)
        out.append(1 if value else 0)

    def _walk_null(self, value, rep, out) -> None:
        # The column stores no value and Avro null is zero bytes.
        if value is not None:
            raise _Decline
        self._rep(rep)
        self._def(self.max_def)
        if self.aunion:
            out.append(2)


class _EmptyOp(_Op):
    """The ``empty_object`` marker leaf (a field-less record)."""

    __slots__ = ("column", "nullable", "max_def", "null_def", "aunion")

    def __init__(self, column, nullable, aunion):
        self.deep = False
        self.column = column
        self.nullable = nullable
        self.max_def = column.max_definition
        self.null_def = column.max_definition - 1
        self.aunion = aunion

    def walk(self, value, rep, out) -> None:
        column = self.column
        if value.__class__ is dict and not value:
            column.repetition_levels.append(rep)
            column.definition_levels.append(self.max_def)
            if self.aunion:
                out.append(2)  # ARecord with no fields: zero body bytes
            return
        if value is not None or not self.nullable:
            raise _Decline
        column.repetition_levels.append(rep)
        column.definition_levels.append(self.null_def)
        out.append(0)


class _FallbackOp(_Op):
    """A JSON-text escape-hatch leaf: the raw subtree slice, verbatim."""

    __slots__ = ("column", "max_def", "aunion")

    def __init__(self, column, aunion):
        self.deep = True
        self.column = column
        self.max_def = column.max_definition
        self.aunion = aunion

    def scan(self, text, pos, rep, out) -> int:
        end = c_scan_once(text, pos)[1]
        value = text[pos:end]
        column = self.column
        column.repetition_levels.append(rep)
        column.definition_levels.append(self.max_def)
        column.values.append(value)
        if self.aunion:
            out.append(2)
        raw = value.encode("utf-8")
        _write_long(out, len(raw))
        out += raw
        return end


class _FieldOp:
    """One record field: the child op plus precompiled absence handling."""

    __slots__ = ("name", "op", "missing_cols", "missing_avro")

    def __init__(self, name, op, missing_cols, missing_avro):
        self.name = name
        self.op = op
        # None for required fields (absence declines → DOM error);
        # otherwise the emissions _emit_missing would produce and the
        # bytes RowEncoder._emit would write.
        self.missing_cols = missing_cols
        self.missing_avro = missing_avro


class _RecordOp(_Op):
    """A record position: fields in schema order."""

    __slots__ = ("fields", "by_name", "members", "nullable", "aunion",
                 "null_cols")

    def __init__(self, fields, nullable, aunion, null_cols):
        self.deep = any(f.op.deep for f in fields)
        self.fields = fields
        self.by_name = {f.name: f for f in fields}
        # The value walk's view of the fields; a deep record scans text.
        self.members = () if self.deep else tuple(
            (f.name, f.op.walk, f.missing_cols, f.missing_avro)
            for f in fields
        )
        self.nullable = nullable
        self.aunion = aunion
        self.null_cols = null_cols  # emissions for an explicit null record

    def _null(self, rep, out) -> None:
        for add_rep, add_def, level in self.null_cols:
            add_rep(rep)
            add_def(level)
        out.append(0)  # nullable records are always union-wrapped

    def walk(self, value, rep, out) -> None:
        if value.__class__ is not dict:
            if value is None and self.nullable:
                return self._null(rep, out)
            raise _Decline
        if self.aunion:
            out.append(2)
        get = value.get
        matched = 0
        for name, walk, missing_cols, missing_avro in self.members:
            child = get(name, _MISSING)
            if child is _MISSING:
                if missing_avro is None:
                    raise _Decline  # missing required field
                for add_rep, add_def, level in missing_cols:
                    add_rep(rep)
                    add_def(level)
                out += missing_avro
            else:
                matched += 1
                walk(child, rep, out)
        if matched != len(value):
            raise _Decline  # a key the schema does not know

    def scan(self, text, pos, rep, out) -> int:
        if not self.deep:
            return _Op.scan(self, text, pos, rep, out)
        if not text.startswith("{", pos):
            if self.nullable and text.startswith("null", pos):
                self._null(rep, out)
                return pos + 4
            raise _Decline
        if self.aunion:
            out.append(2)
        # Members arrive in document order but Avro wants schema order:
        # each member encodes into its own buffer, joined at the end.
        parts = {}
        by_name = self.by_name
        m = _MEMBER_FIRST.match(text, pos + 1)
        while m is not None and m.group(2) is None:
            name = m.group(1)
            if "\\" in name:
                name = c_scan_once(text, m.start(1) - 1)[0]
            fld = by_name.get(name)
            if fld is None or name in parts:
                # Unknown field (DOM: TranslationError naming the path)
                # or duplicate key (DOM: last wins, but the first
                # occurrence already emitted) — delegate.
                raise _Decline
            part = parts[name] = bytearray()
            m = _MEMBER_NEXT.match(text, fld.op.scan(text, m.end(), rep, part))
        if m is None:
            raise _Decline
        for fld in self.fields:
            part = parts.get(fld.name)
            if part is not None:
                out += part
                continue
            if fld.missing_avro is None:
                raise _Decline  # missing required field
            for add_rep, add_def, level in fld.missing_cols:
                add_rep(rep)
                add_def(level)
            out += fld.missing_avro
        return m.end()


class _ListOp(_Op):
    """A repeated position: element op plus the empty-list emissions."""

    __slots__ = ("element", "cont_rep", "empty_cols", "aunion")

    def __init__(self, element, cont_rep, empty_cols, aunion):
        self.deep = element.deep
        self.element = element
        self.cont_rep = cont_rep
        self.empty_cols = empty_cols
        self.aunion = aunion

    def _empty(self, rep, out) -> None:
        for add_rep, add_def, level in self.empty_cols:
            add_rep(rep)
            add_def(level)
        out.append(0)  # an empty array is just the terminator block

    def walk(self, value, rep, out) -> None:
        if value.__class__ is not list:
            raise _Decline
        if self.aunion:
            out.append(2)
        if not value:
            return self._empty(rep, out)
        _write_long(out, len(value))
        walk = self.element.walk
        cont = self.cont_rep
        for item in value:
            walk(item, rep, out)
            rep = cont
        out.append(0)

    def scan(self, text, pos, rep, out) -> int:
        if not self.deep:
            return _Op.scan(self, text, pos, rep, out)
        if not text.startswith("[", pos):
            raise _Decline
        if self.aunion:
            out.append(2)
        m = _ARRAY_EMPTY.match(text, pos + 1)
        if m is not None:
            self._empty(rep, out)
            return m.end()
        # The count block precedes the items: buffer them.
        items = bytearray()
        count = 0
        scan = self.element.scan
        cont = self.cont_rep
        pos = _WS_RUN.match(text, pos + 1).end()
        while True:
            m = _ELEMENT_NEXT.match(text, scan(text, pos, rep, items))
            if m is None:
                raise _Decline
            count += 1
            rep = cont
            if m.group(1) is not None:
                break
            pos = m.end()
        _write_long(out, count)
        out += items
        out.append(0)
        return m.end()


def compile_column_program(
    resolution: Resolution, pnode: PNode, aschema, columns: dict
):
    """Fuse a resolution with its compiled Parquet/Avro schemas.

    ``pnode``/``aschema`` must be the compiled trees of
    ``resolution.resolved`` and ``columns`` the Shredder's path→Column
    dict over ``pnode`` — the three walks happen in lockstep, so every
    op lands on the exact Column object the DOM shredder would feed.
    Raises :class:`TranslationError` on any shape the resolver never
    produces (callers treat that as "use the DOM engine").
    """
    return _compile_op(resolution.plan, pnode, aschema, columns, "", 0)


def _compile_op(plan, pnode, anode, columns, path, deflevel):
    aunion = False
    if anode.__class__ is avro.AUnion:
        if not avro._is_optional_union(anode):
            raise TranslationError(
                f"union at {path or '<root>'} is not union[null, T]"
            )
        aunion = True
        anode = anode.branches[1]
    if plan.__class__ is _Fallback:
        return _FallbackOp(columns[path], aunion)
    pcls = pnode.__class__
    if pcls is PLeaf:
        if pnode.nullable and not aunion:
            raise TranslationError(
                f"nullable leaf at {path or '<root>'} without a null branch"
            )
        if pnode.kind == "empty_object":
            return _EmptyOp(columns[path], pnode.nullable, aunion)
        if pnode.kind == "json":  # pragma: no cover - relabel is post-hoc
            raise TranslationError("json leaves only exist after relabel")
        return _ScalarOp(columns[path], pnode.kind, pnode.nullable, aunion)
    if pcls is PRecord:
        if anode.__class__ is not avro.ARecord or len(anode.fields) != len(
            pnode.fields
        ):
            raise TranslationError(f"schema trees disagree at {path!r}")
        if pnode.nullable and not aunion:
            raise TranslationError(
                f"nullable record at {path or '<root>'} without a null branch"
            )
        children = plan.children if plan.__class__ is RecPlan else {}
        base = deflevel + (1 if pnode.nullable else 0)
        fields = []
        for pf, af in zip(pnode.fields, anode.fields):
            if pf.name != af.name:
                raise TranslationError(f"schema trees disagree at {path!r}")
            child_path = f"{path}.{pf.name}" if path else pf.name
            child = _compile_op(
                children.get(pf.name, CLEAN),
                pf.node,
                af.type,
                columns,
                child_path,
                base + (0 if pf.required else 1),
            )
            if pf.required:
                missing_cols = missing_avro = None
            else:
                missing_cols = _levels(
                    (columns[p], base) for p in leaf_paths(pf.node, child_path)
                )
                missing_avro = avro.missing_field_bytes(af.type)
            fields.append(_FieldOp(pf.name, child, missing_cols, missing_avro))
        null_cols = ()
        if pnode.nullable:
            null_cols = _levels(
                (columns[p], deflevel)
                for pf in pnode.fields
                for p in leaf_paths(
                    pf.node, f"{path}.{pf.name}" if path else pf.name
                )
            )
        return _RecordOp(tuple(fields), pnode.nullable, aunion, null_cols)
    if pcls is PList:
        if anode.__class__ is not avro.AArray:
            raise TranslationError(f"schema trees disagree at {path!r}")
        child_path = f"{path}.[]" if path else "[]"
        item_plan = plan.item if plan.__class__ is ArrPlan else CLEAN
        element = _compile_op(
            item_plan, pnode.element, anode.items, columns, child_path,
            deflevel + 1,
        )
        empty_cols = _levels(
            (columns[p], deflevel) for p in leaf_paths(pnode.element, child_path)
        )
        return _ListOp(element, _rep_of(child_path), empty_cols, aunion)
    raise TranslationError(f"unexpected schema node {pnode!r}")


# --------------------------------------------------------------------------
# the translate machine
# --------------------------------------------------------------------------

# Anything a walk may raise that the DOM path must answer instead: its
# own declines, the C decoder's rejections in the text walk
# (``StopIteration``: no value here; ``ValueError``: a bad token), a
# lone surrogate or an oversized int met before an earlier DOM error.
_DECLINES = (_Decline, StopIteration, ValueError, OverflowError,
             RecursionError)


class StreamTranslator:
    """Translate documents by walking the column program over their
    decoded values, no DOM pass on clean documents.

    Feeds the same :class:`Shredder` and :class:`RowEncoder` state a
    DOM translator would; :meth:`translate_range` decodes one line's
    byte span, appends its Parquet entries, bumps the shredder's row
    count, and returns the encoded Avro row.  Any decline rolls the
    columns back and replays the document through the DOM path —
    result- and error-identical by construction (``delegated`` counts
    those).
    """

    __slots__ = ("program", "shredder", "encoder", "plan", "_lists",
                 "delegated")

    def __init__(
        self, resolution: Resolution, shredder: Shredder, encoder
    ) -> None:
        try:
            self.program = compile_column_program(
                resolution, shredder.schema, encoder.schema, shredder.columns
            )
        except TranslationError:
            # Defensive: a resolved schema the program cannot express.
            # Every document then takes the DOM path — correct, just not
            # fast; the resolver's output shapes all compile today.
            self.program = None
        self.shredder = shredder
        self.encoder = encoder
        self.plan = resolution.plan
        self._lists = [
            lst
            for c in shredder.columns.values()
            for lst in (c.repetition_levels, c.definition_levels, c.values)
        ]
        self.delegated = 0

    def translate_range(self, data, start: int, end: int) -> bytes:
        """Translate the document in ``data[start:end]``; returns its row."""
        text = bytes(data[start:end]).decode("utf-8")
        program = self.program
        if program is None:
            return self._dom(parse(text))
        lists = self._lists
        out = bytearray()
        if not program.deep:
            value = parse(text)
            marks = list(map(len, lists))
            try:
                program.walk(value, 0, out)
            except _DECLINES:
                _roll_back(lists, marks)
                return self._dom(value)
        else:
            if text.count("{") + text.count("[") > _MAX_DEPTH:
                parse(text)  # the nesting limit scan_once does not check
            marks = list(map(len, lists))
            try:
                pos = program.scan(text, _WS_RUN.match(text).end(), 0, out)
                if _WS_RUN.match(text, pos).end() != len(text):
                    raise _Decline  # trailing data (or a number boundary)
            except _DECLINES:
                _roll_back(lists, marks)
                return self._dom(parse(text))
        self.shredder.row_count += 1
        return bytes(out)

    def _dom(self, value) -> bytes:
        """The DOM path for one decoded document — exact results and
        errors."""
        self.delegated += 1
        prepared = textify(value, self.plan)
        self.shredder.add(prepared)
        return self.encoder.encode_row(prepared)


def _roll_back(lists, marks) -> None:
    """Drop what a declined document appended to the columns."""
    for lst, mark in zip(lists, marks):
        del lst[mark:]

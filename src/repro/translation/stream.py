"""DOM-free translation: the shredder and row encoder driven straight
from the byte stream.

The last materialisation in the corpus→artifact path was the translate
pass itself: ``translate_report_path`` built one DOM per document (via
the Fad.js-style speculative decoder), textified it, and walked it twice
more — once for the Parquet shredder, once for the Avro row encoder.
This module removes all three walks.  A :class:`Resolution` (resolved
type + textify plan) is compiled *together with* the ``PNode`` and
``AvroSchema`` trees into one fused **column program**: a tree of small
op objects, one per schema position, each carrying

- the position's :class:`~repro.translation.parquet.Column` plus its
  *static* definition levels (max, null, and the precompiled
  ``(column, level)`` emission lists for absent fields / null records /
  empty lists — ``_emit_missing`` flattened at compile time);
- the position's Avro framing (is it wrapped in the resolver's
  ``union[null, T]``; the precomputed bytes an absent optional field
  writes, via :func:`~repro.translation.avro.missing_field_bytes`).

:class:`StreamTranslator` then walks each document's **byte range** with
compiled regex scans built from the lexer's shared fragments: one
fused match per record member / array element, Parquet ``(rep, def,
value)`` entries appended directly to the columns, Avro bytes emitted
as the walk goes.  String values without escapes are written to the
row **as the raw body bytes** (already UTF-8); numbers convert straight
from the byte slice.

Two ordering facts make the single walk sound:

- Parquet column entry order is invariant under record key order — each
  column is fed only by its own path, and multiple entries per row come
  only from arrays, in element order — so entries append in document
  order;
- Avro record fields are written in *schema* order (``RecType`` fields
  sort by name) while documents arrive in insertion order, so each
  record op buffers its members' encoded fragments in a reusable
  scratch buffer and flushes them in schema order at the closing brace.

**Fallback (JSON-text) subtrees capture the raw line slice verbatim** —
the byte-range walk gives the subtree's exact source bytes, where the
DOM path re-serialises the parsed value.  On serializer-canonical
corpora (lines produced by :func:`~repro.jsonvalue.serializer.dumps`,
which is compositional) the two are byte-identical — the differential
tier pins this; on non-canonical spellings (``\\uXXXX`` escapes,
``1e3``, interior whitespace) the stream engine preserves the source
spelling, which is the more faithful artifact.

Anything the structural walk cannot prove — unknown or duplicate keys,
missing required fields, type mismatches, malformed syntax, bad UTF-8,
schema nesting beyond the recursion budget — raises the internal
``_Decline``: the document's column entries are rolled back (each
column's lengths were marked at document start) and the **whole
document delegates to the existing DOM path** (speculative decode →
textify → ``Shredder.add`` → ``RowEncoder.encode_row``), which owns the
exact result and error behaviour.  Declines are per-document, so a
poisoned line never degrades its neighbours.
"""

from __future__ import annotations

import re
import struct

from repro.errors import TranslationError
from repro.jsonvalue.lexer import (
    FULL_STRING_BODY_PATTERN_BYTES,
    INT_PATTERN_BYTES,
    NUMBER_TAIL_PATTERN_BYTES,
    WHITESPACE_PATTERN_BYTES,
    _Scanner,
)
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


class _Decline(Exception):
    """Internal: this document cannot be stream-translated; delegate."""

    __slots__ = ()


# --------------------------------------------------------------------------
# compiled scans
#
# One value alternation, shared by every context.  Relative groups:
# +1 string body, +2 number int part, +3 number tail (always set when +2
# is — possibly empty; non-empty makes the literal a float), +4
# true/false, +5 null, +6 "{", +7 "[".  Member patterns prefix a key
# (group 1) so one match covers ``"key": <scalar-or-opener>``; the
# close brace/bracket rides the same pattern as the trailing group, so
# the walk makes exactly one regex match per member / element.  Number
# boundary errors ("01", "1.5.5", "1e+") need no explicit check: the
# maximal match leaves the offending byte in place and the *next* match
# (separator or end-of-line) fails on it, declining the document.
# --------------------------------------------------------------------------

_WS = WHITESPACE_PATTERN_BYTES
_VALUE_CORE = (
    b'"(' + FULL_STRING_BODY_PATTERN_BYTES + b')"'
    + b"|(" + INT_PATTERN_BYTES + b")(" + NUMBER_TAIL_PATTERN_BYTES + b")"
    + b"|(true|false)|(null)"
    + rb"|(\{)|(\[)"
)
_KEY = b'"(' + FULL_STRING_BODY_PATTERN_BYTES + b')"' + _WS + b":" + _WS

_V_ROOT = re.compile(_WS + b"(?:" + _VALUE_CORE + b")")
_M_FIRST = re.compile(_WS + b"(?:" + _KEY + b"(?:" + _VALUE_CORE + rb")|(\}))")
_M_NEXT = re.compile(
    _WS + b"(?:," + _WS + _KEY + b"(?:" + _VALUE_CORE + rb")|(\}))"
)
_E_FIRST = re.compile(_WS + b"(?:" + _VALUE_CORE + rb"|(\]))")
_E_NEXT = re.compile(_WS + b"(?:," + _WS + b"(?:" + _VALUE_CORE + rb")|(\]))")
_M_CLOSE = 9  # close-brace group in _M_FIRST/_M_NEXT (key shifts by 1)
_E_CLOSE = 8  # close-bracket group in _E_FIRST/_E_NEXT

_WS_RUN = re.compile(_WS)
_CLOSE_BRACE = re.compile(_WS + rb"\}")

# Fallback subtrees: a validating skip over one container (full string/
# number/literal grammar, comma/colon structure) finds the raw-slice
# extent without building a value.  Depth-capped: deeper documents
# delegate so the parser's own nesting error surfaces.
_SK_VALUE = _V_ROOT
_SK_OBJ_ENTRY = re.compile(_WS + rb"(?:(\})|" + _KEY + b")")
_SK_OBJ_NEXT = re.compile(_WS + rb"(?:(\})|," + _WS + _KEY + b")")
_SK_ARR_CLOSE = re.compile(_WS + rb"\]")
_SK_ARR_NEXT = re.compile(_WS + rb"(?:(\])|,)")
_SKIP_MAX_DEPTH = 512


def _skip_value(data, pos: int, end: int, depth: int = 0) -> int:
    """Validating scan over one JSON value at ``pos``; returns its end.

    Grammar-exact for structure and token lexemes (UTF-8 validity is the
    caller's decode); any mismatch or over-deep nesting declines.
    """
    if depth > _SKIP_MAX_DEPTH:
        raise _Decline
    m = _SK_VALUE.match(data, pos, end)
    if m is None:
        raise _Decline
    if m.group(6) is not None:  # {
        m2 = _SK_OBJ_ENTRY.match(data, m.end(), end)
        if m2 is None:
            raise _Decline
        while m2.group(1) is None:
            pos = _skip_value(data, m2.end(), end, depth + 1)
            m2 = _SK_OBJ_NEXT.match(data, pos, end)
            if m2 is None:
                raise _Decline
        return m2.end()
    if m.group(7) is not None:  # [
        pos = m.end()
        mc = _SK_ARR_CLOSE.match(data, pos, end)
        if mc is not None:
            return mc.end()
        while True:
            pos = _skip_value(data, pos, end, depth + 1)
            m2 = _SK_ARR_NEXT.match(data, pos, end)
            if m2 is None:
                raise _Decline
            if m2.group(1) is not None:
                return m2.end()
            pos = m2.end()
    return m.end()  # scalar


# --------------------------------------------------------------------------
# the column program
# --------------------------------------------------------------------------


class _ScalarOp:
    """A typed leaf: one column, one Avro primitive."""

    __slots__ = ("column", "kind", "nullable", "max_def", "null_def", "aunion")

    def __init__(self, column, kind, nullable, aunion):
        self.column = column
        self.kind = kind  # bool | long | double | string | null
        self.nullable = nullable
        self.max_def = column.max_definition
        self.null_def = column.max_definition - 1
        self.aunion = aunion  # wrapped in union[null, T]


class _EmptyOp:
    """The ``empty_object`` marker leaf (a field-less record)."""

    __slots__ = ("column", "nullable", "max_def", "null_def", "aunion")

    def __init__(self, column, nullable, aunion):
        self.column = column
        self.nullable = nullable
        self.max_def = column.max_definition
        self.null_def = column.max_definition - 1
        self.aunion = aunion


class _FallbackOp:
    """A JSON-text escape-hatch leaf: the raw subtree slice, verbatim."""

    __slots__ = ("column", "max_def", "aunion")

    def __init__(self, column, aunion):
        self.column = column
        self.max_def = column.max_definition
        self.aunion = aunion


class _FieldOp:
    """One record field: the child op plus precompiled absence handling."""

    __slots__ = ("name", "op", "missing_cols", "missing_avro")

    def __init__(self, name, op, missing_cols, missing_avro):
        self.name = name
        self.op = op
        # None for required fields (absence declines → DOM error);
        # otherwise the (column, def_level) entries _emit_missing would
        # produce and the bytes RowEncoder._emit would write.
        self.missing_cols = missing_cols
        self.missing_avro = missing_avro


class _RecordOp:
    """A record position: fields in schema order, members in any order."""

    __slots__ = ("fields", "by_name", "nullable", "aunion", "null_cols",
                 "scratch", "spans")

    def __init__(self, fields, nullable, aunion, null_cols):
        self.fields = fields
        self.by_name = {f.name: f for f in fields}
        self.nullable = nullable
        self.aunion = aunion
        self.null_cols = null_cols  # emissions for an explicit null record
        # Members arrive in document order but Avro wants schema order:
        # fragments buffer here and flush at the closing brace.  Ops are
        # position-specific and never re-entered before closing (types
        # are finite trees), so one scratch per op suffices.
        self.scratch = bytearray()
        self.spans = {}


class _ListOp:
    """A repeated position: element op plus the empty-list emissions."""

    __slots__ = ("element", "cont_rep", "empty_cols", "aunion", "scratch")

    def __init__(self, element, cont_rep, empty_cols, aunion):
        self.element = element
        self.cont_rep = cont_rep
        self.empty_cols = empty_cols
        self.aunion = aunion
        self.scratch = bytearray()  # buffers the Avro count block's items


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
                missing_cols = tuple(
                    (columns[p], base) for p in leaf_paths(pf.node, child_path)
                )
                missing_avro = avro.missing_field_bytes(af.type)
            fields.append(_FieldOp(pf.name, child, missing_cols, missing_avro))
        null_cols = ()
        if pnode.nullable:
            null_cols = tuple(
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
        empty_cols = tuple(
            (columns[p], deflevel) for p in leaf_paths(pnode.element, child_path)
        )
        return _ListOp(element, _rep_of(child_path), empty_cols, aunion)
    raise TranslationError(f"unexpected schema node {pnode!r}")


# --------------------------------------------------------------------------
# the translate machine
# --------------------------------------------------------------------------

_MISSING = object()


class StreamTranslator:
    """Translate documents from raw byte ranges, no DOM on clean paths.

    Feeds the same :class:`Shredder` and :class:`RowEncoder` state the
    DOM loop would; :meth:`translate_range` walks one line's byte span,
    appends its Parquet entries, bumps the shredder's row count, and
    returns the encoded Avro row.  Any decline rolls the columns back
    and replays the document through the DOM path — result- and
    error-identical by construction (``delegated`` counts those).
    """

    __slots__ = ("program", "shredder", "encoder", "plan", "_decoder",
                 "_keys", "_columns", "delegated")

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
        self._decoder = None  # built on first delegation
        self._keys: dict = {}
        self._columns = list(shredder.columns.values())
        self.delegated = 0

    def translate_range(self, data, start: int, end: int) -> bytes:
        """Translate the document in ``data[start:end]``; returns its row."""
        if self.program is None:
            return self._delegate(data, start, end)
        columns = self._columns
        marks = [(len(c.repetition_levels), len(c.values)) for c in columns]
        out = bytearray()
        try:
            m = _V_ROOT.match(data, start, end)
            if m is None:
                raise _Decline
            pos = self._value(self.program, m, 0, data, end, 0, out)
            if _WS_RUN.match(data, pos, end).end() != end:
                raise _Decline  # trailing garbage (or a number boundary)
        except (_Decline, UnicodeDecodeError, UnicodeEncodeError,
                RecursionError):
            for column, (levels, values) in zip(columns, marks):
                del column.repetition_levels[levels:]
                del column.definition_levels[levels:]
                del column.values[values:]
            return self._delegate(data, start, end)
        self.shredder.row_count += 1
        return bytes(out)

    def _delegate(self, data, start: int, end: int) -> bytes:
        """The DOM path for one document — exact results, exact errors."""
        if self._decoder is None:
            from repro.parsing.fadjs import SpeculativeDecoder

            self._decoder = SpeculativeDecoder()
        self.delegated += 1
        text = bytes(data[start:end]).decode("utf-8")
        prepared = textify(self._decoder.decode(text), self.plan)
        self.shredder.add(prepared)
        return self.encoder.encode_row(prepared)

    # -- the walk ----------------------------------------------------------

    def _value(self, op, m, base, data, end, rep, out) -> int:
        """Emit the value whose match is ``m`` (groups offset by
        ``base``); returns the scan position after the value."""
        cls = op.__class__
        if cls is _ScalarOp:
            kind = op.kind
            if kind == "string":
                body = m.group(base + 1)
                if body is None:
                    return self._null(op, m, base, rep, out)
                if b"\\" in body:
                    value = _Scanner(
                        '"' + body.decode("utf-8") + '"'
                    ).scan_string().value
                    raw = value.encode("utf-8")
                else:
                    value = body.decode("utf-8")
                    raw = body
                column = op.column
                column.repetition_levels.append(rep)
                column.definition_levels.append(op.max_def)
                column.values.append(value)
                if op.aunion:
                    out.append(2)
                avro._write_long(out, len(raw))
                out += raw
                return m.end()
            if kind == "long":
                digits = m.group(base + 2)
                if digits is None or m.start(base + 3) != m.end(base + 3):
                    return self._null(op, m, base, rep, out)
                value = int(digits)
                column = op.column
                column.repetition_levels.append(rep)
                column.definition_levels.append(op.max_def)
                column.values.append(value)
                if op.aunion:
                    out.append(2)
                avro._write_long(out, value)
                return m.end()
            if kind == "double":
                digits = m.group(base + 2)
                if digits is None:
                    return self._null(op, m, base, rep, out)
                tail = m.group(base + 3)
                # int spellings keep int column values (DOM parity).
                value = int(digits) if not tail else float(digits + tail)
                column = op.column
                column.repetition_levels.append(rep)
                column.definition_levels.append(op.max_def)
                column.values.append(value)
                if op.aunion:
                    out.append(2)
                out += _PACK_DOUBLE(float(value))
                return m.end()
            if kind == "bool":
                literal = m.group(base + 4)
                if literal is None:
                    return self._null(op, m, base, rep, out)
                value = literal == b"true"
                column = op.column
                column.repetition_levels.append(rep)
                column.definition_levels.append(op.max_def)
                column.values.append(value)
                if op.aunion:
                    out.append(2)
                out.append(1 if value else 0)
                return m.end()
            # kind == "null": matches only the null literal; the column
            # stores no value and Avro null is zero bytes.
            if m.group(base + 5) is None:
                raise _Decline
            column = op.column
            column.repetition_levels.append(rep)
            column.definition_levels.append(op.max_def)
            if op.aunion:
                out.append(2)
            return m.end()
        if cls is _RecordOp:
            if m.group(base + 6) is not None:
                if op.aunion:
                    out.append(2)
                return self._record(op, data, m.end(), end, rep, out)
            if m.group(base + 5) is not None and op.nullable:
                for column, level in op.null_cols:
                    column.repetition_levels.append(rep)
                    column.definition_levels.append(level)
                out.append(0)  # nullable records are always union-wrapped
                return m.end()
            raise _Decline
        if cls is _ListOp:
            if m.group(base + 7) is None:
                raise _Decline
            if op.aunion:
                out.append(2)
            return self._list(op, data, m.end(), end, rep, out)
        if cls is _FallbackOp:
            return self._fallback(op, m, base, data, end, rep, out)
        # _EmptyOp
        if m.group(base + 6) is not None:
            close = _CLOSE_BRACE.match(data, m.end(), end)
            if close is None:
                raise _Decline
            column = op.column
            column.repetition_levels.append(rep)
            column.definition_levels.append(op.max_def)
            if op.aunion:
                out.append(2)  # ARecord with no fields: zero body bytes
            return close.end()
        if m.group(base + 5) is not None and op.nullable:
            column = op.column
            column.repetition_levels.append(rep)
            column.definition_levels.append(op.null_def)
            out.append(0)
            return m.end()
        raise _Decline

    def _null(self, op, m, base, rep, out) -> int:
        """An explicit null at a (necessarily nullable) scalar leaf."""
        if m.group(base + 5) is None or not op.nullable:
            raise _Decline
        column = op.column
        column.repetition_levels.append(rep)
        column.definition_levels.append(op.null_def)
        out.append(0)  # nullable leaves are always union-wrapped
        return m.end()

    def _fallback(self, op, m, base, data, end, rep, out) -> int:
        group = m.group
        if group(base + 1) is not None:  # string: include the quotes
            vstart, vend = m.start(base + 1) - 1, m.end(base + 1) + 1
            pos = m.end()
        elif group(base + 2) is not None:
            vstart, vend = m.start(base + 2), m.end(base + 3)
            pos = m.end()
        elif group(base + 4) is not None:
            vstart, vend = m.span(base + 4)
            pos = m.end()
        elif group(base + 5) is not None:
            vstart, vend = m.span(base + 5)
            pos = m.end()
        else:  # container: a validating skip finds the raw extent
            vstart = m.start(base + 6) if group(base + 6) is not None else (
                m.start(base + 7)
            )
            vend = pos = _skip_value(data, vstart, end)
        raw = bytes(data[vstart:vend])
        value = raw.decode("utf-8")
        column = op.column
        column.repetition_levels.append(rep)
        column.definition_levels.append(op.max_def)
        column.values.append(value)
        if op.aunion:
            out.append(2)
        avro._write_long(out, len(raw))
        out += raw
        return pos

    def _record(self, op, data, pos, end, rep, out) -> int:
        m = _M_FIRST.match(data, pos, end)
        if m is None:
            raise _Decline
        scratch = op.scratch
        spans = op.spans
        scratch.clear()
        spans.clear()
        if m.group(_M_CLOSE) is None:
            by_name = op.by_name
            keys = self._keys
            while True:
                raw = m.group(1)
                name = keys.get(raw, _MISSING)
                if name is _MISSING:
                    if b"\\" in raw:
                        name = _Scanner(
                            '"' + raw.decode("utf-8") + '"'
                        ).scan_string().value
                    else:
                        name = raw.decode("utf-8")
                    keys[bytes(raw)] = name
                fld = by_name.get(name)
                if fld is None or name in spans:
                    # Unknown field (DOM: TranslationError naming the
                    # path) or duplicate key (DOM: last wins, but our
                    # first occurrence already emitted) — delegate.
                    raise _Decline
                mark = len(scratch)
                pos = self._value(fld.op, m, 1, data, end, rep, scratch)
                spans[name] = (mark, len(scratch))
                m = _M_NEXT.match(data, pos, end)
                if m is None:
                    raise _Decline
                if m.group(_M_CLOSE) is not None:
                    break
        pos = m.end()
        get = spans.get
        for fld in op.fields:
            span = get(fld.name)
            if span is None:
                fragment = fld.missing_avro
                if fragment is None:
                    raise _Decline  # missing required field
                for column, level in fld.missing_cols:
                    column.repetition_levels.append(rep)
                    column.definition_levels.append(level)
                out += fragment
            else:
                out += scratch[span[0] : span[1]]
        return pos

    def _list(self, op, data, pos, end, rep, out) -> int:
        m = _E_FIRST.match(data, pos, end)
        if m is None:
            raise _Decline
        if m.group(_E_CLOSE) is not None:
            for column, level in op.empty_cols:
                column.repetition_levels.append(rep)
                column.definition_levels.append(level)
            out.append(0)  # an empty array is just the terminator block
            return m.end()
        scratch = op.scratch
        scratch.clear()
        element = op.element
        erep = rep
        cont = op.cont_rep
        count = 0
        while True:
            pos = self._value(element, m, 0, data, end, erep, scratch)
            count += 1
            erep = cont
            m = _E_NEXT.match(data, pos, end)
            if m is None:
                raise _Decline
            if m.group(_E_CLOSE) is not None:
                break
        avro._write_long(out, count)
        out += scratch
        out.append(0)
        return m.end()

"""Mapping JSON values to their exact types (the *map* phase of inference).

``type_of`` computes the most precise type of a single value in this
algebra: records list every present field as required; arrays abstract
their elements by the union of the element types (the abstraction step the
EDBT '17 paper applies at arrays, since arrays are homogeneous-ish in
practice and element positions are not tracked).

``type_of_interned`` / :class:`TypeEncoder` are the *fused* map phase:
they construct canonical interned terms directly against an
:class:`~repro.types.intern.InternTable` — probe-first, bottom-up, with
an explicit stack instead of recursion — so typing a document the table
has seen the shape of before allocates nothing and never builds the raw
tree that ``intern(type_of(value))`` would throw away.  The composition
law ``type_of_interned(v) is intern(type_of(v))`` is pinned by the
differential property tests in ``tests/test_build_fused_differential.py``.

:class:`EventTypeEncoder` extends the fused map phase to *text*
(:meth:`EventTypeEncoder.encode_text`; UTF-8 bytes decode first,
:meth:`EventTypeEncoder.encode_bytes`; NDJSON line batches,
:meth:`EventTypeEncoder.encode_lines`): the stdlib C decoder behind
:func:`repro.jsonvalue.parser.parse` turns the text into a value, and
:meth:`TypeEncoder.encode` walks it.  Errors come from ``parse``, so
the text and DOM paths fail identically.  That front end is
:class:`TextFrontEnd`, shared with the counted map phase.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.jsonvalue.model import JsonKind, is_integer_value, kind_of
from repro.jsonvalue.parser import DEFAULT_OPTIONS, ParseOptions, parse
from repro.types.intern import InternTable, global_table
from repro.types.simplify import union
from repro.types.terms import (
    ArrType,
    BOOL,
    BOT,
    FLT,
    FieldType,
    INT,
    NULL,
    RecType,
    STR,
    Type,
)


def type_of(value: Any) -> Type:
    """Return the exact type of ``value``.

    - scalars map to their atom (ints to ``Int``, floats to ``Flt``);
    - objects map to a record with every field required;
    - arrays map to ``[T1 + ... + Tn]`` over the element types, with the
      empty array mapping to ``[Bot]``.
    """
    kind = kind_of(value)
    if kind is JsonKind.NULL:
        return NULL
    if kind is JsonKind.BOOLEAN:
        return BOOL
    if kind is JsonKind.NUMBER:
        return INT if is_integer_value(value) else FLT
    if kind is JsonKind.STRING:
        return STR
    if kind is JsonKind.ARRAY:
        if not value:
            return ArrType(BOT)
        return ArrType(union(type_of(v) for v in value))
    # Object.
    return RecType(
        tuple(FieldType(name, type_of(v), required=True) for name, v in value.items())
    )


class TypeEncoder:
    """Fused map phase: one JSON value → its canonical interned type.

    Equivalent to ``table.intern(type_of(value))`` but:

    - **recursion-free** — containers are traversed with an explicit
      frame stack, so arbitrarily deep documents encode without touching
      Python's recursion limit (the seed ``type_of`` cannot);
    - **probe-first** — every node is looked up in the intern table by
      child identity before anything is allocated, so repeated structure
      costs dictionary probes only;
    - **shape-cached** — every closing container is resolved through a
      per-encoder cache keyed on its child signature (field names and
      canonical child identities for records, member identities for
      arrays), so the repeated record shapes that dominate real
      collections skip even the per-field intern probes and the
      field-sort of record construction.

    The shape caches are the *per-batch* caches: private to the encoder
    instance and rebound automatically when the backing table starts a
    new epoch (:meth:`InternTable.clear`), so stale canonical nodes can
    never leak across a clear.
    """

    __slots__ = (
        "table",
        "_epoch",
        "_scalars",
        "_null",
        "_bool",
        "_int",
        "_flt",
        "_str",
        "_empty_arr",
        "_rec_cache",
        "_arr_cache",
    )

    def __init__(self, table: Optional[InternTable] = None) -> None:
        self.table = table if table is not None else global_table()
        self._rebind()

    def _rebind(self) -> None:
        """(Re)acquire canonical leaves for the table's current epoch."""
        table = self.table
        self._epoch = table.epoch()
        self._null = table.intern(NULL)
        self._bool = table.intern(BOOL)
        self._int = table.intern(INT)
        self._flt = table.intern(FLT)
        self._str = table.intern(STR)
        self._empty_arr = table.arr_of(table.intern(BOT))
        # Exact-type scalar dispatch.  type() distinguishes bool from int
        # (bool cannot be subclassed), so this is the whole kind_of chain
        # in one dictionary probe; scalar *subclasses* fall through to
        # _scalar_slow.
        self._scalars = {
            type(None): self._null,
            bool: self._bool,
            int: self._int,
            float: self._flt,
            str: self._str,
        }
        self._rec_cache: dict = {}
        self._arr_cache: dict = {}

    # ------------------------------------------------------------------

    def _scalar_slow(self, value: Any) -> Optional[Type]:
        """Classify values whose exact type missed the dispatch table.

        Returns the canonical atom for scalar subclasses, ``None`` for
        dict/list (subclasses included), and raises the same ``TypeError``
        as :func:`repro.jsonvalue.model.kind_of` for non-JSON values.
        """
        if isinstance(value, (dict, list)):
            return None
        kind = kind_of(value)
        if kind is JsonKind.NULL:
            return self._null
        if kind is JsonKind.BOOLEAN:
            return self._bool
        if kind is JsonKind.NUMBER:
            return self._int if is_integer_value(value) else self._flt
        return self._str

    def _open(self, value: Any):
        """Start encoding a container: a frame, or the finished type.

        Frames are plain lists ``[is_object, iterator, key parts,
        child types, pending name]`` — anything that is *not* a list is
        an already-canonical result (empty arrays resolve immediately).
        Key parts accumulate the container's shape signature — alternating
        field name / canonical child id for records, child ids for arrays
        — which the close step probes against the shape caches before
        constructing anything.
        """
        if isinstance(value, dict):
            return [True, iter(value.items()), [], [], None]
        if not value:
            return self._empty_arr
        return [False, iter(value), [], [], None]

    def _child(self, value: Any):
        """A non-atom child: a frame (list), or its finished type.

        Exact ``dict`` and ``list`` — everything a decoder produces —
        open without the subclass checks; anything else takes
        :meth:`_scalar_slow` and :meth:`_open`.
        """
        cls = type(value)
        if cls is dict:
            return [True, iter(value.items()), [], [], None]
        if cls is list:
            return [False, iter(value), [], [], None] if value else self._empty_arr
        atom = self._scalar_slow(value)
        return atom if atom is not None else self._open(value)

    def encode(self, value: Any) -> Type:
        """The canonical interned type of ``value``.

        Identical (by object identity) to ``table.intern(type_of(value))``.
        """
        table = self.table
        if table.epoch() is not self._epoch:
            self._rebind()
        scalars = self._scalars
        atom = scalars.get(type(value))
        if atom is None:
            atom = self._scalar_slow(value)
        if atom is not None:
            return atom
        opened = self._open(value)
        if opened.__class__ is not list:
            return opened
        child_of = self._child
        stack = [opened]
        result: Optional[Type] = None
        while stack:
            frame = stack[-1]
            keyparts = frame[2]
            ctypes = frame[3]
            pushed = False
            if frame[0]:
                for name, v in frame[1]:
                    atom = scalars.get(type(v))
                    if atom is None:
                        atom = child_of(v)
                        if atom.__class__ is list:
                            frame[4] = name
                            stack.append(atom)
                            pushed = True
                            break
                    keyparts.append(name)
                    keyparts.append(id(atom))
                    ctypes.append(atom)
                if pushed:
                    continue
                key = tuple(keyparts)
                done = self._rec_cache.get(key)
                if done is None:
                    field_of = table.field_of
                    done = table.rec_of(
                        [field_of(n, t) for n, t in zip(keyparts[0::2], ctypes)]
                    )
                    self._rec_cache[key] = done
            else:
                for v in frame[1]:
                    atom = scalars.get(type(v))
                    if atom is None:
                        atom = child_of(v)
                        if atom.__class__ is list:
                            stack.append(atom)
                            pushed = True
                            break
                    keyparts.append(id(atom))
                    ctypes.append(atom)
                if pushed:
                    continue
                key = tuple(keyparts)
                done = self._arr_cache.get(key)
                if done is None:
                    done = table.arr_of(table.union_of(ctypes))
                    self._arr_cache[key] = done
            stack.pop()
            if stack:
                parent = stack[-1]
                if parent[0]:
                    parent[2].append(parent[4])
                    parent[2].append(id(done))
                    parent[3].append(done)
                    parent[4] = None
                else:
                    parent[2].append(id(done))
                    parent[3].append(done)
            else:
                result = done
        assert result is not None
        return result


class TextFrontEnd:
    """JSON text in, ``self.encode`` of the decoded value out; a subclass
    supplies only ``encode``.

    Every document is decoded by :func:`repro.jsonvalue.parser.parse` —
    the stdlib C decoder, with the token parser behind it as the one
    source of errors — so malformed text raises exactly what ``parse``
    raises (same class, message and offset).
    """

    __slots__ = ()

    def encode_text(self, text: str, *, max_depth: int = 512):
        """The encoding of one JSON text."""
        return self.encode(parse(text, _options(max_depth)))

    def encode_bytes(
        self,
        data,
        start: int = 0,
        end: Optional[int] = None,
        *,
        max_depth: int = 512,
    ):
        """The encoding of one JSON document held as UTF-8 bytes:
        ``encode_text(str(memoryview(data)[start:end], "utf-8"),
        max_depth=max_depth)``.

        ``data`` is anything the buffer protocol covers: ``bytes``, an
        ``mmap.mmap``, a ``memoryview``.  Undecodable input raises the
        decode's ``UnicodeDecodeError``; malformed JSON raises the
        parser's exact error, with character offsets relative to
        ``start``.
        """
        return self.encode_text(
            str(memoryview(data)[start:end], "utf-8"), max_depth=max_depth
        )

    def encode_lines(self, lines, *, max_depth: int = 512) -> list:
        """Encodings of a batch of raw NDJSON lines.

        ``lines`` is a sequence of ``bytes``, one non-blank JSON document
        each; the result list is aligned with it.  Exactly
        ``[encode_bytes(line) for line in lines]``: same results, same
        errors, raised at the first failing line.
        """
        options = _options(max_depth)
        encode = self.encode
        return [encode(parse(line.decode("utf-8"), options)) for line in lines]


class EventTypeEncoder(TypeEncoder, TextFrontEnd):
    """The fused map phase over JSON text: text → canonical type, by
    object identity the node ``table.intern(type_of(parse(text)))``
    names (duplicate keys last-wins, as the parser's default)."""

    __slots__ = ()

    @property
    def line_cache_stats(self) -> tuple:
        """``(attempts, hits, enabled)`` of a line-shape cache: always
        ``(0, 0, False)``, because typing through the C decoder needs none."""
        return 0, 0, False


def _options(max_depth: int) -> ParseOptions:
    """Parse options with the given nesting limit (defaults otherwise)."""
    if max_depth == DEFAULT_OPTIONS.max_depth:
        return DEFAULT_OPTIONS
    return ParseOptions(max_depth=max_depth)


_DEFAULT_ENCODER: Optional[TypeEncoder] = None


def type_of_interned(value: Any, table: Optional[InternTable] = None) -> Type:
    """The canonical interned type of ``value`` — ``intern(type_of(value))``
    fused into one probe-first, recursion-free pass.

    With no ``table`` this uses a process-wide encoder bound to the
    global intern table; pass an explicit table to keep workloads
    isolated (a fresh encoder per call — hold a :class:`TypeEncoder`
    yourself for batch work against a private table).
    """
    global _DEFAULT_ENCODER
    if table is None or table is global_table():
        encoder = _DEFAULT_ENCODER
        if encoder is None:
            encoder = _DEFAULT_ENCODER = TypeEncoder(global_table())
        return encoder.encode(value)
    return TypeEncoder(table).encode(value)

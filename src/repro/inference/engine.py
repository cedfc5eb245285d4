"""Incremental inference engine: a streaming merge monoid.

The parametric merge of Baazizi et al. is an associative, commutative
monoid — the very property that lets the papers run the reduce phase as
per-partition Spark combiners.  The seed code did not exploit it on one
machine: ``infer_type`` materialized every per-document type in a list
and re-simplified the whole union on each ``merge_all``.

:class:`TypeAccumulator` is the monoid made operational.  It maintains
the *fused equivalence-class map* of ``merge_all`` online — one canonical
representative per equivalence class — so its memory is O(classes), not
O(documents).  Each batch of typed lines is absorbed in one n-ary merge
pass (:meth:`repro.types.intern.InternTable.fuse_into`) over the
batch's distinct, not-yet-seen types and the representatives of the
classes they touch; a batch with nothing new is a set probe per line.

Laws (property-tested in ``tests/test_engine_properties.py``):

- ``result()`` is structurally identical to the seed
  ``merge_all(types, equivalence)`` for every ordering and chunking of
  the inputs;
- ``combine`` is associative and commutative up to that same result;
- the empty accumulator is the identity (``result() == BOT``).

:class:`CountingAccumulator` puts the counting-types algebra
(:mod:`repro.inference.counting`) on the same batch surface, one n-ary
``merge_counted`` per batch, so the line loops below
(:func:`accumulate_lines`, :class:`RangeFolder`) fold either algebra.
"""

from __future__ import annotations

import re
from json import JSONDecodeError
from typing import Any, Hashable, Iterable, Optional, Sequence

from repro.errors import InferenceError
from repro.jsonvalue.lexer import WHITESPACE_PATTERN, WHITESPACE_PATTERN_BYTES
from repro.jsonvalue.parser import c_scan_once, nesting_exceeds
from repro.types import Equivalence, Type
from repro.types.build import EventTypeEncoder, TextFrontEnd
from repro.types.intern import InternTable, global_table

_BYTES_WS_RUN = re.compile(WHITESPACE_PATTERN_BYTES)
_WS_RUN = re.compile(WHITESPACE_PATTERN).match
# ASCII bytes str.isspace() accepts beyond JSON's own whitespace: a line
# of these is blank to the str feed, so the bytes feed must agree.
_EXTRA_SPACE_BYTES = frozenset(b"\x0b\x0c\x1c\x1d\x1e\x1f")


def _blank_span(data, start: int, end: int) -> bool:
    """Whether the line ``data[start:end]`` is blank — the one rule every
    bytes route skips lines by, identical to ``not line or
    line.isspace()`` on the decoded line.

    An ASCII whitespace run decides most lines without decoding.  A line
    whose first other byte is high or one of ``\\x0b\\x0c\\x1c``-``\\x1f``
    may still be blank by ``str.isspace``'s wider rules, so it is decoded
    and asked; an undecodable one raises its exact ``UnicodeDecodeError``
    (positions relative to ``start``).
    """
    ws_end = _BYTES_WS_RUN.match(data, start, end).end()
    if ws_end >= end:
        return True
    byte = data[ws_end]
    if byte >= 0x80 or byte in _EXTRA_SPACE_BYTES:
        return bytes(data[start:end]).decode("utf-8").isspace()
    return False


class _BatchFold:
    """The batch surface every accumulator shares.

    A subclass supplies ``add_types`` (absorb a batch in one merge
    pass), ``combine``, ``result`` and its map phase ``_new_encoder`` (a
    :class:`~repro.types.build.TextFrontEnd`); every other ``add_*`` is
    a batch of one.
    """

    __slots__ = ("equivalence", "_encoder", "_count")

    def __init__(self, equivalence: Equivalence) -> None:
        self.equivalence = equivalence
        # Built on first use, so accumulators fed only types never pay
        # for the encoder's setup.
        self._encoder = None
        self._count = 0

    def add(self, document: Any) -> None:
        """Type one document and absorb it."""
        self.add_types((self._text_encoder().encode(document),))

    def add_text(self, text: str) -> None:
        """Type one raw JSON text (parser errors) and absorb it."""
        self.add_types((self._text_encoder().encode_text(text),))

    def add_bytes(self, data, start: int = 0, end: Optional[int] = None) -> None:
        """:meth:`add_text` of a UTF-8 byte range (``bytes``, an mmap, a
        memoryview); undecodable input raises ``UnicodeDecodeError``."""
        self.add_types((self._text_encoder().encode_bytes(data, start, end),))

    def add_type(self, t: Any, *, documents: int = 1) -> None:
        """Absorb one typed document, or a worker's partial type that
        covers ``documents`` documents."""
        self.add_types((t,))
        self._count += documents - 1

    def _text_encoder(self):
        encoder = self._encoder
        if encoder is None:
            encoder = self._encoder = self._new_encoder()
        return encoder

    def _check_equivalence(self, other: "_BatchFold") -> None:
        if other.equivalence is not self.equivalence:
            raise InferenceError(
                "cannot combine accumulators with different equivalences: "
                f"{self.equivalence.value} vs {other.equivalence.value}"
            )

    @property
    def document_count(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0


class TypeAccumulator(_BatchFold):
    """Streaming parametric merge with O(classes) state.

    The state is ``merge_many``'s top-level class partition kept between
    calls: one fused, reduced, interned representative per equivalence
    class.  ``add_types`` absorbs a batch in one
    :meth:`~repro.types.intern.InternTable.fuse_into` pass over the
    batch's distinct, not-yet-seen types and the representatives of
    the classes they fall into.  Documents are encoded straight into
    canonical interned terms (:class:`~repro.types.build.EventTypeEncoder`).
    ``combine`` folds another accumulator in (the monoid operation);
    ``result`` yields the merged type, bit-identical to ``merge_all``
    over everything absorbed so far.  ``result`` does not consume the
    accumulator — it can be sampled mid-stream.
    """

    __slots__ = ("_table", "_classes", "_memo")

    def __init__(
        self,
        equivalence: Equivalence = Equivalence.KIND,
        *,
        table: Optional[InternTable] = None,
    ) -> None:
        super().__init__(equivalence)
        self._table = table if table is not None else global_table()
        # class key -> fused, reduced, interned representative, in
        # first-appearance order (merge_all parity; union() sorts
        # anyway, but keeping the order makes the equivalence exact by
        # construction rather than by the final sort).
        self._classes: dict[Hashable, Type] = {}
        # Canonical types already absorbed.  Merge is idempotent
        # (merge(X, t, t) == merge(X, t), property-tested), so a type seen
        # before cannot change the state — the probe costs one hash and
        # one comparison that short-circuits on interned sub-terms.  The
        # memo is bounded (it is an optimization, not state): on wildly
        # heterogeneous streams it stops growing at _MEMO_LIMIT entries
        # instead of pinning one type per distinct document, keeping the
        # accumulator's memory O(classes + constant).
        self._memo: set[Type] = set()

    _MEMO_LIMIT = 8192

    # ------------------------------------------------------------------

    @property
    def table(self) -> InternTable:
        """The intern table this accumulator canonicalizes into."""
        return self._table

    def _new_encoder(self) -> EventTypeEncoder:
        return EventTypeEncoder(self._table)

    def add_types(self, types: Iterable[Type]) -> None:
        """Absorb a batch of typed documents in one merge pass.

        Every type counts as a document, repeats included; only the
        batch's distinct types not absorbed before reach the merge.
        """
        memo = self._memo
        canonical = self._table.canonical
        fresh = []
        count = 0
        for t in types:
            count += 1
            if t in memo:
                continue
            t = canonical(t)
            if len(memo) < self._MEMO_LIMIT:
                memo.add(t)
            fresh.append(t)
        self._count += count
        if fresh:
            self._table.fuse_into(self._classes, fresh, self.equivalence)

    def combine(self, other: "TypeAccumulator") -> None:
        """Fold another accumulator into this one (monoid operation)."""
        self._check_equivalence(other)
        # fuse_into re-interns the representatives in case the other
        # accumulator used a different table (e.g. it crossed a process
        # boundary).
        self._table.fuse_into(
            self._classes, list(other._classes.values()), self.equivalence
        )
        if self._table is other._table and len(self._memo) < self._MEMO_LIMIT:
            self._memo |= other._memo
        self._count += other._count

    # ------------------------------------------------------------------

    def result(self) -> Type:
        """The merged type of everything absorbed (``BOT`` when empty)."""
        return self._table.merge_many(self._classes.values(), self.equivalence)

    def class_count(self) -> int:
        """Number of live equivalence classes — the state size."""
        return len(self._classes)

    def state_nodes(self) -> int:
        """Total AST nodes held by class representatives.

        This is the accumulator's working-set measure: independent of the
        number of documents absorbed, unlike the seed's list of types.
        """
        return sum(rep.size() for rep in self._classes.values())


class CountingAccumulator(_BatchFold):
    """Streaming counting-types merge (DBPL '17 algebra).

    The state is one counted union, bounded by the fused schema, not
    the document count; ``add_types`` absorbs a batch in one n-ary
    :func:`~repro.inference.counting.merge_counted` over state and batch.
    """

    __slots__ = ("_acc",)

    def __init__(self, equivalence: Equivalence = Equivalence.KIND) -> None:
        # Imported lazily, so routes that never count never load
        # repro.inference.counting.
        from repro.inference.counting import CUnion

        super().__init__(equivalence)
        self._acc: "CUnion" = CUnion(())

    def _new_encoder(self):
        from repro.inference.counting import CountedEncoder

        return CountedEncoder(self.equivalence)

    def add_types(self, types: Iterable[Any]) -> None:
        from repro.inference.counting import merge_counted

        batch = [self._acc, *types]
        self._acc = merge_counted(batch, self.equivalence)
        self._count += len(batch) - 1

    def combine(self, other: "CountingAccumulator") -> None:
        self._check_equivalence(other)
        self.add_type(other._acc, documents=other._count)

    def result(self) -> Any:
        return self._acc


# ---------------------------------------------------------------------------
# functional conveniences
# ---------------------------------------------------------------------------


def accumulate(
    documents: Iterable[Any],
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
) -> TypeAccumulator:
    """Fold a document stream into a fresh accumulator."""
    acc = TypeAccumulator(equivalence, table=table)
    for document in documents:
        acc.add(document)
    return acc


def accumulate_types(
    types: Iterable[Type],
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
) -> TypeAccumulator:
    """Fold a type stream into a fresh accumulator."""
    acc = TypeAccumulator(equivalence, table=table)
    for t in types:
        acc.add_type(t)
    return acc


# Lines per batch (one typing call and one add_types merge pass): enough
# to amortise the calls, few enough that the batch's byte copies stay
# small next to the corpus.
_RANGE_BATCH_LINES = 1024


def accumulate_lines(
    lines: Iterable[str],
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
) -> TypeAccumulator:
    """Fold raw NDJSON lines into a fresh accumulator (blank lines are
    skipped) — the str text feed.

    Lines are typed and absorbed in batches of ``_RANGE_BATCH_LINES``,
    as the bytes feed absorbs them; a line's error still surfaces before
    any error of a later line or of reading one.
    """
    return _fold_lines(TypeAccumulator(equivalence, table=table), lines)


def _fold_lines(acc, lines: Iterable[str]):
    """:func:`accumulate_lines`' loop into ``acc``, any accumulator."""
    encode_text = acc._text_encoder().encode_text
    batch: list[str] = []

    def flush() -> None:
        pending = batch[:]
        del batch[:]
        acc.add_types([encode_text(line) for line in pending])

    try:
        for line in lines:
            if not line or line.isspace():
                continue
            batch.append(line)
            if len(batch) >= _RANGE_BATCH_LINES:
                flush()
    except Exception:
        # Earlier batched lines surface their errors first, as they do
        # line by line.
        flush()
        raise
    flush()
    return acc


class RangeFolder:
    """The bytes feed as a resumable object: byte ranges in, types folded.

    The engine core of :func:`accumulate_ranges`, factored out so
    producers that materialise the corpus a *block at a time* — the
    line-block reader in :mod:`repro.datasets.compressed` —
    can push successive line-aligned buffers through one batched
    pipeline: the pending line batch persists across :meth:`feed`
    calls, so a corpus fed in blocks folds exactly like one contiguous
    mmap.  Each flush types up to ``_RANGE_BATCH_LINES`` lines with one
    ``encode_lines`` call and absorbs them with one
    :meth:`TypeAccumulator.add_types` merge pass.  ``finish`` flushes
    the tail batch.  The default encoder is the accumulator's own, so
    a :class:`CountingAccumulator` folds counts through the same loop.

    Error ordering is the serial contract: a line surfaces its error no
    later than the first flush after it, and a line whose blank check
    (:func:`_blank_span`) fails to decode flushes everything before it
    first — identical to :func:`accumulate_ranges` over the
    concatenated spans.
    """

    __slots__ = ("_acc", "_encoder", "_batch")

    def __init__(
        self,
        accumulator: _BatchFold,
        *,
        encoder: Optional[TextFrontEnd] = None,
    ) -> None:
        self._acc = accumulator
        self._encoder = (
            encoder if encoder is not None else accumulator._text_encoder()
        )
        self._batch: list[bytes] = []

    def _flush(self) -> None:
        batch = self._batch
        if batch:
            self._acc.add_types(self._encoder.encode_lines(batch))
            del batch[:]

    def feed(self, data, spans) -> None:
        """Absorb the line ``spans`` of one buffer (bytes are copied into
        the batch, so ``data`` may be reused after the call)."""
        batch = self._batch
        append = batch.append
        for start, end in spans:
            try:
                if _blank_span(data, start, end):
                    continue
            except UnicodeDecodeError:
                # Earlier batched lines surface their errors first, as
                # they do serially.
                self._flush()
                raise
            append(bytes(data[start:end]))
            if len(batch) >= _RANGE_BATCH_LINES:
                self._flush()

    def finish(self) -> None:
        """Flush the pending batch (call once, after the last feed)."""
        self._flush()


def accumulate_ranges(
    data,
    spans: Sequence[tuple],
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
) -> TypeAccumulator:
    """Fold undecoded byte ranges of an NDJSON buffer — the bytes feed.

    ``data`` is any byte buffer (an :class:`~repro.datasets.ndjson.MmapCorpus`
    buffer, a memoryview, plain ``bytes``) and ``spans`` the
    ``(start, end)`` byte range of each line, e.g.
    ``corpus.spans`` or :func:`repro.datasets.ndjson.index_lines`
    output.  The ranges run through :meth:`EventTypeEncoder.encode_lines`
    in fixed batches: each line is decoded, parsed by the C decoder and
    typed.  Blank lines (including the rare non-ASCII
    whitespace-only line, for exact :func:`accumulate_lines` parity)
    are skipped.  The result is interned-identical to
    ``accumulate_lines`` over the decoded lines, with identical errors.
    """
    acc = TypeAccumulator(equivalence, table=table)
    folder = RangeFolder(acc)
    folder.feed(data, spans)
    folder.finish()
    return acc


# ---------------------------------------------------------------------------
# intra-document parallelism: split planning and partial reassembly
# ---------------------------------------------------------------------------
#
# One huge document serializes the whole line-parallel pipeline.  The
# functions below turn its *top-level container* into independently
# typable byte ranges and fold the partial results back to the exact
# interned node the serial typing of the whole document would produce:
#
# - :func:`plan_subtree_split` descends to a splittable container
#   (recording a *spine* of wrapper frames for each level it enters) and
#   carves its children into contiguous chunk spans;
# - each chunk, read as if wrapped in its container's brackets, must be
#   a complete JSON document; :func:`type_subtree_chunks` types it one
#   element or member at a time through the C decoder, in this process
#   or in a worker;
# - :func:`combine_subtree` merges the per-chunk contributions (array
#   element unions / record member maps) and re-applies the spine.
#
# Identity rests on the shape-closing algebra being reassociable:
# ``union`` is flattening, duplicate-insensitive and order-insensitive,
# so per-chunk element unions compose to the whole array's union; record
# members resolve duplicate keys last-wins, which chunk-ordered folding
# preserves; ``rec_of`` sorts fields, erasing chunk boundaries.  Any
# speculation failure (a separator matched inside a string, malformed
# input, depth overflow) fails chunk validation (or a probe proves it
# first), and the caller re-cuts or re-carves exactly (then, failing
# that, parses the whole document) — exact errors, never a silently
# wrong type.

# Below this size the splitter runs the exact linear depth-1 scan; above
# it, speculative separator searches keep the parent's carving cost
# O(workers) instead of O(bytes).
_SUBTREE_EXACT_LIMIT = 1 << 20
# Spine recursion cap: levels of single-child wrappers to descend
# looking for a splittable container before giving up.
_SUBTREE_MAX_SPINE = 8


class SubtreeSplit:
    """A plan for typing one document as parallel top-level chunks.

    ``frames`` is the wrapper spine, outermost first: ``("arr1",)`` for
    a single-element array entered, ``("recw", head_span, key)`` for an
    object entered through its last member ``key`` (``head_span`` is the
    byte span of the preceding members, ``None`` when there are none).
    ``chunks`` are ``(start, end)`` byte spans of ``kind``'s element or
    member lists; each must parse completely once wrapped in the
    container's brackets.  Plans are immutable and equal by fields.
    """

    def __init__(self, frames: tuple, kind: str, chunks: tuple) -> None:
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "kind", kind)  # "object" | "array"
        object.__setattr__(self, "chunks", chunks)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    @property
    def spine_depth(self) -> int:
        return len(self.frames)


def plan_subtree_split(
    data,
    start: int = 0,
    end: Optional[int] = None,
    *,
    targets: int = 4,
    min_bytes: int = 0,
    exact_limit: int = _SUBTREE_EXACT_LIMIT,
    max_spine: int = _SUBTREE_MAX_SPINE,
    skip_chunk_levels: int = 0,
    probes: int = 0,
):
    """Plan the chunking of one document's byte range, or ``None``.

    ``None`` means "type it serially": top-level scalars, empty
    containers, ranges under ``min_bytes``, unsplittable shapes, and
    anything the speculative carver declines.  A returned plan is still
    only *speculative* above ``exact_limit`` — chunk validation decides.

    ``skip_chunk_levels`` suppresses chunk proposal for the first N
    spine levels: when a proposed chunking fails validation (separators
    that really sat one level deeper, e.g. ``[ {"rows": [{...},{...}]} ]``),
    the driver re-plans with ``split.spine_depth + 1`` to force the
    descent past the level that lied.  The exact tier is never skipped —
    it cannot lie.  ``probes`` passes through to
    :func:`~repro.parsing.structural.propose_chunks`: each speculative
    cut is probed and re-snapped past a closer that proves it lies, and
    a level left with no cut descends the spine.
    """
    from repro.parsing.structural import (
        document_bounds,
        propose_chunks,
        propose_spine,
        scan_depth1_spans,
    )

    if end is None:
        end = len(data)
    if targets < 1:
        return None
    frames: list = []
    lo, hi = start, end
    ws_match = _BYTES_WS_RUN.match
    while True:
        if hi - lo < max(min_bytes, 2):
            return None
        if hi - lo <= exact_limit:
            scan = scan_depth1_spans(data, lo, hi)
            if scan is None or not scan.parts:
                return None
            parts = scan.parts
            groups = min(targets, len(parts))
            base, extra = divmod(len(parts), groups)
            chunks = []
            index = 0
            for g in range(groups):
                count = base + (1 if g < extra else 0)
                first = parts[index]
                last = parts[index + count - 1]
                # A chunk spans from the first part's start (the key
                # quote for objects) to the last part's value end; the
                # separators in between ride along and re-parse as the
                # wrapped container's own commas.
                chunks.append((first[0], last[-1]))
                index += count
            return SubtreeSplit(tuple(frames), scan.kind, tuple(chunks))
        bounds = document_bounds(data, lo, hi)
        if bounds is None:
            return None
        kind, open_, close = bounds
        chunks = (
            propose_chunks(data, open_, close, kind, targets, probes)
            if len(frames) >= skip_chunk_levels
            else None
        )
        if chunks:
            return SubtreeSplit(tuple(frames), kind, tuple(chunks))
        if len(frames) >= max_spine:
            return None
        if kind == "array":
            # No separators found: speculate that the array holds one
            # huge container element and descend into it.
            pos = ws_match(data, open_ + 1, close).end()
            if pos >= close:
                return None
            opener = data[pos]
            if opener == 0x7B:
                closer = 0x7D
            elif opener == 0x5B:
                closer = 0x5D
            else:
                return None
            last = close - 1
            while last > pos and data[last] in b" \t\n\r":
                last -= 1
            if data[last] != closer:
                return None
            frames.append(("arr1",))
            lo, hi = pos, last + 1
        else:
            spine = propose_spine(data, open_, close)
            if spine is None:
                return None
            head, key_span, (vopen, vend) = spine
            raw = bytes(data[key_span[0] : key_span[1]])
            if b"\\" in raw:
                # Escaped keys would need the scanner's unescape to
                # rebuild the member; rare enough to punt to serial.
                return None
            try:
                key = raw.decode("utf-8")
            except UnicodeDecodeError:
                return None
            frames.append(("recw", head, key))
            lo, hi = vopen, vend


def type_subtree_chunks(
    encoder: EventTypeEncoder,
    data,
    kind: str,
    chunks,
    *,
    max_depth: int = 512,
) -> list:
    """Type each chunk span, one top-level element or member at a time.

    A chunk is valid when it parses completely once wrapped in its
    container's brackets, with the wrapper taking the one level the
    real container takes.  Each chunk is decoded from UTF-8, and the
    stdlib C decoder reads one element (or one member's key and value)
    at a time, so only one element's value is ever in memory; the
    commas, colons and whitespace between items are checked here.
    Returns one contribution list per chunk: the distinct element types
    of an array chunk, the ``(name, type, required)`` member triples of
    an object chunk (duplicate keys last-wins).  Raises on an invalid
    chunk — callers treat any failure as "this speculation was wrong,
    re-plan".
    """
    if max_depth < 1:
        raise InferenceError("subtree chunk exceeds the nesting limit")
    out = []
    with memoryview(data) as view:
        for s, e in chunks:
            parts = _type_chunk(
                encoder, str(view[s:e], "utf-8"), kind == "object", max_depth - 1
            )
            if kind == "array":
                out.append(list(parts.values()))
            else:
                out.append([(name, t, True) for name, t in parts.items()])
    return out


def _type_chunk(encoder, text: str, is_object: bool, limit: int) -> dict:
    """Items of one chunk → ``{name: type}`` (objects) or
    ``{id(type): type}`` (arrays), each value at most ``limit`` deep."""
    encode = encoder.encode
    ws = _WS_RUN
    end = len(text)
    parts: dict = {}
    pos = ws(text).end()
    if pos == end:
        return parts  # "[]" / "{}"
    try:
        while True:
            if is_object:
                if text[pos] != '"':
                    raise _bad_chunk()
                name, pos = c_scan_once(text, pos)
                pos = ws(text, pos).end()
                if text[pos : pos + 1] != ":":
                    raise _bad_chunk()
                pos = ws(text, pos + 1).end()
            start = pos
            value, pos = c_scan_once(text, pos)
            if (
                value.__class__ in (dict, list)
                and text.count("{", start, pos) + text.count("[", start, pos) > limit
                and nesting_exceeds(value, limit)
            ):
                raise _bad_chunk()
            t = encode(value)
            if is_object:
                parts[name] = t
            else:
                parts[id(t)] = t
            pos = ws(text, pos).end()
            if pos == end:
                return parts
            if text[pos] != ",":
                raise _bad_chunk()
            pos = ws(text, pos + 1).end()
            if pos == end:
                raise _bad_chunk()  # trailing comma
    except (StopIteration, JSONDecodeError):
        # No value where one must start, or a malformed one.  The
        # decoder's error holds the whole chunk's text; the small error
        # is what a worker ships back.
        raise _bad_chunk() from None


def _bad_chunk() -> InferenceError:
    return InferenceError("subtree chunk is not a valid element list")


def combine_subtree(
    table: InternTable, split: SubtreeSplit, chunk_parts, head_parts=None
) -> Type:
    """Reassemble chunk contributions into the whole document's type.

    ``chunk_parts`` is one :func:`type_subtree_chunks` list per chunk, in
    chunk order (possibly from other processes — everything is
    re-canonicalized into ``table``).  ``head_parts`` aligns with
    ``split.frames``: the typed member triples of each ``recw`` frame's
    head span (``None`` elsewhere).  The result is interned-identical to
    the serial typing of the whole document.
    """
    canonical = table.canonical
    if split.kind == "array":
        members: list = []
        seen: set = set()
        for parts in chunk_parts:
            for member in parts:
                member = canonical(member)
                if member not in seen:
                    seen.add(member)
                    members.append(member)
        t = table.arr_of(table.union_of(members))
    else:
        fields: dict = {}
        for parts in chunk_parts:
            for name, ftype, required in parts:
                # Duplicate keys across (and within) chunks: last wins,
                # matching the parser's dict overwrite.
                fields[name] = (canonical(ftype), required)
        t = table.rec_of(
            [table.field_of(n, ft, req) for n, (ft, req) in fields.items()]
        )
    frames = split.frames
    heads = head_parts if head_parts is not None else (None,) * len(frames)
    for frame, head in zip(reversed(frames), reversed(tuple(heads))):
        if frame[0] == "arr1":
            t = table.arr_of(table.union_of([t]))
        else:
            fields = {}
            if head:
                for name, ftype, required in head:
                    fields[name] = (canonical(ftype), required)
            # The spine member is the object's last member; assignment
            # order keeps last-wins exact if its key repeats in the head.
            fields[frame[2]] = (t, True)
            t = table.rec_of(
                [table.field_of(n, ft, req) for n, (ft, req) in fields.items()]
            )
    return t

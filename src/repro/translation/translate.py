"""Schema-aware data translation pipelines (tutorial §5, experiment E9).

"When input datasets are heterogeneous, schemas can improve the efficiency
and the effectiveness of data format conversion."  This module implements
both sides of that comparison:

- **schema-aware**: infer a type for the collection, *resolve* it to a
  translation-friendly schema (:func:`resolve_interned` — unions widened
  to nullable leaves, nullable records, or a JSON-text escape hatch),
  then shred to the Parquet-like columnar format and encode Avro-like
  rows;
- **schema-oblivious**: no schema — each document is stored as one JSON
  text blob (a single string column / NDJSON bytes), which is what a tool
  must do when it cannot rely on structure.

Three translation paths produce the artifacts, pinned byte-identical by
the translation conformance tier:

- :func:`schema_aware_translate` — the DOM reference: materialise the
  documents, seed-merge a type when none is given, textify, ``shred``,
  ``encode_rows``;
- :func:`translate_interned` — the same DOM walk on interned types:
  subtree resolution and Avro/Parquet schema compilation memoized on
  interned node identity (shared subtrees translate once, keyed to the
  intern-table epoch like the subtype checker), documents streamed once
  through a :class:`~repro.translation.parquet.Shredder` and a fused
  :class:`~repro.translation.avro.RowEncoder`;
- :func:`translate_report_path` — the CLI's single-pass
  infer→translate→write flow from any corpus source: bytes fold →
  resolved schema → the stream machine (:mod:`repro.translation.stream`:
  one walk of a compiled column program over each decoded document) →
  Avro rows + columnar store, whose ``columns.json`` the stdlib C
  encoder renders.  The two DOM paths are its test oracles.

Union resolution is carried by an explicit :class:`Resolution` — the
resolved type, the degraded column paths, and a structural
:class:`TextifyPlan` deciding which subtrees serialize to JSON text.
(The seed used a sentinel ``AtomType("str")`` *instance* and decided by
object identity, which silently broke as soon as the resolved type was
re-interned or crossed a pickle boundary; the plan survives both.)

The report compares output sizes; the benchmark (E21) adds timing.
Quality is measured too: the fraction of leaf values that kept a typed
column rather than falling back to the ``json`` escape-hatch column.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from repro.errors import TranslationError
from repro.jsonvalue.serializer import dumps
from repro.types import Equivalence, Type, merge_all, type_of
from repro.types.intern import EpochMemo, InternTable, global_table
from repro.types.terms import (
    ArrType,
    AtomType,
    BotType,
    RecType,
    UnionType,
)
from repro.translation import avro
from repro.translation.parquet import (
    ColumnStore,
    PNode,
    Shredder,
    compile_schema,
    shred,
)


# ---------------------------------------------------------------------------
# textify plans: which subtrees degrade to serialized JSON text
# ---------------------------------------------------------------------------


class TextifyPlan:
    """Structural decision tree over a resolved type.

    One node per position that *matters*: ``CLEAN`` subtrees (no fallback
    anywhere beneath) pass values through untouched — the common case,
    and the reason textify costs nothing on homogeneous corpora —
    ``FALLBACK`` positions serialize the value, and container plans
    descend.  Plans are plain frozen data: they pickle, and they carry no
    object-identity protocol, so a plan built in one process drives
    translation in another.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class _Clean(TextifyPlan):
    pass


class _Fallback(TextifyPlan):
    pass


class ArrPlan(TextifyPlan):
    item: TextifyPlan

    def __init__(self, item: TextifyPlan) -> None:
        object.__setattr__(self, "item", item)


class RecPlan(TextifyPlan):
    children: dict  # name -> non-clean child plan
    labels: frozenset  # every field name the schema knows

    def __init__(self, children: dict, labels: frozenset) -> None:
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "labels", labels)


CLEAN = _Clean()
FALLBACK = _Fallback()


def textify(value: Any, plan: TextifyPlan, path: str = "") -> Any:
    """Serialize the subtrees ``plan`` marks as JSON-text fallbacks.

    Values under a ``CLEAN`` plan are returned *as-is* (no copy); a
    document whose schema resolved without fallbacks is returned
    unchanged.  A record field the schema has never seen raises
    :class:`TranslationError` naming the offending path.
    """
    cls = plan.__class__
    if cls is _Clean:
        return value
    if cls is _Fallback:
        return dumps(value)
    if cls is ArrPlan:
        if not isinstance(value, list):
            return value
        item_plan = plan.item
        child = f"{path}.[]" if path else "[]"
        return [textify(v, item_plan, child) for v in value]
    # RecPlan.  None passes through: a nullable record's plan is the
    # record's own plan, applied only when a record is actually present.
    if not isinstance(value, dict):
        return value
    children = plan.children
    labels = plan.labels
    out = {}
    for name, v in value.items():
        sub = children.get(name)
        if sub is not None:
            out[name] = textify(v, sub, f"{path}.{name}" if path else name)
        elif name in labels:
            out[name] = v
        else:
            where = f"{path}.{name}" if path else name
            raise TranslationError(
                f"document field {where!r} is not in the schema"
            )
    return out


# ---------------------------------------------------------------------------
# union resolution
# ---------------------------------------------------------------------------


class Resolution:
    """The outcome of resolving a type for translation.

    ``resolved`` is Parquet/Avro-representable; ``fallbacks`` are the
    column paths (``a.[].b`` style) where a union could not be widened
    and the subtree degrades to JSON text; ``plan`` drives
    :func:`textify`.  The whole object pickles and survives re-interning
    — nothing here depends on instance identity.
    """

    resolved: Type
    fallbacks: tuple
    plan: TextifyPlan

    def __init__(self, resolved: Type, fallbacks: tuple, plan: TextifyPlan) -> None:
        object.__setattr__(self, "resolved", resolved)
        object.__setattr__(self, "fallbacks", fallbacks)
        object.__setattr__(self, "plan", plan)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def textify(self, value: Any) -> Any:
        return textify(value, self.plan)


# Per-node resolution memo: id(canonical node) -> (resolved, relative
# fallback suffixes, plan).  Suffixes are recorded *relative* to the node
# (() = the node itself) because the same subtree appears at many
# absolute paths; parents prepend their segment.
_RESOLVE_MEMO = EpochMemo()
_PARQUET_MEMO = EpochMemo()
_AVRO_MEMO = EpochMemo()


def _join(segment: str, suffixes: tuple) -> list:
    # Suffixes stay *segment tuples* until resolve_interned renders the
    # dotted strings: a string join can't tell "the node itself" from a
    # field literally named "" (whose column is "parent." — hypothesis
    # found the collision), a tuple prepend can.
    return [(segment,) + s for s in suffixes]


def _resolve_node(node: Type, table: InternTable, memo: dict):
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = _resolve_fresh(node, table, memo)
    memo[key] = out
    return out


def _resolve_fresh(node: Type, table: InternTable, memo: dict):
    cls = node.__class__
    if cls is AtomType or cls is BotType:
        return node, (), CLEAN
    if cls is ArrType:
        item, suffixes, item_plan = _resolve_node(node.item, table, memo)
        resolved = node if item is node.item else table.arr_of(item)
        if not suffixes:
            return resolved, (), CLEAN
        return resolved, tuple(_join("[]", suffixes)), ArrPlan(item_plan)
    if cls is RecType:
        changed = False
        fields = []
        suffixes: list = []
        children: dict = {}
        for f in node.fields:
            ftype, fsuf, fplan = _resolve_node(f.type, table, memo)
            if ftype is f.type:
                fields.append(f)
            else:
                changed = True
                fields.append(table.field_of(f.name, ftype, f.required))
            if fsuf:
                suffixes.extend(_join(f.name, fsuf))
                children[f.name] = fplan
        resolved = table.rec_of(fields) if changed else node
        if not children:
            return resolved, (), CLEAN
        plan = RecPlan(children, frozenset(f.name for f in node.fields))
        return resolved, tuple(suffixes), plan
    if cls is UnionType:
        members = node.members
        nulls = [
            m for m in members if m.__class__ is AtomType and m.tag == "null"
        ]
        rest = [
            m
            for m in members
            if not (m.__class__ is AtomType and m.tag == "null")
        ]
        if nulls and len(rest) == 1 and rest[0].__class__ is AtomType:
            return node, (), CLEAN  # nullable leaf, representable as-is
        if rest and all(
            m.__class__ is AtomType and m.tag in ("int", "flt", "num")
            for m in rest
        ):
            # Numeric drift (int|flt, int|flt|null, …) widens to num —
            # nullable when null rides along — instead of degrading.
            resolved = table.atom("num")
            if nulls:
                resolved = table.union_of([table.atom("null"), resolved])
            return resolved, (), CLEAN
        if nulls and len(rest) == 1 and rest[0].__class__ is RecType:
            # The common optional-object shape null | {…}: resolve as a
            # nullable record so its leaves stay typed columns.
            inner, suffixes, plan = _resolve_node(rest[0], table, memo)
            resolved = table.union_of([table.atom("null"), inner])
            return resolved, suffixes, plan
        return table.atom("str"), ((),), FALLBACK
    raise TranslationError(f"cannot resolve {node!r}")


def resolve_interned(
    t: Type, *, table: Optional[InternTable] = None
) -> Resolution:
    """Resolve ``t`` into a translation-friendly :class:`Resolution`.

    The input is canonicalized into ``table`` (the global intern table by
    default) and resolution is memoized on interned node identity, keyed
    to the table's epoch: a subtree shared by a thousand positions
    resolves once.
    """
    if table is None:
        table = global_table()
    node = table.canonical(t)
    memo = _RESOLVE_MEMO.map_for(table)
    resolved, suffixes, plan = _resolve_node(node, table, memo)
    return Resolution(
        resolved=resolved,
        fallbacks=tuple(".".join(s) for s in suffixes),
        plan=plan,
    )


def resolve_type(t: Type) -> tuple[Type, list[str]]:
    """Rewrite ``t`` into a Parquet-representable type.

    Returns the resolved type and the list of **fallback paths**: leaf
    positions (named like shredded column paths, ``a.[].b``) where a union
    could not be widened and the subtree degrades to a JSON text leaf.
    Fewer fallbacks = higher translation quality; schema precision is what
    keeps this number down.  (Compatibility wrapper over
    :func:`resolve_interned`.)
    """
    resolution = resolve_interned(t)
    return resolution.resolved, list(resolution.fallbacks)


def compiled_parquet(
    resolved: Type, *, table: Optional[InternTable] = None
) -> PNode:
    """``compile_schema`` memoized on interned node identity."""
    if table is None:
        table = global_table()
    return compile_schema(resolved, _PARQUET_MEMO.map_for(table))


def compiled_avro(
    resolved: Type, *, table: Optional[InternTable] = None
) -> avro.AvroSchema:
    """``avro.from_algebra`` memoized on interned node identity."""
    if table is None:
        table = global_table()
    return avro.from_algebra(resolved, "Root", _AVRO_MEMO.map_for(table))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class TranslationReport:
    """Outcome of one schema-aware translation.

    ``avro_rows`` is ``None`` when the rows were spilled to disk during
    translation (``translate_report_path(..., out=...)``): the encoded
    bytes already live in ``rows.avro`` and only their size
    (``row_bytes``) is retained, keeping peak memory O(columns + one
    row).
    """

    def __init__(
        self,
        document_count: int,
        columnar: ColumnStore,
        avro_rows: Optional[list],
        fallback_count: int,
        typed_leaf_columns: int,
        json_leaf_columns: int,
        input_bytes: int,
        row_bytes: Optional[int] = None,
    ) -> None:
        self.document_count = document_count
        self.columnar = columnar
        self.avro_rows = avro_rows
        self.fallback_count = fallback_count
        self.typed_leaf_columns = typed_leaf_columns
        self.json_leaf_columns = json_leaf_columns
        self.input_bytes = input_bytes
        self.row_bytes = row_bytes

    @property
    def columnar_bytes(self) -> int:
        return self.columnar.total_encoded_size()

    @property
    def avro_bytes(self) -> int:
        if self.avro_rows is not None:
            return sum(len(r) for r in self.avro_rows)
        return self.row_bytes or 0

    @property
    def typed_fraction(self) -> float:
        total = self.typed_leaf_columns + self.json_leaf_columns
        return self.typed_leaf_columns / total if total else 1.0


def _relabel_fallbacks(store: ColumnStore, fallbacks: Iterable[str]) -> None:
    """Re-kind the escape-hatch columns so accounting can tell real
    strings from serialized-JSON fallbacks.

    Strict: every fallback path resolves to a string leaf at exactly that
    position, so a missing column (the root path included) is a resolver/
    shredder disagreement, not something to skip silently.
    """
    for path in fallbacks:
        column = store.columns.get(path)
        if column is None:
            raise TranslationError(
                f"fallback path {path!r} has no shredded column"
            )
        column.kind = "json"


def _build_report(
    store: ColumnStore,
    rows: Optional[list],
    fallbacks: tuple,
    document_count: int,
    input_bytes: int,
    row_bytes: Optional[int] = None,
) -> TranslationReport:
    _relabel_fallbacks(store, fallbacks)
    typed = sum(1 for c in store.columns.values() if c.kind != "json")
    return TranslationReport(
        document_count=document_count,
        columnar=store,
        avro_rows=rows,
        fallback_count=len(fallbacks),
        typed_leaf_columns=typed,
        json_leaf_columns=len(store.columns) - typed,
        input_bytes=input_bytes,
        row_bytes=row_bytes,
    )


# ---------------------------------------------------------------------------
# the DOM reference path
# ---------------------------------------------------------------------------


def schema_aware_translate(
    documents: Iterable[Any],
    inferred: Optional[Type] = None,
    *,
    equivalence: Equivalence = Equivalence.KIND,
) -> TranslationReport:
    """Translate a collection using an (optionally provided) schema.

    The DOM reference path: documents are materialised, the schema is
    seed-merged when none is given, and the artifacts are produced by the
    batch ``shred``/``encode_rows`` primitives.  The interned pipeline
    (:func:`translate_interned`) must match its output byte for byte.
    """
    docs = list(documents)
    if inferred is None:
        inferred = merge_all((type_of(d) for d in docs), equivalence)
    resolution = resolve_interned(inferred)

    prepared = [resolution.textify(d) for d in docs]
    store = shred(prepared, compile_schema(resolution.resolved))
    rows = avro.encode_rows(avro.from_algebra(resolution.resolved), prepared)
    input_bytes = sum(len(dumps(d).encode("utf-8")) for d in docs)
    return _build_report(
        store, rows, resolution.fallbacks, len(docs), input_bytes
    )


# ---------------------------------------------------------------------------
# the interned pipeline
# ---------------------------------------------------------------------------


def translate_interned(
    documents: Iterable[Any],
    inferred: Optional[Type] = None,
    *,
    equivalence: Equivalence = Equivalence.KIND,
    table: Optional[InternTable] = None,
    input_bytes: Optional[int] = None,
) -> TranslationReport:
    """Translate on interned types: memoized resolution and schema
    compilation, one streaming pass over the documents.

    Byte-identical artifacts to :func:`schema_aware_translate` (the
    conformance tier's gate), reached differently: resolution and the
    compiled Avro/Parquet schemas are epoch-keyed memo hits after the
    first collection with a shared shape, and each document flows
    through the shredder and the fused row encoder without building a
    prepared-documents list.  ``input_bytes`` (when the caller already
    knows the source size, e.g. raw corpus bytes) skips the per-document
    re-serialization the report otherwise needs.
    """
    if table is None:
        table = global_table()
    if inferred is None:
        from repro.inference.engine import TypeAccumulator

        documents = list(documents)
        if documents:
            accumulator = TypeAccumulator(equivalence, table=table)
            for doc in documents:
                accumulator.add(doc)
            inferred = accumulator.result()
        else:
            inferred = merge_all((), equivalence)
    resolution = resolve_interned(inferred, table=table)

    shredder = Shredder(compiled_parquet(resolution.resolved, table=table))
    encoder = avro.RowEncoder(compiled_avro(resolution.resolved, table=table))
    plan = resolution.plan
    rows: list = []
    count = 0
    measured = 0
    measure = input_bytes is None
    for doc in documents:
        count += 1
        if measure:
            measured += len(dumps(doc).encode("utf-8"))
        prepared = textify(doc, plan)
        shredder.add(prepared)
        rows.append(encoder.encode_row(prepared))
    return _build_report(
        shredder.finish(),
        rows,
        resolution.fallbacks,
        count,
        measured if measure else input_bytes,
    )


class TranslationRun:
    """A single-pass infer→translate run over a corpus source.

    ``artifacts`` is the path→bytes map of what landed on disk when the
    run spilled its artifacts (``translate_report_path(out=...)``);
    ``None`` for purely in-memory runs (use :func:`write_artifacts`).
    """

    def __init__(
        self,
        translation: TranslationReport,
        inferred: Type,
        resolved: Type,
        equivalence: Equivalence,
        artifacts: Optional[dict] = None,
    ) -> None:
        self.translation = translation
        self.inferred = inferred
        self.resolved = resolved
        self.equivalence = equivalence
        self.artifacts = artifacts


class _RowSink:
    """Row accumulator: an in-memory list, or an incremental spill to
    the length-prefixed ``rows.avro`` framing.

    The spill keeps translation memory O(columns + one row): each
    encoded row is framed and written immediately, and only byte
    counters are retained.  The list stays for the library-API return
    path (``TranslationReport.avro_rows``).
    """

    __slots__ = ("rows", "row_bytes", "framed_bytes", "_handle", "_frame")

    def __init__(self, rows_path=None):
        if rows_path is None:
            self.rows: Optional[list] = []
            self._handle = None
        else:
            self.rows = None
            self._handle = open(rows_path, "wb")
        self.row_bytes = 0
        self.framed_bytes = 0
        self._frame = bytearray()

    def add(self, row: bytes) -> None:
        handle = self._handle
        if handle is None:
            self.rows.append(row)
            return
        frame = self._frame
        frame.clear()
        avro._write_long(frame, len(row))
        frame += row
        handle.write(frame)
        self.row_bytes += len(row)
        self.framed_bytes += len(frame)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def translate_report_path(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
    table: Optional[InternTable] = None,
    engine=None,  # unread; benchmarks/suite/trace_job.py passes it
    out=None,
) -> TranslationRun:
    """The single-pass infer→translate→write flow from a corpus source.

    ``source`` is a file path (plain, gzip, or zstd — detected by magic
    bytes), ``"-"`` for stdin, a FIFO, or a line iterable; every source
    reaches the same engine through
    :func:`repro.inference.streaming.report_with_spans`, so the same
    bytes give the same artifacts however they arrive.  The schema
    comes from the bytes fold, resolution and schema compilation are
    interned-memoized, and the stream machine
    (:class:`repro.translation.stream.StreamTranslator`) decodes each
    document's span once and walks its column program over the value,
    emitting column entries and Avro row bytes directly; a document it
    cannot prove delegates to the DOM path (textify, shredder + row
    encoder).  Fallback (JSON-text) columns capture the **raw source
    slice verbatim**, where the DOM translators
    (:func:`translate_interned`, the test oracle) re-serialise —
    identical on serializer-canonical corpora.

    ``out`` (a directory) spills artifacts while translating: encoded
    rows stream straight into ``rows.avro`` (peak memory O(columns + one
    row), ``TranslationReport.avro_rows`` is then ``None``), and
    ``columns.json``/``schema.txt`` land at the end; the written map is
    on ``TranslationRun.artifacts``.  Without ``out``, pair with
    :func:`write_artifacts`.
    """
    import os

    from repro.inference.streaming import report_with_spans

    if table is None:
        table = global_table()
    rows_path = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        rows_path = os.path.join(out, "rows.avro")
    sink = _RowSink(rows_path)
    try:
        spanned = report_with_spans(source, equivalence, jobs=jobs)
        with spanned as (report, sections):
            inferred = table.canonical(report.inferred)
            resolution = resolve_interned(inferred, table=table)
            shredder = Shredder(
                compiled_parquet(resolution.resolved, table=table)
            )
            encoder = avro.RowEncoder(
                compiled_avro(resolution.resolved, table=table)
            )
            count, input_bytes = _stream_translate_sections(
                sections, resolution, shredder, encoder, sink
            )
        if count != report.document_count:
            raise TranslationError(
                f"translate pass saw {count} documents, "
                f"inference saw {report.document_count}"
            )
    finally:
        sink.close()
    translation = _build_report(
        shredder.finish(),
        sink.rows,
        resolution.fallbacks,
        count,
        input_bytes,
        row_bytes=sink.row_bytes if sink.rows is None else None,
    )
    run = TranslationRun(
        translation=translation,
        inferred=inferred,
        resolved=resolution.resolved,
        equivalence=equivalence,
    )
    if out is not None:
        written = {rows_path: sink.framed_bytes}
        written.update(_write_columns_and_schema(run, out))
        run.artifacts = written
    return run


def _stream_translate_sections(sections, resolution, shredder, encoder, sink):
    """The translate loop: each line's byte span through the stream
    machine.

    Blank spans are skipped by the byte folds' one rule
    (:func:`repro.inference.engine._blank_span`, decode errors raising
    exactly), so the document count always reconciles with inference.
    """
    from repro.inference.engine import _blank_span
    from repro.translation.stream import StreamTranslator

    translator = StreamTranslator(resolution, shredder, encoder)
    translate = translator.translate_range
    add = sink.add
    count = 0
    input_bytes = 0
    for data, spans in sections:
        for start, end in spans:
            if _blank_span(data, start, end):
                continue
            input_bytes += end - start
            add(translate(data, start, end))
            count += 1
    return count, input_bytes


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def column_store_json(store: ColumnStore) -> str:
    """A canonical JSON rendering of a column store.

    Deterministic (columns in path order), so two stores are equal iff
    their renderings are byte-identical — the conformance tier compares
    the DOM and interned paths through it, and :func:`write_artifacts`
    writes it.  The text is :func:`~repro.jsonvalue.serializer.dumps`'s,
    rendered by the stdlib C encoder; a store that encoder rejects (a
    non-finite float, say) is rendered again by ``dumps``, which raises
    the error — one source of errors.
    """
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
    try:
        return json.dumps(
            mapping, ensure_ascii=False, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError):
        return dumps(mapping)


def write_artifacts(run: TranslationRun, out_dir) -> dict:
    """Write the run's artifacts under ``out_dir``; returns path→bytes.

    - ``rows.avro`` — the encoded rows, each prefixed with its byte
      length as an Avro long (the block framing of the object container
      format, without its header — the schema travels in
      ``schema.txt``);
    - ``columns.json`` — the columnar store (:func:`column_store_json`);
    - ``schema.txt`` — inferred type, resolved type, and Avro schema.

    Runs that already spilled their rows (``translate_report_path(out=
    ...)``) have ``avro_rows is None`` — their artifacts are on disk
    (see ``TranslationRun.artifacts``) and re-writing here would have
    nothing to frame.
    """
    import os

    report = run.translation
    if report.avro_rows is None:
        raise TranslationError(
            "this run spilled its rows during translation "
            "(translate_report_path(out=...)); artifacts are already "
            "on disk — see TranslationRun.artifacts"
        )
    os.makedirs(out_dir, exist_ok=True)
    written = {}

    rows_path = os.path.join(out_dir, "rows.avro")
    framed = bytearray()
    for row in report.avro_rows:
        avro._write_long(framed, len(row))
        framed.extend(row)
    with open(rows_path, "wb") as handle:
        handle.write(framed)
    written[rows_path] = len(framed)

    written.update(_write_columns_and_schema(run, out_dir))
    return written


def _write_columns_and_schema(run: TranslationRun, out_dir) -> dict:
    """The row-independent artifacts, shared by both write paths."""
    import os

    from repro.types import type_to_string

    os.makedirs(out_dir, exist_ok=True)
    written = {}

    columns_path = os.path.join(out_dir, "columns.json")
    columns_text = column_store_json(run.translation.columnar) + "\n"
    with open(columns_path, "w", encoding="utf-8") as handle:
        handle.write(columns_text)
    written[columns_path] = len(columns_text.encode("utf-8"))

    schema_path = os.path.join(out_dir, "schema.txt")
    schema_text = (
        f"equivalence: {run.equivalence.value}\n"
        f"inferred: {type_to_string(run.inferred)}\n"
        f"resolved: {type_to_string(run.resolved)}\n"
        f"avro: {avro.from_algebra(run.resolved)}\n"
    )
    with open(schema_path, "w", encoding="utf-8") as handle:
        handle.write(schema_text)
    written[schema_path] = len(schema_text.encode("utf-8"))
    return written


# ---------------------------------------------------------------------------
# the no-schema baseline
# ---------------------------------------------------------------------------


class ObliviousReport:
    """The no-schema baseline: documents stay JSON text."""

    def __init__(self, document_count: int, blobs: list) -> None:
        self.document_count = document_count
        self.blobs = blobs

    @property
    def total_bytes(self) -> int:
        return sum(len(b) for b in self.blobs)


def schema_oblivious_translate(documents: Iterable[Any]) -> ObliviousReport:
    """Store each document as a JSON text blob (no structure exploited)."""
    blobs = [dumps(d).encode("utf-8") for d in documents]
    return ObliviousReport(document_count=len(blobs), blobs=blobs)

"""Streaming schema inference: types straight from text, one line at a time.

The tutorial emphasises streaming operation twice — mongodb-schema
"processes them in a streaming fashion", and the parametric inference is
built for "massive JSON datasets" where materialising a collection is
the wrong plan.  This module runs the text→type pipeline of
:class:`repro.types.build.EventTypeEncoder`: the stdlib C decoder
parses one document, the fused encoder walks it into a canonical
interned type, and the document is dropped before the next one, so
memory holds one document and the merged state:

- :func:`type_of_text` — the canonical type of one JSON text
  (identical by object identity to ``intern(type_of(parse(text)))``,
  with the parser's exact error behaviour on malformed input);
- :func:`infer_type_streaming` / :func:`infer_report_streaming` — full
  parametric inference over NDJSON lines.

Equivalence with the DOM path is pinned by the cross-path conformance
matrix (``tests/test_conformance_matrix.py``) and the fuzz differential
(``tests/test_streaming_fuzz.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Optional

from repro.errors import InferenceError
from repro.inference.engine import accumulate_lines
from repro.inference.parametric import InferenceReport
from repro.types import Equivalence, Type
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable, global_table

_DEFAULT_ENCODER: Optional[EventTypeEncoder] = None


def _shared_encoder(
    table: Optional[InternTable], encoder: Optional[EventTypeEncoder]
) -> EventTypeEncoder:
    """Resolve the encoder to use: explicit > per-table > shared global.

    The process-wide default encoder is bound to the global intern table
    (mirroring :func:`repro.types.build.type_of_interned`); pass a
    ``table`` to keep workloads isolated, or hold an
    :class:`~repro.types.build.EventTypeEncoder` yourself for batch work
    so its shape caches persist across calls.

    Sharing is safe because every encoding path keeps its parse state in
    locals, so concurrent or interleaved texts cannot corrupt each other
    through the shared instance.
    """
    global _DEFAULT_ENCODER
    if encoder is not None:
        return encoder
    if table is None or table is global_table():
        enc = _DEFAULT_ENCODER
        if enc is None:
            enc = _DEFAULT_ENCODER = EventTypeEncoder(global_table())
        return enc
    return EventTypeEncoder(table)


def type_of_text(
    text: str,
    *,
    table: Optional[InternTable] = None,
    encoder: Optional[EventTypeEncoder] = None,
    max_depth: int = 512,
) -> Type:
    """The canonical interned type of one JSON text.

    Identical (by object identity against the backing table) to
    ``table.intern(type_of(parse(text)))``; malformed input raises the
    same error class/message/offset as the DOM parser.
    """
    return _shared_encoder(table, encoder).encode_text(text, max_depth=max_depth)


def type_of_bytes(
    data,
    start: int = 0,
    end: Optional[int] = None,
    *,
    table: Optional[InternTable] = None,
    encoder: Optional[EventTypeEncoder] = None,
    max_depth: int = 512,
) -> Type:
    """The canonical interned type of one JSON document held as UTF-8
    bytes: :func:`type_of_text` of the decoded range.

    ``data`` may be ``bytes``, an mmap, or a memoryview.
    Undecodable input raises the decode's ``UnicodeDecodeError``, and
    malformed JSON raises the parser's exact error with character
    offsets relative to ``start``.
    """
    return _shared_encoder(table, encoder).encode_bytes(
        data, start, end, max_depth=max_depth
    )


def infer_report_corpus(
    corpus, equivalence: Equivalence = Equivalence.KIND
) -> InferenceReport:
    """Inference over an :class:`~repro.datasets.ndjson.MmapCorpus` via
    the bytes-native fold: the mapped file's line ranges go to canonical
    interned types in line batches, each line decoded and parsed on its
    own.  Interned-identical to every other route."""
    from repro.inference.engine import accumulate_ranges

    accumulator = accumulate_ranges(corpus.buffer(), corpus.spans, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def fold_compressed(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
    format: Optional[str] = None,
    block_bytes: Optional[int] = None,
):
    """Fold a compressed NDJSON corpus through the bytes pipeline.

    The serial compressed route: the chunked decompression reader
    (:func:`repro.datasets.compressed.iter_line_blocks`) yields
    line-aligned decompressed blocks which feed one persistent
    :class:`~repro.inference.engine.RangeFolder` — the same batched
    fold an uncompressed mmap corpus runs, so the result is
    interned-identical to the plain-file fold of the decompressed
    bytes.  No decompressed corpus is ever
    materialised: memory is one block plus the longest line.

    This path **owns error ordering**: JSON/decode errors of earlier
    lines surface before a later decompression failure, exactly as a
    plain serial fold would order them.
    """
    from repro.datasets.compressed import (
        DEFAULT_BLOCK_BYTES,
        CompressedCorpusError,
        iter_block_line_spans,
        iter_line_blocks,
    )
    from repro.inference.engine import RangeFolder, TypeAccumulator

    accumulator = TypeAccumulator(equivalence, table=table)
    folder = RangeFolder(accumulator)
    blocks = iter_line_blocks(
        source,
        format=format,
        block_bytes=block_bytes if block_bytes is not None else DEFAULT_BLOCK_BYTES,
    )
    while True:
        try:
            block = next(blocks)
        except StopIteration:
            break
        except CompressedCorpusError:
            # Lines already read but still batched are *earlier* in the
            # corpus than this stream failure: flush them first so their
            # errors win, serial-ordering style.
            folder.finish()
            raise
        folder.feed(block, iter_block_line_spans(block))
    folder.finish()
    return accumulator


def infer_report_compressed(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
    format: Optional[str] = None,
) -> InferenceReport:
    """Inference over a gzip/zstd NDJSON file — the compressed entry point.

    With ``jobs=1`` the serial chunked fold (:func:`fold_compressed`)
    runs directly.  Otherwise the compressed scheduler
    (:func:`repro.inference.distributed.plan_compressed_schedule`)
    decides whether independent members/frames justify the worker pool;
    a parallel attempt that fails *for any reason* (false member
    candidates, a worker error, damaged bytes) silently falls back to
    the serial fold, which owns all error ordering — the subtree
    splitter's contract.
    """
    from repro.datasets.compressed import detect_compression

    fmt = format or detect_compression(source)
    if fmt is None:
        raise InferenceError(
            f"{source!s} is not a gzip/zstd compressed corpus"
        )
    if jobs != 1:
        from repro.inference.distributed import (
            infer_compressed_parallel,
            plan_compressed_schedule,
        )

        plan = plan_compressed_schedule(source, format=fmt, jobs=jobs)
        if plan.parallel:
            run = infer_compressed_parallel(
                source, equivalence, processes=plan.jobs, format=fmt
            )
            if run is not None:
                return InferenceReport(
                    inferred=run.result,
                    equivalence=equivalence,
                    document_count=run.document_count,
                )
    accumulator = fold_compressed(source, equivalence, format=fmt)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def infer_type_streaming(
    lines: Iterable[str], equivalence: Equivalence = Equivalence.KIND
) -> Type:
    """Parametric inference over NDJSON lines, one document at a time.

    Each line runs through the text→type pipeline
    (:meth:`~repro.inference.engine.TypeAccumulator.add_text`) and merges
    incrementally: per-accumulator state is O(equivalence classes) plus a
    bounded memo, and only one document's type is in flight at a time.
    (The backing intern table additionally caches one canonical node per
    *distinct* structure seen — see the memory-model note in
    :mod:`repro.types.intern`.)  Blank lines are skipped.
    """
    accumulator = accumulate_lines(lines, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return accumulator.result()


def infer_report_streaming(
    lines: Iterable[str], equivalence: Equivalence = Equivalence.KIND
) -> InferenceReport:
    """Streaming inference plus the report the papers' tables need
    (type, size, document count) — the CLI's streaming path."""
    accumulator = accumulate_lines(lines, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def infer_report_path(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
) -> InferenceReport:
    """One-stop inference over an NDJSON source — the CLI's entry point.

    ``source`` is a file path, ``"-"`` for stdin, or any line iterable.
    A gzip/zstd-compressed file (detected by magic bytes) takes the
    chunked decompression fold (:func:`infer_report_compressed`) —
    member-parallel when ``jobs`` allows and the container has
    independent members.  With ``jobs=1`` a regular file takes the
    **bytes fold** by default:
    the file is mapped as a zero-copy
    :class:`~repro.datasets.ndjson.MmapCorpus` and its byte ranges run
    straight to interned types (:func:`infer_report_corpus`) with no
    per-line decode; non-file sources stream serially in O(nesting)
    memory.  Otherwise the run routes through the adaptive scheduler
    (:func:`repro.inference.distributed.infer_adaptive_text`):
    ``jobs=None`` sizes the worker pool from CPU affinity, ``jobs=N``
    caps it at N, and either way the scheduler falls back to a serial
    fold when its timed-sample cost model says workers would lose.
    Workers read byte ranges of a regular file themselves; lines from
    any other source reach them as pickled batches.
    """
    import os

    from repro.datasets.ndjson import iter_ndjson_lines, open_corpus

    is_file = (
        isinstance(source, (str, os.PathLike))
        and str(source) != "-"
        and os.path.isfile(source)
    )
    if is_file:
        # Compressed corpora cannot be mmap-line-indexed; they route
        # through the chunked decompression fold (and, with jobs, the
        # member-parallel scheduler) before any mmap/streaming choice.
        from repro.datasets.compressed import detect_compression

        fmt = detect_compression(source)
        if fmt is not None:
            return infer_report_compressed(
                source, equivalence, jobs=jobs, format=fmt
            )
    if jobs == 1:
        if is_file:
            # Only regular files can be mapped; FIFOs, /dev/stdin and
            # other special files stat as size 0 and stream instead.
            with open_corpus(source) as corpus:
                return infer_report_corpus(corpus, equivalence)
        return infer_report_streaming(iter_ndjson_lines(source), equivalence)

    from repro.inference.distributed import infer_adaptive_text

    corpus = open_corpus(source) if is_file else None
    try:
        lines = corpus if corpus is not None else list(iter_ndjson_lines(source))
        run = infer_adaptive_text(lines, equivalence, jobs=jobs)
    finally:
        if corpus is not None:
            corpus.close()
    return InferenceReport(
        inferred=run.result,
        equivalence=equivalence,
        document_count=run.document_count,
    )


@contextmanager
def report_with_lines(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
):
    """Infer over ``source``, then hand its lines back for a second pass.

    A context manager yielding ``(report, lines)``: the
    :class:`InferenceReport` of the corpus plus an iterable of its
    decoded lines (blank lines included — consumers skip them, matching
    every fold).  This is the two-pass backbone of the single-pass-
    *looking* translate flow: the corpus is opened **once** — a regular
    file stays mapped across both passes, a compressed file is
    re-streamed through the chunked reader, a non-file line source is
    materialised so the second pass can see it at all.  Routing mirrors
    :func:`infer_report_path` case for case, so the report is
    interned-identical to what that entry point returns.
    """
    import os

    from repro.datasets.ndjson import iter_ndjson_lines, open_corpus

    is_file = (
        isinstance(source, (str, os.PathLike))
        and str(source) != "-"
        and os.path.isfile(source)
    )
    if is_file:
        from repro.datasets.compressed import (
            detect_compression,
            iter_compressed_lines,
        )

        fmt = detect_compression(source)
        if fmt is not None:
            report = infer_report_compressed(
                source, equivalence, jobs=jobs, format=fmt
            )
            yield report, iter_compressed_lines(source, format=fmt)
            return
        with open_corpus(source) as corpus:
            if jobs == 1:
                report = infer_report_corpus(corpus, equivalence)
            else:
                from repro.inference.distributed import infer_adaptive_text

                run = infer_adaptive_text(corpus, equivalence, jobs=jobs)
                report = InferenceReport(
                    inferred=run.result,
                    equivalence=equivalence,
                    document_count=run.document_count,
                )
            yield report, corpus
        return
    lines = list(iter_ndjson_lines(source))
    report = infer_report_streaming(lines, equivalence)
    yield report, lines


@contextmanager
def report_with_spans(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
):
    """Infer over a corpus *file*, then hand back its raw line spans.

    The byte-range sibling of :func:`report_with_lines`, for consumers
    that walk documents as byte slices instead of decoded ``str`` lines
    (the DOM-free translate machine).  Yields ``(report, sections)``
    where ``sections`` iterates ``(buffer, spans)`` pairs: one pair
    covering the whole corpus for a plain file (the mmap buffer plus its
    line index), one pair per decompressed line-aligned block for a
    gzip/zstd corpus (re-streamed through the chunked reader, so peak
    memory stays one block).  Blank spans ride along exactly as blank
    lines do — consumers skip them with the folds' whitespace rule.
    Routing mirrors :func:`infer_report_path` case for case.

    ``source`` must be an on-disk corpus file — other sources have no
    byte spans; callers should fall back to :func:`report_with_lines`.
    """
    import os

    if not (
        isinstance(source, (str, os.PathLike))
        and str(source) != "-"
        and os.path.isfile(source)
    ):
        raise ValueError("report_with_spans needs an on-disk corpus file")

    from repro.datasets.compressed import (
        detect_compression,
        iter_block_line_spans,
        iter_line_blocks,
    )
    from repro.datasets.ndjson import open_corpus

    fmt = detect_compression(source)
    if fmt is not None:
        report = infer_report_compressed(
            source, equivalence, jobs=jobs, format=fmt
        )

        def _sections():
            for block in iter_line_blocks(source, format=fmt):
                yield block, iter_block_line_spans(block)

        yield report, _sections()
        return
    with open_corpus(source) as corpus:
        if jobs == 1:
            report = infer_report_corpus(corpus, equivalence)
        else:
            from repro.inference.distributed import infer_adaptive_text

            run = infer_adaptive_text(corpus, equivalence, jobs=jobs)
            report = InferenceReport(
                inferred=run.result,
                equivalence=equivalence,
                document_count=run.document_count,
            )
        yield report, ((corpus.buffer(), corpus.spans),)

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

import os
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


def _accumulated_report(accumulator) -> InferenceReport:
    """The report of a finished fold; an empty one is an error."""
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=accumulator.equivalence,
        document_count=accumulator.document_count,
    )


def _run_report(run, equivalence: Equivalence) -> InferenceReport:
    """The report of a scheduled (possibly parallel) run."""
    return InferenceReport(
        inferred=run.result,
        equivalence=equivalence,
        document_count=run.document_count,
    )


def _report_ranges(data, spans, equivalence: Equivalence) -> InferenceReport:
    """The bytes-native fold of ``data``'s line ``spans``, each line
    decoded and parsed on its own."""
    from repro.inference.engine import accumulate_ranges

    return _accumulated_report(accumulate_ranges(data, spans, equivalence))


def infer_report_corpus(
    corpus, equivalence: Equivalence = Equivalence.KIND
) -> InferenceReport:
    """Inference over an :class:`~repro.datasets.ndjson.MmapCorpus` via
    the bytes-native fold: the mapped file's line ranges go to canonical
    interned types in line batches, each line decoded and parsed on its
    own.  Interned-identical to every other route."""
    return _report_ranges(corpus.buffer(), corpus.spans, equivalence)


def fold_line_blocks(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
    format: Optional[str] = None,
    block_bytes: Optional[int] = None,
):
    """Fold a streamed NDJSON source through the bytes pipeline.

    The serial route of every source that is not mapped: a gzip/zstd
    file, ``"-"`` (stdin) or a FIFO.  The line-block reader
    (:func:`repro.datasets.compressed.iter_line_blocks`) yields
    line-aligned blocks which feed one persistent
    :class:`~repro.inference.engine.RangeFolder` — the same batched
    fold a mapped file runs, so the result is interned-identical to the
    plain-file fold of the same (decompressed) bytes.  Memory is one
    block plus the pending batch, never the corpus.

    This path **owns error ordering**: JSON/decode errors of earlier
    lines surface before a later decompression failure, exactly as a
    plain serial fold would order them.
    """
    from repro.inference.engine import TypeAccumulator

    return _fold_blocks(
        TypeAccumulator(equivalence, table=table), source, format, block_bytes
    )


def _fold_blocks(accumulator, source, format=None, block_bytes=None):
    """:func:`fold_line_blocks`' loop into ``accumulator``, any accumulator."""
    from repro.datasets.compressed import (
        CompressedCorpusError,
        iter_block_line_spans,
        iter_line_blocks,
    )
    from repro.inference.engine import RangeFolder

    folder = RangeFolder(accumulator)
    blocks = iter_line_blocks(source, format=format, block_bytes=block_bytes)
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

    With ``jobs=1`` the serial chunked fold (:func:`fold_line_blocks`)
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
                return _run_report(run, equivalence)
    accumulator = fold_line_blocks(source, equivalence, format=fmt)
    return _accumulated_report(accumulator)


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
    (type, size, document count) — the route of line iterables."""
    return _accumulated_report(accumulate_lines(lines, equivalence))


def _is_corpus_file(source) -> bool:
    """A regular on-disk file: the sources that map or decompress."""
    return (
        isinstance(source, (str, os.PathLike))
        and str(source) != "-"
        and os.path.isfile(source)
    )


def infer_report_path(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
) -> InferenceReport:
    """One-stop inference over an NDJSON source — the CLI's entry point.

    ``source`` is a file path, ``"-"`` for stdin, or any line iterable.
    A regular file takes :func:`report_with_spans`'s routing: a
    gzip/zstd file the chunked decompression fold, a plain file the
    bytes fold over its zero-copy mmap corpus, and with ``jobs`` other
    than 1 the adaptive scheduler
    (:func:`repro.inference.distributed.infer_adaptive_text`):
    ``jobs=None`` sizes the pool from CPU affinity, ``jobs=N`` caps it
    at N, and either way the scheduler falls back to a serial fold when
    its timed-sample cost model says workers would lose.  Any other
    source folds serially whatever ``jobs`` says: stdin and FIFOs
    through :func:`fold_line_blocks` (one block in memory at a time), a
    line iterable through the str feed.
    """
    if _is_corpus_file(source):
        with report_with_spans(source, equivalence, jobs=jobs) as (report, _):
            return report
    if isinstance(source, (str, os.PathLike)):
        return _accumulated_report(fold_line_blocks(source, equivalence))

    from repro.datasets.ndjson import iter_ndjson_lines

    return infer_report_streaming(iter_ndjson_lines(source), equivalence)


@contextmanager
def report_with_spans(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
):
    """Infer over an NDJSON source, then hand back its raw line spans.

    The one source router of the translate flow: a context manager
    yielding ``(report, sections)``, where ``sections`` iterates
    ``(buffer, spans)`` pairs over the corpus bytes for consumers that
    walk documents as byte slices (the DOM-free translate machine).
    Blank spans ride along exactly as blank lines do — consumers skip
    them with the folds' whitespace rule.

    - A plain file is opened once and mapped: one pair, the mmap buffer
      and its line index, shared by both passes.  With ``jobs`` other
      than 1 its inference runs through the adaptive scheduler.
    - A gzip/zstd file is inferred by the chunked decompression fold
      (member-parallel when ``jobs`` allows), then re-streamed: one pair
      per decompressed line-aligned block, so peak memory stays one
      block.
    - Any other source (``"-"``, a FIFO, a line iterable) is read once
      into one buffer (:func:`repro.datasets.ndjson.read_line_spans`)
      and inferred serially by the same bytes fold, whatever ``jobs``
      says.
    """
    if not _is_corpus_file(source):
        from repro.datasets.ndjson import read_line_spans

        data, spans = read_line_spans(source)
        yield _report_ranges(data, spans, equivalence), ((data, spans),)
        return

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
            report = _run_report(run, equivalence)
        yield report, ((corpus.buffer(), corpus.spans),)

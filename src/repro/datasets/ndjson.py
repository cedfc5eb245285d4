"""Line-oriented NDJSON loaders: raw lines in, documents or types out.

The inference stack's fastest paths consume *raw lines*, not parsed
documents — the text→type pipeline
(:class:`repro.types.build.EventTypeEncoder`) goes from a line to a
canonical interned type, one line's value at a time, and the batched parallel feed
(:func:`repro.inference.distributed.infer_distributed_text`) ships line
slices to workers.  These helpers normalise the usual sources (paths,
``-`` for stdin, open handles, in-memory iterables) into that shape.
"""

from __future__ import annotations

import io
import mmap
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.types import Type
    from repro.types.intern import InternTable

LineSource = Union[str, Path, Iterable[str]]

# Line-break grammar shared by the byte-range index and the worker-side
# re-split of file byte ranges: "\r\n" first (one break, not
# two), then the universal-newline singles — matching the translation
# Python's text mode applies in :func:`iter_ndjson_lines`.
LINE_BREAK_PATTERN = r"\r\n|\r|\n"
_LINE_BREAK_BYTES = re.compile(LINE_BREAK_PATTERN.encode("ascii"))
_LINE_BREAK_STR = re.compile(LINE_BREAK_PATTERN)


def split_corpus_lines(text: str) -> list[str]:
    """Split a decoded corpus byte range back into its lines.

    Inverse of the byte-range index: for any contiguous range of corpus
    lines (original separators included), returns exactly those lines —
    the str form of the worker-side re-split of a file byte range.
    """
    return _LINE_BREAK_STR.split(text)


def split_corpus_bytes(data: bytes) -> list[bytes]:
    """Split an *undecoded* corpus byte range into its line bytes.

    The bytes twin of :func:`split_corpus_lines`: same line-break
    grammar, no decode — each returned item is the raw UTF-8 bytes of
    one corpus line, ready for the bytes-native fold
    (:func:`repro.inference.engine.accumulate_ranges` /
    :meth:`~repro.types.build.EventTypeEncoder.encode_lines`).
    """
    return _LINE_BREAK_BYTES.split(data)


def iter_line_spans(data, start: int = 0, end: Optional[int] = None):
    """Yield the ``(start, end)`` byte span of every line in a range.

    The in-place form of :func:`split_corpus_bytes` for buffers that
    should not be sliced up front (an mmap): spans exclude
    the separators, blank segments are preserved, and the final segment
    is yielded even when empty — exactly the segments the split
    functions return for the same bytes.
    """
    if end is None:
        end = len(data)
    pos = start
    for match in _LINE_BREAK_BYTES.finditer(data, start, end):
        yield pos, match.start()
        pos = match.end()
    yield pos, end


def index_lines(data) -> list[tuple[int, int]]:
    """The corpus line index of a buffer: the ``(start, end)`` byte span
    of every line, terminators excluded, in one C-speed scan.

    The line grammar every corpus route shares: universal newlines
    (:data:`LINE_BREAK_PATTERN`), blank lines preserved, and no phantom
    line after a trailing terminator (unlike :func:`iter_line_spans`,
    whose final segment may be empty).
    """
    size = len(data)
    spans: list[tuple[int, int]] = []
    pos = 0
    if size and data.find(b"\r") == -1:
        # LF-only corpus (the overwhelmingly common case): a bare C find
        # loop, no match objects.
        find = data.find
        while True:
            newline = find(b"\n", pos)
            if newline == -1:
                break
            spans.append((pos, newline))
            pos = newline + 1
    else:
        for match in _LINE_BREAK_BYTES.finditer(data):
            spans.append((pos, match.start()))
            pos = match.end()
    if pos < size:
        spans.append((pos, size))  # final line without a terminator
    return spans


def read_line_spans(
    source: LineSource,
) -> tuple[bytes, list[tuple[int, int]]]:
    """Read a source that cannot be mapped into one buffer plus the byte
    span of each of its lines.

    ``"-"`` (stdin) and special files such as FIFOs are read whole and
    indexed by :func:`index_lines`, so their lines split and decode
    exactly as a mapped file's do.  Any other iterable of strings (a
    text stream standing in for stdin included) keeps one document per
    item: the items are encoded and concatenated, and each span is one
    item's bytes (trailing line terminator stripped), never re-split.
    """
    if isinstance(source, Path):
        source = str(source)
    if isinstance(source, str):
        if source != "-":
            with open(source, "rb") as handle:
                data = handle.read()
            return data, index_lines(data)
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is not None:
            data = buffer.read()
            return data, index_lines(data)
        source = sys.stdin
    chunks = []
    spans = []
    pos = 0
    for line in source:
        chunk = line.rstrip("\r\n").encode("utf-8")
        chunks.append(chunk)
        spans.append((pos, pos + len(chunk)))
        pos += len(chunk)
    return b"".join(chunks), spans


class MmapCorpus(Sequence[str]):
    """An NDJSON corpus as an mmap-backed byte buffer plus a line index.

    ``open_corpus`` maps the file read-only and builds a byte-range
    index of its lines in one C-speed scan — no line is decoded, split,
    or copied until something asks for it.  The corpus then behaves as a
    lazy ``Sequence[str]`` whose items are exactly what
    :func:`iter_ndjson_lines` would yield for the same file (universal
    newlines, terminators stripped, blank lines preserved), which the
    round-trip tests pin.

    The path and the index are what the distributed text feed consumes:
    :func:`repro.inference.distributed.infer_distributed_text` ships
    ``(path, start, end)`` line-aligned byte ranges to the workers, which
    read their own slice of the file, so the parent process never
    splits, decodes, or pickles the corpus line-by-line.
    """

    __slots__ = ("path", "_file", "_mm", "_spans")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._file = open(self.path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            # mmap rejects empty files; an empty corpus has no lines.
            self._mm: Optional[mmap.mmap] = (
                mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
                if size
                else None
            )
            self._spans = index_lines(self.buffer())
        except BaseException:
            self._file.close()
            raise

    # -- the lazy Sequence[str] view ------------------------------------
    #
    # __getitem__ deliberately caches nothing: every access decodes
    # straight from the mapped bytes, so a corpus holds O(index) memory
    # no matter how it is iterated.  Indexing follows Sequence semantics
    # exactly — negative indices, slices (step and negative step
    # included, returning lists), ``__index__``-bearing index objects,
    # IndexError past either end, TypeError on non-indices — pinned by
    # the regression tests in ``tests/test_datasets_ndjson.py``.

    def __len__(self) -> int:
        return len(self._spans)

    def _mapped(self):
        """The live map; a closed corpus fails loudly, not with the
        confusing ``TypeError`` of subscripting ``None``."""
        mm = self._mm
        if mm is None and self._file.closed:
            raise ValueError("I/O operation on closed MmapCorpus")
        return mm

    def __getitem__(self, index):
        if isinstance(index, slice):
            spans = self._spans[index]
            mm = self._mapped() if spans else None
            return [
                mm[start:end].decode("utf-8") if end > start else ""
                for start, end in spans
            ]
        start, end = self._spans[index]
        if end <= start:
            return ""
        return self._mapped()[start:end].decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        mm = self._mapped() if self._spans else None
        for start, end in self._spans:
            yield mm[start:end].decode("utf-8") if end > start else ""

    # -- the zero-copy byte view ----------------------------------------

    @property
    def spans(self) -> list[tuple[int, int]]:
        """Byte range of every line (terminators excluded), in order."""
        return self._spans

    @property
    def size_bytes(self) -> int:
        """Size of the backing file in bytes."""
        return len(self._mm) if self._mm is not None else 0

    @property
    def max_line_bytes(self) -> int:
        """Size of the longest line — the adaptive scheduler's shape
        probe: a corpus dominated by one huge line wants the subtree
        (intra-document) mode, not line parallelism."""
        return max((end - start for start, end in self._spans), default=0)

    def buffer(self):
        """The raw file bytes as a buffer (``b""`` for an empty file)."""
        return self._mm if self._mm is not None else b""

    def byte_range(self, start_line: int, stop_line: int) -> tuple[int, int]:
        """Byte range covering lines ``[start_line, stop_line)`` with
        their original separators in between — re-splittable with
        :func:`split_corpus_lines` into exactly those lines."""
        if not 0 <= start_line < stop_line <= len(self._spans):
            raise IndexError(
                f"line range [{start_line}, {stop_line}) out of bounds "
                f"for a corpus of {len(self._spans)} lines"
            )
        return self._spans[start_line][0], self._spans[stop_line - 1][1]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "MmapCorpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MmapCorpus({self.path!r}, lines={len(self._spans)}, "
            f"bytes={self.size_bytes})"
        )


def open_corpus(path: Union[str, Path]):
    """Open an NDJSON corpus as a lazy ``Sequence[str]``.

    Plain files map as a zero-copy :class:`MmapCorpus`; gzip/zstd files
    (detected by magic bytes) open as a
    :class:`~repro.datasets.compressed.CompressedCorpus` with identical
    line-index semantics over the decompressed bytes — the same
    universal-newline grammar, terminators stripped, blank lines
    preserved, no phantom line after a trailing terminator, and an
    empty (or empty-decompressing) corpus has zero lines.
    """
    from repro.datasets.compressed import CompressedCorpus, detect_compression

    fmt = detect_compression(path)
    if fmt is not None:
        return CompressedCorpus(path, fmt)
    return MmapCorpus(path)


def _iter_stdin_lines() -> Iterator[str]:
    """Stdin's lines, decoded exactly as a file path's are: strict UTF-8
    and universal newlines (``\\r``, ``\\n`` and ``\\r\\n`` all end a
    line), whatever the locale.  A text stream standing in for stdin
    with no byte buffer beneath it is read as it is."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        for line in sys.stdin:
            yield line.rstrip("\r\n")
        return
    stdin = io.TextIOWrapper(buffer, encoding="utf-8", newline=None)
    try:
        for line in stdin:
            yield line.rstrip("\r\n")
    finally:
        stdin.detach()  # leave sys.stdin's buffer open


def iter_ndjson_lines(source: LineSource) -> Iterator[str]:
    """Yield the raw lines of an NDJSON source, newline-stripped.

    ``source`` may be a file path, ``"-"`` for stdin, an open handle, or
    any iterable of strings.  Blank lines are preserved (the consumers
    skip them), so line numbers stay meaningful for error reporting.
    """
    if isinstance(source, Path):
        source = str(source)
    if isinstance(source, str):
        if source == "-":
            yield from _iter_stdin_lines()
            return
        from repro.datasets.compressed import (
            detect_compression,
            iter_compressed_lines,
        )

        if os.path.isfile(source) and detect_compression(source) is not None:
            yield from iter_compressed_lines(source)
            return
        with open(source, "r", encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\r\n")
        return
    for line in source:
        yield line.rstrip("\r\n")


def read_ndjson_lines(source: LineSource) -> list[str]:
    """The raw lines of an NDJSON source as a list (the parallel feed's
    input shape — slices of it are shipped to workers)."""
    return list(iter_ndjson_lines(source))


def stream_documents(source: LineSource) -> Iterator[Any]:
    """Parse an NDJSON source one document at a time (DOM path)."""
    from repro.jsonvalue.parser import parse_lines

    return parse_lines(iter_ndjson_lines(source))


def stream_types(
    source: LineSource, *, table: Optional[InternTable] = None
) -> Iterator[Type]:
    """The canonical interned type of each document in an NDJSON source.

    One document at a time: each line is parsed and typed, and its
    value dropped before the next.  Blank lines are skipped.
    """
    from repro.types.build import EventTypeEncoder

    encoder = EventTypeEncoder(table)
    encode_text = encoder.encode_text
    for line in iter_ndjson_lines(source):
        if not line or line.isspace():
            continue
        yield encode_text(line)


def write_ndjson(path: Union[str, Path], documents: Iterable[Any]) -> int:
    """Serialize documents to an NDJSON file; returns the line count."""
    from repro.jsonvalue.serializer import dumps

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for document in documents:
            handle.write(dumps(document))
            handle.write("\n")
            count += 1
    return count

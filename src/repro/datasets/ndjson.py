"""Line-oriented NDJSON loaders: raw lines in, documents or types out.

The inference stack's fastest paths consume *raw lines*, not parsed
documents — the text→type pipeline
(:class:`repro.types.build.EventTypeEncoder`) goes from a line to a
canonical interned type, one line's value at a time.  These helpers
normalise the usual sources (paths, ``-`` for stdin, open handles,
in-memory iterables) into that shape.  Every path and ``-`` is read by
one reader, the line-aligned byte blocks of
:func:`repro.datasets.compressed.iter_line_blocks`, and split by one line
grammar (:func:`index_lines`), so a line decodes — or fails, with a
position relative to its own start — the same way from every source.
"""

from __future__ import annotations

import mmap
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.types import Type
    from repro.types.intern import InternTable

LineSource = Union[str, Path, Iterable[str]]

# Line-break grammar of the corpus line index (:func:`index_lines`),
# which every route splits lines with: "\r\n" first (one break, not
# two), then the universal-newline singles — the translation Python's
# text mode applies.
LINE_BREAK_PATTERN = r"\r\n|\r|\n"
_LINE_BREAK_BYTES = re.compile(LINE_BREAK_PATTERN.encode("ascii"))


def index_lines(data) -> list[tuple[int, int]]:
    """The corpus line index of a buffer: the ``(start, end)`` byte span
    of every line, terminators excluded, in one C-speed scan.

    The line grammar every corpus route shares, serial and worker
    alike: universal newlines (:data:`LINE_BREAK_PATTERN`), blank lines
    preserved, and no phantom line after a trailing terminator.
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

    ``"-"`` (stdin) and special files such as FIFOs are read whole by
    the one source reader
    (:func:`repro.datasets.compressed.iter_line_blocks`) and indexed by
    :func:`index_lines`, so their lines split and decode exactly as a
    mapped file's do.  Any other iterable of strings keeps one document
    per item: the items are encoded and concatenated, and each span is
    one item's bytes (trailing line terminator stripped), never re-split.
    """
    if isinstance(source, (str, Path)):
        from repro.datasets.compressed import iter_line_blocks

        data = b"".join(iter_line_blocks(source))
        return data, index_lines(data)
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
    line-aligned byte ranges of ``path`` to the workers, which read
    their own slice of the file, so the parent process never splits,
    decodes, or pickles the corpus line-by-line.
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
        their original separators in between — :func:`index_lines` of
        those bytes gives exactly those lines, but for a final empty
        line, which no fold counts as a document."""
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


def open_corpus(path: Union[str, Path]) -> MmapCorpus:
    """Map a plain NDJSON file as a zero-copy :class:`MmapCorpus`.

    A gzip/zstd file (detected by magic bytes) has no byte-addressable
    lines to map, so it raises
    :class:`~repro.datasets.compressed.CompressedCorpusError`; stream
    it with :func:`iter_ndjson_lines` or
    :func:`~repro.datasets.compressed.iter_line_blocks` instead.
    """
    from repro.datasets.compressed import CompressedCorpusError, detect_compression

    fmt = detect_compression(path)
    if fmt is not None:
        raise CompressedCorpusError(
            f"cannot map a {fmt} corpus; stream it with iter_ndjson_lines "
            "or iter_line_blocks",
            str(path),
        )
    return MmapCorpus(path)


def iter_ndjson_lines(source: LineSource) -> Iterator[str]:
    """Yield the raw lines of an NDJSON source, newline-stripped.

    ``source`` may be a file path (plain, gzip or zstd), ``"-"`` for
    stdin, an open handle, or any iterable of strings.  Paths and ``"-"``
    are read as line-aligned byte blocks
    (:func:`repro.datasets.compressed.iter_line_blocks`) and each line is
    decoded on its own, lazily — strict UTF-8 and universal newlines,
    whatever the locale, so an undecodable line raises in line order with
    a position relative to that line.  Blank lines are preserved (the
    consumers skip them), so line numbers stay meaningful for error
    reporting.
    """
    if isinstance(source, (str, Path)):
        from repro.datasets.compressed import iter_line_blocks

        for block in iter_line_blocks(source):
            for start, end in index_lines(block):
                yield block[start:end].decode("utf-8")
        return
    for line in source:
        yield line.rstrip("\r\n")


def read_ndjson_lines(source: LineSource) -> list[str]:
    """The raw lines of an NDJSON source as a list."""
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

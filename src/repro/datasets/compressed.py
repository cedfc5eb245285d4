"""Line-block reader: every NDJSON source as line-aligned byte blocks.

Real log pipelines ship NDJSON gzip- or zstd-compressed, and the paper's
motivating workload is exactly those massive collections.  This module
reads every streamed source — a plain file, ``-`` (stdin), a FIFO, or a
compressed corpus — through one carve loop, so all of them split into
lines, decode and fail alike, and none is ever materialised whole:

- :func:`detect_compression` sniffs the container by magic bytes
  (``\\x1f\\x8b`` for gzip, ``\\x28\\xb5\\x2f\\xfd`` for zstd frames);
- :func:`iter_line_blocks` reads fixed-size chunks (or decompresses in
  bounded chunks) and yields **line-aligned byte blocks** — each block
  ends at a line break (a partial trailing line is carried over into
  the next block), so every block can be handed to
  :class:`~repro.inference.engine.RangeFolder` with
  :func:`iter_block_line_spans` and the fold sees
  exactly the lines a mapped file would produce;
- :func:`member_candidates` scans the *compressed* bytes for member /
  frame starts (gzip members and zstd frames are independently
  decompressible), which
  :func:`repro.inference.distributed.infer_compressed_parallel` groups
  into member-aligned byte ranges for the one range worker
  (:func:`repro.inference.distributed._fold_ranges`), the same entry
  that folds plain line ranges and subtree chunks.

A compressed corpus has no byte-addressable lines, so it is only ever
streamed: :func:`repro.datasets.ndjson.open_corpus`, which maps plain
files, raises :class:`CompressedCorpusError` for one.

``zstandard`` is an **optional** dependency: detection works from magic
bytes alone, but decoding a zstd corpus without the module raises a
:class:`CompressedCorpusError` explaining the degradation — gzip decode
rides the stdlib ``zlib`` and always works.

Error model: truncated and corrupt streams raise picklable,
offset-bearing errors (:class:`TruncatedStreamError` /
:class:`CorruptStreamError`, offsets into the *compressed* file).  The
serial fold owns all error ordering — the parallel member path treats
any worker failure as "fall back to serial", exactly like the subtree
splitter.
"""

from __future__ import annotations

import os
import re
import sys
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.errors import ReproError

from repro.datasets.ndjson import index_lines

MAGIC_GZIP = b"\x1f\x8b"
MAGIC_ZSTD = b"\x28\xb5\x2f\xfd"

# Decompressed block target: large enough to amortise per-block Python
# overhead, small enough that block + carry stays far under corpus size.
DEFAULT_BLOCK_BYTES = 1 << 20
# Read size for plain files, stdin and FIFOs: large enough to amortise
# per-read overhead, small next to the fold's own memory (1 MiB reads
# measured about 3 MB more peak RSS on a 2.5 MB stdin corpus).
READ_BYTES = 64 << 10
_COMPRESSED_READ_BYTES = 256 << 10

try:  # optional dependency — gzip-only degradation without it
    import zstandard as _zstandard
except ImportError:  # pragma: no cover - exercised by the gzip-only CI leg
    _zstandard = None


def zstd_available() -> bool:
    """Whether the optional ``zstandard`` codec is importable."""
    return _zstandard is not None


class CompressedCorpusError(ReproError):
    """Base error for compressed-corpus decoding.

    Carries the corpus ``path`` and the ``offset`` into the *compressed*
    file where decoding failed, and stays picklable across the worker
    pool (``multiprocessing`` ships exceptions by pickle; a lost
    ``__init__`` signature would turn a precise diagnostic into a
    ``TypeError`` on the way home, as the parser errors learned first).
    """

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> None:
        self.raw_message = message
        self.path = path
        self.offset = offset
        suffix = ""
        if path is not None:
            suffix = f" [{path}"
            if offset is not None:
                suffix += f" @ compressed byte {offset}"
            suffix += "]"
        elif offset is not None:
            suffix = f" [compressed byte {offset}]"
        super().__init__(message + suffix)

    def __reduce__(self):
        return (type(self), (self.raw_message, self.path, self.offset))


class TruncatedStreamError(CompressedCorpusError):
    """The compressed stream ended mid-member (missing trailer/frames)."""


class CorruptStreamError(CompressedCorpusError):
    """The compressed bytes are damaged (bad CRC, bad header, garbage)."""


def detect_compression(path: Union[str, Path]) -> Optional[str]:
    """Sniff a file's compression container from its magic bytes.

    Returns ``"gzip"``, ``"zstd"``, or ``None`` for anything else
    (including empty and unreadably short files, which are treated as
    plain corpora).  Detection never needs the optional codec module.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(4)
    except OSError:
        return None
    if head[:2] == MAGIC_GZIP:
        return "gzip"
    if head == MAGIC_ZSTD or _is_skippable_magic(head):
        return "zstd"
    return None


def _is_skippable_magic(head: bytes) -> bool:
    """zstd skippable-frame magic: ``0x184D2A50`` through ``0x184D2A5F``
    (little-endian on disk), legal at any frame boundary."""
    return len(head) >= 4 and 0x50 <= head[0] <= 0x5F and head[1:4] == b"\x2a\x4d\x18"


class _GzipEngine:
    """gzip member decoding on stdlib ``zlib`` (wbits=31 reads the gzip
    wrapper and verifies CRC32 + ISIZE at each member end)."""

    name = "gzip"
    magic_len = 2
    probe_bytes = 3
    errors = (zlib.error,)

    def new_decompressor(self):
        return zlib.decompressobj(31)

    def is_member_start(self, buf) -> bool:
        # Magic plus the only defined compression method (deflate=8):
        # rejects trailing garbage that merely starts with \x1f\x8b.
        return buf[:2] == MAGIC_GZIP and (len(buf) < 3 or buf[2] == 8)

    def is_magic_prefix(self, buf) -> bool:
        return MAGIC_GZIP.startswith(bytes(buf[: self.magic_len]))

    def skippable_size(self, buf) -> Optional[int]:
        return None

    def decompress(self, decomp, data, max_out: int):
        out = decomp.decompress(data, max_out)
        return out, decomp.unconsumed_tail

    def at_eof(self, decomp) -> bool:
        return decomp.eof

    def unused_data(self, decomp) -> bytes:
        return decomp.unused_data


class _ZstdEngine:
    """zstd frame decoding on the optional ``zstandard`` module."""

    name = "zstd"
    magic_len = 4
    probe_bytes = 8

    def __init__(self) -> None:
        if _zstandard is None:
            raise CompressedCorpusError(
                "zstd corpus detected but the optional 'zstandard' module is "
                "not installed; install the repro[zstd] extra or decompress "
                "the file first (gzip corpora need no extras)"
            )
        self.errors = (_zstandard.ZstdError,)

    def new_decompressor(self):
        return _zstandard.ZstdDecompressor().decompressobj()

    def is_member_start(self, buf) -> bool:
        return bytes(buf[:4]) == MAGIC_ZSTD

    def is_magic_prefix(self, buf) -> bool:
        return MAGIC_ZSTD.startswith(bytes(buf[: self.magic_len]))

    def skippable_size(self, buf) -> Optional[int]:
        """Whole on-disk size of a skippable frame at ``buf[0:]``, or
        ``None`` — skippable frames carry no data and are skipped here
        so the decompressor only ever sees content frames."""
        if not _is_skippable_magic(bytes(buf[:4])):
            return None
        if len(buf) < 8:
            return -1  # magic matched but the size field is cut off
        return 8 + int.from_bytes(bytes(buf[4:8]), "little")

    def decompress(self, decomp, data, max_out: int):
        # zstandard's decompressobj has no max_length cap; frames are
        # decoded as the input arrives, so output stays ~input-sized
        # times the frame ratio per call.
        return decomp.decompress(bytes(data)), b""

    def at_eof(self, decomp) -> bool:
        return getattr(decomp, "eof", False)

    def unused_data(self, decomp) -> bytes:
        return getattr(decomp, "unused_data", b"")


def _engine_for(fmt: str):
    if fmt == "gzip":
        return _GzipEngine()
    if fmt == "zstd":
        return _ZstdEngine()
    raise CompressedCorpusError(f"unknown compression format {fmt!r}")


def _iter_decompressed(
    path: Union[str, Path],
    fmt: str,
    start: int = 0,
    end: Optional[int] = None,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    stats: Optional[dict] = None,
) -> Iterator[bytes]:
    """Decompress the compressed byte range ``[start, end)`` of ``path``,
    yielding raw decompressed chunks (NOT line-aligned — that is
    :func:`iter_line_blocks`' job).

    The range must begin at a member/frame boundary and end exactly at
    one: a range cut mid-member raises :class:`TruncatedStreamError`,
    damaged bytes raise :class:`CorruptStreamError`, and non-member
    bytes between members raise :class:`CorruptStreamError` at their
    offset.  This is both the serial whole-file reader (``start=0``,
    ``end=None``) and the worker-side range validator of the parallel
    member fold — a speculative range that is *not* member-aligned
    fails here and sends the run back to serial.

    ``stats``, when given, tracks ``compressed_consumed`` (bytes of
    compressed input consumed so far) for the scheduler's ratio probe.
    """
    engine = _engine_for(fmt)
    path = str(path)
    if end is None:
        end = os.path.getsize(path)
    with open(path, "rb") as handle:
        handle.seek(start)
        remaining = end - start
        read_total = 0
        buffered = b""

        def refill() -> bool:
            nonlocal buffered, remaining, read_total
            raw = handle.read(min(_COMPRESSED_READ_BYTES, remaining))
            if not raw:
                remaining = 0
                return False
            remaining -= len(raw)
            read_total += len(raw)
            buffered += raw
            return True

        decomp = None
        member_offset = start
        while True:
            if decomp is None:
                # Between members: probe for the next member start,
                # skip skippable frames, or finish cleanly at range end.
                while len(buffered) < engine.probe_bytes and remaining > 0:
                    refill()
                if not buffered:
                    if stats is not None:
                        stats["compressed_consumed"] = read_total
                    return
                member_offset = start + read_total - len(buffered)
                skip = engine.skippable_size(buffered)
                if skip is not None:
                    if skip < 0:
                        raise TruncatedStreamError(
                            "truncated zstd skippable frame", path, end
                        )
                    while len(buffered) < skip and remaining > 0:
                        refill()
                    if len(buffered) < skip:
                        raise TruncatedStreamError(
                            "truncated zstd skippable frame", path, end
                        )
                    buffered = buffered[skip:]
                    continue
                if not engine.is_member_start(buffered):
                    if (
                        len(buffered) < engine.magic_len
                        and engine.is_magic_prefix(buffered)
                    ):
                        raise TruncatedStreamError(
                            f"truncated {fmt} stream: member header cut off",
                            path,
                            end,
                        )
                    raise CorruptStreamError(
                        f"invalid {fmt} member header",
                        path,
                        member_offset,
                    )
                decomp = engine.new_decompressor()
            if not buffered and not refill():
                raise TruncatedStreamError(
                    f"truncated {fmt} stream: member at compressed byte "
                    f"{member_offset} has no trailer",
                    path,
                    end,
                )
            try:
                out, leftover = engine.decompress(decomp, buffered, block_bytes)
            except engine.errors as exc:
                raise CorruptStreamError(
                    f"corrupt {fmt} stream: {exc}", path, member_offset
                ) from None
            buffered = leftover
            if engine.at_eof(decomp):
                # At stream end zlib reports the remaining input in BOTH
                # unused_data and unconsumed_tail when the same call hit
                # the max_length cap; unused_data alone is the remainder
                # (concatenating the two would replay it).
                buffered = engine.unused_data(decomp)
                decomp = None
            if stats is not None:
                stats["compressed_consumed"] = read_total - len(buffered)
            if out:
                yield out


def _line_aligned_cut(data: bytes) -> Optional[int]:
    """Index one past the last *complete* line break in ``data``.

    A lone ``\\r`` as the final byte is not complete — its ``\\n`` half
    may arrive in the next decompressed chunk (the corpus grammar treats
    ``\\r\\n`` as one break) — so it stays in the carry.  ``None`` when
    no complete break exists.
    """
    limit = len(data)
    if data.endswith(b"\r"):
        limit -= 1
    cut = max(data.rfind(b"\n", 0, limit), data.rfind(b"\r", 0, limit))
    if cut == -1:
        return None
    return cut + 1


def _read_chunks(source: str, size: int) -> Iterator[bytes]:
    """Fixed-size reads of a plain file, a FIFO, or ``"-"`` (stdin's
    byte buffer).  A text stream standing in for stdin, with no buffer
    beneath it, is read as characters and encoded, so it splits into
    lines exactly as its bytes would."""
    if source != "-":
        with open(source, "rb") as handle:
            while chunk := handle.read(size):
                yield chunk
        return
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        while text := sys.stdin.read(size):
            yield text.encode("utf-8")
        return
    while chunk := buffer.read(size):
        yield chunk


def _source_chunks(
    source: Union[str, Path],
    *,
    format: Optional[str] = None,
    block_bytes: Optional[int] = None,
) -> Iterator[bytes]:
    """The raw bytes of a streamed source, in chunks that need not end
    at a line break.

    ``format`` names the container; left ``None``, a regular file is
    sniffed by :func:`detect_compression` (stdin and FIFOs never are —
    peeking would consume their bytes).  A compressed source is
    decompressed ``block_bytes`` (default :data:`DEFAULT_BLOCK_BYTES`)
    of output at a time; any other is read ``block_bytes`` (default
    :data:`READ_BYTES`) at a time.
    """
    source = str(source)
    if format is None and source != "-" and os.path.isfile(source):
        format = detect_compression(source)
    if format is not None:
        return _iter_decompressed(
            source, format, block_bytes=block_bytes or DEFAULT_BLOCK_BYTES
        )
    return _read_chunks(source, block_bytes or READ_BYTES)


def iter_line_blocks(
    source: Union[str, Path],
    *,
    format: Optional[str] = None,
    block_bytes: Optional[int] = None,
) -> Iterator[bytes]:
    """Yield a streamed NDJSON source as line-aligned byte blocks.

    ``source`` is a plain or gzip/zstd file, ``"-"`` for stdin, or a
    FIFO; chunks come from :func:`_source_chunks`.  Every block but
    the last ends exactly at a line break; a partial trailing line is
    carried into the next block, so the concatenation of all blocks is
    the (decompressed) source and no line ever spans two blocks.  Peak
    memory is one block plus the longest line — never the whole corpus.
    Feed each block through :func:`iter_block_line_spans` to recover
    exactly the lines :class:`~repro.datasets.ndjson.MmapCorpus` would
    index in the same bytes.
    """
    chunks = _source_chunks(source, format=format, block_bytes=block_bytes)
    # The carry never contains a complete break (at most a trailing lone
    # ``\r`` awaiting its possible ``\n``), so only the new chunk needs
    # searching — keeping the loop O(total bytes) even when a line spans
    # thousands of tiny chunks.
    carry = bytearray()
    for chunk in chunks:
        cut = _line_aligned_cut(chunk)
        if cut is None:
            # No complete break in the chunk.  The chunk cannot start
            # with ``\n`` here (that would be a complete break at index
            # 0), so a trailing ``\r`` in the carry is now known to be a
            # lone-CR break — flush through it.
            if carry and carry[-1] == 0x0D:
                block = bytes(carry)
                carry = bytearray(chunk)
                yield block
            else:
                carry += chunk
            continue
        yield bytes(carry) + chunk[:cut]
        carry = bytearray(chunk[cut:])
    if carry:
        yield bytes(carry)


def iter_block_line_spans(block: bytes) -> Iterator[tuple]:
    """Line spans of one line-aligned block, MmapCorpus-identical.

    Blocks from :func:`iter_line_blocks` end at a break or at true EOF,
    so the corpus line index (:func:`~repro.datasets.ndjson.index_lines`,
    which never indexes the phantom line after a trailing terminator)
    gives exactly the block's lines.
    """
    return iter(index_lines(block))


# gzip member start: magic + deflate method + a FLG byte with the
# reserved bits (5-7) clear — RFC 1952 requires them zero, so the
# 4-byte probe rejects most of the random \x1f\x8b pairs that occur
# inside compressed payloads.  Candidates are still *speculative*:
# a worker whose range starts at a false candidate fails to decode and
# the run falls back to serial.
_GZIP_CANDIDATE = re.compile(b"\x1f\x8b\x08[\x00-\x1f]")
_ZSTD_CANDIDATE = re.compile(re.escape(MAGIC_ZSTD))
_MAX_CANDIDATES = 1 << 16


def member_candidates(
    path: Union[str, Path],
    format: Optional[str] = None,
    *,
    limit: int = _MAX_CANDIDATES,
) -> list[int]:
    """Compressed-byte offsets that *look like* member/frame starts.

    Offset 0 is always included.  gzip candidates are filtered by
    header plausibility (method + reserved flag bits), zstd by frame
    magic; both can still be payload-byte coincidences, which the
    parallel member fold detects by decode failure and resolves by
    serial fallback.  At most ``limit`` offsets are returned — more
    members than that are far past the point of diminishing parallelism.
    """
    fmt = format or detect_compression(path)
    pattern = {"gzip": _GZIP_CANDIDATE, "zstd": _ZSTD_CANDIDATE}.get(fmt)
    if pattern is None:
        return []
    offsets = [0]
    with open(path, "rb") as handle:
        data = handle.read()
    for match in pattern.finditer(data):
        if match.start() == 0:
            continue
        offsets.append(match.start())
        if len(offsets) >= limit:
            break
    return offsets


def compress_member(payload: bytes, *, format: str = "gzip", level: int = 6) -> bytes:
    """Compress one payload as a single member/frame.

    Concatenating the results of several calls produces a valid
    multi-member gzip file / multi-frame zstd file — the independently
    decompressible units :func:`member_candidates` finds.  ``mtime`` is
    pinned to zero so gzip output is deterministic.
    """
    if format == "gzip":
        import gzip  # only writers need it; readers decode through zlib

        return gzip.compress(payload, compresslevel=level, mtime=0)
    if format == "zstd":
        if _zstandard is None:
            raise CompressedCorpusError(
                "cannot write zstd: the optional 'zstandard' module is not "
                "installed (install the repro[zstd] extra)"
            )
        return _zstandard.ZstdCompressor(level=level).compress(payload)
    raise CompressedCorpusError(f"unknown compression format {format!r}")


def compress_corpus(
    path: Union[str, Path],
    lines: Iterable[str],
    *,
    format: str = "gzip",
    member_lines: Optional[int] = None,
    level: int = 6,
) -> int:
    """Write lines as a compressed NDJSON corpus; returns the member count.

    ``member_lines`` starts a fresh gzip member / zstd frame every that
    many lines, producing the multi-member layout real log rotation
    concatenation yields (and the one the parallel member fold
    exploits); ``None`` writes one member.  Lines are written
    ``"\\n"``-terminated, matching :func:`~repro.datasets.ndjson.write_ndjson`.
    """
    members = 0
    with open(path, "wb") as handle:
        payload: list[str] = []
        for line in lines:
            payload.append(line)
            if member_lines is not None and len(payload) >= member_lines:
                handle.write(
                    compress_member(
                        ("\n".join(payload) + "\n").encode("utf-8"),
                        format=format,
                        level=level,
                    )
                )
                members += 1
                payload = []
        if payload or members == 0:
            data = ("\n".join(payload) + "\n").encode("utf-8") if payload else b""
            handle.write(compress_member(data, format=format, level=level))
            members += 1
    return members


def estimate_ratio(
    path: Union[str, Path],
    format: Optional[str] = None,
    *,
    probe_bytes: int = 1 << 20,
) -> float:
    """Decompressed/compressed expansion ratio, from a bounded probe.

    Decompresses roughly the first ``probe_bytes`` of output and divides
    by the compressed input consumed — the scheduler's cost model needs
    the *decompressed* corpus size, which no container header states
    reliably (gzip's ISIZE covers only the last member, mod 2**32).
    Unreadable or damaged streams report 1.0 and leave the real error to
    the fold.
    """
    fmt = format or detect_compression(path)
    if fmt is None:
        return 1.0
    stats: dict = {}
    produced = 0
    try:
        for chunk in _iter_decompressed(path, fmt, stats=stats):
            produced += len(chunk)
            if produced >= probe_bytes:
                break
    except CompressedCorpusError:
        return 1.0
    consumed = stats.get("compressed_consumed", 0)
    if consumed <= 0 or produced <= 0:
        return 1.0
    return max(1.0, produced / consumed)

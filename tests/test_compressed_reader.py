"""Boundary tests for the chunked decompression reader and its routes.

The reader's contract is exact: line-aligned blocks whose concatenation
is the decompressed file, MmapCorpus-identical line semantics, picklable
offset-bearing errors for truncated/corrupt streams, and a parallel
member fold that either matches the serial fold interned-identically or
backs off to it.  These tests pin the boundary cases where that contract
is easiest to lose: lines split across decompression blocks, multi-member
files, empty members, zero-byte and header-only files, CRLF pairs split
across members, and false member candidates inside compressed payloads.
"""

from __future__ import annotations

import gzip
import os
import pickle
import zlib

import pytest

from repro.datasets import (
    CompressedCorpusError,
    CorruptStreamError,
    TruncatedStreamError,
    compress_corpus,
    compress_member,
    detect_compression,
    iter_line_blocks,
    iter_ndjson_lines,
    member_candidates,
    open_corpus,
    zstd_available,
)
from repro.datasets import compressed
from repro.datasets.compressed import (
    _line_aligned_cut,
    estimate_ratio,
    iter_block_line_spans,
)
from repro.inference import distributed
from repro.inference import (
    accumulate_ranges,
    fold_line_blocks,
    infer_compressed_parallel,
    infer_counted_compressed,
    infer_counted_streaming,
    infer_report_path,
    plan_compressed_schedule,
)
from repro.types import Equivalence
from repro.types.intern import global_table

SAMPLE_LINES = [f'{{"id": {i}, "tag": "t{i % 3}"}}' for i in range(60)]


def _write_members(path, payloads, fmt="gzip"):
    with open(path, "wb") as handle:
        for payload in payloads:
            handle.write(compress_member(payload, format=fmt))


def _plain_reference(tmp_path, raw: bytes):
    plain = tmp_path / "reference.ndjson"
    plain.write_bytes(raw)
    table = global_table()
    with open_corpus(plain) as corpus:
        return table.canonical(
            accumulate_ranges(corpus.buffer(), corpus.spans).result()
        )


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detect_compression_by_magic(tmp_path):
    gz = tmp_path / "a.gz"
    gz.write_bytes(gzip.compress(b"{}\n", mtime=0))
    plain = tmp_path / "a.ndjson"
    plain.write_bytes(b'{"a": 1}\n')
    zst = tmp_path / "a.zst"
    zst.write_bytes(b"\x28\xb5\x2f\xfd" + b"\x00" * 8)
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    short = tmp_path / "short"
    short.write_bytes(b"\x1f")
    assert detect_compression(gz) == "gzip"
    assert detect_compression(plain) is None
    assert detect_compression(zst) == "zstd"  # detection needs no module
    assert detect_compression(empty) is None
    assert detect_compression(short) is None
    assert detect_compression(tmp_path / "missing") is None


def test_zstd_without_module_raises_a_clear_error(tmp_path):
    if zstd_available():
        pytest.skip("zstandard installed: the degradation path is inert")
    path = tmp_path / "a.zst"
    path.write_bytes(b"\x28\xb5\x2f\xfd" + b"\x00" * 8)
    with pytest.raises(CompressedCorpusError, match="zstandard"):
        list(iter_line_blocks(path))


# ---------------------------------------------------------------------------
# the chunked reader
# ---------------------------------------------------------------------------


def test_blocks_are_line_aligned_and_lossless(tmp_path):
    raw = ("\n".join(SAMPLE_LINES) + "\n").encode("utf-8")
    path = tmp_path / "c.gz"
    path.write_bytes(gzip.compress(raw, mtime=0))
    # Tiny blocks force every line to be assembled across block
    # boundaries via the carry.
    blocks = list(iter_line_blocks(path, block_bytes=7))
    assert b"".join(blocks) == raw
    for block in blocks[:-1]:
        assert block.endswith((b"\n", b"\r")), "interior block not line-aligned"


def test_huge_single_line_spans_many_blocks(tmp_path, monkeypatch):
    line = '{"blob": "' + "x" * 300_000 + '"}'
    raw = (line + "\n").encode("utf-8")
    path = tmp_path / "big.gz"
    path.write_bytes(gzip.compress(raw, mtime=0))
    blocks = list(iter_line_blocks(path, block_bytes=1024))
    assert b"".join(blocks) == raw
    monkeypatch.setattr(compressed, "DEFAULT_BLOCK_BYTES", 1024)
    assert list(iter_ndjson_lines(path)) == [line]


def test_multi_member_gzip_decodes_seamlessly(tmp_path):
    path = tmp_path / "multi.gz"
    # Member boundaries deliberately mid-line: member 1 ends inside a
    # JSON document that member 2 completes.
    raw = ("\n".join(SAMPLE_LINES) + "\n").encode("utf-8")
    cut = raw.index(b'"tag"', len(raw) // 2)
    _write_members(path, [raw[:cut], raw[cut:]])
    assert list(iter_ndjson_lines(path)) == SAMPLE_LINES
    table = global_table()
    assert table.canonical(fold_line_blocks(path).result()) is _plain_reference(
        tmp_path, raw
    )


def test_member_end_on_block_cap_does_not_replay(tmp_path):
    # When one decompress call both fills the block cap exactly and hits
    # the member's stream end, zlib reports the remaining input in BOTH
    # unused_data and unconsumed_tail; concatenating the two replayed the
    # following members forever.  Decompressed sizes that are exact
    # multiples of block_bytes force that coincidence on every member.
    path = tmp_path / "aligned.gz"
    payloads = [b"A" * 49 + b"\n", b"B" * 49 + b"\n", b"C" * 49 + b"\n"]
    _write_members(path, payloads)
    for block_bytes in (1, 5, 10, 25, 50):
        blocks = list(iter_line_blocks(path, block_bytes=block_bytes))
        assert b"".join(blocks) == b"".join(payloads)


def test_empty_members_are_transparent(tmp_path):
    path = tmp_path / "sparse.gz"
    _write_members(path, [b"", b'{"a": 1}\n', b"", b"", b'{"b": 2}\n', b""])
    assert list(iter_ndjson_lines(path)) == ['{"a": 1}', '{"b": 2}']


def test_zero_byte_file_is_a_plain_empty_corpus(tmp_path):
    path = tmp_path / "zero.gz"
    path.write_bytes(b"")
    assert detect_compression(path) is None
    with open_corpus(path) as corpus:
        assert list(corpus) == []


def test_header_only_file_raises_truncated_with_offset(tmp_path):
    path = tmp_path / "header.gz"
    path.write_bytes(b"\x1f\x8b")
    with pytest.raises(TruncatedStreamError) as excinfo:
        list(iter_line_blocks(path))
    assert excinfo.value.offset == 2
    assert excinfo.value.path == str(path)


def test_truncated_member_raises_at_stream_end(tmp_path):
    payload = gzip.compress(("\n".join(SAMPLE_LINES) + "\n").encode(), mtime=0)
    path = tmp_path / "cut.gz"
    path.write_bytes(payload[: len(payload) - 6])
    with pytest.raises(TruncatedStreamError) as excinfo:
        list(iter_line_blocks(path))
    assert excinfo.value.offset == len(payload) - 6


def test_corrupt_payload_raises_at_member_offset(tmp_path):
    first = compress_member(b'{"a": 1}\n')
    second = bytearray(compress_member(b'{"b": 2}\n'))
    second[12] ^= 0xFF  # damage the deflate payload of member 2
    path = tmp_path / "bad.gz"
    path.write_bytes(first + bytes(second))
    with pytest.raises(CorruptStreamError) as excinfo:
        list(iter_line_blocks(path))
    assert excinfo.value.offset == len(first)


def test_trailing_garbage_raises_corrupt(tmp_path):
    path = tmp_path / "garbage.gz"
    path.write_bytes(compress_member(b'{"a": 1}\n') + b"not gzip at all")
    with pytest.raises(CorruptStreamError) as excinfo:
        list(iter_line_blocks(path))
    assert excinfo.value.offset == len(compress_member(b'{"a": 1}\n'))


def test_errors_survive_pickling(tmp_path):
    for exc in (
        TruncatedStreamError("cut short", "/tmp/x.gz", 17),
        CorruptStreamError("bad crc", "/tmp/x.gz", 0),
        CompressedCorpusError("plain", None, None),
    ):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert clone.raw_message == exc.raw_message
        assert clone.path == exc.path
        assert clone.offset == exc.offset
        assert str(clone) == str(exc)


def test_line_aligned_cut_holds_back_ambiguous_cr():
    assert _line_aligned_cut(b"abc") is None
    assert _line_aligned_cut(b"abc\n") == 4
    assert _line_aligned_cut(b"abc\r") is None  # \n half may follow
    assert _line_aligned_cut(b"abc\rdef") == 4  # lone CR is complete
    assert _line_aligned_cut(b"a\nb\r") == 2
    assert _line_aligned_cut(b"a\r\r") == 2  # first CR complete, last held


def test_block_line_spans_drop_only_empty_finals():
    assert [(0, 1)] == list(iter_block_line_spans(b"a\n"))
    assert [(0, 1)] == list(iter_block_line_spans(b"a"))
    assert [(0, 0)] == list(iter_block_line_spans(b"\n"))
    assert [(0, 1), (2, 2), (3, 4)] == list(iter_block_line_spans(b"a\n\nb"))


def test_crlf_split_across_members(tmp_path):
    # The \r ends member 1's decompressed output, the \n starts member
    # 2's: the pair must still count as one break.
    path = tmp_path / "crlf.gz"
    _write_members(path, [b'{"a": 1}\r', b'\n{"b": 2}\r\n'])
    assert list(iter_ndjson_lines(path)) == ['{"a": 1}', '{"b": 2}']


def test_crlf_split_across_tiny_blocks(tmp_path, monkeypatch):
    raw = b'{"a": 1}\r\n{"b": 2}\r\n'
    path = tmp_path / "crlf2.gz"
    path.write_bytes(gzip.compress(raw, mtime=0))
    for block_bytes in range(1, 12):
        monkeypatch.setattr(compressed, "DEFAULT_BLOCK_BYTES", block_bytes)
        assert list(iter_ndjson_lines(path)) == ['{"a": 1}', '{"b": 2}']


# ---------------------------------------------------------------------------
# member candidates and the parallel fold
# ---------------------------------------------------------------------------


def test_member_candidates_find_true_boundaries(tmp_path):
    path = tmp_path / "members.gz"
    members = compress_corpus(path, SAMPLE_LINES, member_lines=10)
    assert members == 6
    candidates = member_candidates(path)
    assert candidates[0] == 0
    # Every true member start must be a candidate (payload coincidences
    # may add more — the fold tolerates those, missing real ones would
    # forfeit parallelism).
    offsets, pos = [], 0
    data = path.read_bytes()
    while pos < len(data):
        offsets.append(pos)
        decomp = zlib.decompressobj(31)
        decomp.decompress(data[pos:])
        pos = len(data) - len(decomp.unused_data)
    assert set(offsets) <= set(candidates)


def test_parallel_fold_matches_serial_identity(tmp_path):
    raw = ("\n".join(SAMPLE_LINES) + "\n").encode("utf-8")
    path = tmp_path / "members.gz"
    compress_corpus(path, SAMPLE_LINES, member_lines=7)
    reference = _plain_reference(tmp_path, raw)
    table = global_table()
    for equivalence in (Equivalence.KIND, Equivalence.LABEL):
        run = infer_compressed_parallel(path, equivalence, processes=3)
        assert run is not None
        serial = fold_line_blocks(path, equivalence)
        assert table.canonical(run.result) is table.canonical(serial.result())
        assert run.document_count == serial.document_count == len(SAMPLE_LINES)
    run = infer_compressed_parallel(path, Equivalence.KIND, processes=3)
    assert table.canonical(run.result) is reference


def test_parallel_fold_with_midline_member_boundaries(tmp_path):
    raw = ("\n".join(SAMPLE_LINES) + "\n").encode("utf-8")
    path = tmp_path / "midline.gz"
    third = len(raw) // 3
    _write_members(path, [raw[:third], raw[third : 2 * third], raw[2 * third :]])
    run = infer_compressed_parallel(path, Equivalence.KIND, processes=3)
    assert run is not None
    assert run.document_count == len(SAMPLE_LINES)
    table = global_table()
    assert table.canonical(run.result) is _plain_reference(tmp_path, raw)


def test_parallel_fold_rejects_false_candidates(tmp_path):
    path = tmp_path / "single.gz"
    path.write_bytes(gzip.compress(("\n".join(SAMPLE_LINES) + "\n").encode(), mtime=0))
    # Force a bogus mid-stream "member" offset: the worker range cannot
    # decode, so the speculative run must back off (None), never
    # misreport.
    size = os.path.getsize(path)
    run = infer_compressed_parallel(
        path, Equivalence.KIND, processes=2, candidates=[0, size // 2]
    )
    assert run is None


def test_parallel_fold_backs_off_without_members(tmp_path):
    path = tmp_path / "single.gz"
    path.write_bytes(gzip.compress(b'{"a": 1}\n', mtime=0))
    assert infer_compressed_parallel(path, Equivalence.KIND, processes=4) is None


def test_parallel_fold_backs_off_on_all_blank_corpus(tmp_path):
    path = tmp_path / "blank.gz"
    _write_members(path, [b"\n\n", b"  \n\n"])
    assert infer_compressed_parallel(path, Equivalence.KIND, processes=2) is None


# ---------------------------------------------------------------------------
# scheduler and entry points
# ---------------------------------------------------------------------------


def test_plan_compressed_schedule_modes(tmp_path, monkeypatch):
    multi = tmp_path / "multi.gz"
    compress_corpus(multi, SAMPLE_LINES, member_lines=5)
    single = tmp_path / "single.gz"
    compress_corpus(single, SAMPLE_LINES)
    # The cost model sizes the corpus from the probed expansion ratio.
    assert estimate_ratio(single) > 1.0
    assert estimate_ratio(multi) > 1.0

    plan = plan_compressed_schedule(multi, jobs=1)
    assert plan.mode == "serial" and "one worker" in plan.reason

    plan = plan_compressed_schedule(single, jobs=4)
    if plan.cpus > 1:
        assert plan.mode == "serial"
        assert "single gzip member" in plan.reason

    # Pin the constants so the decision is deterministic: free workers,
    # slow decompression → parallel wins whenever CPUs allow.
    monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0")
    monkeypatch.setattr(distributed, "_DECOMPRESS_BYTES_PER_SECOND", 1)
    monkeypatch.setattr(distributed, "_SCAN_BYTES_PER_SECOND", 1)
    plan = plan_compressed_schedule(multi, jobs=4)
    if plan.cpus > 1:
        assert plan.calibration_source == "env"
        assert plan.mode == "parallel"
        assert plan.jobs >= 2
        assert plan.estimated_serial_seconds > plan.estimated_parallel_seconds
    else:
        # Single-CPU machines short-circuit before the cost model runs.
        assert plan.mode == "serial"

    # Expensive workers → serial even with many members.
    monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "1e9")
    monkeypatch.setattr(distributed, "_DECOMPRESS_BYTES_PER_SECOND", 1e12)
    monkeypatch.setattr(distributed, "_SCAN_BYTES_PER_SECOND", 1e12)
    plan = plan_compressed_schedule(multi, jobs=4)
    assert plan.mode == "serial"


def test_infer_report_path_routes_compressed(tmp_path):
    raw = ("\n".join(SAMPLE_LINES) + "\n").encode("utf-8")
    plain = tmp_path / "c.ndjson"
    plain.write_bytes(raw)
    packed = tmp_path / "c.ndjson.gz"
    compress_corpus(packed, SAMPLE_LINES, member_lines=9)
    table = global_table()
    reference = table.canonical(infer_report_path(str(plain)).inferred)
    for jobs in (1, 2, None):
        report = infer_report_path(str(packed), jobs=jobs)
        assert table.canonical(report.inferred) is reference
        assert report.document_count == len(SAMPLE_LINES)


def test_infer_counted_compressed_matches_streaming(tmp_path):
    packed = tmp_path / "c.gz"
    compress_corpus(packed, SAMPLE_LINES, member_lines=11)
    for equivalence in (Equivalence.KIND, Equivalence.LABEL):
        assert infer_counted_compressed(
            packed, equivalence
        ) == infer_counted_streaming(SAMPLE_LINES, equivalence)


def test_cli_infer_reads_compressed(tmp_path, capsys):
    from repro.cli import main

    plain = tmp_path / "c.ndjson"
    plain.write_text("\n".join(SAMPLE_LINES) + "\n", encoding="utf-8")
    packed = tmp_path / "c.ndjson.gz"
    compress_corpus(packed, SAMPLE_LINES, member_lines=13)
    assert main(["infer", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["infer", str(packed)]) == 0
    assert capsys.readouterr().out == expected
    assert main(["skeleton", str(packed), "--k", "2"]) == 0
    assert "skeleton of order" in capsys.readouterr().out


def test_serial_error_ordering_json_before_stream_failure(tmp_path):
    # A malformed JSON line sits *before* the corrupt second member: the
    # serial fold, plain or counted, must report the JSON error, not the
    # stream error.
    from repro.jsonvalue.parser import JsonParseError

    first = compress_member(b'{"ok": 1}\n{"broken": \n')
    second = bytearray(compress_member(b'{"also": 2}\n'))
    second[11] ^= 0xFF
    path = tmp_path / "ordered.gz"
    path.write_bytes(first + bytes(second))
    with pytest.raises(JsonParseError):
        fold_line_blocks(path)
    with pytest.raises(JsonParseError):
        infer_counted_compressed(path)


# ---------------------------------------------------------------------------
# zstd (runs only when the optional codec is installed)
# ---------------------------------------------------------------------------

needs_zstd = pytest.mark.skipif(
    not zstd_available(), reason="optional zstandard module not installed"
)


@needs_zstd
def test_zstd_round_trip_and_identity(tmp_path):
    raw = ("\n".join(SAMPLE_LINES) + "\n").encode("utf-8")
    path = tmp_path / "c.ndjson.zst"
    compress_corpus(path, SAMPLE_LINES, member_lines=8, format="zstd")
    assert detect_compression(path) == "zstd"
    assert list(iter_ndjson_lines(path)) == SAMPLE_LINES
    table = global_table()
    assert table.canonical(fold_line_blocks(path).result()) is _plain_reference(
        tmp_path, raw
    )


@needs_zstd
def test_zstd_parallel_members(tmp_path):
    path = tmp_path / "c.zst"
    compress_corpus(path, SAMPLE_LINES, member_lines=6, format="zstd")
    assert len(member_candidates(path)) >= 2
    run = infer_compressed_parallel(path, Equivalence.KIND, processes=3)
    assert run is not None
    table = global_table()
    assert table.canonical(run.result) is table.canonical(
        fold_line_blocks(path).result()
    )


@needs_zstd
def test_zstd_skippable_frames_are_skipped(tmp_path):
    import zstandard

    skippable = b"\x50\x2a\x4d\x18" + (4).to_bytes(4, "little") + b"abcd"
    frame = zstandard.ZstdCompressor().compress(b'{"a": 1}\n')
    path = tmp_path / "skip.zst"
    path.write_bytes(skippable + frame + skippable)
    assert list(iter_ndjson_lines(path)) == ['{"a": 1}']

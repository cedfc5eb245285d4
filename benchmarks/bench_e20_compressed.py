"""E20 — compressed corpora at wire speed: chunked decode into the fold.

Artifact reconstructed: real public NDJSON corpora ship gzip-compressed
(and increasingly zstd-compressed), so PR 7 taught the ingestion layer
to stream gzip/zstd straight into the bytes fold — magic-byte
detection, line-aligned decompressed blocks (never the whole corpus in
memory), and a worker-parallel decompress+fold over independent gzip
members priced by a decompress-rate calibration constant.

Three sections, all recorded in ``BENCH_compressed.json``:

- **decode**: docs/s of the chunked gzip fold vs. the plain mmap fold
  on the same corpus bytes, plus the on-disk compression ratio — the
  cost of decoding at ingest rather than in a separate gunzip pass;
- **members**: the serial compressed fold vs. the parallel member fold
  at 2 and 4 workers on a multi-member corpus (the container layout
  concatenated gzip ships naturally);
- **scheduler**: ``plan_compressed_schedule`` keeping single-member
  streams serial (one stream decodes sequentially) and routing
  multi-member corpora through the modeled decompress-rate win.

Identity gates always run: every compressed fold must intern to the
object-identical type of the plain fold.  Timing ratios are asserted
only under ``REPRO_BENCH_ASSERT=1`` (wall clock on shared single-CPU
runners is meaningless for a 4-worker pipeline);
``REPRO_BENCH_FULL=1`` grows the corpora.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.datasets import compress_corpus, open_corpus, zstd_available
from repro.datasets.compressed import estimate_ratio, member_candidates
from repro.inference import (
    accumulate_ranges,
    fold_line_blocks,
    infer_compressed_parallel,
    plan_compressed_schedule,
)
from repro.jsonvalue.serializer import dumps
from repro.types.intern import global_table

from helpers import RESULTS_DIR, emit, table

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))
ASSERT_TIMING = bool(os.environ.get("REPRO_BENCH_ASSERT"))

DOCS = 400_000 if FULL else 40_000


def _corpus_lines(n: int) -> list[str]:
    rng = random.Random(20)
    return [
        dumps(
            {
                "id": i,
                "name": f"user-{rng.randint(0, 10**6)}",
                "score": rng.random() * 100,
                "active": bool(i % 3),
                "tags": ["a", "b", "c"][: rng.randint(0, 3)] or None,
            }
        )
        for i in range(n)
    ]


def _timed(fn, repeat=2):
    best, best_result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, best_result = elapsed, result
    return best, best_result


def _bench_decode(rows, records, tmp_dir, lines):
    """Chunked decompress-and-fold vs. the plain mmap fold."""
    verify = global_table()
    plain_path = os.path.join(tmp_dir, "corpus.ndjson")
    with open(plain_path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    plain_bytes = os.path.getsize(plain_path)
    with open_corpus(plain_path) as corpus:
        plain_seconds, plain_acc = _timed(
            lambda c=corpus: accumulate_ranges(c.buffer(), c.spans)
        )
    reference = verify.canonical(plain_acc.result())

    formats = ["gzip"] + (["zstd"] if zstd_available() else [])
    for fmt in formats:
        packed = os.path.join(tmp_dir, f"corpus.{fmt}")
        compress_corpus(packed, lines, format=fmt)
        packed_bytes = os.path.getsize(packed)
        fold_seconds, acc = _timed(lambda p=packed: fold_line_blocks(p))
        # Identity gate: decoding at ingest changes nothing downstream.
        assert verify.canonical(acc.result()) is reference, fmt
        assert acc.document_count == len(lines)
        record = {
            "format": fmt,
            "documents": len(lines),
            "plain_megabytes": round(plain_bytes / 1e6, 1),
            "compression_ratio": round(plain_bytes / packed_bytes, 2),
            "docs_per_sec_plain_fold": round(len(lines) / plain_seconds),
            "docs_per_sec_compressed_fold": round(len(lines) / fold_seconds),
            "decode_overhead": round(fold_seconds / plain_seconds, 3),
        }
        records.append(record)
        rows.append(
            [
                fmt,
                len(lines),
                f"{record['compression_ratio']:.2f}x",
                record["docs_per_sec_plain_fold"],
                record["docs_per_sec_compressed_fold"],
                record["decode_overhead"],
            ]
        )
        os.unlink(packed)
    os.unlink(plain_path)
    if ASSERT_TIMING:
        # Chunked decode must stay within 2.5x of the raw mmap fold —
        # the decompressor runs at memory-bandwidth rates next to the
        # JSON scan.
        assert max(r["decode_overhead"] for r in records) <= 2.5


def _bench_members(rows, records, tmp_dir, lines):
    """Serial compressed fold vs. the parallel member fold."""
    verify = global_table()
    packed = os.path.join(tmp_dir, "members.gz")
    member_lines = max(1, len(lines) // 16)
    members = compress_corpus(packed, lines, member_lines=member_lines)
    candidates = member_candidates(packed)
    serial_seconds, serial_acc = _timed(lambda: fold_line_blocks(packed))
    reference = verify.canonical(serial_acc.result())
    runs = {}
    for label, processes in (("2p", 2), ("4p", 4)):
        seconds, run = _timed(
            lambda p=processes: infer_compressed_parallel(packed, processes=p)
        )
        assert run is not None, "multi-member corpus must parallelize"
        # Identity gate: member-parallel decode is the same monoid.
        assert verify.canonical(run.result) is reference
        assert run.document_count == len(lines)
        runs[label] = seconds
    record = {
        "documents": len(lines),
        "members": members,
        "member_candidates": len(candidates),
        "docs_per_sec_serial": round(len(lines) / serial_seconds),
        "docs_per_sec_2p": round(len(lines) / runs["2p"]),
        "docs_per_sec_4p": round(len(lines) / runs["4p"]),
        "speedup_4p_vs_serial": round(serial_seconds / runs["4p"], 2),
    }
    records.append(record)
    rows.append(
        [
            len(lines),
            members,
            record["docs_per_sec_serial"],
            record["docs_per_sec_2p"],
            record["docs_per_sec_4p"],
            f"{record['speedup_4p_vs_serial']:5.2f}x",
        ]
    )
    os.unlink(packed)
    if ASSERT_TIMING:
        assert record["speedup_4p_vs_serial"] >= 1.5


def _bench_scheduler(rows, records, tmp_dir, lines):
    """plan_compressed_schedule: single-member serial, multi-member
    modeled against the decompress-rate constant."""
    single = os.path.join(tmp_dir, "single.gz")
    compress_corpus(single, lines)
    multi = os.path.join(tmp_dir, "multi.gz")
    compress_corpus(multi, lines, member_lines=max(1, len(lines) // 16))

    pinned = {
        "REPRO_WORKER_STARTUP_SECONDS": "0.001",
        "REPRO_SCAN_BYTES_PER_SECOND": "80e6",
        "REPRO_DECOMPRESS_BYTES_PER_SECOND": "250e6",
    }
    previous = {k: os.environ.get(k) for k in pinned}
    os.environ.update(pinned)
    try:
        plan_single = plan_compressed_schedule(single, jobs=4)
        plan_multi = plan_compressed_schedule(multi, jobs=4)
        ratio = estimate_ratio(multi)
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    # One compressed stream decodes sequentially, whatever the budget.
    assert not plan_single.parallel
    # The multi-member plan may only parallelize when CPUs exist for it.
    if plan_multi.cpus > 1:
        assert plan_multi.parallel
    assert ratio > 1.0
    for shape, plan in (
        ("single member", plan_single),
        ("16-line members", plan_multi),
    ):
        records.append(
            {
                "corpus_shape": shape,
                "parallel": plan.parallel,
                "jobs": plan.jobs,
                "estimated_ratio": round(ratio, 2),
                "reason": plan.reason,
            }
        )
        rows.append([shape, "parallel" if plan.parallel else "serial", plan.jobs])
    os.unlink(single)
    os.unlink(multi)


def test_e20_compressed(tmp_path):
    lines = _corpus_lines(DOCS)

    decode_rows: list[list] = []
    decode_records: list[dict] = []
    _bench_decode(decode_rows, decode_records, str(tmp_path), lines)

    member_rows: list[list] = []
    member_records: list[dict] = []
    _bench_members(member_rows, member_records, str(tmp_path), lines)

    scheduler_rows: list[list] = []
    scheduler_records: list[dict] = []
    _bench_scheduler(scheduler_rows, scheduler_records, str(tmp_path), lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_compressed.json").write_text(
        json.dumps(
            {
                "experiment": "e20-compressed",
                "zstd_available": zstd_available(),
                "decode_rows": decode_records,
                "member_rows": member_records,
                "scheduler_rows": scheduler_records,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E20-compressed",
        table(
            ["format", "docs", "ratio", "plain docs/s", "compressed docs/s", "overhead"],
            decode_rows,
        )
        + "\n\n"
        + table(
            ["docs", "members", "serial docs/s", "2p docs/s", "4p docs/s", "speedup"],
            member_rows,
        )
        + "\n\n"
        + table(["corpus shape", "plan", "jobs"], scheduler_rows),
    )

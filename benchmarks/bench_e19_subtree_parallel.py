"""E19 — intra-document parallelism: subtree splitter + parallel fold.

Artifact reconstructed: the corpus shape line parallelism cannot touch —
one (or a few) huge single-line documents — after PR 6 added the
bytes-native structural splitter.  A single linear pass over the mapped
buffer carves the top-level container into top-level-subtree byte
ranges without decoding; workers type the chunk ranges with the
``encode_bytes`` machine; the partials reassemble through the same
interning monoid, so the result is *object-identical* to the serial
fold.  The adaptive scheduler gained a third mode ("subtree", next to
"serial" and "parallel") fed by bytes-rate calibration constants.

Three sections, all recorded in ``BENCH_subtree.json``:

- **subtree**: MB/s of the serial mmap fold vs. the subtree pipeline
  in-process (split overhead floor) and at 4 workers, on single-line
  array-of-records and object-of-rows corpora;
- **ndjson**: the line-parallel regression guard — a normal
  many-small-lines corpus must not split (every line stays under the
  threshold) and must plan a non-subtree mode;
- **scheduler**: the shape probe picking the subtree mode for the huge
  corpus under pinned calibration constants.

Corpus sizes are CI-small by default; ``REPRO_BENCH_FULL=1`` grows the
main corpus past 100 MB.  Timing ratios are asserted only under
``REPRO_BENCH_ASSERT=1`` (wall clock on shared single-CPU runners is
meaningless for a 4-worker pipeline); the identity gates always run.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.datasets import open_corpus
from repro.inference import distributed as distributed_module
from repro.inference.distributed import infer_subtree_text, plan_schedule
from repro.inference.engine import accumulate_ranges
from repro.jsonvalue.serializer import dumps
from repro.types.intern import global_table

from helpers import RESULTS_DIR, emit, table

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))
ASSERT_TIMING = bool(os.environ.get("REPRO_BENCH_ASSERT"))

# Rows per document: ~115 bytes each, so 60k rows ≈ 7 MB CI-small and
# 900k rows ≈ 105 MB under REPRO_BENCH_FULL.
ROWS = 900_000 if FULL else 60_000


def _record_rows(n: int) -> list[dict]:
    rng = random.Random(19)
    return [
        {
            "id": i,
            "name": f"user-{rng.randint(0, 10**6)}",
            "score": rng.random() * 100,
            "active": bool(i % 3),
            "tags": ["a", "b", "c"][: rng.randint(0, 3)] or None,
        }
        for i in range(n)
    ]


def _write_single_line(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(document))
        handle.write("\n")


def _timed(fn, repeat=2):
    best, best_result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, best_result = elapsed, result
    return best, best_result


def _bench_subtree(rows, records, tmp_dir):
    verify = global_table()
    shapes = [
        ("array-of-records", _record_rows(ROWS)),
        ("object-of-rows", {"meta": {"v": 1}, "rows": _record_rows(ROWS // 2)}),
    ]
    for name, document in shapes:
        path = os.path.join(tmp_dir, f"{name}.ndjson")
        _write_single_line(path, document)
        size_mb = os.path.getsize(path) / 1e6
        with open_corpus(path) as corpus:
            serial_seconds, serial_acc = _timed(
                lambda c=corpus: accumulate_ranges(c.buffer(), c.spans)
            )
            reference = verify.canonical(serial_acc.result())
            runs = {}
            for label, processes in (("split-1p", 1), ("split-4p", 4)):
                with open_corpus(path) as corpus_run:
                    seconds, run = _timed(
                        lambda c=corpus_run, p=processes: infer_subtree_text(
                            c, processes=p, min_split_bytes=0
                        )
                    )
                # Identity gate: the reassembled type is the serial node.
                assert verify.canonical(run.result) is reference, name
                assert run.partitions >= 1
                runs[label] = seconds
        os.unlink(path)
        record = {
            "corpus": name,
            "megabytes": round(size_mb, 1),
            "mb_per_sec_serial": round(size_mb / serial_seconds, 1),
            "mb_per_sec_split_1p": round(size_mb / runs["split-1p"], 1),
            "mb_per_sec_split_4p": round(size_mb / runs["split-4p"], 1),
            "speedup_4p_vs_serial": round(serial_seconds / runs["split-4p"], 2),
        }
        records.append(record)
        rows.append(
            [
                name,
                f"{size_mb:.1f}",
                record["mb_per_sec_serial"],
                record["mb_per_sec_split_1p"],
                record["mb_per_sec_split_4p"],
                f'{record["speedup_4p_vs_serial"]:5.2f}x',
            ]
        )
    if ASSERT_TIMING:
        assert max(r["speedup_4p_vs_serial"] for r in records) >= 2.0


def _bench_ndjson_regression(rows, records, tmp_dir):
    """A normal NDJSON corpus through the subtree entry point: every
    line is under the split threshold, so the run must degenerate to the
    plain serial fold (zero split documents) at matching throughput."""
    verify = global_table()
    n = 200_000 if FULL else 30_000
    path = os.path.join(tmp_dir, "ndjson.ndjson")
    rng = random.Random(19)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            handle.write(dumps({"id": i, "v": rng.random(), "k": ["x"] * (i % 3)}))
            handle.write("\n")
    with open_corpus(path) as corpus:
        serial_seconds, serial_acc = _timed(
            lambda c=corpus: accumulate_ranges(c.buffer(), c.spans)
        )
        reference = verify.canonical(serial_acc.result())
    with open_corpus(path) as corpus:
        subtree_seconds, run = _timed(
            lambda c=corpus: infer_subtree_text(c, processes=4)
        )
    os.unlink(path)
    assert verify.canonical(run.result) is reference
    # Default threshold: no line splits, no pool spins up.
    assert run.partitions == 1 and run.processes == 1
    record = {
        "documents": n,
        "docs_per_sec_serial": round(n / serial_seconds),
        "docs_per_sec_subtree_entry": round(n / subtree_seconds),
        "split_documents": 0,
        "overhead_vs_serial": round(subtree_seconds / serial_seconds, 3),
    }
    records.append(record)
    rows.append(
        [
            n,
            record["docs_per_sec_serial"],
            record["docs_per_sec_subtree_entry"],
            0,
            record["overhead_vs_serial"],
        ]
    )
    if ASSERT_TIMING:
        assert record["overhead_vs_serial"] <= 1.15


def _bench_scheduler(rows, records, tmp_dir):
    """The shape probe: a huge single-line corpus plans the subtree
    mode; the same bytes as many small lines do not."""
    pinned = {
        "REPRO_WORKER_STARTUP_SECONDS": "0.001",
        "REPRO_SCAN_BYTES_PER_SECOND": "80e6",
        "REPRO_SPLIT_BYTES_PER_SECOND": "2e9",
    }
    previous = {k: os.environ.get(k) for k in pinned}
    os.environ.update(pinned)
    original_auto_jobs = distributed_module.auto_jobs
    distributed_module.auto_jobs = lambda: 4
    try:
        huge = os.path.join(tmp_dir, "huge.ndjson")
        _write_single_line(huge, _record_rows(60_000))
        with open_corpus(huge) as corpus:
            plan_huge = plan_schedule(corpus)
        lines = os.path.join(tmp_dir, "lines.ndjson")
        with open(lines, "w", encoding="utf-8") as handle:
            for row in _record_rows(20_000):
                handle.write(dumps(row))
                handle.write("\n")
        with open_corpus(lines) as corpus:
            plan_lines = plan_schedule(corpus)
        os.unlink(huge)
        os.unlink(lines)
    finally:
        distributed_module.auto_jobs = original_auto_jobs
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    assert plan_huge.mode == "subtree"
    assert plan_lines.mode in ("serial", "parallel")
    for shape, plan in (("one huge line", plan_huge), ("many small lines", plan_lines)):
        records.append(
            {
                "corpus_shape": shape,
                "mode": plan.mode,
                "jobs": plan.jobs,
                "reason": plan.reason,
            }
        )
        rows.append([shape, plan.mode, plan.jobs])


def test_e19_subtree_parallel(tmp_path):
    subtree_rows: list[list] = []
    subtree_records: list[dict] = []
    _bench_subtree(subtree_rows, subtree_records, str(tmp_path))

    ndjson_rows: list[list] = []
    ndjson_records: list[dict] = []
    _bench_ndjson_regression(ndjson_rows, ndjson_records, str(tmp_path))

    scheduler_rows: list[list] = []
    scheduler_records: list[dict] = []
    _bench_scheduler(scheduler_rows, scheduler_records, str(tmp_path))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_subtree.json").write_text(
        json.dumps(
            {
                "experiment": "e19-subtree-parallel",
                "subtree_rows": subtree_records,
                "ndjson_rows": ndjson_records,
                "scheduler_rows": scheduler_records,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E19-subtree-parallel",
        table(
            ["corpus", "MB", "serial MB/s", "split-1p MB/s", "split-4p MB/s", "speedup"],
            subtree_rows,
        )
        + "\n\n"
        + table(
            ["docs", "serial docs/s", "subtree-entry docs/s", "split docs", "overhead"],
            ndjson_rows,
        )
        + "\n\n"
        + table(["corpus shape", "plan mode", "jobs"], scheduler_rows),
    )

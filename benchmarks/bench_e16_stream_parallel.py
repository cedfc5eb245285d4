"""E16 — zero-materialization streaming & the batched parallel text feed.

Artifact reconstructed: the end-to-end text→type throughput of streaming
inference (bytes on disk to merged type), before and after fusing the
pipeline, plus the scaling of the real multiprocessing mode once workers
receive raw line batches instead of re-pickled documents.

Three measurements over NDJSON tweet corpora:

- **dom**: the DOM path — ``parse(line)`` then the fused value encoder
  (what the CLI's serial path did before this experiment);
- **pr2-frames**: the PR 2 streaming path, reconstructed here verbatim —
  ``iter_events`` driving per-document ``_Frame`` objects and an
  interned builder (one ``JsonEvent`` per token, one frame per open
  container, one dict per record);
- **fused**: the text→type feed (:meth:`EventTypeEncoder.encode_text`
  via :meth:`TypeAccumulator.add_text`).  It once drove the shape
  caches from the lexer's tokens; it now decodes with the C decoder and
  walks the value, so it runs the **dom** path's work under another
  name.

The parallel rows compare the serial fused fold against
``infer_distributed_text`` with 2 and 4 workers.  They once measured the
batched-pickle feed; since that transport was deleted the workers read
their own byte ranges of the corpus written to a file.

Emits ``BENCH_stream.json`` under ``benchmarks/results/``.  Timing
ratios are asserted only under ``REPRO_BENCH_ASSERT=1`` (wall clock on
shared CI runners is flaky); the identity gates — every path lands on
the interned-identical type — always run.  Acceptance: fused ≥ 2x the
PR 2 streaming path at 50k docs (the JSON records the trajectory).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from typing import Any, Optional

from repro.datasets import ndjson_lines, open_corpus, tweets
from repro.inference.distributed import infer_distributed_text
from repro.inference.engine import TypeAccumulator
from repro.jsonvalue.events import JsonEventType, iter_events
from repro.jsonvalue.parser import parse
from repro.types import Type
from repro.types.intern import InternTable, global_table
from repro.types.terms import BOOL, BOT, FLT, INT, NULL, STR

from helpers import RESULTS_DIR, emit, table

SIZES = [10_000, 50_000]
if os.environ.get("REPRO_BENCH_FULL"):
    SIZES.append(100_000)

ASSERT_TIMING = bool(os.environ.get("REPRO_BENCH_ASSERT"))


# --------------------------------------------------------------------------
# The PR 2 streaming path, reconstructed as the baseline: event objects,
# per-document frames, dict fields per record.
# --------------------------------------------------------------------------


class _PR2Builder:
    """The PR 2 interned event builder (probe-first leaves/containers)."""

    __slots__ = ("table", "_scalars", "_empty_arr")

    def __init__(self, table: InternTable) -> None:
        self.table = table
        self._scalars = {
            type(None): table.intern(NULL),
            bool: table.intern(BOOL),
            int: table.intern(INT),
            float: table.intern(FLT),
            str: table.intern(STR),
        }
        self._empty_arr = table.arr_of(table.intern(BOT))

    def scalar(self, value: Any) -> Type:
        return self._scalars[type(value)]

    def record(self, fields: dict[str, Type]) -> Type:
        field_of = self.table.field_of
        return self.table.rec_of([field_of(name, t) for name, t in fields.items()])

    def array(self, items: list[Type]) -> Type:
        if not items:
            return self._empty_arr
        return self.table.arr_of(self.table.union_of(items))


class _PR2Frame:
    """One open container while typing the stream (the PR 2 shape)."""

    __slots__ = ("is_object", "fields", "items", "pending_key")

    def __init__(self, is_object: bool) -> None:
        self.is_object = is_object
        self.fields: dict[str, Type] = {}
        self.items: list[Type] = []
        self.pending_key: Optional[str] = None


def _pr2_type_of_text(text: str, builder: _PR2Builder) -> Type:
    scalar = builder.scalar
    stack: list[_PR2Frame] = []
    result: Optional[Type] = None
    for event in iter_events(text):
        etype = event.type
        if etype is JsonEventType.KEY:
            stack[-1].pending_key = event.value
        elif etype is JsonEventType.VALUE:
            t = scalar(event.value)
            if stack:
                frame = stack[-1]
                if frame.is_object:
                    frame.fields[frame.pending_key] = t
                    frame.pending_key = None
                else:
                    frame.items.append(t)
            else:
                result = t
        elif etype is JsonEventType.START_OBJECT:
            stack.append(_PR2Frame(True))
        elif etype is JsonEventType.START_ARRAY:
            stack.append(_PR2Frame(False))
        else:
            frame = stack.pop()
            t = (
                builder.record(frame.fields)
                if frame.is_object
                else builder.array(frame.items)
            )
            if stack:
                parent = stack[-1]
                if parent.is_object:
                    parent.fields[parent.pending_key] = t
                    parent.pending_key = None
                else:
                    parent.items.append(t)
            else:
                result = t
    assert result is not None
    return result


# --------------------------------------------------------------------------


def _bench_stream(rows, records):
    for n in SIZES:
        lines = ndjson_lines(tweets(n, seed=16))

        dom_acc = TypeAccumulator(table=InternTable())
        start = time.perf_counter()
        for line in lines:
            dom_acc.add(parse(line))
        seconds_dom = time.perf_counter() - start

        pr2_acc = TypeAccumulator(table=InternTable())
        pr2_builder = _PR2Builder(pr2_acc.table)
        start = time.perf_counter()
        for line in lines:
            pr2_acc.add_type(_pr2_type_of_text(line, pr2_builder))
        seconds_pr2 = time.perf_counter() - start

        fused_acc = TypeAccumulator(table=InternTable())
        add_text = fused_acc.add_text
        start = time.perf_counter()
        for line in lines:
            add_text(line)
        seconds_fused = time.perf_counter() - start

        # Identity gate: all three pipelines land on the same canonical
        # node once re-interned into one table.
        verify = global_table()
        assert (
            verify.canonical(fused_acc.result())
            is verify.canonical(pr2_acc.result())
            is verify.canonical(dom_acc.result())
        )

        speedup_pr2 = seconds_pr2 / seconds_fused
        speedup_dom = seconds_dom / seconds_fused
        record = {
            "documents": n,
            "docs_per_sec_dom": round(n / seconds_dom),
            "docs_per_sec_pr2_frames": round(n / seconds_pr2),
            "docs_per_sec_fused": round(n / seconds_fused),
            "speedup_vs_pr2_frames": round(speedup_pr2, 2),
            "speedup_vs_dom": round(speedup_dom, 2),
        }
        records.append(record)
        rows.append(
            [
                n,
                record["docs_per_sec_dom"],
                record["docs_per_sec_pr2_frames"],
                record["docs_per_sec_fused"],
                f"{speedup_pr2:5.1f}x",
                f"{speedup_dom:5.1f}x",
            ]
        )
    by_docs = {r["documents"]: r for r in records}
    # Acceptance: >= 2x over the PR 2 streaming path at the 50k fold.
    if ASSERT_TIMING:
        assert by_docs[50_000]["speedup_vs_pr2_frames"] >= 2.0


def _bench_parallel(rows, records, tmp_dir):
    n = max(SIZES)
    lines = ndjson_lines(tweets(n, seed=16))
    path = os.path.join(tmp_dir, "stream.ndjson")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))

    start = time.perf_counter()
    serial_acc = TypeAccumulator(table=InternTable())
    for line in lines:
        serial_acc.add_text(line)
    seconds_serial = time.perf_counter() - start
    reference = global_table().canonical(serial_acc.result())

    cpu = multiprocessing.cpu_count()
    records.append(
        {
            "feed": "serial",
            "jobs": 1,
            "documents": n,
            "docs_per_sec": round(n / seconds_serial),
            "speedup_vs_serial": 1.0,
            "cpus": cpu,
        }
    )
    rows.append([n, "serial", 1, round(n / seconds_serial), "  1.0x"])
    feed = "file-ranges"
    for jobs in (2, 4):
        start = time.perf_counter()
        with open_corpus(path) as corpus:
            run = infer_distributed_text(corpus, partitions=jobs, processes=jobs)
        seconds = time.perf_counter() - start
        assert global_table().canonical(run.result) is reference
        assert run.document_count == n
        speedup = seconds_serial / seconds
        records.append(
            {
                "feed": feed,
                "jobs": jobs,
                "documents": n,
                "docs_per_sec": round(n / seconds),
                "speedup_vs_serial": round(speedup, 2),
                "cpus": cpu,
            }
        )
        rows.append([n, feed, jobs, round(n / seconds), f"{speedup:5.1f}x"])


def test_e16_stream_parallel(tmp_path):
    stream_rows: list[list] = []
    stream_records: list[dict] = []
    _bench_stream(stream_rows, stream_records)

    parallel_rows: list[list] = []
    parallel_records: list[dict] = []
    _bench_parallel(parallel_rows, parallel_records, str(tmp_path))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_stream.json").write_text(
        json.dumps(
            {
                "experiment": "e16-stream-parallel",
                "stream_rows": stream_records,
                "parallel_rows": parallel_records,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E16-stream-parallel",
        table(
            ["docs", "dom/s", "pr2-frames/s", "fused/s", "vs pr2", "vs dom"],
            stream_rows,
        )
        + "\n\n"
        + table(["docs", "feed", "jobs", "docs/s", "vs serial"], parallel_rows),
    )

"""E18 — bytes-native scan pipeline: mmap ranges → interned types.

Artifact reconstructed: the serial corpus fold after PR 5 replaced the
per-line ``mmap → slice → .decode("utf-8") → str scan`` path with the
bytes-native pipeline — ``accumulate_ranges`` over the mapped file's
byte ranges in line batches — and the parallel file-range feed whose
workers read and fold their own byte range of the file (no pickled
lines between the file and the interned partials).

Three sections, all recorded in ``BENCH_bytes.json``:

- **fold**: docs/sec of the serial mmap-corpus fold — the PR 4
  decode+scan path (iterate the corpus, decode each line, type the
  str) vs. the bytes fold — on the generator corpora, a non-ASCII corpus,
  and the numeric corpus.  Since the line-shape cache and the regex
  scan were deleted, both sides decode each line and type it through
  the C decoder, so the ratio compares one route with itself and sits
  near 1.0x;
- **parallel**: the file-range byte feed at a fixed worker count, with
  the per-worker transport recorded;
- **calibration**: the scheduler plan consuming the persisted
  per-machine profile (the startup constant loaded, not re-sampled or
  defaulted).

Timing ratios are asserted only under ``REPRO_BENCH_ASSERT=1`` (wall
clock on shared CI runners is flaky); the identity gates — every path
lands on the interned-identical type — always run.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.datasets import open_corpus, tweets, github_events, nyt_articles, write_ndjson
from repro.inference import calibration as calibration_module
from repro.inference import distributed as distributed_module
from repro.inference.distributed import infer_distributed_text, plan_schedule
from repro.inference.engine import TypeAccumulator, accumulate_ranges
from repro.jsonvalue.serializer import dumps
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable, global_table

from helpers import RESULTS_DIR, emit, table

SIZES = [10_000, 50_000]
if os.environ.get("REPRO_BENCH_FULL"):
    SIZES.append(100_000)

ASSERT_TIMING = bool(os.environ.get("REPRO_BENCH_ASSERT"))


def _numeric_lines(n: int) -> list[str]:
    rng = random.Random(17)
    return [
        dumps(
            {
                "series": [rng.randint(0, 10**12) for _ in range(40)],
                "metrics": {
                    "mean": rng.random() * 100,
                    "p99": rng.random() * 1000,
                    "count": rng.randint(0, 10**6),
                },
            }
        )
        for _ in range(n)
    ]


def _nonascii_lines(n: int) -> list[str]:
    rng = random.Random(17)
    names = ["Алёна", "Борис", "Вера", "花子", "太郎", "José", "Zoë"]
    cities = ["東京", "Köln", "Санкт-Петербург", "São Paulo"]
    tags = ["путешествия", "музыка", "料理", "fútbol", "😀", "𝄞"]
    return [
        dumps(
            {
                "имя": rng.choice(names),
                "город": {"название": rng.choice(cities), "indice": rng.random()},
                "метки": [rng.choice(tags) for _ in range(rng.randint(0, 3))],
                "счёт": rng.randint(0, 10**9),
            }
        )
        for _ in range(n)
    ]


def _pr4_decode_fold(corpus) -> TypeAccumulator:
    """The PR 4 serial path: per-line decode + str scan + fold."""
    accumulator = TypeAccumulator(table=InternTable())
    add_text = accumulator.add_text
    for line in corpus:  # MmapCorpus.__iter__ decodes each line
        if not line or line.isspace():
            continue
        add_text(line)
    return accumulator


def _bytes_fold(corpus) -> TypeAccumulator:
    """The PR 5 serial path: byte ranges in line batches."""
    return accumulate_ranges(corpus.buffer(), corpus.spans, table=InternTable())


def _timed(fn, repeat=2):
    best, best_result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, best_result = elapsed, result
    return best, best_result


def _bench_fold(rows, records, tmp_dir):
    corpora = [
        ("tweets", lambda n: tweets(n, seed=17), True),
        ("github", lambda n: github_events(n, seed=17), True),
        ("nyt", lambda n: nyt_articles(n, seed=17), True),
    ]
    line_corpora = [
        ("nonascii", _nonascii_lines),
        ("numeric-keys", _numeric_lines),
    ]
    verify = global_table()
    for name, make, is_docs in corpora + [
        (n, mk, False) for n, mk in line_corpora
    ]:
        for n in SIZES:
            path = os.path.join(tmp_dir, f"{name}-{n}.ndjson")
            if is_docs:
                write_ndjson(path, make(n))
            else:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(make(n)) + "\n")
            with open_corpus(path) as corpus:
                seconds_decode, decode_acc = _timed(
                    lambda: _pr4_decode_fold(corpus)
                )
                seconds_bytes, bytes_acc = _timed(lambda: _bytes_fold(corpus))
            os.unlink(path)
            # Identity gate: both folds land on the canonical node.
            assert verify.canonical(decode_acc.result()) is verify.canonical(
                bytes_acc.result()
            ), name
            assert decode_acc.document_count == bytes_acc.document_count == n
            speedup = seconds_decode / seconds_bytes
            record = {
                "corpus": name,
                "documents": n,
                "docs_per_sec_decode_scan": round(n / seconds_decode),
                "docs_per_sec_bytes_fold": round(n / seconds_bytes),
                "speedup_vs_decode_scan": round(speedup, 2),
            }
            records.append(record)
            rows.append(
                [
                    name,
                    n,
                    record["docs_per_sec_decode_scan"],
                    record["docs_per_sec_bytes_fold"],
                    f"{speedup:5.2f}x",
                ]
            )
    if ASSERT_TIMING:
        at_top = [r for r in records if r["documents"] == max(SIZES)]
        assert max(r["speedup_vs_decode_scan"] for r in at_top) >= 1.15


def _bench_parallel(rows, records, tmp_dir):
    n = max(SIZES)
    path = os.path.join(tmp_dir, "parallel.ndjson")
    write_ndjson(path, tweets(n, seed=17))
    verify = global_table()
    with open_corpus(path) as corpus:
        reference = verify.canonical(_bytes_fold(corpus).result())
        seconds, run = _timed(
            lambda: infer_distributed_text(corpus, partitions=2, processes=2)
        )
    assert verify.canonical(run.result) is reference
    assert run.document_count == n
    feed = "file-range-bytes"
    record = {
        "feed": feed,
        "jobs": 2,
        "documents": n,
        "docs_per_sec": round(n / seconds),
        # Workers fold raw byte ranges; nothing is decoded between the
        # transport and the interned partials.
        "decoded_intermediaries": 0,
    }
    records.append(record)
    rows.append([feed, 2, record["docs_per_sec"], 0])
    os.unlink(path)


def _bench_calibration(rows, records, tmp_dir):
    profile = os.path.join(tmp_dir, "sched.json")
    previous = os.environ.get("REPRO_SCHED_PROFILE")
    os.environ["REPRO_SCHED_PROFILE"] = profile
    calibration_module._LOADED.clear()
    original_auto_jobs = distributed_module.auto_jobs
    try:
        # First load measures and persists the machine profile ...
        measured = calibration_module.load_calibration()
        assert os.path.exists(profile)
        # ... subsequent processes (simulated by a cache drop) load it.
        calibration_module._LOADED.clear()
        loaded = calibration_module.load_calibration()
        assert loaded.source == "profile"
        # A plan computed where the cost model actually runs must carry
        # the profile's provenance (8 modeled CPUs so the 1-CPU
        # short-circuit doesn't skip the model).
        distributed_module.auto_jobs = lambda: 8
        corpus_path = os.path.join(tmp_dir, "plan.ndjson")
        write_ndjson(corpus_path, ({"a": i, "b": [i, i + 1]} for i in range(4000)))
        with open_corpus(corpus_path) as corpus:
            plan = plan_schedule(corpus, jobs=4)
        os.unlink(corpus_path)
        assert plan.calibration_source == "profile"
        record = {
            "measured_worker_startup_seconds": measured.worker_startup_seconds,
            "plan_calibration_source": plan.calibration_source,
            "plan_mode": plan.mode,
            "plan_reason": plan.reason,
        }
        records.append(record)
        rows.append(
            [
                measured.worker_startup_seconds,
                plan.calibration_source,
                plan.mode,
            ]
        )
    finally:
        distributed_module.auto_jobs = original_auto_jobs
        if previous is None:
            os.environ.pop("REPRO_SCHED_PROFILE", None)
        else:
            os.environ["REPRO_SCHED_PROFILE"] = previous
        calibration_module._LOADED.clear()


def test_e18_bytes_scan(tmp_path):
    fold_rows: list[list] = []
    fold_records: list[dict] = []
    _bench_fold(fold_rows, fold_records, str(tmp_path))

    parallel_rows: list[list] = []
    parallel_records: list[dict] = []
    _bench_parallel(parallel_rows, parallel_records, str(tmp_path))

    calibration_rows: list[list] = []
    calibration_records: list[dict] = []
    _bench_calibration(calibration_rows, calibration_records, str(tmp_path))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_bytes.json").write_text(
        json.dumps(
            {
                "experiment": "e18-bytes-scan",
                "fold_rows": fold_records,
                "parallel_rows": parallel_records,
                "calibration_rows": calibration_records,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E18-bytes-scan",
        table(
            ["corpus", "docs", "decode+scan/s", "bytes-fold/s", "speedup"],
            fold_rows,
        )
        + "\n\n"
        + table(
            ["feed", "jobs", "docs/s", "decoded intermediaries"], parallel_rows
        )
        + "\n\n"
        + table(
            ["startup s", "plan calib", "plan mode"],
            calibration_rows,
        ),
    )

"""Tests for the adaptive parallel scheduler (`repro.inference.distributed`).

The scheduler exists to fix one concrete regression (fixed `--jobs N`
pools measuring 0.94–1.01x serial): it must *never* schedule a worker pool
whose modeled cost exceeds the serial fold — one usable CPU or a tiny
corpus mean serial — while still scheduling workers when the model says
they win.  It plans mapped corpus files only (sources that are not
files fold serially), so every case here writes its lines to a file.
Every route stays bit-identical to the serial fold.
"""

from __future__ import annotations

import pytest

from repro.datasets import ndjson_lines, open_corpus, tweets
from repro.errors import InferenceError
from repro.inference import (
    auto_jobs,
    infer_adaptive_text,
    infer_type,
    partition_bounds,
    plan_schedule,
)
from repro.inference import distributed as distributed_module


@pytest.fixture()
def corpus_of(tmp_path):
    """Write lines to a file and open it as a mapped corpus."""
    opened = []

    def make(lines):
        path = tmp_path / f"corpus{len(opened)}.ndjson"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        opened.append(open_corpus(path))
        return opened[-1]

    yield make
    for corpus in opened:
        corpus.close()


@pytest.fixture()
def many_cpus(monkeypatch):
    """Pretend the machine has 8 usable CPUs and free workers, so plans
    are decided by the cost model rather than this container's 1 CPU."""
    monkeypatch.setattr(distributed_module, "auto_jobs", lambda: 8)
    monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0")
    return 8


def test_auto_jobs_is_positive():
    assert auto_jobs() >= 1


def test_partition_bounds_cover_contiguously():
    bounds = partition_bounds(10, 3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]
    assert partition_bounds(2, 5) == [(0, 1), (1, 2)]
    with pytest.raises(InferenceError):
        partition_bounds(4, 0)


def test_one_requested_worker_plans_serial(corpus_of):
    lines = ndjson_lines(tweets(20, seed=1))
    plan = plan_schedule(corpus_of(lines), jobs=1)
    assert plan.mode == "serial"
    assert plan.jobs == 1
    assert "one worker" in plan.reason


def test_single_cpu_plans_serial_without_sampling(monkeypatch, corpus_of):
    monkeypatch.setattr(distributed_module, "auto_jobs", lambda: 1)
    lines = ndjson_lines(tweets(20, seed=1))
    plan = plan_schedule(corpus_of(lines), jobs=8)
    assert plan.mode == "serial"
    assert plan.cpus == 1
    assert "one usable CPU" in plan.reason
    # No sample was timed: the decision needed no measurement.
    assert plan.sample_docs_per_sec == 0.0


def test_empty_corpus_plans_serial(corpus_of):
    plan = plan_schedule(corpus_of([]), jobs=4)
    assert plan.mode == "serial"
    assert plan.documents == 0


def test_tiny_corpus_falls_back_to_serial(monkeypatch, corpus_of):
    """With real per-worker startup cost, a handful of documents can
    never amortize a pool."""
    monkeypatch.setattr(distributed_module, "auto_jobs", lambda: 8)
    monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0.1")
    lines = ndjson_lines(tweets(10, seed=2))
    plan = plan_schedule(corpus_of(lines), jobs=4)
    assert plan.mode == "serial"
    assert plan.estimated_parallel_seconds > plan.estimated_serial_seconds / (
        distributed_module._PARALLEL_ADVANTAGE
    )


def test_large_corpus_plans_parallel_when_cpus_are_free(many_cpus, corpus_of):
    lines = ndjson_lines(tweets(400, seed=3)) * 50  # 20k docs
    plan = plan_schedule(corpus_of(lines), jobs=4)
    assert plan.mode == "parallel"
    assert plan.jobs == 4  # the request caps the pool below the 8 CPUs
    assert plan.partitions == plan.jobs
    assert plan.sample_docs_per_sec > 0
    assert plan.estimated_serial_seconds > plan.estimated_parallel_seconds


def test_requested_jobs_cap_at_usable_cpus(many_cpus, corpus_of):
    lines = ndjson_lines(tweets(400, seed=3)) * 50
    plan = plan_schedule(corpus_of(lines), jobs=64)
    assert plan.mode == "parallel"
    assert plan.jobs == 8  # capped by affinity, not the request


def test_adaptive_serial_route_is_identical(corpus_of):
    docs = tweets(120, seed=5)
    lines = ndjson_lines(docs)
    reference = infer_type(docs)
    run = infer_adaptive_text(corpus_of(lines), jobs=4)
    assert run.result is reference
    assert run.document_count == len(docs)
    assert run.plan is not None
    if run.plan.mode == "serial":
        assert run.processes == 1


def test_adaptive_parallel_route_is_identical(many_cpus, corpus_of):
    """Force a parallel plan (capped to 2 real workers) and check the
    pool lands on the canonical node."""
    docs = tweets(150, seed=7)
    lines = ndjson_lines(docs)
    reference = infer_type(docs)
    run = infer_adaptive_text(corpus_of(lines), jobs=2)
    assert run.plan is not None and run.plan.mode == "parallel"
    assert run.processes == 2
    assert run.result is reference
    assert run.document_count == len(docs)


def test_adaptive_empty_corpus_raises(corpus_of):
    with pytest.raises(InferenceError):
        infer_adaptive_text(corpus_of(["", "   "]), jobs=2)


def test_plan_survives_into_the_run(many_cpus, corpus_of):
    lines = ndjson_lines(tweets(150, seed=9))
    run = infer_adaptive_text(corpus_of(lines), jobs=2)
    assert run.plan is not None
    assert run.plan.parallel == (run.plan.mode == "parallel")
    assert run.plan.documents == len(lines)


def test_infer_report_path_reads_non_regular_files(tmp_path):
    """FIFOs (process substitution, /dev/stdin) stat as size 0 — the
    path route must fall back to streaming reads instead of mmap, and
    fold serially whatever ``jobs`` says."""
    import os
    import threading

    from repro.inference import infer_report_path

    docs = tweets(20, seed=33)
    lines = ndjson_lines(docs)
    fifo = tmp_path / "pipe.ndjson"
    os.mkfifo(fifo)

    def writer():
        with open(fifo, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        report = infer_report_path(str(fifo), jobs=2)
    finally:
        thread.join()
    assert report.document_count == len(docs)
    assert report.inferred is infer_type(docs)

"""Distributed map/combine/reduce harness for schema inference.

The parametric inference of Baazizi et al. is *distributed by design*:
typing a document is a pure map, and the merge operator is an associative,
commutative monoid, so the reduce can run as a combiner per partition
followed by a merge tree across partitions — exactly the Spark execution
the VLDB J paper evaluates.

Two execution modes share the partitioned dataflow:

- :func:`infer_distributed` — a **deterministic simulator** that executes
  the dataflow on one machine and *accounts* for the distributed costs
  the paper reports:

  - per-partition map + combine work (documents typed, merges performed),
  - the size of every partial type shipped between stages (serialized
    bytes of the printed type — the shuffle volume),
  - the depth of the binary merge tree (number of parallel reduce rounds),
  - the simulated *makespan*: the critical path through the tree,
    charging each stage the maximum cost among its parallel tasks.

- **real** ``multiprocessing`` runs, behind the adaptive scheduler
  (:func:`plan_schedule`, :func:`infer_adaptive_text`).  Work reaches a
  worker one way only, as **file byte ranges**: the worker reads its own
  slice of a corpus file — line ranges of an
  :class:`~repro.datasets.ndjson.MmapCorpus`
  (:func:`infer_distributed_text`), counted ranges
  (:func:`infer_counted_parallel`), subtree chunk groups
  (:func:`infer_subtree_text`) and compressed member ranges
  (:func:`infer_compressed_parallel`).  Sources that are not files
  (stdin, FIFOs, line iterables) fold serially.

  Each worker folds its share through its own accumulator, and only the
  interned partial (pickling strips intern marks) comes back for the
  parent to combine.

Both modes produce a result bit-identical to the sequential
:func:`repro.inference.parametric.infer_type` (associativity property),
which the tests assert — that equivalence is what makes either execution
a faithful substitute for the cluster.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import InferenceError
from repro.inference.engine import (
    _SUBTREE_EXACT_LIMIT,
    CountingAccumulator,
    TypeAccumulator,
)
from repro.types import Equivalence, Type, merge_interned, type_to_string
from repro.types.build import TypeEncoder


@dataclass
class StageCost:
    """Cost accounting for one stage of the dataflow."""

    name: str
    tasks: int
    max_task_units: int  # critical-path cost of the stage
    total_units: int  # total work across tasks
    shipped_bytes: int  # bytes of partial types leaving the stage


@dataclass
class DistributedRun:
    """Outcome of a simulated distributed inference."""

    result: Type
    partitions: int
    equivalence: Equivalence
    stages: list[StageCost] = field(default_factory=list)

    @property
    def reduce_rounds(self) -> int:
        return sum(1 for s in self.stages if s.name.startswith("reduce"))

    @property
    def makespan_units(self) -> int:
        """Critical path: sum of per-stage parallel maxima."""
        return sum(s.max_task_units for s in self.stages)

    @property
    def total_work_units(self) -> int:
        return sum(s.total_units for s in self.stages)

    @property
    def total_shipped_bytes(self) -> int:
        return sum(s.shipped_bytes for s in self.stages)


def partition(documents: Sequence[Any], partitions: int) -> list[list[Any]]:
    """Round-robin partitioning (deterministic)."""
    if partitions < 1:
        raise InferenceError("need at least one partition")
    buckets: list[list[Any]] = [[] for _ in range(partitions)]
    for i, doc in enumerate(documents):
        buckets[i % partitions].append(doc)
    return [b for b in buckets if b]


def _type_bytes(t: Type) -> int:
    return len(type_to_string(t).encode("utf-8"))


def infer_distributed(
    documents: Sequence[Any],
    partitions: int,
    equivalence: Equivalence = Equivalence.KIND,
) -> DistributedRun:
    """Run the simulated distributed inference.

    Dataflow: per-partition ``map`` (type each document) and ``combine``
    (merge within the partition), then a binary tree of ``reduce`` rounds
    across partitions.
    """
    docs = list(documents)
    if not docs:
        raise InferenceError("cannot infer a schema from an empty collection")
    buckets = partition(docs, partitions)

    run_stages: list[StageCost] = []

    # --- map + combine per partition -----------------------------------
    partials: list[Type] = []
    map_costs: list[int] = []
    shipped = 0
    encoder = TypeEncoder()  # fused map phase, shared across partitions
    for bucket in buckets:
        # One streaming accumulator per partition — the combiner the
        # papers run inside each Spark task, instead of materializing the
        # partition's types in a list.
        accumulator = TypeAccumulator(equivalence)
        units = 0
        for document in bucket:
            t = encoder.encode(document)
            # Cost model: one unit per typed node plus one per merged input.
            units += t.size() + 1
            accumulator.add_type(t)
        combined = accumulator.result()
        partials.append(combined)
        map_costs.append(units)
        shipped += _type_bytes(combined)
    run_stages.append(
        StageCost(
            name="map+combine",
            tasks=len(buckets),
            max_task_units=max(map_costs),
            total_units=sum(map_costs),
            shipped_bytes=shipped,
        )
    )

    # --- binary merge tree ----------------------------------------------
    level = partials
    round_index = 0
    while len(level) > 1:
        round_index += 1
        next_level: list[Type] = []
        costs: list[int] = []
        shipped = 0
        for i in range(0, len(level) - 1, 2):
            left, right = level[i], level[i + 1]
            merged = merge_interned(left, right, equivalence)
            next_level.append(merged)
            costs.append(left.size() + right.size())
            shipped += _type_bytes(merged)
        if len(level) % 2 == 1:
            next_level.append(level[-1])
            shipped += _type_bytes(level[-1])
        run_stages.append(
            StageCost(
                name=f"reduce-{round_index}",
                tasks=len(level) // 2,
                max_task_units=max(costs),
                total_units=sum(costs),
                shipped_bytes=shipped,
            )
        )
        level = next_level

    return DistributedRun(
        result=level[0],
        partitions=len(buckets),
        equivalence=equivalence,
        stages=run_stages,
    )


# ---------------------------------------------------------------------------
# real multiprocessing execution
# ---------------------------------------------------------------------------


@dataclass
class ParallelRun:
    """Outcome of a real multi-process inference."""

    result: Type
    partitions: int
    processes: int
    equivalence: Equivalence
    partition_documents: list[int] = field(default_factory=list)
    # Set when the run was routed by the adaptive scheduler.
    plan: Optional["SchedulePlan"] = None

    @property
    def document_count(self) -> int:
        return sum(self.partition_documents)


# ---------------------------------------------------------------------------
# the one transport: file byte ranges
# ---------------------------------------------------------------------------


def partition_bounds(total: int, partitions: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` index ranges (deterministic).

    The mmap corpus feed partitions *byte ranges* through these bounds
    without materialising any slice.  For the plain type monoid any
    partitioning yields the identical result; the *counting* algebra is
    commutative only up to union member order (members keep
    first-appearance order), and contiguous partitions reproduce the
    serial fold's appearance order exactly.
    """
    if partitions < 1:
        raise InferenceError("need at least one partition")
    bounds: list[tuple[int, int]] = []
    base, extra = divmod(total, partitions)
    start = 0
    for i in range(partitions):
        size = base + (1 if i < extra else 0)
        if size:
            bounds.append((start, start + size))
            start += size
    return bounds


def _map_partitions(worker, payloads: list, processes: int) -> list:
    """Run ``worker`` over ``payloads``: inline when ``processes == 1``
    or there is one payload, on a ``multiprocessing.Pool`` of
    ``processes`` workers otherwise.  Results keep payload order."""
    if processes == 1 or len(payloads) == 1:
        return [worker(payload) for payload in payloads]
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(worker, payloads)


def _read_range(path: str, start: int, end: int) -> bytes:
    """The file transport: a worker reads its own byte range."""
    with open(path, "rb") as handle:
        handle.seek(start)
        return handle.read(end - start)


def _file_range_payloads(
    corpus, partitions: int, equivalence: Equivalence
) -> list:
    """One ``(path, start, end, equivalence)`` payload per contiguous
    partition of a mapped corpus's lines — all the file transport ships."""
    return [
        (corpus.path, *corpus.byte_range(start, stop), equivalence.value)
        for start, stop in partition_bounds(len(corpus), partitions)
    ]


def _infer_file_range_partition(
    payload: tuple[str, int, int, str]
) -> tuple[Type, int]:
    """Worker: fold one byte range of the corpus file.

    The parent ships only ``(path, start, end, equivalence)`` — no
    parent-side decode, no per-line pickles; the worker reads its own
    slice, recovers lines as byte spans with the corpus line-break
    grammar and folds them through the batched bytes pipeline."""
    from repro.datasets.ndjson import iter_line_spans
    from repro.inference.engine import accumulate_ranges

    path, start, end, equivalence_value = payload
    data = _read_range(path, start, end)
    accumulator = accumulate_ranges(
        data, list(iter_line_spans(data)), Equivalence(equivalence_value)
    )
    return accumulator.result(), accumulator.document_count


# ---------------------------------------------------------------------------
# intra-document parallelism: subtree chunks to workers, partials back
# ---------------------------------------------------------------------------


# Documents below this size stay on the line-parallel / serial paths:
# splitting them cannot beat the fixed worker round-trip.
_SUBTREE_MIN_BYTES = 4 << 20
# Re-plan budget when a speculative chunking fails validation (the
# separators sat one level deeper than assumed); each retry forces the
# planner to descend past the level that lied.
_SUBTREE_ATTEMPTS = 3


# ---------------------------------------------------------------------------
# compressed-member parallelism: per-worker decompress + fold, stitched
# ---------------------------------------------------------------------------


def _fold_compressed_range(
    path: str, start: int, end: int, fmt: str, equivalence_value: str
):
    """Worker: decompress one member-aligned compressed byte range and
    fold its *interior* lines; the boundary lines come home raw.

    A worker cannot know where the previous member's last line ends or
    its own last line ends, so it returns
    ``(head, partial_type, interior_count, tail)``: ``head`` is the raw
    bytes of its decompressed output up to and **including** the first
    line break, ``tail`` the raw bytes after the last break.  The
    parent stitches ``tail_{i} + head_{i+1}`` and types those boundary
    lines itself — keeping the break bytes means a ``\\r\\n`` pair
    split across two members reassembles into one break, not two lines.
    When the range's whole output contains no break at all, ``tail`` is
    ``None`` and ``head`` carries the full output for the parent to
    merge into the running boundary.
    """
    from repro.datasets.compressed import (
        _iter_decompressed,
        _line_aligned_cut,
    )
    from repro.datasets.ndjson import _LINE_BREAK_BYTES, iter_line_spans
    from repro.inference.engine import RangeFolder

    accumulator = TypeAccumulator(Equivalence(equivalence_value))
    folder = RangeFolder(accumulator)
    head = None
    pending = b""
    for chunk in _iter_decompressed(path, fmt, start, end):
        data = pending + chunk if pending else chunk
        if head is None:
            match = _LINE_BREAK_BYTES.search(data)
            if match is None or (
                match.end() == len(data) and data[match.start() :] == b"\r"
            ):
                # No complete first break yet (a trailing lone \r may
                # still pair with a \n in the next chunk).
                pending = data
                continue
            head = data[: match.end()]
            data = data[match.end() :]
        cut = _line_aligned_cut(data)
        if cut is None:
            pending = data
            continue
        block = data[:cut]
        pending = data[cut:]
        folder.feed(block, iter_line_spans(block))
    folder.finish()
    if head is None:
        return pending, None, 0, None
    return head, accumulator.result(), accumulator.document_count, pending


def _compressed_range_worker(payload):
    """Pool wrapper: any failure (false member candidate, damaged bytes,
    JSON error) becomes ``None`` — the parent then abandons the
    speculative parallel run and the serial fold reports the real
    error in its canonical order."""
    path, start, end, fmt, equivalence_value = payload
    try:
        return _fold_compressed_range(path, start, end, fmt, equivalence_value)
    except Exception:
        return None


def _type_boundary_line(accumulator: TypeAccumulator, encoder, line: bytes) -> int:
    """Type one stitched boundary line with the fold's exact blank
    semantics; returns the document count contribution (0 for blanks)."""
    from repro.inference.engine import _blank_span

    if _blank_span(line, 0, len(line)):
        return 0
    accumulator.add_type(encoder.encode_bytes(line))
    return 1


def infer_compressed_parallel(
    path,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    processes: Optional[int] = None,
    format: Optional[str] = None,
    candidates: Optional[Sequence[int]] = None,
) -> Optional[ParallelRun]:
    """Member-parallel fold of a compressed corpus, or ``None``.

    Groups the speculative member/frame candidates
    (:func:`repro.datasets.compressed.member_candidates`) into one
    contiguous compressed byte range per worker; each worker
    decompresses and folds its own range and ships back
    ``(head, partial, count, tail)``; the parent types the stitched
    boundary lines and combines the partials through the monoid —
    interned-identical to the serial fold by commutativity.

    Speculative like the subtree splitter: **any** failure — a
    candidate that was payload coincidence, a range not ending on a
    member boundary, corrupt bytes, a JSON error — returns ``None``,
    and the caller's serial fold owns the error report.  Returns
    ``None`` likewise when the container has no exploitable parallelism
    (fewer than two candidate members).
    """
    from repro.datasets.compressed import detect_compression, member_candidates
    from repro.datasets.ndjson import split_corpus_bytes
    from repro.types.build import EventTypeEncoder

    path = str(path)
    fmt = format or detect_compression(path)
    if fmt is None:
        return None
    if candidates is None:
        candidates = member_candidates(path, fmt)
    if len(candidates) < 2:
        return None
    size = os.path.getsize(path)
    jobs = processes if processes is not None else auto_jobs()
    groups = min(max(1, jobs), len(candidates))
    if groups < 2:
        return None
    bounds = partition_bounds(len(candidates), groups)
    ranges = [
        (
            candidates[lo],
            candidates[hi] if hi < len(candidates) else size,
        )
        for lo, hi in bounds
    ]
    payloads = [
        (path, start, end, fmt, equivalence.value) for start, end in ranges
    ]
    try:
        results = _map_partitions(_compressed_range_worker, payloads, groups)
    except Exception:
        return None
    if any(result is None for result in results):
        return None

    accumulator = TypeAccumulator(equivalence)
    encoder = EventTypeEncoder(accumulator.table)
    partition_documents: list[int] = []
    boundary_documents = 0
    pending = b""
    try:
        for head, partial, count, tail in results:
            if tail is None:
                # The whole range produced no line break: its output is
                # one fragment of a boundary line spanning workers.
                pending = pending + head
                continue
            # pending + head ends with the break that terminated this
            # worker's first line; the final (empty) split segment is
            # the worker's interior, already folded.
            for line in split_corpus_bytes(pending + head)[:-1]:
                boundary_documents += _type_boundary_line(
                    accumulator, encoder, line
                )
            if partial is not None and count:
                # A zero-count partial is BOT (all-blank interior) and
                # contributes nothing to the merge.
                accumulator.add_type(partial)
                partition_documents.append(count)
            pending = tail
        tail_lines = split_corpus_bytes(pending) if pending else []
        if tail_lines and tail_lines[-1] == b"":
            # A terminator at true EOF produces no extra line — the
            # MmapCorpus index semantics.
            tail_lines = tail_lines[:-1]
        for line in tail_lines:
            boundary_documents += _type_boundary_line(accumulator, encoder, line)
    except Exception:
        return None
    if accumulator.is_empty() or (
        not partition_documents and not boundary_documents
    ):
        # Zero documents: the serial fold owns the empty-stream error.
        return None
    partition_documents.append(boundary_documents)
    return ParallelRun(
        result=accumulator.result(),
        partitions=len(ranges),
        processes=groups,
        equivalence=equivalence,
        partition_documents=partition_documents,
    )


def _infer_subtree_chunks(payload) -> Optional[list]:
    """Worker: type one group of chunk spans read straight from the file.

    The parent ships only ``(path, kind, [(start, end), ...], max_depth)``;
    the worker reads one covering slice and types each chunk with
    :func:`~repro.inference.engine.type_subtree_chunks` — keys, escapes,
    UTF-8 and depth get the serial fold's validation.  Returns the
    per-chunk contribution lists, or ``None`` when any chunk fails:
    failure means the parent's speculative boundaries were wrong (or
    the document is malformed), and the parent re-carves exactly or
    parses the whole document for exact errors.
    """
    path, kind, chunks, max_depth = payload
    try:
        from repro.inference.engine import type_subtree_chunks
        from repro.types.build import EventTypeEncoder
        from repro.types.intern import InternTable

        lo = min(start for start, _ in chunks)
        data = _read_range(path, lo, max(end for _, end in chunks))
        encoder = EventTypeEncoder(InternTable())
        relative = [(start - lo, end - lo) for start, end in chunks]
        return type_subtree_chunks(
            encoder, data, kind, relative, max_depth=max_depth
        )
    except Exception:
        return None


def _subtree_span_type(
    buffer,
    path: Optional[str],
    start: int,
    end: int,
    *,
    encoder,
    table,
    processes: int,
    targets: int,
    min_bytes: int,
    pool_state: dict,
    max_depth: int = 512,
    exact_limit: int = _SUBTREE_EXACT_LIMIT,
):
    """Type one document span through the subtree-parallel pipeline.

    Returns the canonical type, or ``None`` when the span is not worth
    (or not amenable to) splitting.  The worker pool is created lazily
    in ``pool_state`` on the first parallel dispatch and reused across
    spans.  ``exact_limit`` passes through to
    :func:`~repro.inference.engine.plan_subtree_split`: a span no larger
    than it is carved by the exact depth-1 scan, which cannot lie, so a
    chunk that fails there fails for good.
    """
    from repro.inference.engine import (
        combine_subtree,
        plan_subtree_split,
        type_subtree_chunks,
    )

    skip = 0
    previous = None
    for _ in range(_SUBTREE_ATTEMPTS):
        split = plan_subtree_split(
            buffer,
            start,
            end,
            targets=targets,
            min_bytes=min_bytes,
            exact_limit=exact_limit,
            skip_chunk_levels=skip,
        )
        if split is None or split == previous:
            return None
        previous = split
        chunk_depth = max_depth - split.spine_depth
        if chunk_depth <= 1:
            return None
        chunks = split.chunks
        if processes > 1 and len(chunks) > 1 and path is not None:
            bounds = partition_bounds(len(chunks), min(processes, len(chunks)))
            payloads = [
                (path, split.kind, list(chunks[a:b]), chunk_depth)
                for a, b in bounds
            ]
            pool = pool_state.get("pool")
            if pool is None:
                pool = pool_state["pool"] = multiprocessing.Pool(
                    processes=processes
                )
            results = pool.map(_infer_subtree_chunks, payloads)
            if any(group is None for group in results):
                skip = split.spine_depth + 1
                continue
            chunk_parts = [parts for group in results for parts in group]
        else:
            try:
                chunk_parts = type_subtree_chunks(
                    encoder, buffer, split.kind, chunks, max_depth=chunk_depth
                )
            except Exception:
                skip = split.spine_depth + 1
                continue
        try:
            # Spine heads (the members preceding a dominant last member)
            # are small; type them parent-side.
            heads = []
            for level, frame in enumerate(split.frames):
                if frame[0] == "recw" and frame[1] is not None:
                    heads.append(
                        type_subtree_chunks(
                            encoder,
                            buffer,
                            "object",
                            [frame[1]],
                            max_depth=max_depth - level,
                        )[0]
                    )
                else:
                    heads.append(None)
        except Exception:
            # A lying spine frame cannot be re-planned around.
            return None
        return combine_subtree(table, split, chunk_parts, heads)
    return None


def infer_subtree_text(
    corpus,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    processes: Optional[int] = None,
    min_split_bytes: int = _SUBTREE_MIN_BYTES,
    targets: Optional[int] = None,
) -> ParallelRun:
    """Inference over an mmap corpus with *intra-document* parallelism.

    Lines of at least ``min_split_bytes`` are carved into top-level
    subtree chunks by the bytes-native structural splitter
    (:mod:`repro.parsing.structural`) and typed one element at a time
    in parallel workers reading their own byte ranges from the backing
    file; the partial contributions merge back through the reassembly
    algebra and the :class:`~repro.inference.engine.TypeAccumulator`
    monoid.  Smaller lines fold through the batched bytes pipeline
    exactly as :func:`~repro.inference.engine.accumulate_ranges` runs
    them.  The result is interned-identical to the serial fold of every
    line, with identical errors.  A span whose speculative chunking
    fails validation is carved again by the exact depth-1 scan and
    typed in this process, one chunk of about 256 KiB decoded at a
    time, so memory stays bounded; only a span that carve also declines
    (malformed, or not a splittable container) is parsed whole,
    which raises the exact error.
    """
    from repro.inference.engine import (
        _RANGE_BATCH_LINES,
        TypeAccumulator,
        _blank_span,
    )
    from repro.types.build import EventTypeEncoder

    if processes is None:
        processes = auto_jobs()
    processes = max(1, processes)
    if targets is None:
        targets = max(2, processes)

    accumulator = TypeAccumulator(equivalence)
    encoder = EventTypeEncoder(accumulator.table)
    buffer = corpus.buffer()
    path = getattr(corpus, "path", None)
    threshold = max(min_split_bytes, 2)
    pool_state: dict = {}
    batch: list[bytes] = []
    split_documents = 0

    def flush() -> None:
        if batch:
            accumulator.add_types(encoder.encode_lines(batch))
            del batch[:]

    try:
        for start, end in corpus.spans:
            try:
                if _blank_span(buffer, start, end):
                    continue
            except UnicodeDecodeError:
                # Earlier lines surface their errors first, serially.
                flush()
                raise
            if end - start >= threshold:
                flush()
                t = _subtree_span_type(
                    buffer,
                    path,
                    start,
                    end,
                    encoder=encoder,
                    table=accumulator.table,
                    processes=processes,
                    targets=targets,
                    min_bytes=min_split_bytes,
                    pool_state=pool_state,
                )
                if t is None:
                    # The speculative carve declined: carve exactly, in
                    # this process, into about 256 KiB chunks, so only
                    # one chunk is ever decoded at a time.
                    t = _subtree_span_type(
                        buffer,
                        None,
                        start,
                        end,
                        encoder=encoder,
                        table=accumulator.table,
                        processes=1,
                        targets=max(2, (end - start) >> 18),
                        min_bytes=min_split_bytes,
                        pool_state=pool_state,
                        exact_limit=end - start,
                    )
                if t is None:
                    # Malformed or unsplittable: the whole-span parse
                    # owns the exact type or the exact serial error.
                    t = encoder.encode_bytes(buffer, start, end)
                else:
                    split_documents += 1
                accumulator.add_type(t)
                continue
            batch.append(bytes(buffer[start:end]))
            if len(batch) >= _RANGE_BATCH_LINES:
                flush()
        flush()
    finally:
        pool = pool_state.get("pool")
        if pool is not None:
            pool.close()
            pool.join()

    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return ParallelRun(
        result=accumulator.result(),
        partitions=max(1, split_documents),
        processes=processes if pool_state.get("pool") is not None else 1,
        equivalence=equivalence,
        partition_documents=[accumulator.document_count],
    )


def infer_distributed_text(
    corpus,
    partitions: int,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    processes: Optional[int] = None,
    shared_memory=None,  # unread; benchmarks/suite/trace_job.py passes it
) -> ParallelRun:
    """Run the partitioned inference on an
    :class:`~repro.datasets.ndjson.MmapCorpus`.

    The parent ships one line-aligned byte range per contiguous
    partition from the corpus index; each worker reads its own slice of
    the file and folds it through the batched bytes pipeline and its own
    :class:`~repro.inference.engine.TypeAccumulator` — the parent never
    splits, decodes, or pickles lines.  Only the interned partition
    types come back, and the parent combines them, bit-identical to
    every serial path.  Blank lines are skipped.
    """
    payloads = _file_range_payloads(corpus, partitions, equivalence)
    if processes is None:
        processes = min(len(payloads), auto_jobs())
    processes = max(1, processes)

    combined = TypeAccumulator(equivalence)
    counts: list[int] = []
    for partial, count in _map_partitions(
        _infer_file_range_partition, payloads, processes
    ):
        combined.add_type(partial)
        counts.append(count)
    if not any(counts):
        raise InferenceError("cannot infer a schema from an empty stream")
    return ParallelRun(
        result=combined.result(),
        partitions=len(payloads),
        processes=processes if len(payloads) > 1 else 1,
        equivalence=equivalence,
        partition_documents=counts,
    )


# ---------------------------------------------------------------------------
# adaptive scheduler: auto jobs, timed-sample cost model, serial fallback
# ---------------------------------------------------------------------------


def auto_jobs() -> int:
    """Worker processes this machine can actually run in parallel.

    Prefers ``os.sched_getaffinity`` (container/cgroup and taskset
    aware — ``cpu_count`` over-reports inside CPU-limited containers),
    falling back to ``multiprocessing.cpu_count``.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, multiprocessing.cpu_count())


@dataclass(frozen=True)
class SchedulePlan:
    """The adaptive scheduler's decision for one corpus.

    ``mode`` is ``"serial"``, ``"parallel"`` (line-parallel workers), or
    ``"subtree"`` (intra-document parallelism: huge documents carved
    into top-level chunks); the estimate fields record the cost model's
    inputs so benchmarks and the CLI can report *why* the scheduler
    chose what it chose.  ``calibration_source`` records where the
    cost-model constants came from (``"env"``, ``"profile"``,
    ``"measured"``, or ``"default"`` — see
    :mod:`repro.inference.calibration`).
    """

    mode: str
    jobs: int
    partitions: int
    documents: int
    cpus: int
    sample_docs_per_sec: float
    estimated_serial_seconds: float
    estimated_parallel_seconds: float
    reason: str
    calibration_source: str = "default"

    @property
    def parallel(self) -> bool:
        return self.mode == "parallel"

    @property
    def subtree(self) -> bool:
        return self.mode == "subtree"


# Cost-model constants.  Startup covers fork + pool handshake + module
# import per worker.  It resolves
# through :mod:`repro.inference.calibration`: env override first, then
# the persisted per-machine profile (measured once and cached in
# ``~/.cache/repro/sched.json``), then the built-in defaults.
_PARALLEL_ADVANTAGE = 1.15  # modeled win required before spawning workers
_SAMPLE_SIZE = 200
# The timed sample is throwaway work; cap it by wall clock as well as
# count so corpora of few-but-huge lines don't pay a large fraction of
# the fold just to decide the plan.
_SAMPLE_BUDGET_SECONDS = 0.05
_SAMPLE_MINIMUM = 8


def plan_schedule(
    corpus,
    *,
    jobs: Optional[int] = None,
    shared_memory=None,  # unread; benchmarks/suite/trace_job.py passes it
    sample_size: int = _SAMPLE_SIZE,
) -> SchedulePlan:
    """Decide serial vs. parallel execution for an
    :class:`~repro.datasets.ndjson.MmapCorpus`.

    The model: parallel wall-clock is per-worker startup plus the
    serial fold divided across the CPUs that can really run (requested
    jobs capped by :func:`auto_jobs`); workers read their own byte
    ranges, so nothing is shipped.  The startup constant comes from the
    persisted per-machine calibration profile
    (:mod:`repro.inference.calibration` — measured once,
    env-overridable) rather than per-plan guesses.  The timed sample
    measures the *map* rate (text to canonical type), which dominates
    the fold and does not depend on the equivalence — so one plan serves
    both equivalences.  Each sampled line is decoded and typed, as the
    fold does.  The serial
    fold rate is *measured*, not assumed, so the decision tracks the
    actual machine and document shape.  When the modeled parallel win
    is under ``_PARALLEL_ADVANTAGE`` the plan is
    serial: spawning workers that lose to the serial fold (the E16
    regression: 0.94x at ``--jobs 2`` on one usable CPU) is the one
    outcome this scheduler exists to prevent.
    """
    from repro.inference import calibration

    documents = len(corpus)
    cpus = auto_jobs()
    requested = cpus if jobs is None else max(1, jobs)

    def serial_plan(reason: str, rate: float = 0.0, serial_s: float = 0.0,
                    parallel_s: float = 0.0,
                    calibration_source: str = "default") -> SchedulePlan:
        return SchedulePlan(
            mode="serial",
            jobs=1,
            partitions=1,
            documents=documents,
            cpus=cpus,
            sample_docs_per_sec=rate,
            estimated_serial_seconds=serial_s,
            estimated_parallel_seconds=parallel_s,
            reason=reason,
            calibration_source=calibration_source,
        )

    if documents == 0:
        return serial_plan("empty corpus")
    if jobs is not None and requested == 1:
        return serial_plan("one worker requested")
    if cpus == 1:
        return serial_plan(
            "one usable CPU: parallel workers would only contend"
        )

    # --- corpus-shape probe: few huge lines → intra-document mode -------
    # Decided *before* the timed sample: sampling a corpus of 100 MB
    # lines would scan whole documents just to plan, and the per-line
    # rate is meaningless when one line is the corpus.  Bytes-rate
    # calibration constants model it instead.
    if documents <= max(1, sample_size):
        biggest = corpus.max_line_bytes
        if biggest >= _SUBTREE_MIN_BYTES:
            total_bytes = corpus.size_bytes
            huge_bytes = sum(
                end - start
                for start, end in corpus.spans
                if end - start >= _SUBTREE_MIN_BYTES
            )
            if huge_bytes * 2 > total_bytes:
                effective = min(requested, cpus)
                serial_seconds = (
                    total_bytes / calibration.scan_bytes_per_second()
                )
                subtree_seconds = (
                    calibration.worker_startup_seconds() * effective
                    + total_bytes / calibration.split_bytes_per_second()
                    + serial_seconds / effective
                )
                source = calibration.calibration_source()
                if serial_seconds > subtree_seconds * _PARALLEL_ADVANTAGE:
                    return SchedulePlan(
                        mode="subtree",
                        jobs=effective,
                        partitions=effective,
                        documents=documents,
                        cpus=cpus,
                        sample_docs_per_sec=0.0,
                        estimated_serial_seconds=serial_seconds,
                        estimated_parallel_seconds=subtree_seconds,
                        reason=(
                            f"huge-document corpus ({huge_bytes / 1e6:.0f} MB "
                            f"in splittable lines): modeled "
                            f"{serial_seconds / subtree_seconds:.2f}x win "
                            f"from intra-document chunks on {effective} of "
                            f"{cpus} CPUs"
                        ),
                        calibration_source=source,
                    )
                return serial_plan(
                    f"huge-document corpus but modeled subtree win "
                    f"{serial_seconds / subtree_seconds:.2f}x is under the "
                    f"{_PARALLEL_ADVANTAGE:.2f}x threshold",
                    0.0,
                    serial_seconds,
                    subtree_seconds,
                    source,
                )

    sample_limit = min(documents, max(1, sample_size))
    encode_text = _sample_encoder().encode_text
    sampled = 0
    start_time = time.perf_counter()
    for index in range(sample_limit):
        # The line is decoded here, as the fold does; blank lines
        # (str.isspace parity included) are skipped as the fold skips them.
        line = corpus[index]
        if line and not line.isspace():
            encode_text(line)
        sampled += 1
        if (
            sampled >= _SAMPLE_MINIMUM
            and time.perf_counter() - start_time > _SAMPLE_BUDGET_SECONDS
        ):
            break
    elapsed = max(time.perf_counter() - start_time, 1e-9)
    rate = sampled / elapsed

    serial_seconds = documents / rate
    effective = min(requested, cpus)
    source = calibration.calibration_source()
    parallel_seconds = (
        calibration.worker_startup_seconds() * effective
        + serial_seconds / effective
    )

    if serial_seconds > parallel_seconds * _PARALLEL_ADVANTAGE:
        return SchedulePlan(
            mode="parallel",
            jobs=effective,
            partitions=effective,
            documents=documents,
            cpus=cpus,
            sample_docs_per_sec=rate,
            estimated_serial_seconds=serial_seconds,
            estimated_parallel_seconds=parallel_seconds,
            reason=(
                f"modeled {serial_seconds / parallel_seconds:.2f}x win "
                f"on {effective} of {cpus} CPUs"
            ),
            calibration_source=source,
        )
    return serial_plan(
        f"modeled parallel win {serial_seconds / parallel_seconds:.2f}x is "
        f"under the {_PARALLEL_ADVANTAGE:.2f}x threshold (worker "
        "startup eats the split fold)",
        rate,
        serial_seconds,
        parallel_seconds,
        source,
    )


def plan_compressed_schedule(
    path,
    *,
    format: Optional[str] = None,
    jobs: Optional[int] = None,
) -> SchedulePlan:
    """Decide serial vs. member-parallel decode for a compressed corpus.

    The timed per-line sample is useless here (lines don't exist until
    decompression runs), so the model prices the two pipeline stages by
    bytes rates: decompression
    (:func:`repro.inference.calibration.decompress_bytes_per_second`,
    the new I/O-bound stage) plus the serial typing rate, over the
    decompressed size estimated from a bounded first-blocks ratio probe
    (:func:`repro.datasets.compressed.estimate_ratio`).  A container
    with fewer than two member/frame candidates is inherently
    sequential — one DEFLATE stream cannot be split — and plans serial
    regardless of size.
    """
    from repro.datasets.compressed import (
        detect_compression,
        estimate_ratio,
        member_candidates,
    )
    from repro.inference import calibration

    path = str(path)
    fmt = format or detect_compression(path)
    cpus = auto_jobs()
    requested = cpus if jobs is None else max(1, jobs)

    def serial_plan(reason: str, serial_s: float = 0.0, parallel_s: float = 0.0,
                    source: str = "default") -> SchedulePlan:
        return SchedulePlan(
            mode="serial",
            jobs=1,
            partitions=1,
            documents=0,
            cpus=cpus,
            sample_docs_per_sec=0.0,
            estimated_serial_seconds=serial_s,
            estimated_parallel_seconds=parallel_s,
            reason=reason,
            calibration_source=source,
        )

    if fmt is None:
        return serial_plan("not a compressed corpus")
    if jobs is not None and requested == 1:
        return serial_plan("one worker requested")
    if cpus == 1:
        return serial_plan("one usable CPU: parallel workers would only contend")
    candidates = member_candidates(path, fmt)
    if len(candidates) < 2:
        return serial_plan(
            f"single {fmt} member: one compressed stream decodes sequentially"
        )
    compressed_size = os.path.getsize(path)
    total_out = compressed_size * estimate_ratio(path, fmt)
    serial_seconds = (
        total_out / calibration.decompress_bytes_per_second()
        + total_out / calibration.scan_bytes_per_second()
    )
    effective = min(requested, cpus, len(candidates))
    parallel_seconds = (
        calibration.worker_startup_seconds() * effective
        + serial_seconds / effective
    )
    source = calibration.calibration_source()
    if serial_seconds > parallel_seconds * _PARALLEL_ADVANTAGE:
        return SchedulePlan(
            mode="parallel",
            jobs=effective,
            partitions=effective,
            documents=0,
            cpus=cpus,
            sample_docs_per_sec=0.0,
            estimated_serial_seconds=serial_seconds,
            estimated_parallel_seconds=parallel_seconds,
            reason=(
                f"{len(candidates)} independent {fmt} member candidates: "
                f"modeled {serial_seconds / parallel_seconds:.2f}x win from "
                f"per-worker decompression on {effective} of {cpus} CPUs"
            ),
            calibration_source=source,
        )
    return serial_plan(
        f"{len(candidates)} {fmt} members but modeled parallel win "
        f"{serial_seconds / parallel_seconds:.2f}x is under the "
        f"{_PARALLEL_ADVANTAGE:.2f}x threshold",
        serial_seconds,
        parallel_seconds,
        source,
    )


def _sample_encoder():
    """A fused text encoder over a private table (samples must not
    pollute the global intern table's statistics)."""
    from repro.types.build import EventTypeEncoder
    from repro.types.intern import InternTable

    return EventTypeEncoder(InternTable())


def infer_adaptive_text(
    corpus,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = None,
    sample_size: int = _SAMPLE_SIZE,
) -> ParallelRun:
    """Inference over an :class:`~repro.datasets.ndjson.MmapCorpus`
    behind the adaptive scheduler.

    ``jobs=None`` sizes the
    worker pool from CPU affinity; any requested ``jobs`` is treated as
    a *cap*, not a command — the scheduler still falls back to a serial
    fold when the timed-sample cost model says workers would lose
    (guaranteeing ``--jobs N`` is never slower than serial by more than
    the sample cost).  A serial plan folds the mapped bytes through the
    batched line pipeline.  The result is bit-identical to every other
    path.
    """
    plan = plan_schedule(corpus, jobs=jobs, sample_size=sample_size)
    if plan.subtree:
        run = infer_subtree_text(corpus, equivalence, processes=plan.jobs)
        run.plan = plan
        return run
    if not plan.parallel:
        from repro.inference.engine import accumulate_ranges

        accumulator = accumulate_ranges(
            corpus.buffer(), corpus.spans, equivalence
        )
        if accumulator.is_empty():
            raise InferenceError("cannot infer a schema from an empty stream")
        return ParallelRun(
            result=accumulator.result(),
            partitions=1,
            processes=1,
            equivalence=equivalence,
            partition_documents=[accumulator.document_count],
            plan=plan,
        )
    run = infer_distributed_text(
        corpus,
        partitions=plan.partitions,
        equivalence=equivalence,
        processes=plan.jobs,
    )
    run.plan = plan
    return run


# ---------------------------------------------------------------------------
# parallel counting-types reduce
# ---------------------------------------------------------------------------


@dataclass
class CountedParallelRun:
    """Outcome of a multi-process counting-types inference."""

    result: Any  # CUnion — typed loosely to keep the counting import lazy
    partitions: int
    processes: int
    equivalence: Equivalence
    document_count: int


def _infer_counted_file_range_partition(
    payload: tuple[str, int, int, str]
) -> tuple[Any, int]:
    """Worker: counting fold over one byte range read from the file.

    The counted twin of :func:`_infer_file_range_partition`; only the
    counted partial (and its document count) returns.
    """
    from repro.datasets.ndjson import iter_line_spans
    from repro.inference.counting import _add_counted_spans

    path, start, end, equivalence_value = payload
    data = _read_range(path, start, end)
    accumulator = CountingAccumulator(Equivalence(equivalence_value))
    _add_counted_spans(accumulator, data, iter_line_spans(data))
    return accumulator.result(), accumulator.document_count


def infer_counted_parallel(
    corpus,
    partitions: int,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    processes: Optional[int] = None,
) -> CountedParallelRun:
    """Counting-types inference over an
    :class:`~repro.datasets.ndjson.MmapCorpus` on real worker processes.

    The counted algebra is a monoid too: per-partition counted unions
    merge by adding counts, so the parallel reduce preserves every
    cardinality exactly (pinned by the process-boundary regression
    tests).  Contiguous byte ranges from the corpus index go to workers
    that read their own file slice and run the counting fold; contiguous
    ranges (:func:`partition_bounds`) keep union member
    first-appearance order identical to the serial fold.
    """
    payloads = _file_range_payloads(corpus, partitions, equivalence)
    if processes is None:
        processes = min(len(payloads), auto_jobs())
    processes = max(1, processes)

    combined = CountingAccumulator(equivalence)
    for counted, count in _map_partitions(
        _infer_counted_file_range_partition, payloads, processes
    ):
        combined.add_counted(counted, documents=count)
    if combined.is_empty():
        raise InferenceError(
            "cannot infer a counted schema from an empty stream"
        )
    return CountedParallelRun(
        result=combined.result(),
        partitions=len(payloads),
        processes=processes if len(payloads) > 1 else 1,
        equivalence=equivalence,
        document_count=combined.document_count,
    )

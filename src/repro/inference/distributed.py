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
  (:func:`plan_schedule`, :func:`plan_compressed_schedule`,
  :func:`infer_adaptive_text`).  Every parallel route is one map and one
  combine.  The map is one worker entry, :func:`_fold_ranges`: fold
  these byte ranges of this file with this fold (a :class:`RangeTask`).
  Line ranges (:func:`infer_distributed_text`), counted line ranges
  (:func:`infer_counted_parallel`), compressed member ranges
  (:func:`infer_compressed_parallel`) and the chunk groups of one huge
  document (:func:`infer_subtree_text`) differ only in the task's format
  and fold.  One pool helper (:class:`_WorkerPool`) consumes results in
  range order, and :func:`_combine` stitches boundary lines and adds
  the partials through the monoid.  Sources that are not files (stdin,
  FIFOs, line iterables) fold serially.

Both modes produce a result bit-identical to the sequential
:func:`repro.inference.parametric.infer_type` (associativity property),
which the tests assert — that equivalence is what makes either execution
a faithful substitute for the cluster.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Optional, Sequence

from repro.errors import InferenceError
from repro.inference.engine import (
    _SUBTREE_EXACT_LIMIT,
    CountingAccumulator,
    TypeAccumulator,
)
from repro.types import Equivalence, Type, merge_interned, type_to_string
from repro.types.build import TypeEncoder


class StageCost:
    """Cost accounting for one stage of the dataflow: its tasks, the
    critical-path cost (``max_task_units``), the total work across tasks,
    and the bytes of partial types leaving the stage."""

    def __init__(
        self,
        name: str,
        tasks: int,
        max_task_units: int,
        total_units: int,
        shipped_bytes: int,
    ) -> None:
        self.name = name
        self.tasks = tasks
        self.max_task_units = max_task_units
        self.total_units = total_units
        self.shipped_bytes = shipped_bytes


class DistributedRun:
    """Outcome of a simulated distributed inference."""

    def __init__(
        self,
        result: Type,
        partitions: int,
        equivalence: Equivalence,
        stages: "list[StageCost] | None" = None,
    ) -> None:
        self.result = result
        self.partitions = partitions
        self.equivalence = equivalence
        self.stages = [] if stages is None else stages

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


class ParallelRun:
    """Outcome of a real multi-process inference (``result`` is a
    counted union for the counting fold).  ``plan`` is set when the run
    was routed by the adaptive scheduler."""

    def __init__(
        self,
        result: Type,
        partitions: int,
        processes: int,
        equivalence: Equivalence,
        partition_documents: "list[int] | None" = None,
        plan: Optional["SchedulePlan"] = None,
    ) -> None:
        self.result = result
        self.partitions = partitions
        self.processes = processes
        self.equivalence = equivalence
        self.partition_documents = (
            [] if partition_documents is None else partition_documents
        )
        self.plan = plan

    @property
    def document_count(self) -> int:
        return sum(self.partition_documents)


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


# ---------------------------------------------------------------------------
# the one worker entry: fold byte ranges of a file
# ---------------------------------------------------------------------------


class RangeTask:
    """One worker's share: fold these byte ranges of this file with this fold.

    ``format`` is ``None`` for a plain file, whose ranges are
    line-aligned, or ``"gzip"`` / ``"zstd"``, whose ranges are
    member-aligned compressed bytes.  ``fold`` is ``"types"`` (the
    parametric fold), ``"counted"`` (the counting fold) or ``"chunks"``
    (the subtree chunks of one ``kind`` container, each typed at most
    ``depth`` levels deep).  Tasks are immutable and pickle as plain
    data.
    """

    def __init__(
        self,
        path: str,
        format: Optional[str],
        ranges: tuple,
        fold: str,
        equivalence: Equivalence = Equivalence.KIND,
        kind: str = "",
        depth: int = 512,
    ) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "format", format)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "fold", fold)
        object.__setattr__(self, "equivalence", equivalence)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "depth", depth)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def _read_range(path: str, start: int, end: int) -> bytes:
    """The file transport: a worker reads its own byte range."""
    with open(path, "rb") as handle:
        handle.seek(start)
        return handle.read(end - start)


def _fold_ranges(task: RangeTask) -> tuple[Any, int, bytes, bytes]:
    """The one worker entry: returns ``(partial, count, head, tail)``.

    ``partial`` is the interned partial type (a counted union for the
    counting fold, the per-chunk contribution lists for subtree chunks),
    and ``count`` the documents it covers.  ``head`` and ``tail`` are
    the raw boundary bytes of a compressed range, whose first and last
    lines may continue in the neighbouring ranges (see
    :func:`_feed_members`); they are empty for line-aligned ranges.
    """
    from repro.datasets.ndjson import iter_line_spans

    if task.fold == "chunks":
        from repro.inference.engine import type_subtree_chunks
        from repro.types.build import EventTypeEncoder
        from repro.types.intern import InternTable

        lo = task.ranges[0][0]
        data = _read_range(task.path, lo, task.ranges[-1][1])
        parts = type_subtree_chunks(
            EventTypeEncoder(InternTable()),
            data,
            task.kind,
            [(start - lo, end - lo) for start, end in task.ranges],
            max_depth=task.depth,
        )
        return parts, 0, b"", b""
    from repro.inference.engine import RangeFolder

    fold = CountingAccumulator if task.fold == "counted" else TypeAccumulator
    accumulator = fold(task.equivalence)
    folder = RangeFolder(accumulator)
    head = tail = b""
    if task.format is None:
        for start, end in task.ranges:
            data = _read_range(task.path, start, end)
            folder.feed(data, iter_line_spans(data))
    else:
        head, tail = _feed_members(task, folder.feed)
    folder.finish()
    return accumulator.result(), accumulator.document_count, head, tail


def _feed_members(task: RangeTask, feed) -> tuple[bytes, bytes]:
    """Decompress the member-aligned ranges of ``task`` and ``feed`` the
    *interior* lines; return the boundary bytes ``(head, tail)``.

    A worker cannot know where the previous range's last line ends, so
    ``head`` is its output up to and **including** the first line
    break, and ``tail`` the bytes after the last break.  The parent
    stitches ``tail_i + head_{i+1}`` — keeping the break bytes means a
    ``\\r\\n`` pair split across two members reassembles into one break,
    not two lines.  Output with no break at all comes back as
    ``(b"", output)``: one fragment of a line spanning ranges.
    """
    from repro.datasets.compressed import _iter_decompressed, _line_aligned_cut
    from repro.datasets.ndjson import _LINE_BREAK_BYTES, iter_line_spans

    head = None
    pending = b""
    for start, end in task.ranges:
        for chunk in _iter_decompressed(task.path, task.format, start, end):
            data = pending + chunk if pending else chunk
            if head is None:
                match = _LINE_BREAK_BYTES.search(data)
                if match is None or (
                    match.end() == len(data) and data[match.start() :] == b"\r"
                ):
                    # No complete first break yet (a trailing lone \r
                    # may still pair with a \n in the next chunk).
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
            feed(block, iter_line_spans(block))
    return head or b"", pending


# ---------------------------------------------------------------------------
# the one pool and the one combine
# ---------------------------------------------------------------------------


# Where every worker pool comes from: ``None`` is the platform's default
# start method, imported when the first pool starts, so a serial plan
# never loads ``multiprocessing``.  Any ``multiprocessing`` context
# serves, since a task is plain picklable data and the worker imports
# what it runs.
_POOL_CONTEXT = None


class _WorkerPool:
    """Runs :func:`_fold_ranges` over tasks, on a pool of ``processes``
    workers started on first use (inline for one process or one task).

    Results come back **in task order**, whatever finishes first: an
    *exact* route re-raises the error of the first failing range, which
    holds the first bad line, as the serial fold reports it; a
    *speculative* route gets ``None`` on any failure and declines to the
    serial fold, which owns the error report.
    """

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self.pool = None

    def run(self, tasks: Sequence[RangeTask], *, exact: bool) -> Optional[list]:
        try:
            if self.processes == 1 or len(tasks) == 1:
                return [_fold_ranges(task) for task in tasks]
            if self.pool is None:
                context = _POOL_CONTEXT
                if context is None:
                    import multiprocessing as context
                self.pool = context.Pool(processes=self.processes)
            return list(self.pool.imap(_fold_ranges, tasks))
        except Exception:
            if exact:
                raise
            return None

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()


def _combine(results: list, accumulator) -> tuple[list[int], int]:
    """Add range results to ``accumulator``, in corpus order.

    Boundary lines are stitched from ``tail_i + head_{i+1}`` and typed
    here, each before the partial of the range it opens (a final tail
    is the corpus's last line); each partial adds through the monoid.
    Corpus order keeps a counted union's member order that of the
    serial fold.  Returns the per-range document counts and the count
    of boundary documents.
    """
    from repro.datasets.ndjson import split_corpus_bytes
    from repro.inference.engine import _blank_span

    def add_lines(lines) -> int:
        added = 0
        for line in lines:
            if not _blank_span(line, 0, len(line)):
                accumulator.add_bytes(line)
                added += 1
        return added

    counts: list[int] = []
    documents = 0
    pending = b""
    for partial, count, head, tail in results:
        if head:
            # pending + head ends with the break that closed the range's
            # first line; the final (empty) segment is the interior.
            documents += add_lines(split_corpus_bytes(pending + head)[:-1])
            pending = tail
        else:
            pending += tail
        if count:
            accumulator.add_type(partial, documents=count)
        counts.append(count)
    if pending:
        lines = split_corpus_bytes(pending)
        # A terminator at true EOF makes no extra line, as in the index.
        documents += add_lines(lines[:-1] if lines[-1] == b"" else lines)
    return counts, documents


def _fold_line_ranges(corpus, partitions: int, processes, fold: str, accumulator):
    """Fold contiguous line ranges of a mapped corpus into
    ``accumulator`` — an exact route.  Returns ``(counts, processes)``."""
    equivalence = accumulator.equivalence
    tasks = [
        RangeTask(corpus.path, None, (corpus.byte_range(a, b),), fold, equivalence)
        for a, b in partition_bounds(len(corpus), partitions)
    ]
    if processes is None:
        processes = min(len(tasks), auto_jobs())
    processes = max(1, processes) if len(tasks) > 1 else 1
    with _WorkerPool(processes) as pool:
        counts, _ = _combine(pool.run(tasks, exact=True), accumulator)
    return counts, processes


# ---------------------------------------------------------------------------
# the routes
# ---------------------------------------------------------------------------


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

    One line-aligned byte range per contiguous partition goes to a
    worker, which reads its own slice of the file and folds it through
    the batched bytes pipeline — the parent never splits, decodes, or
    pickles lines.  The interned partition types come back and combine,
    bit-identical to every serial path.  Blank lines are skipped; a
    malformed line raises the serial fold's error.
    """
    combined = TypeAccumulator(equivalence)
    counts, processes = _fold_line_ranges(
        corpus, partitions, processes, "types", combined
    )
    if not any(counts):
        raise InferenceError("cannot infer a schema from an empty stream")
    return ParallelRun(
        result=combined.result(),
        partitions=len(counts),
        processes=processes,
        equivalence=equivalence,
        partition_documents=counts,
    )


def infer_counted_parallel(
    corpus,
    partitions: int,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    processes: Optional[int] = None,
) -> ParallelRun:
    """Counting-types inference over an
    :class:`~repro.datasets.ndjson.MmapCorpus` on real worker processes:
    :func:`infer_distributed_text` with a counting accumulator.

    The counted algebra is a monoid too: per-partition counted unions
    merge by adding counts, so the parallel reduce preserves every
    cardinality exactly (pinned by the process-boundary regression
    tests).  Contiguous ranges (:func:`partition_bounds`) keep union
    member first-appearance order identical to the serial fold.
    """
    combined = CountingAccumulator(equivalence)
    counts, processes = _fold_line_ranges(
        corpus, partitions, processes, "counted", combined
    )
    if combined.is_empty():
        raise InferenceError(
            "cannot infer a counted schema from an empty stream"
        )
    return ParallelRun(
        result=combined.result(),
        partitions=len(counts),
        processes=processes,
        equivalence=equivalence,
        partition_documents=counts,
    )


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
    decompresses and folds its own range, and the parent stitches and
    types the boundary lines (:func:`_combine`) — interned-identical to
    the serial fold by commutativity.

    Speculative like the subtree splitter: **any** failure — a
    candidate that was payload coincidence, a range not ending on a
    member boundary, corrupt bytes, a JSON error — returns ``None``,
    and the caller's serial fold owns the error report.  Returns
    ``None`` likewise when the container has no exploitable parallelism
    (fewer than two candidate members) or no documents.
    """
    from repro.datasets.compressed import detect_compression, member_candidates

    path = str(path)
    fmt = format or detect_compression(path)
    if fmt is None:
        return None
    if candidates is None:
        candidates = member_candidates(path, fmt)
    jobs = processes if processes is not None else auto_jobs()
    groups = min(max(1, jobs), len(candidates))
    if groups < 2:
        return None
    ends = [*candidates[1:], os.path.getsize(path)]
    tasks = [
        RangeTask(path, fmt, ((candidates[lo], ends[hi - 1]),), "types", equivalence)
        for lo, hi in partition_bounds(len(candidates), groups)
    ]
    accumulator = TypeAccumulator(equivalence)
    with _WorkerPool(groups) as pool:
        results = pool.run(tasks, exact=False)
    if results is None:
        return None
    try:
        counts, boundary = _combine(results, accumulator)
    except Exception:
        return None
    if not any(counts) and not boundary:
        # Zero documents: the serial fold owns the empty-stream error.
        return None
    return ParallelRun(
        result=accumulator.result(),
        partitions=len(tasks),
        processes=groups,
        equivalence=equivalence,
        partition_documents=[*counts, boundary],
    )


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


def _subtree_span_type(
    buffer,
    path: Optional[str],
    start: int,
    end: int,
    *,
    encoder,
    table,
    pool: Optional[_WorkerPool],
    targets: int,
    min_bytes: int,
    max_depth: int = 512,
    exact_limit: int = _SUBTREE_EXACT_LIMIT,
):
    """Type one document span through the subtree-parallel pipeline.

    Returns the canonical type, or ``None`` when the span is not worth
    (or not amenable to) splitting.  With a ``pool``, chunk groups go to
    its workers, which read them from ``path``; without one, the chunks
    are typed in this process.  ``exact_limit`` passes through to
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
            buffer, start, end, targets=targets, min_bytes=min_bytes,
            exact_limit=exact_limit, skip_chunk_levels=skip,
        )
        if split is None or split == previous:
            return None
        previous = split
        chunk_depth = max_depth - split.spine_depth
        if chunk_depth <= 1:
            return None
        chunks = split.chunks
        if pool is not None and len(chunks) > 1:
            groups = partition_bounds(len(chunks), min(pool.processes, len(chunks)))
            results = pool.run(
                [
                    RangeTask(
                        path, None, tuple(chunks[a:b]), "chunks",
                        kind=split.kind, depth=chunk_depth,
                    )
                    for a, b in groups
                ],
                exact=False,
            )
            if results is None:
                skip = split.spine_depth + 1
                continue
            chunk_parts = [parts for group, *_ in results for parts in group]
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
            heads = [
                type_subtree_chunks(
                    encoder, buffer, "object", [frame[1]], max_depth=max_depth - level
                )[0]
                if frame[0] == "recw" and frame[1] is not None
                else None
                for level, frame in enumerate(split.frames)
            ]
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
    from repro.inference.engine import RangeFolder, _blank_span
    from repro.types.build import EventTypeEncoder

    if processes is None:
        processes = auto_jobs()
    processes = max(1, processes)
    if targets is None:
        targets = max(2, processes)

    accumulator = TypeAccumulator(equivalence)
    encoder = EventTypeEncoder(accumulator.table)
    folder = RangeFolder(accumulator, encoder=encoder)
    buffer = corpus.buffer()
    path = getattr(corpus, "path", None)
    threshold = max(min_split_bytes, 2)
    split_documents = 0
    common = dict(encoder=encoder, table=accumulator.table, min_bytes=min_split_bytes)
    with _WorkerPool(processes) as pool:
        workers = pool if processes > 1 and path is not None else None
        for start, end in corpus.spans:
            if end - start < threshold:
                folder.feed(buffer, ((start, end),))
                continue
            # Earlier lines surface their errors first, serially.
            folder.finish()
            if _blank_span(buffer, start, end):
                continue
            t = _subtree_span_type(
                buffer, path, start, end, pool=workers, targets=targets, **common
            )
            if t is None:
                # The speculative carve declined: carve exactly, in this
                # process, into about 256 KiB chunks, so only one chunk
                # is ever decoded at a time.
                t = _subtree_span_type(
                    buffer, path, start, end, pool=None,
                    targets=max(2, (end - start) >> 18),
                    exact_limit=end - start, **common,
                )
            if t is None:
                # Malformed or unsplittable: the whole-span parse owns
                # the exact type or the exact serial error.
                t = encoder.encode_bytes(buffer, start, end)
            else:
                split_documents += 1
            accumulator.add_type(t)
        folder.finish()
        started = pool.pool is not None

    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return ParallelRun(
        result=accumulator.result(),
        partitions=max(1, split_documents),
        processes=processes if started else 1,
        equivalence=equivalence,
        partition_documents=[accumulator.document_count],
    )


# ---------------------------------------------------------------------------
# adaptive scheduler: one cost model, two front doors
# ---------------------------------------------------------------------------


def auto_jobs() -> int:
    """Worker processes this machine can actually run in parallel.

    Prefers ``os.sched_getaffinity`` (container/cgroup and taskset
    aware — ``cpu_count`` over-reports inside CPU-limited containers),
    falling back to ``os.cpu_count``.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


class SchedulePlan:
    """The adaptive scheduler's decision for one corpus.

    ``mode`` is ``"serial"``, ``"parallel"`` (line-parallel or
    member-parallel workers), or ``"subtree"`` (intra-document
    parallelism: huge documents carved into top-level chunks); the
    estimate fields record the cost model's inputs so benchmarks and the
    CLI can report *why* the scheduler chose what it chose.
    ``calibration_source`` records where the cost-model constants came
    from (``"env"``, ``"profile"``, ``"measured"``, or ``"default"`` —
    see :mod:`repro.inference.calibration`).  Plans are immutable.
    """

    def __init__(
        self,
        mode: str,
        jobs: int,
        documents: int,
        cpus: int,
        sample_docs_per_sec: float,
        estimated_serial_seconds: float,
        estimated_parallel_seconds: float,
        reason: str,
        calibration_source: str = "default",
    ) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "jobs", jobs)
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "cpus", cpus)
        object.__setattr__(self, "sample_docs_per_sec", sample_docs_per_sec)
        object.__setattr__(self, "estimated_serial_seconds", estimated_serial_seconds)
        object.__setattr__(
            self, "estimated_parallel_seconds", estimated_parallel_seconds
        )
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "calibration_source", calibration_source)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def partitions(self) -> int:
        """One contiguous partition per worker."""
        return self.jobs

    @property
    def parallel(self) -> bool:
        return self.mode == "parallel"

    @property
    def subtree(self) -> bool:
        return self.mode == "subtree"


_PARALLEL_ADVANTAGE = 1.15  # modeled win required before spawning workers
_SAMPLE_SIZE = 200
# The timed sample is throwaway work; cap it by wall clock as well as
# count so corpora of few-but-huge lines don't pay a large fraction of
# the fold just to decide the plan.
_SAMPLE_BUDGET_SECONDS = 0.05
_SAMPLE_MINIMUM = 8


class _Terms:
    """One source's terms of the cost model.

    ``units`` bounds the workers (independent lines, member candidates;
    a subtree carve makes a chunk per worker); ``split_seconds`` is the
    parent's carving before workers start; ``what`` names the source in
    the plan's reason.  Immutable.
    """

    def __init__(
        self,
        what: str,
        units: int,
        serial_seconds: float = 0.0,
        split_seconds: float = 0.0,
        mode: str = "parallel",
        sample_docs_per_sec: float = 0.0,
    ) -> None:
        object.__setattr__(self, "what", what)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "serial_seconds", serial_seconds)
        object.__setattr__(self, "split_seconds", split_seconds)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "sample_docs_per_sec", sample_docs_per_sec)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def _schedule(jobs: Optional[int], measure, *, documents: int = 0) -> SchedulePlan:
    """The one cost model: serial, or ``measure()``'s mode on workers.

    Parallel wall-clock is per-worker startup plus the source's split
    cost plus the serial fold divided across the CPUs that can really
    run (requested jobs capped by :func:`auto_jobs` and the source's
    independent units); workers read their own byte ranges, so nothing
    is shipped.  The constants come from the persisted per-machine
    calibration profile (:mod:`repro.inference.calibration`).  One
    worker requested, one usable CPU, or fewer than two independent
    units plan serial before anything is measured or modeled; so does a
    modeled win under ``_PARALLEL_ADVANTAGE`` — spawning workers that
    lose to the serial fold (the E16 regression: 0.94x at ``--jobs 2``
    on one usable CPU) is the one outcome this scheduler exists to
    prevent.
    """
    from repro.inference import calibration

    cpus = auto_jobs()
    requested = cpus if jobs is None else max(1, jobs)
    mode, effective, terms, parallel_seconds = "serial", 1, None, 0.0
    source = "default"
    if jobs is not None and requested == 1:
        reason = "one worker requested"
    elif cpus == 1:
        reason = "one usable CPU: parallel workers would only contend"
    else:
        terms = measure()
        reason = terms.what
        if terms.units < 2:
            reason += ": nothing to split"
    if terms is not None and terms.units >= 2:
        workers = min(requested, cpus, terms.units)
        parallel_seconds = (
            calibration.worker_startup_seconds() * workers
            + terms.split_seconds
            + terms.serial_seconds / workers
        )
        source = calibration.calibration_source()
        win = terms.serial_seconds / parallel_seconds
        if win > _PARALLEL_ADVANTAGE:
            mode, effective = terms.mode, workers
            reason += f": modeled {win:.2f}x win on {workers} of {cpus} CPUs"
        else:
            reason += (
                f": modeled {terms.mode} win {win:.2f}x is under the "
                f"{_PARALLEL_ADVANTAGE:.2f}x threshold"
            )
    return SchedulePlan(
        mode=mode,
        jobs=effective,
        documents=documents,
        cpus=cpus,
        sample_docs_per_sec=terms.sample_docs_per_sec if terms else 0.0,
        estimated_serial_seconds=terms.serial_seconds if terms else 0.0,
        estimated_parallel_seconds=parallel_seconds,
        reason=reason,
        calibration_source=source,
    )


def _line_terms(corpus, sample_size: int) -> _Terms:
    """Terms of a mapped corpus: bytes rates when huge documents hold
    most of its bytes (the subtree mode), else the timed line sample.

    The shape probe runs *before* the sample: sampling a corpus of
    100 MB lines would scan whole documents just to plan, and the
    per-line rate is meaningless when one line is the corpus.  The
    sample measures the map rate (each line decoded and typed, blanks
    skipped as the fold skips them), which dominates the fold and does
    not depend on the equivalence.
    """
    from repro.inference import calibration
    from repro.types.build import EventTypeEncoder
    from repro.types.intern import InternTable

    documents = len(corpus)
    if documents == 0:
        return _Terms("empty corpus", 0)
    if documents <= max(1, sample_size) and corpus.max_line_bytes >= _SUBTREE_MIN_BYTES:
        total = corpus.size_bytes
        huge = sum(
            end - start
            for start, end in corpus.spans
            if end - start >= _SUBTREE_MIN_BYTES
        )
        if huge * 2 > total:
            return _Terms(
                f"huge-document corpus ({huge / 1e6:.0f} MB in splittable lines)",
                sys.maxsize,
                total / calibration.scan_bytes_per_second(),
                total / calibration.split_bytes_per_second(),
                mode="subtree",
            )
    # A private table: samples must not pollute the global table's
    # statistics.
    encode_text = EventTypeEncoder(InternTable()).encode_text
    sampled = 0
    start_time = time.perf_counter()
    for index in range(min(documents, max(1, sample_size))):
        line = corpus[index]
        if line and not line.isspace():
            encode_text(line)
        sampled += 1
        if (
            sampled >= _SAMPLE_MINIMUM
            and time.perf_counter() - start_time > _SAMPLE_BUDGET_SECONDS
        ):
            break
    rate = sampled / max(time.perf_counter() - start_time, 1e-9)
    return _Terms(
        f"{documents}-line corpus", documents, documents / rate,
        sample_docs_per_sec=rate,
    )


def _member_terms(path: str, fmt: Optional[str]) -> _Terms:
    """Terms of a compressed corpus: bytes rates of decompression plus
    typing over the decompressed size, estimated from a bounded
    first-blocks probe (:func:`repro.datasets.compressed.estimate_ratio`);
    lines do not exist until decompression runs.  Independent units are
    the member/frame candidates: one DEFLATE stream cannot be split."""
    from repro.datasets.compressed import estimate_ratio, member_candidates
    from repro.inference import calibration

    if fmt is None:
        return _Terms("not a compressed corpus", 0)
    candidates = len(member_candidates(path, fmt))
    if candidates < 2:
        return _Terms(f"single {fmt} member", candidates)
    total = os.path.getsize(path) * estimate_ratio(path, fmt)
    return _Terms(
        f"{candidates} independent {fmt} member candidates",
        candidates,
        total / calibration.decompress_bytes_per_second()
        + total / calibration.scan_bytes_per_second(),
    )


def plan_schedule(
    corpus,
    *,
    jobs: Optional[int] = None,
    shared_memory=None,  # unread; benchmarks/suite/trace_job.py passes it
    sample_size: int = _SAMPLE_SIZE,
) -> SchedulePlan:
    """Decide serial, line-parallel or subtree execution for an
    :class:`~repro.datasets.ndjson.MmapCorpus` (:func:`_schedule` over
    :func:`_line_terms`)."""
    return _schedule(
        jobs, lambda: _line_terms(corpus, sample_size), documents=len(corpus)
    )


def plan_compressed_schedule(
    path,
    *,
    format: Optional[str] = None,
    jobs: Optional[int] = None,
) -> SchedulePlan:
    """Decide serial vs. member-parallel decode for a compressed corpus
    (:func:`_schedule` over :func:`_member_terms`)."""
    from repro.datasets.compressed import detect_compression

    path = str(path)
    fmt = format or detect_compression(path)
    return _schedule(jobs, lambda: _member_terms(path, fmt))


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
    elif plan.parallel:
        run = infer_distributed_text(
            corpus, partitions=plan.jobs, equivalence=equivalence, processes=plan.jobs
        )
    else:
        from repro.inference.engine import accumulate_ranges

        accumulator = accumulate_ranges(corpus.buffer(), corpus.spans, equivalence)
        if accumulator.is_empty():
            raise InferenceError("cannot infer a schema from an empty stream")
        run = ParallelRun(
            result=accumulator.result(),
            partitions=1,
            processes=1,
            equivalence=equivalence,
            partition_documents=[accumulator.document_count],
        )
    run.plan = plan
    return run

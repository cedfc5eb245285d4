"""Cross-path conformance matrix: every inference route, one interned answer.

The paper's map/reduce design means there are many ways to compute "the
type of this collection" — DOM fold, fused batch, streaming text,
counting (stripped of counts), the distributed simulator, the
real multiprocessing modes (file byte ranges, subtree chunks,
compressed members), the line-block reader over stdin and FIFOs, and
the schema repository's per-structure groups.  The monoid
laws say they must all agree; hash-consing sharpens "agree" to *object
identity* once each answer is canonicalized into one intern table.

This suite pins that: every route below, on shared corpora
(twitter/github/nyt generator samples) under both equivalences, yields
the interned-identical type.
"""

from __future__ import annotations

import pytest

from repro.datasets import github_events, ndjson_lines, nyt_articles, tweets
from repro.inference import (
    accumulate,
    accumulate_lines,
    accumulate_types,
    infer_adaptive_text,
    infer_counted,
    infer_counted_streaming,
    infer_distributed,
    infer_distributed_text,
    infer_type,
    infer_type_streaming,
)
from repro.inference.engine import TypeAccumulator
from repro.repository import SchemaRepository
from repro.types import Equivalence, type_of, type_of_interned
from repro.types.intern import global_table
from repro.types.merge import merge_all

CORPORA = {
    "twitter": lambda: tweets(120, seed=7),
    "github": lambda: github_events(120, seed=7),
    "nyt": lambda: nyt_articles(120, seed=7),
}

EQUIVALENCES = [Equivalence.KIND, Equivalence.LABEL]


def _route_seed_merge_all(docs, lines, equivalence):
    """The seed oracle: raw per-document types, batch merge."""
    return merge_all([type_of(d) for d in docs], equivalence)


def _route_engine_fold(docs, lines, equivalence):
    """Incremental engine fold over documents (fused DOM encoder)."""
    return accumulate(docs, equivalence).result()


def _route_fused_batch(docs, lines, equivalence):
    """type_of_interned batch: canonical map phase, then the type fold."""
    return accumulate_types(
        (type_of_interned(d) for d in docs), equivalence
    ).result()


def _route_streaming_text(docs, lines, equivalence):
    """Fused lexer→type pipeline over NDJSON lines."""
    return infer_type_streaming(lines, equivalence)


def _route_engine_lines(docs, lines, equivalence):
    """TypeAccumulator.add_text fold (the engine's own text feed)."""
    return accumulate_lines(lines, equivalence).result()


def _route_counting(docs, lines, equivalence):
    """Counting types (DBPL '17), counts stripped."""
    return infer_counted(docs, equivalence).plain()


def _route_counting_text(docs, lines, equivalence):
    """Counting types over raw lines, counts stripped."""
    return infer_counted_streaming(lines, equivalence).plain()


def _route_distributed_serial(docs, lines, equivalence):
    """The deterministic distributed simulator (map/combine/reduce tree)."""
    return infer_distributed(docs, partitions=4, equivalence=equivalence).result


def _ndjson_bytes(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _route_stdin_blocks(docs, lines, equivalence):
    """``repro infer - --jobs 2``: byte stdin read 61 bytes at a time,
    so lines straddle blocks, folded serially block by block."""
    import io
    from unittest import mock

    from repro.datasets import compressed
    from repro.inference import infer_report_path

    stdin = io.TextIOWrapper(io.BytesIO(_ndjson_bytes(lines)))
    with mock.patch.object(compressed, "READ_BYTES", 61), mock.patch(
        "sys.stdin", stdin
    ):
        return infer_report_path("-", equivalence, jobs=2).inferred


def _route_fifo_blocks(docs, lines, equivalence):
    """A FIFO path: never sniffed for compression or mapped, read as
    line-aligned blocks like stdin."""
    import os
    import tempfile
    import threading
    from pathlib import Path as _Path

    from repro.inference import infer_report_path

    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    with tempfile.TemporaryDirectory() as tmp:
        fifo = _Path(tmp) / "corpus.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(_ndjson_bytes(lines),), daemon=True
        )
        writer.start()
        try:
            return infer_report_path(str(fifo), equivalence).inferred
        finally:
            writer.join(timeout=10)


def _with_corpus(lines, fn):
    import tempfile
    from pathlib import Path as _Path

    from repro.datasets import open_corpus

    with tempfile.TemporaryDirectory() as tmp:
        path = _Path(tmp) / "corpus.ndjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open_corpus(path) as corpus:
            return fn(corpus)


def _route_bytes_serial(docs, lines, equivalence):
    """Bytes-native serial fold: undecoded mmap ranges through the
    batched line-shape cache + bytes scan (zero per-line str decode)."""
    from repro.inference import accumulate_ranges

    return _with_corpus(
        lines,
        lambda corpus: accumulate_ranges(
            corpus.buffer(), corpus.spans, equivalence
        ).result(),
    )


def _route_bytes_parallel(docs, lines, equivalence):
    """Bytes-native workers reading their own byte ranges from the file
    (no parent-side decode, no per-line pickles)."""
    return _with_corpus(
        lines,
        lambda corpus: infer_distributed_text(
            corpus, partitions=3, equivalence=equivalence, processes=2
        ).result,
    )


def _route_adaptive_corpus(docs, lines, equivalence):
    """The adaptive scheduler over an mmap corpus — the ``repro infer
    FILE --jobs N`` route (serial fold or file-range workers)."""
    return _with_corpus(
        lines,
        lambda corpus: infer_adaptive_text(corpus, equivalence, jobs=2).result,
    )


def _route_subtree_serial(docs, lines, equivalence):
    """Intra-document splitter, in-process: every line over the split
    threshold is carved into top-level subtree ranges, typed chunk by
    chunk, and reassembled — identical to the serial bytes fold."""
    from repro.inference import infer_subtree_text

    return _with_corpus(
        lines,
        lambda corpus: infer_subtree_text(
            corpus, equivalence, processes=1, min_split_bytes=0
        ).result,
    )


def _route_subtree_parallel(docs, lines, equivalence):
    """Intra-document splitter with chunk groups shipped to workers
    (byte-range reads from the file, partials re-interned on merge)."""
    from repro.inference import infer_subtree_text

    return _with_corpus(
        lines,
        lambda corpus: infer_subtree_text(
            corpus, equivalence, processes=2, min_split_bytes=0
        ).result,
    )


def _route_counting_bytes(docs, lines, equivalence):
    """Counting types via counted_type_of_bytes, counts stripped."""
    from repro.inference import counted_type_of_bytes
    from repro.inference.engine import CountingAccumulator

    accumulator = CountingAccumulator(equivalence)
    for line in lines:
        if not line or line.isspace():
            continue
        accumulator.add_type(counted_type_of_bytes(line.encode("utf-8"), equivalence=equivalence))
    return accumulator.result().plain()


def _route_counting_parallel(docs, lines, equivalence):
    """Counting types over file byte ranges on two worker processes,
    counts stripped."""
    from repro.inference import infer_counted_parallel

    return _with_corpus(
        lines,
        lambda corpus: infer_counted_parallel(
            corpus, partitions=3, equivalence=equivalence, processes=2
        ).result.plain(),
    )


def _route_repository(docs, lines, equivalence):
    """Schema repository: per-structure group types, re-merged.

    With ``k`` larger than the number of distinct structures every
    document lands in a group, and associativity makes the merge of the
    group merges equal the flat merge.
    """
    entry = SchemaRepository().register(
        "conformance", docs, k=10_000, equivalence=equivalence
    )
    accumulator = TypeAccumulator(equivalence)
    for group_type in entry.group_types.values():
        accumulator.add_type(group_type)
    assert accumulator.document_count == len(entry.group_types)
    return accumulator.result()


def _with_compressed(lines, fmt, fn):
    import tempfile
    from pathlib import Path as _Path

    from repro.datasets import compress_corpus

    suffix = "gz" if fmt == "gzip" else "zst"
    with tempfile.TemporaryDirectory() as tmp:
        path = _Path(tmp) / f"corpus.ndjson.{suffix}"
        # Small members so the parallel route has real member candidates
        # and every member boundary sits mid-corpus.
        compress_corpus(path, lines, format=fmt, member_lines=16)
        return fn(path)


def _croute_gzip_serial(lines, equivalence):
    """Chunked gzip decode into the bytes fold (the serial reader)."""
    from repro.inference import fold_line_blocks

    return _with_compressed(
        lines, "gzip", lambda p: fold_line_blocks(p, equivalence).result()
    )


def _croute_gzip_parallel(lines, equivalence):
    """Worker-parallel decompress+fold of independent gzip members."""
    from repro.inference import infer_compressed_parallel

    def fold(path):
        run = infer_compressed_parallel(path, equivalence, processes=2)
        assert run is not None, "multi-member corpus must parallelize"
        return run.result

    return _with_compressed(lines, "gzip", fold)


def _croute_gzip_report(lines, equivalence):
    """The magic-byte route: infer_report_path on a compressed file."""
    from repro.inference import infer_report_path

    return _with_compressed(
        lines,
        "gzip",
        lambda p: infer_report_path(str(p), equivalence, jobs=2).inferred,
    )


def _croute_gzip_counting(lines, equivalence):
    """Counting types off the compressed stream, counts stripped."""
    from repro.inference import infer_counted_compressed

    return _with_compressed(
        lines,
        "gzip",
        lambda p: infer_counted_compressed(p, equivalence).plain(),
    )


def _croute_zstd_serial(lines, equivalence):
    """Chunked zstd decode into the bytes fold (optional codec)."""
    from repro.inference import fold_line_blocks

    return _with_compressed(
        lines, "zstd", lambda p: fold_line_blocks(p, equivalence).result()
    )


def _zstd_missing() -> bool:
    from repro.datasets import zstd_available

    return not zstd_available()


COMPRESSED_ROUTES = {
    "gzip-serial": _croute_gzip_serial,
    "gzip-parallel": _croute_gzip_parallel,
    "gzip-report": _croute_gzip_report,
    "gzip-counting": _croute_gzip_counting,
    "zstd-serial": _croute_zstd_serial,
}


ROUTES = {
    "seed-merge-all": _route_seed_merge_all,
    "engine-fold": _route_engine_fold,
    "fused-batch": _route_fused_batch,
    "streaming-text": _route_streaming_text,
    "engine-lines": _route_engine_lines,
    "counting": _route_counting,
    "counting-text": _route_counting_text,
    "distributed-serial": _route_distributed_serial,
    "stdin-blocks": _route_stdin_blocks,
    "fifo-blocks": _route_fifo_blocks,
    "adaptive-corpus": _route_adaptive_corpus,
    "bytes-serial": _route_bytes_serial,
    "bytes-parallel": _route_bytes_parallel,
    "subtree-serial": _route_subtree_serial,
    "subtree-parallel": _route_subtree_parallel,
    "counting-bytes": _route_counting_bytes,
    "counting-parallel": _route_counting_parallel,
    "repository": _route_repository,
}


def test_matrix_covers_enough_routes():
    assert len(ROUTES) + len(COMPRESSED_ROUTES) >= 23


@pytest.mark.parametrize("equivalence", EQUIVALENCES, ids=lambda e: e.value)
@pytest.mark.parametrize("corpus", sorted(CORPORA), ids=str)
def test_every_route_yields_the_interned_identical_type(corpus, equivalence):
    docs = CORPORA[corpus]()
    lines = ndjson_lines(docs)
    table = global_table()
    reference = table.canonical(infer_type(docs, equivalence))
    for name, route in ROUTES.items():
        result = table.canonical(route(docs, lines, equivalence))
        assert result is reference, (
            f"route {name!r} diverged on {corpus}/{equivalence.value}: "
            f"{result} != {reference}"
        )


@pytest.mark.parametrize(
    "route",
    [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                name.startswith("zstd") and _zstd_missing(),
                reason="optional zstandard module not installed",
            ),
        )
        for name in sorted(COMPRESSED_ROUTES)
    ],
)
@pytest.mark.parametrize("equivalence", EQUIVALENCES, ids=lambda e: e.value)
@pytest.mark.parametrize("corpus", sorted(CORPORA), ids=str)
def test_compressed_routes_yield_the_interned_identical_type(
    corpus, equivalence, route
):
    """gzip/zstd ingestion is just another route into the same monoid:
    the decompressed fold must intern to the identical type object the
    in-memory oracle produces."""
    docs = CORPORA[corpus]()
    lines = ndjson_lines(docs)
    table = global_table()
    reference = table.canonical(infer_type(docs, equivalence))
    result = table.canonical(COMPRESSED_ROUTES[route](lines, equivalence))
    assert result is reference, (
        f"route {route!r} diverged on {corpus}/{equivalence.value}: "
        f"{result} != {reference}"
    )


def _batch_boundary_docs():
    """1,300 small documents: more than one 1,024-line batch, with
    shapes that first appear just before and just after the batch
    boundary (a record with new labels, a float where ints were, a
    top-level array and string) and near the end."""
    late = {
        1020: {"late": [1, "x"]},
        1023: 2.5,
        1024: [{"z": None}],
        1025: "s",
        1030: {"a": 1.5, "b": []},
        1290: {"a": 7, "tail": True},
    }
    return [
        late.get(i, {"a": i, "b": [i % 3] * (i % 4)}) for i in range(1300)
    ]


COUNTING_CORPORA = {**CORPORA, "batch-boundary": _batch_boundary_docs}


@pytest.mark.parametrize("corpus", sorted(COUNTING_CORPORA), ids=str)
def test_counting_text_path_preserves_counts(corpus):
    """Every counting route must equal the one-call reference
    ``merge_counted([counted_type_of(d) for d in docs])`` on the full
    counted structure — counts and union member order included — not
    just the stripped type: the DOM fold, the str line fold, the gzip
    line-block fold, and the range worker over 1–4 partitions, inline
    and on two processes."""
    from repro.inference import (
        counted_type_of,
        infer_counted_compressed,
        infer_counted_parallel,
        merge_counted,
    )

    docs = COUNTING_CORPORA[corpus]()
    lines = ndjson_lines(docs)
    for equivalence in EQUIVALENCES:
        reference = merge_counted(
            [counted_type_of(d, equivalence) for d in docs], equivalence
        )
        assert infer_counted(docs, equivalence) == reference
        assert infer_counted_streaming(lines, equivalence) == reference
        assert _with_compressed(
            lines, "gzip", lambda p: infer_counted_compressed(p, equivalence)
        ) == reference
        for partitions in (1, 2, 3, 4):
            for processes in (1, 2):
                run = _with_corpus(
                    lines,
                    lambda corpus: infer_counted_parallel(
                        corpus, partitions, equivalence, processes=processes
                    ),
                )
                assert run.result == reference, (partitions, processes)
                assert run.document_count == len(docs)

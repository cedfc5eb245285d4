"""Process-boundary regressions: pickling, re-interning, parallel counts.

The multiprocessing modes ship interned terms over pipes.  Three
invariants keep that sound:

- pickling strips intern marks and caches (``Type.__getstate__``), so a
  rehydrated term is a plain structural term that cannot falsely alias
  canonical nodes of any table;
- re-interning a rehydrated term in the parent lands on the *identical*
  canonical node the original had — partial types from workers merge at
  full memo speed;
- the counting algebra's cardinalities survive the parallel reduce
  unchanged (counts add across partitions, document counts included).
"""

from __future__ import annotations

import pickle

from repro.datasets import github_events, ndjson_lines, tweets
from repro.inference import (
    field_presence_ratios,
    infer_counted,
    infer_counted_parallel,
    infer_distributed_text,
    infer_type,
)
from repro.types import walk
from repro.types.intern import global_table


def test_pickled_interned_terms_strip_marks_and_reintern_to_identity():
    table = global_table()
    t = table.canonical(infer_type(tweets(60, seed=3)))
    assert t._interned is table.epoch()

    clone = pickle.loads(pickle.dumps(t))
    assert clone is not t
    assert clone == t  # structural equality survives
    for node in walk(clone):
        assert node._interned is None  # no mark crosses the boundary
        assert node._hash is None and node._size is None
    # The normal-form mark is structural, so it does survive: the clone
    # re-canonicalizes without a simplify walk.
    assert clone._normal

    assert table.intern(clone) is t
    assert table.canonical(clone) is t


def _written_corpus(tmp_path, docs):
    return _lines_corpus(tmp_path, ndjson_lines(docs))


def _lines_corpus(tmp_path, lines):
    from repro.datasets import open_corpus

    path = tmp_path / "corpus.ndjson"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return open_corpus(path)


def test_parallel_partials_reintern_to_the_serial_result(tmp_path):
    docs = github_events(150, seed=11)
    reference = infer_type(docs)
    with _written_corpus(tmp_path, docs) as corpus:
        run = infer_distributed_text(corpus, partitions=4, processes=2)
    assert run.result is reference  # interned identity, not mere equality
    assert run.document_count == len(docs)
    assert run.processes == 2


def test_line_iterable_keeps_embedded_newlines_under_jobs():
    """Multi-line JSON texts are legal items of a line iterable: each
    item stays one document, never re-split at its breaks — and a
    source that is not a file folds serially whatever ``jobs`` says."""
    from repro.inference import accumulate_lines, infer_report_path

    lines = ['{"a":\n1}', '{"a": 2}'] * 3
    serial = accumulate_lines(lines)
    report = infer_report_path(lines, jobs=2)
    assert report.inferred is serial.result()
    assert report.document_count == serial.document_count == len(lines)


def test_single_process_fallback_matches_pool_execution(tmp_path):
    docs = tweets(80, seed=9)
    reference = infer_type(docs)
    with _written_corpus(tmp_path, docs) as corpus:
        serial = infer_distributed_text(corpus, partitions=3, processes=1)
    assert serial.processes == 1
    assert serial.result is reference
    assert serial.document_count == len(docs)


def test_counting_counts_survive_the_parallel_reduce(tmp_path):
    docs = tweets(120, seed=4)
    serial = infer_counted(docs)
    with _written_corpus(tmp_path, docs) as corpus:
        run = infer_counted_parallel(corpus, partitions=4, processes=2)
    assert run.processes == 2
    assert run.result == serial  # every cardinality identical
    assert run.result.count == serial.count == len(docs)
    assert run.document_count == len(docs)
    assert field_presence_ratios(run.result) == field_presence_ratios(serial)

    # The counted union itself crosses the boundary intact.
    clone = pickle.loads(pickle.dumps(serial))
    assert clone == serial and clone.count == serial.count


def test_parser_errors_cross_the_process_boundary_intact(tmp_path):
    """A malformed line in a worker must surface in the parent as the
    same error, not kill the pool's result handler (the default
    exception pickling would replay ``__init__`` with the formatted
    message and crash on the signature mismatch)."""
    import pytest

    from repro.errors import JsonError
    from repro.jsonvalue.lexer import JsonLexError
    from repro.jsonvalue.parser import JsonParseError, parse

    for text in ['{"broken', "[1, 2", "tru"]:
        try:
            parse(text)
        except JsonError as exc:
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            if isinstance(exc, JsonLexError):
                assert clone.offset == exc.offset
            else:
                assert isinstance(exc, JsonParseError)
                assert clone.token.offset == exc.token.offset
        else:  # pragma: no cover - all cases are malformed
            raise AssertionError(f"{text!r} parsed")

    lines = ['{"a": 1}'] * 6 + ['{"broken'] + ['{"a": 2}'] * 5
    with _lines_corpus(tmp_path, lines) as corpus:
        with pytest.raises(JsonError) as caught:
            infer_distributed_text(corpus, partitions=3, processes=2)
    assert "unterminated string" in str(caught.value)

    # Two bad lines either side of the partition boundary: the second
    # range fails first in time, yet the error is the first bad line's,
    # as the serial folds report it.
    from repro.inference import accumulate_ranges, infer_counted_streaming

    lines = ['{"a": %d, "b": [%d, "x"]}' % (i, i) for i in range(4000)]
    lines[1999], lines[2000] = '{"first": tru', "[1, 2"
    with _lines_corpus(tmp_path, lines) as corpus:
        with pytest.raises(JsonError) as serial:
            accumulate_ranges(corpus.buffer(), corpus.spans)
        with pytest.raises(JsonError) as caught:
            infer_distributed_text(corpus, partitions=2, processes=2)
        assert str(caught.value) == str(serial.value)
        assert "unexpected character 't'" in str(serial.value)
        with pytest.raises(JsonError) as serial:
            infer_counted_streaming(lines)
        with pytest.raises(JsonError) as caught:
            infer_counted_parallel(corpus, partitions=2, processes=2)
        assert str(caught.value) == str(serial.value)


def test_counting_parallel_single_process_fallback(tmp_path):
    docs = tweets(50, seed=13)
    with _written_corpus(tmp_path, docs) as corpus:
        run = infer_counted_parallel(corpus, partitions=2, processes=1)
    assert run.processes == 1
    assert run.result == infer_counted(docs)
    assert run.document_count == len(docs)


def test_mmap_corpus_survives_the_process_boundary(tmp_path):
    """The file transport — workers read their own byte range and
    re-split it with the corpus line-break grammar — must land on the
    identical canonical node, in a pool or inline."""
    docs = tweets(90, seed=17)
    reference = infer_type(docs)
    with _written_corpus(tmp_path, docs) as corpus:
        run = infer_distributed_text(corpus, partitions=3, processes=2)
        assert run.result is reference
        assert run.document_count == len(docs)
        assert run.partitions == 3
        serial = infer_distributed_text(corpus, partitions=3, processes=1)
        assert serial.processes == 1
        assert serial.result is reference


def test_mmap_corpus_crlf_and_blanks_across_processes(tmp_path):
    """CRLF terminators and blank lines must survive the byte-range
    transport exactly as they do the serial fold."""
    from repro.datasets import open_corpus

    docs = github_events(40, seed=19)
    lines = ndjson_lines(docs)
    content = "\r\n".join(lines[:20]) + "\r\n\r\n" + "\n".join(lines[20:])
    path = tmp_path / "crlf.ndjson"
    path.write_bytes(content.encode("utf-8"))
    reference = infer_type(docs)
    with open_corpus(path) as corpus:
        run = infer_distributed_text(corpus, partitions=4, processes=2)
    assert run.result is reference
    assert run.document_count == len(docs)


def test_adaptive_feed_is_identical_across_the_boundary(tmp_path):
    """infer_adaptive_text must produce the canonical node whether the
    scheduler lands on the serial fold or a worker pool."""
    from repro.inference import infer_adaptive_text

    docs = tweets(70, seed=29)
    reference = infer_type(docs)
    with _written_corpus(tmp_path, docs) as corpus:
        adaptive = infer_adaptive_text(corpus, jobs=4)
        from_corpus = infer_adaptive_text(corpus, jobs=None)
    assert adaptive.result is reference
    assert adaptive.document_count == len(docs)
    assert adaptive.plan is not None and adaptive.plan.mode in ("serial", "parallel")
    assert from_corpus.result is reference
    assert from_corpus.document_count == len(docs)


def test_one_worker_entry_is_start_method_agnostic(tmp_path, monkeypatch):
    """A task is plain picklable data and the worker imports what it
    runs, so a ``forkserver`` pool (the Linux default from Python 3.14)
    changes no result: line ranges, counted ranges, gzip members and
    subtree chunks all equal the serial fold."""
    import json
    import multiprocessing

    import pytest

    from repro.datasets import compress_corpus
    from repro.inference import (
        distributed,
        infer_compressed_parallel,
        infer_subtree_text,
    )

    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver start method on this platform")
    context = multiprocessing.get_context("forkserver")
    pools = []

    class Recording:
        def Pool(self, processes):
            pools.append(processes)
            return context.Pool(processes=processes)

    monkeypatch.setattr(distributed, "_POOL_CONTEXT", Recording())
    table = global_table()
    docs = tweets(80, seed=21)
    lines = ndjson_lines(docs)
    reference = infer_type(docs)
    with _lines_corpus(tmp_path, lines) as corpus:
        run = infer_distributed_text(corpus, partitions=2, processes=2)
        assert run.result is reference
        counted = infer_counted_parallel(corpus, partitions=2, processes=2)
        assert counted.result == infer_counted(docs)
    packed = tmp_path / "corpus.ndjson.gz"
    assert compress_corpus(packed, lines, member_lines=10) == 8
    run = infer_compressed_parallel(packed, processes=2)
    assert run is not None and table.canonical(run.result) is reference
    assert run.document_count == len(docs)
    with _lines_corpus(tmp_path, [json.dumps(docs)]) as corpus:
        run = infer_subtree_text(corpus, processes=2, min_split_bytes=0)
    assert run.processes == 2
    assert table.canonical(run.result) is infer_type([docs])
    assert pools == [2, 2, 2, 2]


def test_counted_gzip_member_ranges_combine_like_the_serial_fold(tmp_path):
    """Counted partials of gzip member ranges combine through the same
    ``_combine`` call as plain ones, and the boundary lines — here split
    across members — are typed by the counting accumulator too."""
    import gzip

    from repro.inference import infer_counted_streaming
    from repro.inference.distributed import RangeTask, _combine, _fold_ranges
    from repro.inference.engine import CountingAccumulator
    from repro.types import Equivalence

    lines = ndjson_lines(github_events(24, seed=5))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    # Four members, each cut in the middle of a line.
    cuts = [0, *(len(data) * i // 4 + 7 for i in (1, 2, 3)), len(data)]
    members = [gzip.compress(data[a:b]) for a, b in zip(cuts, cuts[1:])]
    path = tmp_path / "split.ndjson.gz"
    path.write_bytes(b"".join(members))
    offsets = [0]
    for member in members:
        offsets.append(offsets[-1] + len(member))
    for equivalence in (Equivalence.KIND, Equivalence.LABEL):
        tasks = [
            RangeTask(str(path), "gzip", ((a, b),), "counted", equivalence)
            for a, b in zip(offsets, offsets[1:])
        ]
        accumulator = CountingAccumulator(equivalence)
        counts, boundary = _combine(
            [_fold_ranges(task) for task in tasks], accumulator
        )
        # Each range's first line is stitched in the parent: the
        # corpus's first line and the three lines cut across members.
        assert boundary == 4
        assert sum(counts) + boundary == accumulator.document_count == len(lines)
        assert accumulator.result() == infer_counted_streaming(lines, equivalence)

"""The intra-document splitter: carve, type, reassemble — identically.

The subtree-parallel pipeline types one huge document as parallel
top-level chunks and must be indistinguishable from the serial scan:
the *interned-identical* type on every valid document (the speculative
chunker may decline or fail validation, falling back to the exact carve
and then the serial scan — never to a wrong answer), and the exact
serial error on every malformed one (the last fallback IS the serial
scan).

Covers the scanner (``scan_depth1_spans``), the planner
(``plan_subtree_split`` + ``combine_subtree``), the driver
(``infer_subtree_text``, serial and multiprocess), the scheduler's
third mode, the calibration profiles feeding its cost model, and the
digit-key line-cache regression that rode along with this change.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import open_corpus
from repro.inference import infer_subtree_text
from repro.inference.engine import (
    TypeAccumulator,
    accumulate_ranges,
    combine_subtree,
    plan_subtree_split,
    type_subtree_chunks,
)
from repro.parsing import structural
from repro.parsing.structural import document_bounds, scan_depth1_spans
from repro.types import Equivalence
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable


def _corpus_path(tmp_path, lines):
    path = tmp_path / "corpus.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _subtree_result(tmp_path, lines, processes, **kwargs):
    with open_corpus(_corpus_path(tmp_path, lines)) as corpus:
        return infer_subtree_text(
            corpus, processes=processes, min_split_bytes=0, **kwargs
        )


def _reference(lines, table):
    encoder = EventTypeEncoder(table)
    accumulator = TypeAccumulator(table=table)
    for line in lines:
        if not line or line.isspace():
            continue
        accumulator.add_type(encoder.encode_text(line))
    return accumulator.result()


# ---------------------------------------------------------------------------
# the exact depth-1 scanner
# ---------------------------------------------------------------------------


class TestScanner:
    def test_array_spans_cover_every_element(self):
        data = b'  [1, "two", [3, 4], {"five": 5}, null]  '
        scan = scan_depth1_spans(data)
        assert scan is not None and scan.kind == "array"
        values = [data[s:e] for s, e in scan.parts]
        assert values == [b"1", b'"two"', b"[3, 4]", b'{"five": 5}', b"null"]

    def test_object_spans_carry_key_and_value(self):
        data = b'{"a": 1, "b c": [2], "d": {"e": 3}}'
        scan = scan_depth1_spans(data)
        assert scan is not None and scan.kind == "object"
        members = [
            (data[kb:ke], data[vs:ve]) for (_ks, kb, ke, vs, ve) in scan.parts
        ]
        assert members == [
            (b"a", b"1"),
            (b"b c", b"[2]"),
            (b"d", b'{"e": 3}'),
        ]

    def test_escaped_quotes_never_break_a_span(self):
        # Strings whose contents mimic structure: escaped quotes,
        # brackets, commas and colons inside literals.
        data = rb'["a\"b", "}{", "[,]", {"k\"": ":"}]'
        scan = scan_depth1_spans(data)
        assert scan is not None
        values = [data[s:e] for s, e in scan.parts]
        assert values == [rb'"a\"b"', b'"}{"', b'"[,]"', rb'{"k\"": ":"}']

    def test_backslash_runs_before_closing_quotes(self):
        # \\" ends the string (escaped backslash, real quote); \\\" does
        # not (escaped backslash, escaped quote).
        data = rb'["a\\", "b\\\"c", "\\\\"]'
        scan = scan_depth1_spans(data)
        assert scan is not None
        values = [data[s:e] for s, e in scan.parts]
        assert values == [rb'"a\\"', rb'"b\\\"c"', rb'"\\\\"']

    def test_multibyte_utf8_inside_strings(self):
        doc = '["héllo", {"日本": "語"}, "𝄞𝄞"]'
        data = doc.encode("utf-8")
        scan = scan_depth1_spans(data)
        assert scan is not None
        assert len(scan.parts) == 3
        assert data[scan.parts[1][0] : scan.parts[1][1]] == '{"日本": "語"}'.encode()

    def test_top_level_scalars_and_empty_containers(self):
        assert scan_depth1_spans(b"42") is None
        assert scan_depth1_spans(b'"str"') is None
        assert scan_depth1_spans(b"null") is None
        assert scan_depth1_spans(b"   ") is None
        for empty, kind in ((b"[]", "array"), (b"{ }", "object")):
            scan = scan_depth1_spans(empty)
            assert scan is not None and scan.kind == kind
            assert scan.parts == ()

    def test_malformed_buffers_decline(self):
        for bad in (
            b"[1, 2",  # unterminated
            b"[1, 2]]",  # trailing garbage
            b"[1 2]",  # missing comma
            b'{"a" 1}',  # missing colon
            b'{"a": }',  # missing value
            b"[,]",  # leading comma
            b'["unterminated]',
        ):
            assert scan_depth1_spans(bad) is None, bad

    def test_document_bounds_checks_edges_only(self):
        assert document_bounds(b" [1, 2] ") == ("array", 1, 6)
        assert document_bounds(b'{"a": 1}') == ("object", 0, 7)
        assert document_bounds(b"42") is None
        assert document_bounds(b"[1, 2}") is None


def _parts_as_values(data, scan):
    """What each part's byte slices decode to: the element, or the
    member's ``(key, value)``; ``json.loads`` is the oracle."""
    if scan.kind == "array":
        return [json.loads(data[s:e]) for s, e in scan.parts]
    out = []
    for ks, kb, ke, vs, ve in scan.parts:
        assert data[ks] == ord('"') and kb == ks + 1 and data[ke] == ord('"')
        out.append((json.loads(data[ks : ke + 1]), json.loads(data[vs:ve])))
    return out


def _scan(data, window):
    """``scan_depth1_spans`` decoding ``window`` bytes at a time."""
    with mock.patch.object(structural, "_SCAN_WINDOW", window):
        return scan_depth1_spans(data)


def _fields(scan):
    return None if scan is None else (scan.kind, scan.open, scan.close, scan.parts)


_WS = st.text(" \t\n\r", max_size=3)
_JSON_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6
) | st.sampled_from(["é", "日本語", "𝄞", "\\", '"', "\n"])
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


def _dump(value, gap) -> str:
    """``value`` as JSON with a drawn whitespace run at every gap."""
    if isinstance(value, list):
        items = [gap() + _dump(v, gap) + gap() for v in value]
        return "[" + (",".join(items) if items else gap()) + "]"
    if isinstance(value, dict):
        items = [
            gap() + json.dumps(k, ensure_ascii=False) + gap() + ":"
            + gap() + _dump(v, gap) + gap()
            for k, v in value.items()
        ]
        return "{" + (",".join(items) if items else gap()) + "}"
    return json.dumps(value, ensure_ascii=False)


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.lists(_JSON_VALUES, max_size=6) | st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=6),
    st.integers(1, 40),
)
def test_every_part_slices_to_its_element_or_member(data, value, window):
    gap = lambda: data.draw(_WS)  # noqa: E731 - one draw per gap
    raw = (gap() + _dump(value, gap) + gap()).encode("utf-8")
    scan = _scan(raw, window)
    assert scan is not None and scan.kind == ("array" if isinstance(value, list) else "object")
    expected = value if isinstance(value, list) else list(value.items())
    assert _parts_as_values(raw, scan) == expected
    # Windowing never changes the carve.
    assert _fields(scan) == _fields(scan_depth1_spans(raw))


# Every window size from one byte up cuts each document at every
# position: the carve must not depend on where the cuts fall.
WINDOW_CUT_DOCS = {
    "element straddling a cut": '[{"k": "%s"}, [1, 2], "tail"]' % ("x" * 40),
    "4-byte character at a cut": '["𝄞𝄞𝄞", {"𝄞": "𝄞"}, "a𝄞"]',
    "number ending at a cut": "[123456, 1e5, -1.25E-3, 0, 7]",
    "element larger than the window": '{"big": %s, "b": 1}' % json.dumps(list(range(60))),
    "whitespace at a cut": '[ 1 ,\n\t2 ,   "three"   ]   ',
}


@pytest.mark.parametrize("doc", WINDOW_CUT_DOCS.values(), ids=WINDOW_CUT_DOCS.keys())
def test_window_cuts_never_change_the_carve(doc):
    data = doc.encode("utf-8")
    reference = scan_depth1_spans(data)
    assert reference is not None
    assert _parts_as_values(data, reference) == (
        json.loads(doc) if doc.lstrip().startswith("[") else list(json.loads(doc).items())
    )
    for window in range(1, len(data) + 2):
        assert _fields(_scan(data, window)) == _fields(reference), window


DECLINED_DOCS = {
    "leading zero": '[1, {"a": [01]}, 2]',
    "leading zero at depth 1": "[1, 01]",
    "NaN": '[1, {"a": NaN}]',
    "trailing comma in an array": '[{"a": 1}, {"a": 2},]',
    "trailing comma in an object": '{"a": 1, "b": 2,}',
    "5,000-digit int": '[1, {"n": %s}]' % ("9" * 5000),
    "trailing garbage": '[{"a": 1}, {"a": 2}] x',
    "unterminated": '[{"a": 1}, {"a": "b',
    "deeper than the decoder recurses": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("doc", DECLINED_DOCS.values(), ids=DECLINED_DOCS.keys())
@pytest.mark.parametrize("window", [3, 16, 1 << 18])
def test_malformed_values_decline(doc, window):
    assert _scan(doc.encode("utf-8"), window) is None


def test_invalid_utf8_declines():
    for window in (2, 5, 1 << 18):
        assert _scan(b'["a", "\xff\xfe", "b"]', window) is None


# ---------------------------------------------------------------------------
# the planner + reassembly (exact tier)
# ---------------------------------------------------------------------------


EXACT_DOCS = [
    '[{"a": 1}, {"a": 2, "b": "x"}, {"a": 3.5}, null, [1, 2], "s"]',
    '{"a": 1, "b": [1, 2, 3], "c": {"d": null}, "e": "f", "g": true}',
    "[[1], [2.5], [3], [], [[4]]]",
    '[{"k": [{"n": 1}]}, {"k": []}]',
    '["é", "日本語", "𝄞", {"ключ": "значение"}]',
    "[0, -1, 2.5, 3e10, 123456789012345678901234567890]",
]


@pytest.mark.parametrize("doc", EXACT_DOCS)
@pytest.mark.parametrize("targets", [2, 3, 5])
def test_exact_tier_reassembles_identically(doc, targets):
    data = doc.encode("utf-8")
    table = InternTable()
    encoder = EventTypeEncoder(table)
    reference = encoder.encode_bytes(data)
    split = plan_subtree_split(data, targets=targets)
    assert split is not None, doc
    chunk_parts = type_subtree_chunks(encoder, data, split.kind, split.chunks)
    assert combine_subtree(table, split, chunk_parts) is reference


def _speculative_type(data, table, encoder, *, targets=3, exact_limit=16):
    """The driver's descend-retry loop, with the exact tier forced off
    so the speculative carver and spine logic run on small docs."""
    skip = 0
    for _ in range(3):
        split = plan_subtree_split(
            data, targets=targets, exact_limit=exact_limit, skip_chunk_levels=skip
        )
        if split is None:
            return None
        try:
            chunk_parts = type_subtree_chunks(
                encoder, data, split.kind, split.chunks, max_depth=512 - split.spine_depth
            )
        except Exception:  # noqa: BLE001 - validation failure → re-plan deeper
            skip = split.spine_depth + 1
            continue
        try:
            heads = [
                type_subtree_chunks(encoder, data, "object", [frame[1]])[0]
                if frame[0] == "recw" and frame[1] is not None
                else None
                for frame in split.frames
            ]
        except Exception:  # noqa: BLE001 - a lying spine frame
            return None
        return combine_subtree(table, split, chunk_parts, heads)
    return None


@pytest.mark.parametrize(
    "doc",
    [
        # Wrapper spines: single-element arrays and last-member objects
        # around one splittable payload.
        '[{"meta": {"v": 1}, "rows": %s}]'
        % json.dumps([{"n": i, "v": i * 0.5} for i in range(200)]),
        json.dumps([[{"n": i} for i in range(150)]]),
        json.dumps({"rows": [{"n": i, "s": "x" * 10} for i in range(150)]}),
    ],
)
def test_deeply_nested_single_subtree_descends_the_spine(doc):
    data = doc.encode("utf-8")
    table = InternTable()
    encoder = EventTypeEncoder(table)
    reference = encoder.encode_bytes(data)
    got = _speculative_type(data, table, encoder)
    # The carver may decline (serial fallback) but must never be wrong.
    if got is not None:
        assert got is reference


def test_planner_declines_unsplittable_ranges():
    assert plan_subtree_split(b"42") is None
    assert plan_subtree_split(b"[]") is None
    assert plan_subtree_split(b"{}") is None
    assert plan_subtree_split(b"[1, 2]", min_bytes=1000) is None
    assert plan_subtree_split(b"not json at all") is None


# ---------------------------------------------------------------------------
# the driver: identity on valid corpora, error parity on malformed ones
# ---------------------------------------------------------------------------


DRIVER_DOCS = [
    json.dumps({"rows": [{"id": i, "tags": ["a", "b"], "w": i * 1.5} for i in range(300)]}),
    json.dumps([{"k": i} if i % 3 else {"k": i, "extra": None} for i in range(250)]),
    json.dumps([[i, i + 1] for i in range(200)]),
    json.dumps(list(range(500))),
    json.dumps({"meta": {"v": 1}, "rows": [{"n": i} for i in range(200)]}),
    json.dumps([{"rows": [{"n": i, "s": "x" * 20} for i in range(150)]}]),
]


@pytest.mark.parametrize("processes", [1, 2])
def test_driver_is_interned_identical_per_document(tmp_path, processes):
    for doc in DRIVER_DOCS:
        run = _subtree_result(tmp_path, [doc], processes)
        table = InternTable()
        assert table.canonical(run.result) is _reference([doc], table)


@pytest.mark.parametrize("processes", [1, 2])
def test_driver_mixes_small_and_huge_lines(tmp_path, processes):
    lines = ['{"small": 1}', "", DRIVER_DOCS[0], "   ", '{"small": 2.5}', DRIVER_DOCS[3]]
    run = _subtree_result(tmp_path, lines, processes)
    table = InternTable()
    assert table.canonical(run.result) is _reference(lines, table)


def test_driver_error_parity_with_serial_fold(tmp_path):
    # Malformed documents must raise exactly what the serial bytes fold
    # raises — same class, message, and position — because the subtree
    # route's authority on any decline IS the serial machine.
    for bad in (
        '[{"a": 1}, {"a": 01}]',  # leading zero deep in a chunk
        '[{"a": 1}, {"a": 2},]',  # trailing comma
        '[{"a": 1}, {"a": 2}] x',  # trailing garbage
        '{"rows": [1, 2, 3}',  # mismatched close
    ):
        path = _corpus_path(tmp_path, [bad])
        serial_exc = None
        try:
            with open_corpus(path) as corpus:
                accumulate_ranges(
                    corpus.buffer(), corpus.spans, table=InternTable()
                ).result()
        except Exception as exc:  # noqa: BLE001 - parity fingerprint
            serial_exc = (type(exc), str(exc))
        assert serial_exc is not None
        with open_corpus(path) as corpus:
            with pytest.raises(serial_exc[0]) as caught:
                infer_subtree_text(corpus, processes=1, min_split_bytes=0)
        assert str(caught.value) == serial_exc[1]


def _declined_array_line() -> str:
    """A 4.4 MiB one-line array of records whose nested arrays of records
    hold nearly all of its bytes: every separator the speculative carver
    snaps to sits inside a nested array, so its chunks fail validation."""
    rows = [{"n": i, "s": "x" * 8, "t": [i, "y"]} for i in range(8000)]
    return json.dumps([{"rows": rows, "id": k} for k in range(12)])


def _observe_decline_route(monkeypatch):
    """Record, per ``_subtree_span_type`` call, whether it carved and the
    widest byte span an ``encode_bytes`` call decoded during it; the
    second list holds the widest decode since the last call began."""
    from repro.inference import distributed

    calls: list = []
    widest: list = [0]
    span_type = distributed._subtree_span_type
    encode_bytes = EventTypeEncoder.encode_bytes

    def observed_span_type(*args, **kwargs):
        widest[0] = 0
        result = span_type(*args, **kwargs)
        calls.append((result is not None, widest[0]))
        return result

    def observed_encode_bytes(self, data, start=0, end=None, **kwargs):
        stop = len(data) if end is None else end
        widest[0] = max(widest[0], stop - start)
        return encode_bytes(self, data, start, end, **kwargs)

    monkeypatch.setattr(distributed, "_subtree_span_type", observed_span_type)
    monkeypatch.setattr(EventTypeEncoder, "encode_bytes", observed_encode_bytes)
    return calls, widest


def test_declined_huge_array_types_through_the_exact_carve(tmp_path, monkeypatch):
    line = _declined_array_line()
    assert len(line) >= 4 << 20
    calls, widest = _observe_decline_route(monkeypatch)
    with open_corpus(_corpus_path(tmp_path, [line])) as corpus:
        run = infer_subtree_text(corpus, processes=1)
    # The speculative carve fails and the exact carve succeeds: it never
    # decodes more than one chunk group (twelve elements, twelve groups),
    # and nothing decodes the whole line afterwards.
    assert [carved for carved, _ in calls] == [False, True]
    assert calls[1][1] < len(line) // 8
    assert widest[0] == calls[1][1]
    table = InternTable()
    assert table.canonical(run.result) is _reference([line], table)


def test_malformed_huge_array_raises_the_serial_error(tmp_path, monkeypatch):
    line = _declined_array_line().replace('"id": 0}', '"id": 01}', 1)
    path = _corpus_path(tmp_path, [line])
    with open_corpus(path) as corpus:
        with pytest.raises(Exception) as serial:
            accumulate_ranges(corpus.buffer(), corpus.spans, table=InternTable())
    calls, _ = _observe_decline_route(monkeypatch)
    with open_corpus(path) as corpus:
        with pytest.raises(serial.type) as caught:
            infer_subtree_text(corpus, processes=1)
    assert [carved for carved, _ in calls] == [False, False]
    assert str(caught.value) == str(serial.value)


def _observe_pool_runs(monkeypatch):
    """Record ``(exact, processes, chunk ranges)`` per pool run."""
    from repro.inference import distributed

    runs: list = []
    run = distributed._WorkerPool.run

    def observed_run(self, tasks, *, exact):
        runs.append((exact, self.processes, sum(len(t.ranges) for t in tasks)))
        return run(self, tasks, exact=exact)

    monkeypatch.setattr(distributed._WorkerPool, "run", observed_run)
    return runs


def test_declined_huge_array_types_its_exact_chunks_on_the_pool(tmp_path, monkeypatch):
    line = _declined_array_line()
    calls, _ = _observe_decline_route(monkeypatch)
    runs = _observe_pool_runs(monkeypatch)
    with open_corpus(_corpus_path(tmp_path, [line])) as corpus:
        run = infer_subtree_text(corpus, processes=2)
    # The speculative chunks fail on the workers; the exact carve's
    # chunks (about 256 KiB each) go to the same two workers, last.
    assert [carved for carved, _ in calls] == [False, True]
    assert len(runs) >= 2
    assert all(not exact and processes == 2 for exact, processes, _ in runs)
    assert runs[-1][2] == 12  # one chunk per element: twelve elements
    assert run.processes == 2
    table = InternTable()
    assert table.canonical(run.result) is _reference([line], table)


def test_malformed_declined_array_raises_the_serial_error_on_the_pool(tmp_path, monkeypatch):
    line = _declined_array_line().replace('"id": 7}', '"id": 7,}', 1)
    path = _corpus_path(tmp_path, [line])
    with open_corpus(path) as corpus:
        with pytest.raises(Exception) as serial:
            accumulate_ranges(corpus.buffer(), corpus.spans, table=InternTable())
    calls, _ = _observe_decline_route(monkeypatch)
    with open_corpus(path) as corpus:
        with pytest.raises(serial.type) as caught:
            infer_subtree_text(corpus, processes=2)
    assert [carved for carved, _ in calls] == [False, False]
    assert str(caught.value) == str(serial.value)


def test_a_failed_exact_chunk_declines_without_a_second_carve(monkeypatch):
    """The exact carve cannot lie, so a chunk that fails on it (one
    element nested past the 512-level limit) declines at once."""
    from repro.inference import distributed
    from repro.parsing import structural

    scans: list = []
    scan = structural.scan_depth1_spans

    def counted(*args, **kwargs):
        scans.append(args[1:3])
        return scan(*args, **kwargs)

    monkeypatch.setattr(structural, "scan_depth1_spans", counted)
    deep = "[" * 600 + "]" * 600
    data = ("[" + ", ".join(['{"a": 1}'] * 50 + [deep] + ['{"a": 2}'] * 50) + "]").encode()
    table = InternTable()
    t = distributed._subtree_span_type(
        data, None, 0, len(data), encoder=EventTypeEncoder(table), table=table,
        pool=None, targets=4, min_bytes=0, exact_limit=len(data),
    )
    assert t is None
    assert scans == [(0, len(data))]


def test_speculative_workers_return_a_marker_not_an_exception(tmp_path):
    """A failed chunk on a speculative route comes back as ``None``, so
    the pool never pickles an exception with a formatted traceback; an
    exact route still raises the first failing range's error."""
    from repro.errors import InferenceError
    from repro.inference.distributed import RangeTask, _try_fold_ranges, _WorkerPool

    path = tmp_path / "chunks.json"
    path.write_bytes(b'{"a": 1}, {"a": 2}{"a": 3}')
    good = RangeTask(str(path), None, ((0, 8),), "chunks", kind="array")
    bad = RangeTask(str(path), None, ((10, 26),), "chunks", kind="array")
    assert _try_fold_ranges(bad) is None
    assert _try_fold_ranges(good) is not None
    with _WorkerPool(2) as pool:
        assert pool.run([good, bad], exact=False) is None
        assert pool.run([good, good], exact=False) is not None
        with pytest.raises(InferenceError):
            pool.run([good, bad], exact=True)


def test_failed_chunk_raises_a_small_error():
    """A worker ships a failed chunk's error home by pickle.  The C
    decoder's error keeps the whole chunk's text (megabytes, on a huge
    document), so a malformed value fails with the small chunk error."""
    import pickle

    from repro.errors import InferenceError

    data = b'{"a": 1 "b": 2}, ' + b"1, " * 20000 + b"2"
    with pytest.raises(InferenceError) as caught:
        type_subtree_chunks(
            EventTypeEncoder(InternTable()), data, "array", [(0, len(data))]
        )
    assert len(pickle.dumps(caught.value)) < 1000


def test_chunk_worker_reads_one_chunk_at_a_time(tmp_path, monkeypatch):
    """A ``chunks`` task reads and types each of its ranges on its own,
    so a worker holds one chunk's bytes, not its whole group's."""
    from repro.inference import distributed
    from repro.inference.distributed import RangeTask, _fold_ranges

    chunks = ['{"a": 1}, {"a": [2, 3]}', '{"b": "x"}', '{"a": null}, {"c": 1.5}, {"a": 4}']
    path = tmp_path / "chunks.json"
    data = ("[" + ", ".join(chunks) + "]").encode()
    path.write_bytes(data)
    ranges, pos = [], 1
    for chunk in chunks:
        ranges.append((pos, pos + len(chunk)))
        pos += len(chunk) + 2
    reads: list = []
    read_range = distributed._read_range

    def spied(path, start, end):
        reads.append(end - start)
        return read_range(path, start, end)

    monkeypatch.setattr(distributed, "_read_range", spied)
    parts, *_ = _fold_ranges(RangeTask(str(path), None, tuple(ranges), "chunks", kind="array"))
    assert max(reads) == max(end - start for start, end in ranges)
    table = InternTable()
    split = plan_subtree_split(data, targets=3)
    assert combine_subtree(table, split, parts) is EventTypeEncoder(table).encode_bytes(data)


# ---------------------------------------------------------------------------
# the probe: a lying cut caught before any worker types its chunk
# ---------------------------------------------------------------------------


def _probe(data, start, end, kind, window):
    with mock.patch.object(structural, "_PROBE_WINDOW", window):
        return structural.probe_chunk(data, start, end, kind)


def _chunk_fails(data, start, end, kind) -> bool:
    try:
        type_subtree_chunks(EventTypeEncoder(InternTable()), data, kind, [(start, end)])
    except Exception:  # noqa: BLE001 - any failure rejects the chunk
        return True
    return False


# Values with nested arrays of records: the cuts a record separator
# search snaps to inside them are the lies the probe must catch.
_NESTED = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=3)
    | st.lists(st.dictionaries(_JSON_TEXT, inner, max_size=3), min_size=1, max_size=3),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    st.lists(_NESTED, min_size=1, max_size=5)
    | st.dictionaries(_JSON_TEXT, _NESTED, min_size=1, max_size=5),
    st.integers(1, 40),
    st.sampled_from(["array", "object"]),
)
def test_the_probe_rejects_only_chunks_the_typing_pass_rejects(data, value, window, kind):
    gap = lambda: data.draw(_WS)  # noqa: E731 - one draw per gap
    raw = _dump(value, gap).encode("utf-8")
    # Chunks start at an item at any depth, half the time one that a
    # full-window probe finds a closer within ``window`` bytes of, and
    # end before a comma or a closer at any depth: the cuts a separator
    # search can make.
    starts = [
        i for i in range(1, len(raw))
        if raw[i] not in b" \t\n\r" and raw[:i].rstrip()[-1:] in (b",", b"[", b"{", b":")
    ]
    near = [
        i for i in starts
        if (_probe(raw, i, len(raw), kind, 1 << 16) or len(raw)) < i + window
    ]
    ends = [i for i in range(1, len(raw)) if raw[i] in b",]}"]
    start = data.draw(st.sampled_from(near) | st.sampled_from(starts) if near else st.sampled_from(starts))
    end = data.draw(st.just(len(raw) - 1) | st.sampled_from([e for e in ends if e >= start]))
    closer = _probe(raw, start, end, kind, window)
    if closer is not None:
        assert start <= closer < end and raw[closer] in b"]}"
        assert _chunk_fails(raw, start, end, kind)
        # A larger window reads the same items to the same closer.
        assert _probe(raw, start, end, kind, 1 << 16) == closer


# Chunks with a value of each delicate kind where windows end: a valid
# chunk, and a lying one whose first closer follows ``before``.  The
# probe may stop short, but never proves a lie that is not, nor finds a
# lie anywhere but at that closer.
PROBE_EDGE_CHUNKS = {
    "exponent": ("array", "1.5e3, 2", "1.5e3", "], [2"),
    "negative zero": ("array", "-0, 1", "[-0, -0.0]", "}, {\"a\": -0"),
    "escaped quote": ("array", '"a\\"]", "b"', '"a\\"", "]"', '], "b"'),
    "4-byte character": ("array", '"𝄞𝄞", "𝄞"', '"𝄞"', '], "𝄞"'),
    "member": ("object", '"k": 1.5e3, "j": -0', '"k": "\\"}"', '}, "j": 1'),
}


@pytest.mark.parametrize(
    "kind, valid, before, after", PROBE_EDGE_CHUNKS.values(), ids=PROBE_EDGE_CHUNKS.keys()
)
def test_the_probe_never_misreads_a_window_edge(kind, valid, before, after):
    closer = len(before.encode("utf-8"))
    for text, expected in ((valid, set()), (before + after, {closer})):
        data = text.encode("utf-8")
        found = {
            _probe(data, 0, len(data), kind, window) for window in range(1, len(data) + 2)
        }
        assert found - {None} == expected
        assert _chunk_fails(data, 0, len(data), kind) is bool(expected)
    # The first window that holds the closer proves the lie.
    assert _probe(data, 0, len(data), kind, closer + 1) == closer


def test_a_probed_cut_resnaps_past_the_closer_that_proved_it():
    data = json.dumps(
        [{"c": [{"x": i} for i in range(12)]}, {"c": []}, {"c": [{"x": 9}, {"x": 9}]}, {"c": []}]
    ).encode()
    close = len(data) - 1
    resume = structural.propose_chunks(data, 0, close, "array", 2)[1][0]
    assert structural.probe_chunk(data, resume, close, "array") is not None
    # One probe proves the cut wrong and leaves no move: no chunks.
    assert structural.propose_chunks(data, 0, close, "array", 2, probes=1) is None
    chunks = structural.propose_chunks(data, 0, close, "array", 2, probes=2)
    ends = {end for _, end in scan_depth1_spans(data).parts}
    assert chunks[0][1] in ends and not _chunk_fails(data, *chunks[1], "array")


@pytest.fixture(scope="module")
def lying_events_array() -> str:
    """A 4.2 MiB GitHub events array whose speculative cut lands in a
    small nested ``commits`` array, well inside the probe's window."""
    from repro.datasets import github_events

    events = github_events(9500, seed=2)
    return json.dumps(events, separators=(",", ":"), ensure_ascii=False)


@pytest.mark.parametrize(
    "wrap",
    ["%s", '{"meta":{"source":"github","v":1},"events":%s}', "[%s]"],
    ids=["array", "spine", "wrapper"],
)
def test_a_proven_lie_is_recut_before_any_worker_runs(tmp_path, monkeypatch, lying_events_array, wrap):
    from repro.inference import distributed

    line = wrap % lying_events_array
    assert len(line) >= 4 << 20
    calls, _ = _observe_decline_route(monkeypatch)
    runs: list = []
    run = distributed._WorkerPool.run

    def observed_run(self, tasks, *, exact):
        runs.append((len(calls), exact, self.processes))
        return run(self, tasks, exact=exact)

    monkeypatch.setattr(distributed._WorkerPool, "run", observed_run)
    with open_corpus(_corpus_path(tmp_path, [line])) as corpus:
        result = infer_subtree_text(corpus, processes=2)
    # The first call declines without a pool run (the probe proved its
    # cuts wrong); the re-cut, the second call, carves in one
    # speculative pool run on two workers.
    assert [carved for carved, _ in calls] == [False, True]
    assert runs == [(1, False, 2)]
    assert result.processes == 2
    table = InternTable()
    assert table.canonical(result.result) is _reference([line], table)


def test_driver_both_equivalences(tmp_path):
    lines = [DRIVER_DOCS[1]]
    for equivalence in (Equivalence.KIND, Equivalence.LABEL):
        run = _subtree_result(tmp_path, lines, 2, equivalence=equivalence)
        table = InternTable()
        encoder = EventTypeEncoder(table)
        accumulator = TypeAccumulator(equivalence, table=table)
        accumulator.add_type(encoder.encode_text(lines[0]))
        assert table.canonical(run.result) is accumulator.result()


def test_driver_empty_corpus_raises(tmp_path):
    from repro.errors import InferenceError

    path = tmp_path / "empty.ndjson"
    path.write_text("\n \n", encoding="utf-8")
    with open_corpus(path) as corpus:
        with pytest.raises(InferenceError):
            infer_subtree_text(corpus, processes=1, min_split_bytes=0)


# ---------------------------------------------------------------------------
# the scheduler's third mode
# ---------------------------------------------------------------------------


class TestSchedulerSubtreeMode:
    def _huge_line(self):
        return json.dumps(
            {"rows": [{"id": i, "name": "x" * 40, "tags": ["a", "b"]} for i in range(60000)]}
        )

    @pytest.fixture(autouse=True)
    def _pinned_calibration(self, monkeypatch):
        # Deterministic cost model: the machine's measured profile must
        # not decide whether this 5 MB corpus clears the 1.15x bar.
        from repro.inference import distributed as dist

        monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0.001")
        monkeypatch.setattr(dist, "_SCAN_BYTES_PER_SECOND", 80e6)
        monkeypatch.setattr(dist, "_SPLIT_BYTES_PER_SECOND", 2e9)

    def test_huge_single_document_plans_subtree(self, tmp_path, monkeypatch):
        from repro.inference import distributed as dist

        monkeypatch.setattr(dist, "auto_jobs", lambda: 4)
        path = _corpus_path(tmp_path, [self._huge_line()])
        with open_corpus(path) as corpus:
            plan = dist.plan_schedule(corpus)
        assert plan.mode == "subtree"
        assert plan.subtree and not plan.parallel
        assert plan.jobs == 4

    def test_adaptive_routes_subtree_plan_identically(self, tmp_path, monkeypatch):
        from repro.inference import distributed as dist

        monkeypatch.setattr(dist, "auto_jobs", lambda: 4)
        line = self._huge_line()
        path = _corpus_path(tmp_path, [line])
        with open_corpus(path) as corpus:
            run = dist.infer_adaptive_text(corpus)
        assert run.plan is not None and run.plan.mode == "subtree"
        table = InternTable()
        assert table.canonical(run.result) is _reference([line], table)

    def test_many_small_lines_still_plan_line_modes(self, tmp_path, monkeypatch):
        from repro.inference import distributed as dist

        monkeypatch.setattr(dist, "auto_jobs", lambda: 4)
        lines = ['{"k": %d}' % i for i in range(200)]
        path = _corpus_path(tmp_path, lines)
        with open_corpus(path) as corpus:
            plan = dist.plan_schedule(corpus)
            # Through the subtree entry itself, at the default threshold:
            # no line splits and no pool starts.
            run = infer_subtree_text(corpus, processes=4)
        assert plan.mode in ("serial", "parallel")
        assert not plan.subtree
        assert run.partitions == 1 and run.processes == 1
        table = InternTable()
        assert table.canonical(run.result) is _reference(lines, table)


# ---------------------------------------------------------------------------
# calibration profiles from earlier versions
# ---------------------------------------------------------------------------


class TestCalibrationConstants:
    def test_profile_with_retired_cache_speedup_key_loads(self, tmp_path, monkeypatch):
        # Profiles saved while the line-shape cache, the pickled-lines
        # transport and the calibrated bytes rates existed carry
        # ``cache_hit_speedup``, ``ship_bytes_per_second`` and the rate
        # keys; they are ignored, not an error.
        from repro.inference import calibration

        profile = tmp_path / "sched.json"
        profile.write_text(
            json.dumps(
                {
                    "worker_startup_seconds": 0.05,
                    "ship_bytes_per_second": 200e6,
                    "source": "measured",
                    "scan_bytes_per_second": 90e6,
                    "split_bytes_per_second": 2e9,
                    "cache_hit_speedup": 4.0,
                    "decompress_bytes_per_second": 250e6,
                    "measured_at": "2026-01-01T00:00:00",
                }
            ),
            encoding="utf-8",
        )
        monkeypatch.setenv("REPRO_SCHED_PROFILE", str(profile))
        assert calibration.load_calibration() == (0.05, "profile")

    def test_profile_back_compat_without_new_keys(self, tmp_path, monkeypatch):
        # A profile written before the subtree mode must still load.
        from repro.inference import calibration

        profile = tmp_path / "sched.json"
        profile.write_text(
            json.dumps(
                {
                    "version": 1,
                    "worker_startup_seconds": 0.05,
                    "ship_bytes_per_second": 200e6,
                }
            ),
            encoding="utf-8",
        )
        monkeypatch.setenv("REPRO_SCHED_PROFILE", str(profile))
        assert calibration.load_calibration() == (0.05, "profile")


# ---------------------------------------------------------------------------
# digit-bearing keys: batch and single-document typing agree
# ---------------------------------------------------------------------------


def test_digit_keys_type_identically_in_batches():
    encoder = EventTypeEncoder(InternTable())
    lines = [b'{"p99": %d, "sha256": "x"}' % i for i in range(50)]
    lines += [b'{"k1": 5}', b'{"k2": 5}', rb'{"a\"9": 1}']
    out = encoder.encode_lines(lines)
    for line, got in zip(lines, out):
        assert got is encoder.encode_text(line.decode()), line
    assert out[-3] is not out[-2]

"""Compression-differential fuzz: compressed fold ≡ plain-file fold.

The chunked decompression reader's contract is *exact equivalence* with
the uncompressed bytes fold: for any corpus bytes — multibyte UTF-8,
blank and whitespace-only lines (including the non-ASCII blanks the
str-parity path decides), CRLF/lone-CR terminators, huge single lines,
malformed JSON — compressed at any member layout and decoded at any
block size, the fold must produce the interned-identical type, the
identical document count, and the identical error (class and message)
the plain-file fold produces on the same decompressed bytes.

Damage is differential too: truncations and bit flips must yield the
same outcome from the serial route and the jobs route (whose speculative
parallel attempt backs off to the very same serial fold on any failure),
and any stream-level failure is a picklable offset-bearing
:class:`~repro.datasets.compressed.CompressedCorpusError`.
"""

from __future__ import annotations

import json
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import iter_ndjson_lines, open_corpus
from repro.datasets.compressed import CompressedCorpusError, compress_member
from repro.errors import ReproError
from repro.inference import (
    accumulate_ranges,
    fold_line_blocks,
    infer_compressed_parallel,
    infer_report_compressed,
)
from repro.types import Equivalence
from repro.types.intern import global_table

from tests.strategies import json_values

# Line payloads: serialized JSON (multibyte-heavy), whitespace-only
# lines (ASCII and the non-ASCII blanks str.isspace accepts), and the
# occasional malformed tail.
_json_lines = json_values(max_leaves=8).map(
    lambda v: json.dumps(v, ensure_ascii=False)
)
_blank_lines = st.sampled_from(["", " ", "\t \t", " ", "   "])
_broken_lines = st.sampled_from(['{"unclosed": [1, 2', "nope", '{"a": 01}'])
_huge_lines = st.integers(min_value=1_000, max_value=8_000).map(
    lambda n: '{"blob": "' + "é" * n + '"}'
)
_lines = st.lists(
    st.one_of(
        _json_lines,
        _json_lines,
        _json_lines,
        _blank_lines,
        _huge_lines,
    ),
    min_size=0,
    max_size=20,
)
_terminators = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def corpora(draw, allow_broken: bool = False):
    """Raw corpus bytes with mixed terminators, maybe unterminated."""
    lines = draw(_lines)
    if allow_broken and lines and draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        lines[index] = draw(_broken_lines)
    parts = []
    for line in lines:
        parts.append(line)
        parts.append(draw(_terminators))
    if parts and draw(st.booleans()):
        parts.pop()  # no trailing terminator
    return "".join(parts).encode("utf-8")


@st.composite
def member_layouts(draw):
    """Cut points splitting raw bytes into gzip members (mid-line cuts
    and empty members included)."""
    return draw(
        st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=5)
    )


def _write_layout(path, raw: bytes, cuts) -> None:
    bounds = sorted({min(cut, len(raw)) for cut in cuts})
    payloads, last = [], 0
    for bound in bounds:
        payloads.append(raw[last:bound])
        last = bound
    payloads.append(raw[last:])
    with open(path, "wb") as handle:
        for payload in payloads:
            handle.write(compress_member(payload))


def _outcome(fn):
    """(error fingerprint | canonical type, document count)."""
    table = global_table()
    try:
        accumulator = fn()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    except UnicodeDecodeError as exc:
        return ("unicode", exc.reason, exc.start)
    return (
        "ok",
        table.canonical(accumulator.result()),
        accumulator.document_count,
    )


@given(
    raw=corpora(allow_broken=True),
    cuts=member_layouts(),
    block=st.integers(min_value=16, max_value=4096),
)
@settings(max_examples=120, deadline=None)
def test_compressed_fold_differential(tmp_path_factory, raw, cuts, block):
    tmp = tmp_path_factory.mktemp("fuzz")
    plain = tmp / "corpus.ndjson"
    plain.write_bytes(raw)
    packed = tmp / "corpus.ndjson.gz"
    _write_layout(packed, raw, cuts)

    def plain_fold():
        with open_corpus(plain) as corpus:
            return accumulate_ranges(corpus.buffer(), corpus.spans)

    expected = _outcome(plain_fold)
    actual = _outcome(lambda: fold_line_blocks(packed, block_bytes=block))
    assert actual == expected
    if expected[0] == "ok":
        assert actual[1] is expected[1]  # interned identity, not equality


@given(raw=corpora(), cuts=member_layouts())
@settings(max_examples=60, deadline=None)
def test_compressed_lines_match_plain_lines(tmp_path_factory, raw, cuts):
    tmp = tmp_path_factory.mktemp("fuzz")
    plain = tmp / "corpus.ndjson"
    plain.write_bytes(raw)
    packed = tmp / "corpus.ndjson.gz"
    _write_layout(packed, raw, cuts)
    with open_corpus(plain) as corpus:
        assert list(iter_ndjson_lines(packed)) == list(corpus)


@given(raw=corpora(), cuts=member_layouts())
@settings(max_examples=60, deadline=None)
def test_parallel_route_matches_serial(tmp_path_factory, raw, cuts):
    tmp = tmp_path_factory.mktemp("fuzz")
    packed = tmp / "corpus.ndjson.gz"
    _write_layout(packed, raw, cuts)
    serial = _outcome(lambda: fold_line_blocks(packed))
    run = infer_compressed_parallel(packed, Equivalence.KIND, processes=2)
    if run is not None:
        assert serial[0] == "ok"
        table = global_table()
        assert table.canonical(run.result) is serial[1]
        assert run.document_count == serial[2]


def _report_outcome(fn):
    try:
        report = fn()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    except UnicodeDecodeError as exc:
        return ("unicode", exc.reason, exc.start, exc.end)
    table = global_table()
    return ("ok", table.canonical(report.inferred), report.document_count)


@given(
    raw=corpora(),
    cuts=member_layouts(),
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=1 << 16)),
        st.tuples(
            st.just("bitflip"),
            st.integers(min_value=0, max_value=1 << 16),
            st.integers(min_value=0, max_value=7),
        ),
    ),
)
@example(
    # Truncated to a valid two-member gzip whose last line ends
    # mid-character: both routes raise the same UnicodeDecodeError.
    raw=b'{"blob": "' + b"\xc3\xa9" * 1100 + b'"}\n',
    cuts=[13, 19],
    damage=("truncate", 58),
)
@settings(max_examples=80, deadline=None)
def test_damaged_streams_same_outcome_serial_and_parallel(
    tmp_path_factory, raw, cuts, damage
):
    tmp = tmp_path_factory.mktemp("fuzz")
    packed = tmp / "corpus.ndjson.gz"
    _write_layout(packed, raw, cuts)
    data = bytearray(packed.read_bytes())
    if damage[0] == "truncate":
        data = data[: damage[1] % (len(data) + 1)]
    else:
        data[damage[1] % len(data)] ^= 1 << damage[2]
    packed.write_bytes(bytes(data))

    serial = _report_outcome(
        lambda: infer_report_compressed(packed, jobs=1, format="gzip")
    )
    routed = _report_outcome(
        lambda: infer_report_compressed(packed, jobs=2, format="gzip")
    )
    # The jobs route's speculative parallel attempt must either succeed
    # identically or fall back to the serial fold's exact outcome.
    assert routed == serial
    if serial[0] == "ok":
        assert routed[1] is serial[1]

    # Stream-level failures stay picklable with their offsets intact.
    try:
        fold_line_blocks(packed, format="gzip")
    except CompressedCorpusError as exc:
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert clone.offset == exc.offset
        assert str(clone) == str(exc)
    except (ReproError, UnicodeDecodeError):
        pass

"""Fuzz differential for byte inputs and batched lines.

The contract of :meth:`EventTypeEncoder.encode_bytes` and
:meth:`EventTypeEncoder.encode_lines`, checked against independent
oracles:

- on any byte string ``b``, ``encode_bytes(b)`` behaves exactly like
  the DOM parser on the decoded text — the canonical node
  ``table.intern(type_of(parse(text)))`` on valid input, the parser's
  error (class, message, character offset) on malformed JSON, and
  ``bytes.decode``'s ``UnicodeDecodeError`` (object, positions, reason)
  on undecodable bytes;
- ``counted_type_of_bytes(b)`` likewise: a counted type equal to
  ``counted_type_of(parse(text))``, or the same parser or decode error;
- ``encode_lines`` (the batched line feed) and ``accumulate_ranges``
  (the bytes fold) agree with the per-line str feed on every line of
  every batch, including across batches sharing one encoder.

Hypothesis drives serialized values, raw text, and raw *bytes* (mostly
malformed UTF-8); the parametrized cases pin the named edge shapes —
non-ASCII keys and values, multibyte sequences truncated mid-string,
``\\uXXXX`` escapes and lone surrogates, overlong/surrogate/out-of-range
UTF-8, and near-identical shapes (digit keys, leading zeros, spaced
keys, control bytes).
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.engine import accumulate_lines, accumulate_ranges
from repro.jsonvalue.lexer import JsonLexError
from repro.jsonvalue.parser import JsonParseError, parse
from repro.jsonvalue.serializer import dumps
from repro.types import type_of
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable, global_table

from tests.strategies import json_values


def _failure(fn):
    """Error fingerprint, or None on success."""
    try:
        fn()
    except JsonLexError as exc:
        return ("lex", str(exc), exc.offset)
    except JsonParseError as exc:
        return ("parse", str(exc), exc.token.offset)
    except UnicodeDecodeError as exc:
        return ("unicode", exc.reason, exc.start, exc.end, bytes(exc.object))
    return None


def _differential(raw: bytes, encoder=None):
    """encode_bytes(raw) must match the parser oracle in outcome: the
    decode's error, the parser's error, or the interned DOM type."""
    enc = encoder if encoder is not None else EventTypeEncoder(InternTable())

    def oracle():
        return enc.table.intern(type_of(parse(raw.decode("utf-8"))))

    reference = _failure(oracle)
    observed = _failure(lambda: enc.encode_bytes(raw))
    assert observed == reference, (raw, observed, reference)
    if reference is None:
        assert enc.encode_bytes(raw) is oracle()


@given(json_values(max_leaves=30))
@settings(max_examples=150, deadline=None)
def test_bytes_type_is_interned_str_type(value):
    _differential(dumps(value).encode("utf-8"))


@given(st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_arbitrary_text_as_bytes_differential(text):
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:  # lone surrogates are not encodable
        return
    _differential(raw)


@given(st.binary(max_size=40))
@settings(max_examples=250, deadline=None)
def test_arbitrary_bytes_differential(raw):
    """Raw bytes — mostly malformed UTF-8: identical UnicodeDecodeError
    (or identical parse outcome when the bytes happen to decode)."""
    _differential(raw)


@given(st.binary(max_size=30))
@settings(max_examples=150, deadline=None)
def test_bytes_inside_json_context_differential(raw):
    """Arbitrary bytes embedded where a value is expected."""
    _differential(b'{"k": ' + raw + b"}")
    _differential(b"[1, " + raw + b"]")


_EDGE_TEXTS = [
    # non-ASCII keys and values (2-, 3- and 4-byte sequences)
    '{"é": 1, "日本語": "ü", "k": "𝄞"}',
    '{"キー": {"ключ": [null, "значение"]}}',
    '"żółć"',
    '["α", "β", "γ", "αβγ"]',
    # escapes: named, \uXXXX, surrogate pairs, lone surrogates
    '{"\\u006b\\u0065\\u0079": "\\ud834\\udd1e"}',
    '"\\ud800"',
    '{"a\\"b": 1, "c\\\\d": [true, "\\t\\n"]}',
    '{"\\u0041": 1, "A": 2}',
    # strings whose contents look structural
    '{"a": "}", "b": "{\\"x\\": 1}", "c": ":"}',
    '{"a": ":", "b": ","}',
    '["1,2", "3", {"k4": "5:6"}]',
    # skeleton near-collisions: digit keys, leading zeros, spaced keys
    '{"k1": 1}',
    '{"k2": 1}',
    '{"a" : 5}',
    '{"a": -0}',
    '{"p99": 1.5, "sha256": "x"}',
    # numbers across kinds and spellings
    '{"a": 1, "b": 1.5, "c": 1e5, "d": 1E-5, "e": -0.0, "f": 12345678901234567890}',
    # whitespace / blank shapes
    ' \t {"a":\t1} ',
    "[]",
    "{}",
]

_EDGE_BYTES = [
    # malformed UTF-8: truncation, bare continuation, overlong, CESU
    # surrogates, out-of-range, and a split multibyte char mid-string
    b'{"a": "\xff"}',
    b'"\xc3"',
    b'{"\xed\xa0\x80": 1}',
    b'"ab\xc0\xafcd"',
    b'[1, "\xf5"]',
    b'{"k\xff": 1}',
    b'{"a": "\xe6\x97"}',
    b'{"\xc3": 1}',
    b'"\xf0\x9d\x84"',
    b"\x80",
    # control bytes raw in the stream (skeleton marker domain)
    b'{"a\x03b": 1}',
    b'{"a": "x"}\x04',
    b"\x01",
    # leading zeros and spaced keys as raw bytes
    b'{"a": 01}',
    b'{"a": 00.5}',
    b'{"a"  : 1}',
]


@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_edge_texts_bytes_vs_str(text):
    _differential(text.encode("utf-8"))


@pytest.mark.parametrize("raw", _EDGE_BYTES)
def test_edge_bytes_vs_str(raw):
    _differential(raw)


def test_edge_cases_share_one_encoder_and_its_caches():
    """All edge shapes through a single encoder: the shape caches must
    never leak a wrong answer across documents."""
    enc = EventTypeEncoder(InternTable())
    for text in _EDGE_TEXTS:
        _differential(text.encode("utf-8"), enc)
    for raw in _EDGE_BYTES:
        _differential(raw, enc)
    # and again, with everything warm
    for text in _EDGE_TEXTS:
        _differential(text.encode("utf-8"), enc)


# ---------------------------------------------------------------------------
# the counting bytes entry (counted_type_of_bytes)
# ---------------------------------------------------------------------------


def _counted_differential(raw: bytes):
    """counted_type_of_bytes(raw) must match the parser oracle in
    outcome: the decode's error, the parser's error, or a counted type
    structurally equal to ``counted_type_of`` of the parsed document."""
    from repro.inference.counting import counted_type_of, counted_type_of_bytes
    from repro.types import Equivalence

    for equivalence in (Equivalence.KIND, Equivalence.LABEL):

        def oracle():
            return counted_type_of(parse(raw.decode("utf-8")), equivalence)

        reference = _failure(oracle)
        observed = _failure(lambda: counted_type_of_bytes(raw, equivalence=equivalence))
        assert observed == reference, (raw, observed, reference)
        if reference is None:
            assert counted_type_of_bytes(raw, equivalence=equivalence) == oracle()


@given(json_values(max_leaves=25))
@settings(max_examples=100, deadline=None)
def test_counted_bytes_matches_counted_dom(value):
    _counted_differential(dumps(value).encode("utf-8"))


@given(st.binary(max_size=40))
@settings(max_examples=150, deadline=None)
def test_counted_bytes_arbitrary_bytes_differential(raw):
    _counted_differential(raw)


@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_counted_bytes_edge_texts(text):
    _counted_differential(text.encode("utf-8"))


@pytest.mark.parametrize("raw", _EDGE_BYTES)
def test_counted_bytes_edge_bytes(raw):
    _counted_differential(raw)


def test_counted_bytes_range_offsets_and_depth():
    from repro.inference.counting import counted_type_of, counted_type_of_bytes
    from repro.jsonvalue.parser import ParseOptions

    buf = b'xxx{"a": [1, 2.5, "s"]}yyy'
    assert counted_type_of_bytes(buf, 3, len(buf) - 3) == counted_type_of(
        parse('{"a": [1, 2.5, "s"]}')
    )
    deep = b"[" * 8 + b"1" + b"]" * 8
    assert counted_type_of_bytes(deep, max_depth=8) == counted_type_of(
        parse(deep.decode(), ParseOptions(max_depth=8))
    )
    expected = _failure(lambda: parse(deep.decode(), ParseOptions(max_depth=7)))
    assert expected is not None
    assert _failure(lambda: counted_type_of_bytes(deep, max_depth=7)) == expected


# ---------------------------------------------------------------------------
# the batched line feed (encode_lines / accumulate_ranges)
# ---------------------------------------------------------------------------


def _line_spans(blob: bytes):
    from repro.datasets.ndjson import index_lines

    return index_lines(blob)


def _fold_failure(fn):
    try:
        return ("ok", fn().result())
    except JsonLexError as exc:
        return ("lex", str(exc), exc.offset)
    except JsonParseError as exc:
        return ("parse", str(exc), exc.token.offset)
    except UnicodeDecodeError as exc:
        return ("unicode", exc.reason, exc.start, exc.end)


@given(
    st.lists(
        st.one_of(
            json_values(max_leaves=10).map(dumps),
            st.text(
                alphabet='abk12"\\{}[]:,.-0 \t é', max_size=24
            ),
        ),
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_ranges_fold_matches_lines_fold(lines):
    """accumulate_ranges over the encoded corpus ≡ accumulate_lines over
    the decoded lines — same canonical node or same first error."""
    blob = "\n".join(lines).encode("utf-8")
    spans = _line_spans(blob)
    # Every line but a final empty one, which a terminator cannot show.
    expected = lines[:-1] if lines[-1:] == [""] else lines
    assert [blob[s:e].decode("utf-8") for s, e in spans] == expected

    bytes_out = _fold_failure(
        lambda: accumulate_ranges(blob, spans, table=InternTable())
    )
    str_out = _fold_failure(lambda: accumulate_lines(lines, table=InternTable()))
    if bytes_out[0] == "ok" and str_out[0] == "ok":
        table = global_table()
        assert table.canonical(bytes_out[1]) is table.canonical(str_out[1])
    else:
        assert bytes_out == str_out


@given(
    st.lists(
        st.lists(json_values(max_leaves=8).map(dumps), min_size=1, max_size=6),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_encode_lines_is_sound_across_batches(batches):
    """One encoder, many batches: every batched answer is the canonical
    node of its exact line."""
    enc = EventTypeEncoder(InternTable())
    for batch in batches:
        raw = [line.encode("utf-8") for line in batch]
        out = enc.encode_lines(raw)
        for line, got in zip(batch, out):
            assert got is enc.encode_text(line), line


def test_non_ascii_corpus_fold_is_identical():
    """The acceptance corpus: non-ASCII keys and values, multibyte at
    fused-pattern boundaries, repeated and novel shapes."""
    lines = [
        '{"имя": "Алёна", "возраст": 33, "языки": ["ru", "de"]}',
        '{"имя": "Борис", "возраст": 41, "языки": []}',
        '{"имя": "Вера", "возраст": 28.5, "языки": ["fr"]}',
        '{"名前": "花子", "都市": {"名": "東京", "区": "渋谷"}}',
        '{"имя": "Глеб", "возраст": 19, "языки": ["en", "ja", "ru"]}',
        '{"emoji": "🦊🦊🦊", "mixed": "a𝄞b", "n": 1}',
    ] * 40
    blob = "\n".join(lines).encode("utf-8")
    spans = _line_spans(blob)
    bytes_acc = accumulate_ranges(blob, spans, table=InternTable())
    str_acc = accumulate_lines(lines, table=InternTable())
    table = global_table()
    assert table.canonical(bytes_acc.result()) is table.canonical(str_acc.result())
    assert bytes_acc.document_count == str_acc.document_count == len(lines)


def test_blank_and_unicode_whitespace_lines_skip_identically():
    lines = ["", "   ", "\t", " ", "   ", '{"a": 1}', "", "  "]
    blob = "\n".join(lines).encode("utf-8")
    bytes_acc = accumulate_ranges(blob, _line_spans(blob), table=InternTable())
    str_acc = accumulate_lines(lines, table=InternTable())
    assert bytes_acc.document_count == str_acc.document_count == 1
    table = global_table()
    assert table.canonical(bytes_acc.result()) is table.canonical(str_acc.result())


def test_malformed_utf8_line_raises_after_earlier_lines():
    """A malformed-UTF-8 pseudo-blank line must not preempt an earlier
    malformed document's error (serial ordering parity)."""
    blob = b'{"a": 1}\n{"broken\n\xa0\xa0'
    spans = _line_spans(blob)
    bytes_out = _fold_failure(
        lambda: accumulate_ranges(blob, spans, table=InternTable())
    )
    str_out = _fold_failure(
        lambda: accumulate_lines(
            ['{"a": 1}', '{"broken', "\xa0\xa0"], table=InternTable()
        )
    )
    assert bytes_out == str_out
    assert bytes_out[0] == "lex"  # the *earlier* line's error wins


def test_add_bytes_matches_add_text():
    from repro.inference.engine import TypeAccumulator

    table = InternTable()
    via_bytes = TypeAccumulator(table=table)
    via_text = TypeAccumulator(table=table)
    lines = ['{"a": 1}', '{"a": 2.5, "b": "x"}', "[1, null]"]
    for line in lines:
        via_bytes.add_bytes(line.encode("utf-8"))
        via_text.add_text(line)
    assert via_bytes.result() is via_text.result()
    assert via_bytes.document_count == len(lines)


def test_line_cache_rebinds_on_table_epoch():
    """A table clear must not leak stale canonical nodes out of the
    encoder's shape caches."""
    table = InternTable()
    enc = EventTypeEncoder(table)
    first = enc.encode_lines([b'{"a": 1}'])[0]
    table.clear()
    second = enc.encode_lines([b'{"a": 1}'])[0]
    assert second is table.intern(second)
    assert second is not first


def test_non_default_max_depth_bypasses_line_cache():
    enc = EventTypeEncoder(InternTable())
    deep = b"[" * 5 + b"1" + b"]" * 5
    assert enc.encode_lines([deep])[0] is enc.encode_bytes(deep)
    with pytest.raises(JsonParseError):
        enc.encode_lines([deep], max_depth=3)


class TestReviewRegressions:
    """Pins for review findings on the batched and bytes feeds."""

    def test_collapse_respects_element_boundaries(self):
        """Int/float-mixed and pure-float arrays keep distinct types
        when batched (`0,0` against `0,0.0` and `0.0,0`)."""
        import itertools

        enc = EventTypeEncoder(InternTable())
        scalars = ["1", "2.5", "3e5", '"s"', "true", "null"]
        cases = [
            "[" + ",".join(combo) + "]"
            for n in (1, 2, 3)
            for combo in itertools.product(scalars, repeat=n)
        ] + [
            '{"a":[1,2],"b":[3.5,4.5],"c":[1,2.5]}',
            "[[1,2],[1,2]]",
            '[{"a":1},{"a":2}]',
            '[{"a":1},{"a":2.5}]',
        ]
        # one shared encoder: every probe runs against a warm cache
        for line in cases:
            assert enc.encode_lines([line.encode()])[0] is enc.encode_text(
                line
            ), line

    def test_forged_markers_cannot_hit_a_cached_entry(self):
        """Control bytes and leading zeros raise in a batch, after
        clean lines of the same shape were typed."""
        enc = EventTypeEncoder(InternTable())
        enc.encode_lines([b'{"a":"x"}'])  # seed the cache
        forged = b'{"a\x04\x03}'
        with pytest.raises(JsonLexError):
            enc.encode_lines([forged])
        # digit-key and leading-zero forgeries must miss the cache too
        enc.encode_lines([b'{"k1": 5}'])
        assert enc.encode_lines([b'{"k2": 5}'])[0] is enc.encode_text('{"k2": 5}')
        enc.encode_lines([b'{"n": 12}'])
        with pytest.raises(JsonLexError):
            enc.encode_lines([b'{"n": 01}'])

    def test_formfeed_blank_lines_skip_like_the_str_feed(self):
        for blank in ("\x0c", "\x0b", "\x1c", "\x1f", "\x0c \t"):
            lines = ['{"a": 1}', blank, '{"b": 2}']
            blob = "\n".join(lines).encode("utf-8")
            bytes_acc = accumulate_ranges(blob, _line_spans(blob), table=InternTable())
            str_acc = accumulate_lines(lines, table=InternTable())
            assert bytes_acc.document_count == str_acc.document_count == 2
            table = global_table()
            assert table.canonical(bytes_acc.result()) is table.canonical(
                str_acc.result()
            )

    def test_plan_sampling_skips_blank_corpus_lines(self, tmp_path, monkeypatch):
        from repro.datasets import open_corpus
        from repro.inference import distributed as distributed_module
        from repro.inference.distributed import plan_schedule

        monkeypatch.setattr(distributed_module, "auto_jobs", lambda: 4)
        path = tmp_path / "blanky.ndjson"
        path.write_text('   \n{"a": 1}\n\x0c\n{"b": 2}\n', encoding="utf-8")
        with open_corpus(path) as corpus:
            plan = plan_schedule(corpus, jobs=2)
        assert plan.documents == 4  # planning succeeded, no raise

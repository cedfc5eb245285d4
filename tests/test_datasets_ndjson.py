"""Tests for the line-oriented NDJSON loaders (`repro.datasets.ndjson`)."""

from __future__ import annotations

import io

import pytest

from repro.datasets import (
    github_events,
    iter_ndjson_lines,
    ndjson_lines,
    nyt_articles,
    open_corpus,
    read_ndjson_lines,
    stream_documents,
    stream_types,
    tweets,
    write_ndjson,
)
from repro.inference import accumulate_types, infer_type
from repro.types.intern import global_table


def test_write_then_read_round_trips(tmp_path):
    for make in (tweets, github_events, nyt_articles):
        docs = make(40, seed=21)
        path = tmp_path / f"{make.__name__}.ndjson"
        assert write_ndjson(path, docs) == len(docs)
        assert read_ndjson_lines(path) == ndjson_lines(docs)
        assert list(stream_documents(path)) == docs
        # The mmap corpus decodes the same lines the block reader yields.
        with open_corpus(path) as corpus:
            assert list(corpus) == read_ndjson_lines(path)


def test_iter_lines_accepts_handles_and_iterables(tmp_path):
    docs = github_events(10, seed=2)
    path = tmp_path / "docs.ndjson"
    write_ndjson(path, docs)
    from_path = list(iter_ndjson_lines(path))
    with open(path, "r", encoding="utf-8") as handle:
        from_handle = list(iter_ndjson_lines(handle))
    from_iterable = list(iter_ndjson_lines(io.StringIO("\n".join(from_path))))
    assert from_path == from_handle == from_iterable == ndjson_lines(docs)


def test_stream_types_matches_the_batch_path(tmp_path):
    docs = tweets(60, seed=22)
    path = tmp_path / "docs.ndjson"
    write_ndjson(path, docs)
    streamed = accumulate_types(stream_types(path)).result()
    assert global_table().canonical(streamed) is global_table().canonical(
        infer_type(docs)
    )


def test_stream_types_skips_blank_lines():
    lines = ['{"a": 1}', "", "  \t", '{"a": 2}']
    assert len(list(stream_types(lines))) == 2


# ---------------------------------------------------------------------------
# the mmap-backed corpus
# ---------------------------------------------------------------------------


class TestMmapCorpus:
    # Every newline convention Python's text mode understands:
    # LF, CRLF, lone CR (universal newlines), blank lines, a missing
    # trailing terminator, and the empty file.
    CONTENTS = {
        "empty-file": "",
        "blank-line-only": "\n",
        "no-trailing-newline": '{"a": 1}',
        "trailing-newline": '{"a": 1}\n',
        "crlf": '{"a": 1}\r\n{"b": 2}\r\n',
        "lone-cr": '{"a": 1}\r{"b": 2}',
        "mixed-breaks": '{"a": 1}\r\r\n{"b": 2}\n',
        "blank-lines": '{"a": 1}\n\n  \t\n{"b": 2}\n\n',
    }

    @pytest.mark.parametrize("name", sorted(CONTENTS))
    def test_index_matches_iter_ndjson_lines(self, tmp_path, name):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(self.CONTENTS[name].encode("utf-8"))
        expected = list(iter_ndjson_lines(path))
        with open_corpus(path) as corpus:
            assert len(corpus) == len(expected)
            assert list(corpus) == expected
            assert [corpus[i] for i in range(len(corpus))] == expected
            assert corpus[0:len(corpus)] == expected

    @pytest.mark.parametrize("read_bytes", [1, 2, 5, 64 << 10])
    @pytest.mark.parametrize("name", sorted(CONTENTS))
    def test_block_reads_match_text_mode_lines(
        self, tmp_path, monkeypatch, name, read_bytes
    ):
        """Whatever the read size — a ``\\r\\n`` split across two reads
        included — the block reader yields the lines Python's
        universal-newline text mode would."""
        from repro.datasets import compressed

        raw = self.CONTENTS[name].encode("utf-8")
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(raw)
        text_mode = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=None)
        monkeypatch.setattr(compressed, "READ_BYTES", read_bytes)
        assert list(iter_ndjson_lines(path)) == [
            line.rstrip("\r\n") for line in text_mode
        ]

    def test_byte_ranges_round_trip_through_the_index(self, tmp_path):
        from repro.datasets.ndjson import index_lines

        path = tmp_path / "corpus.ndjson"
        path.write_bytes(b'{"a": 1}\r\n\r\nx\r{"b": 2}\n{"c": 3}')
        with open_corpus(path) as corpus:
            lines = list(corpus)
            data = bytes(corpus.buffer())
            for start in range(len(corpus)):
                for stop in range(start + 1, len(corpus) + 1):
                    byte_start, byte_end = corpus.byte_range(start, stop)
                    chunk = data[byte_start:byte_end]
                    expected = lines[start:stop]
                    if expected[-1] == "":
                        # The range ends with the terminator before an
                        # empty last line: no phantom line is indexed.
                        expected.pop()
                    assert [
                        chunk[s:e].decode("utf-8") for s, e in index_lines(chunk)
                    ] == expected

    def test_byte_range_bounds_are_checked(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        path.write_text('{"a": 1}\n')
        with open_corpus(path) as corpus:
            with pytest.raises(IndexError):
                corpus.byte_range(0, 2)
            with pytest.raises(IndexError):
                corpus.byte_range(1, 1)

    def test_corpus_feeds_the_inference_paths(self, tmp_path):
        docs = tweets(50, seed=23)
        path = tmp_path / "docs.ndjson"
        write_ndjson(path, docs)
        reference = global_table().canonical(infer_type(docs))
        with open_corpus(path) as corpus:
            streamed = accumulate_types(stream_types(corpus)).result()
            assert global_table().canonical(streamed) is reference

    def test_unicode_lines_decode_exactly(self, tmp_path):
        lines = ['{"k": "héllo   wörld"}', '{"k": "\U0001f600"}']
        path = tmp_path / "unicode.ndjson"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        with open_corpus(path) as corpus:
            assert list(corpus) == lines
            assert list(corpus) == list(iter_ndjson_lines(path))

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        path.write_text('{"a": 1}\n')
        corpus = open_corpus(path)
        assert corpus.size_bytes == len('{"a": 1}\n')
        corpus.close()
        corpus.close()


class TestMmapCorpusSequenceSemantics:
    """Regression pins for ``MmapCorpus.__getitem__``: Sequence semantics
    exactly, caching nothing."""

    LINES = ["a", "bb", "", "ccc", "  "]

    @pytest.fixture()
    def corpus(self, tmp_path):
        path = tmp_path / "seq.ndjson"
        path.write_text("\n".join(self.LINES) + "\n", encoding="utf-8")
        with open_corpus(path) as corpus:
            yield corpus

    def test_negative_indices(self, corpus):
        for i in range(-len(self.LINES), len(self.LINES)):
            assert corpus[i] == self.LINES[i]

    def test_out_of_range_raises_index_error(self, corpus):
        with pytest.raises(IndexError):
            corpus[len(self.LINES)]
        with pytest.raises(IndexError):
            corpus[-len(self.LINES) - 1]

    def test_slices_match_list_semantics(self, corpus):
        cases = [
            slice(None), slice(1, 3), slice(-2, None), slice(None, None, 2),
            slice(None, None, -1), slice(3, 1, -1), slice(10, 20), slice(0, 0),
        ]
        for s in cases:
            assert corpus[s] == self.LINES[s], s

    def test_index_like_objects_and_type_errors(self, corpus):
        class IndexLike:
            def __index__(self):
                return 1

        assert corpus[IndexLike()] == self.LINES[1]
        with pytest.raises(TypeError):
            corpus[1.5]
        with pytest.raises(TypeError):
            corpus["0"]

    def test_sequence_mixins(self, corpus):
        assert "bb" in corpus and "zz" not in corpus
        assert corpus.index("ccc") == 3
        assert corpus.count("") == 1
        assert list(reversed(corpus)) == list(reversed(self.LINES))

    def test_getitem_caches_nothing(self, corpus):
        first = corpus[1]
        second = corpus[1]
        assert first == second == "bb"
        assert first is not second  # decoded fresh from the map each time

    def test_closed_corpus_raises_value_error(self, tmp_path):
        path = tmp_path / "closed.ndjson"
        path.write_text('{"a": 1}\n{"b": 2}\n', encoding="utf-8")
        corpus = open_corpus(path)
        corpus.close()
        with pytest.raises(ValueError):
            corpus[0]
        with pytest.raises(ValueError):
            corpus[0:2]
        with pytest.raises(ValueError):
            list(corpus)


def test_index_lines_follows_the_line_grammar():
    from repro.datasets.ndjson import index_lines

    raw = b'{"a": 1}\r\n{"b": 2}\r{"c": 3}\n\n{"d": 4}'
    assert [raw[s:e] for s, e in index_lines(raw)] == [
        b'{"a": 1}', b'{"b": 2}', b'{"c": 3}', b"", b'{"d": 4}'
    ]
    # LF-only buffers take the find loop, the rest the regex: one grammar.
    assert index_lines(b"aa\nbb\ncc") == [(0, 2), (3, 5), (6, 8)]
    assert index_lines(b"aa\rbb\r\ncc\n") == [(0, 2), (3, 5), (7, 9)]
    assert index_lines(b"") == []
    assert index_lines(b"\n") == [(0, 0)]


class TestReadLineSpans:
    """Sources that cannot be mapped are read once into bytes plus line
    spans: special files with the mmap corpus's line index, line
    iterables one document per item."""

    RAW = b'{"a": 1}\r\n\n{"b": 2}\r{"c": 3}\n{"d": 4}'

    def test_fifo_indexes_like_the_mapped_file(self, tmp_path):
        import os
        import threading

        from repro.datasets.ndjson import read_line_spans

        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        plain = tmp_path / "plain.ndjson"
        plain.write_bytes(self.RAW)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(self.RAW,), daemon=True
        )
        writer.start()
        try:
            data, spans = read_line_spans(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        with open_corpus(plain) as corpus:
            assert data == bytes(corpus.buffer())
            assert spans == corpus.spans

    def test_line_iterable_keeps_one_document_per_item(self):
        from repro.datasets.ndjson import read_line_spans

        data, spans = read_line_spans(['{"a":\n1}\n', "", '{"b":"\u00e9"}\r\n'])
        assert [data[s:e] for s, e in spans] == [
            b'{"a":\n1}', b"", '{"b":"\u00e9"}'.encode("utf-8")
        ]


class TestOpenCorpusCompressed:
    """A compressed corpus is streamed, never mapped: its lines, read
    through `iter_ndjson_lines` or carved from `iter_line_blocks`, are
    the mapped plain file's line index (empty regular files and
    compressed files with no trailing newline included), and
    `open_corpus` refuses it."""

    @staticmethod
    def _block_lines(path, **options):
        from repro.datasets.compressed import iter_block_line_spans, iter_line_blocks

        return [
            block[start:end].decode("utf-8")
            for block in iter_line_blocks(path, **options)
            for start, end in iter_block_line_spans(block)
        ]

    @pytest.mark.parametrize("name", sorted(TestMmapCorpus.CONTENTS))
    def test_gzip_corpus_matches_plain_line_index(self, tmp_path, name):
        import gzip

        raw = TestMmapCorpus.CONTENTS[name].encode("utf-8")
        plain = tmp_path / "corpus.ndjson"
        plain.write_bytes(raw)
        packed = tmp_path / "corpus.ndjson.gz"
        packed.write_bytes(gzip.compress(raw, mtime=0))
        with open_corpus(plain) as corpus:
            expected = list(corpus)
        assert list(iter_ndjson_lines(packed)) == expected
        assert self._block_lines(packed) == expected
        # One decompressed byte per chunk: every carry path, a "\r\n"
        # split across two chunks included.
        assert self._block_lines(packed, block_bytes=1) == expected

    def test_open_corpus_refuses_a_compressed_file(self, tmp_path):
        import gzip

        from repro.datasets import CompressedCorpusError

        path = tmp_path / "corpus.ndjson.gz"
        path.write_bytes(gzip.compress(b'{"a": 1}\n', mtime=0))
        with pytest.raises(CompressedCorpusError, match="iter_ndjson_lines"):
            open_corpus(path)

    def test_empty_regular_file_has_no_lines(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_bytes(b"")
        with open_corpus(path) as corpus:
            assert len(corpus) == 0
            assert list(corpus) == []
            with pytest.raises(IndexError):
                corpus[0]

    def test_compressed_no_trailing_newline_keeps_last_line(self, tmp_path):
        import gzip

        path = tmp_path / "corpus.ndjson.gz"
        path.write_bytes(gzip.compress(b'{"a": 1}\n{"b": 2}', mtime=0))
        expected = ['{"a": 1}', '{"b": 2}']
        assert list(iter_ndjson_lines(path)) == expected
        assert self._block_lines(path) == expected

    def test_compressed_empty_stream_has_no_lines(self, tmp_path):
        import gzip

        path = tmp_path / "corpus.ndjson.gz"
        path.write_bytes(gzip.compress(b"", mtime=0))
        assert list(iter_ndjson_lines(path)) == []
        assert self._block_lines(path) == []

    def test_iter_ndjson_lines_reads_compressed_paths(self, tmp_path):
        import gzip

        lines = ['{"a": 1}', "", '{"b": 2}']
        path = tmp_path / "corpus.ndjson.gz"
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))
        assert list(iter_ndjson_lines(str(path))) == lines
        assert list(stream_documents(str(path))) == [{"a": 1}, {"b": 2}]

"""Tests for streaming (text-to-type) inference."""

import json

import pytest

from hypothesis import given, settings

from repro.datasets import github_events, ndjson_lines
from repro.errors import InferenceError, JsonError
from repro.inference import infer_type
from repro.inference.engine import accumulate_lines
from repro.inference.streaming import (
    infer_type_streaming,
    type_of_text,
)
from repro.jsonvalue.serializer import dumps
from repro.types import ArrType, BOT, Equivalence, INT, RecType, merge_all, type_of

from tests.strategies import json_values

# Truncated, unbalanced and trailing-data documents: the text routes must
# reject each with the error ``parse`` raises for it.
MALFORMED = ["{", "[", '{"a"}', '{"a": 1', "[1, ", "[1] 2", '{"a": 1}}', "[1,]"]


def _error(fn):
    """``(class, message)`` of what ``fn`` raises, or ``None``."""
    try:
        fn()
    except JsonError as exc:
        return (type(exc), str(exc))
    return None


class TestTypeOfText:
    @pytest.mark.parametrize(
        "text",
        [
            "null",
            "true",
            "0",
            "42",
            "2.5",
            '"s"',
            "[]",
            "{}",
            "[1, 2, 3]",
            '[1, "a", null]',
            '{"a": {"b": [1.5]}, "c": []}',
            '{"a": [1, 2.5, {"b": null}], "c": true}',
            "[[], {}, [{}]]",
        ],
    )
    def test_equals_dom_path(self, text):
        from repro.jsonvalue.parser import parse

        assert type_of_text(text) == type_of(parse(text))

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_raises_the_parse_error(self, text):
        from repro.jsonvalue.parser import parse

        error = _error(lambda: type_of_text(text))
        assert error is not None
        assert error == _error(lambda: parse(text))

    def test_simple_shapes(self):
        assert type_of_text('{"a": 1}') == RecType.of({"a": INT})
        assert type_of_text("[]") == ArrType(BOT)

    def test_empty_text_rejected(self):
        from repro.errors import ReproError

        # Zero documents: the parser rejects the empty text.
        with pytest.raises(ReproError):
            type_of_text("")


class TestInferStreaming:
    def test_equals_batch_inference(self):
        docs = github_events(150, seed=21)
        lines = ndjson_lines(docs)
        for eq in (Equivalence.KIND, Equivalence.LABEL):
            assert infer_type_streaming(lines, eq) == infer_type(docs, eq)

    def test_blank_lines_skipped(self):
        lines = ['{"a": 1}', "", "   ", '{"a": 2}']
        assert infer_type_streaming(lines) == RecType.of({"a": INT})

    def test_empty_stream(self):
        with pytest.raises(InferenceError):
            infer_type_streaming([])

    def test_lines_fold_in_batches_like_merge_all(self):
        # 2,600 lines span three batches, with distinct types in each.
        lines = [f'{{"k{i % 1500}": {i}, "v": [{i}.5]}}' for i in range(2600)]
        expected = merge_all(type_of(json.loads(line)) for line in lines)
        accumulator = accumulate_lines(lines)
        assert accumulator.result() == expected
        assert accumulator.document_count == 2600

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_line_raises_the_parse_error(self, line):
        from repro.jsonvalue.parser import parse

        error = _error(lambda: accumulate_lines(['{"a": 1}', line, "[]"]))
        assert error is not None
        assert error == _error(lambda: parse(line))

    def test_a_batched_line_fails_before_a_later_read(self):
        def lines():
            yield '{"a": 1}'
            yield '{"a": '
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        with pytest.raises(JsonError, match="expected a JSON value"):
            accumulate_lines(lines())


@given(json_values(max_leaves=20))
@settings(max_examples=80, deadline=None)
def test_streaming_type_equals_dom_type(value):
    assert type_of_text(dumps(value)) == type_of(value)

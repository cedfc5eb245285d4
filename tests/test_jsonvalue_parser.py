"""Tests for repro.jsonvalue.parser."""

import pytest

from repro.errors import JsonError
from repro.jsonvalue.model import strict_equal
from repro.jsonvalue.parser import JsonParseError, ParseOptions, parse, parse_lines


class TestScalars:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("null", None),
            ("true", True),
            ("false", False),
            ("42", 42),
            ("-1.5", -1.5),
            ('"hi"', "hi"),
        ],
    )
    def test_top_level_scalars(self, text, value):
        assert strict_equal(parse(text), value)

    def test_whitespace_tolerated(self):
        assert parse("  \t\n 1 \r\n ") == 1


class TestContainers:
    def test_empty_object(self):
        assert parse("{}") == {}

    def test_empty_array(self):
        assert parse("[]") == []

    def test_nested(self):
        doc = parse('{"a": [1, {"b": [true, null]}], "c": {}}')
        assert doc == {"a": [1, {"b": [True, None]}], "c": {}}

    def test_key_order_preserved(self):
        doc = parse('{"z": 1, "a": 2, "m": 3}')
        assert list(doc.keys()) == ["z", "a", "m"]


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            "[",
            "}",
            "[1,]",
            "{1: 2}",
            '{"a" 1}',
            '{"a": }',
            '{"a": 1,}',
            "[1 2]",
            "[1, ",
            '{"a"}',
            '{"a": 1',
            '{"a": 1} extra',
            '{"a": 1}}',
            "[1] [2]",
            "[1] 2",
            '{"a": 1 "b": 2}',
        ],
    )
    def test_malformed(self, text):
        # Lex-level and parse-level failures both derive from JsonError.
        with pytest.raises(JsonError):
            parse(text)


class TestDuplicateKeys:
    def test_last_wins_by_default(self):
        assert parse('{"a": 1, "a": 2}') == {"a": 2}

    def test_first_policy(self):
        options = ParseOptions(duplicate_keys="first")
        assert parse('{"a": 1, "a": 2}', options) == {"a": 1}

    def test_error_policy(self):
        options = ParseOptions(duplicate_keys="error")
        with pytest.raises(JsonParseError, match="duplicate"):
            parse('{"a": 1, "a": 2}', options)


class TestDepthLimit:
    def test_within_limit(self):
        text = "[" * 10 + "1" + "]" * 10
        assert parse(text, ParseOptions(max_depth=10))

    def test_exceeded(self):
        text = "[" * 11 + "1" + "]" * 11
        with pytest.raises(JsonParseError, match="depth"):
            parse(text, ParseOptions(max_depth=10))

    def test_adversarial_default(self):
        text = "[" * 600 + "]" * 600
        with pytest.raises(JsonParseError, match="depth"):
            parse(text)


class TestTopLevelContainerOption:
    def test_scalar_rejected(self):
        options = ParseOptions(require_top_level_container=True)
        with pytest.raises(JsonParseError):
            parse("42", options)

    def test_container_accepted(self):
        options = ParseOptions(require_top_level_container=True)
        assert parse("[42]", options) == [42]


class TestParseLines:
    def test_ndjson(self):
        lines = ['{"a": 1}', "", '{"a": 2}']
        docs = list(parse_lines(lines))
        assert docs == [{"a": 1}, {"a": 2}]

    def test_top_level_null_is_a_document(self):
        # A ``null`` line is a document, not a skipped or missing value.
        docs = list(parse_lines(["null", "[1]", '{"a": 2}']))
        assert docs == [None, [1], {"a": 2}]

    def test_blank_line_error_when_not_skipping(self):
        with pytest.raises(JsonParseError):
            list(parse_lines(["{}", " "], skip_blank=False))

    def test_numbers_keep_types(self):
        (doc,) = parse_lines(['{"i": 3, "f": 3.0}'])
        assert isinstance(doc["i"], int)
        assert isinstance(doc["f"], float)

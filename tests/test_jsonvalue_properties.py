"""Property-based tests for the JSON substrate (DESIGN.md invariant 1 and 8)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsonvalue.model import freeze, iter_paths, strict_equal, unfreeze
from repro.jsonvalue.parser import parse
from repro.jsonvalue.pointer import JsonPointer
from repro.jsonvalue.serializer import CANONICAL, DumpOptions, PRETTY, dumps

from tests.strategies import json_values


@given(json_values())
def test_parse_dumps_roundtrip_compact(value):
    assert strict_equal(parse(dumps(value)), value)


@given(json_values())
def test_parse_dumps_roundtrip_pretty(value):
    assert strict_equal(parse(dumps(value, PRETTY)), value)


@given(json_values())
def test_parse_dumps_roundtrip_ascii(value):
    assert strict_equal(parse(dumps(value, CANONICAL)), value)


@given(json_values())
def test_stdlib_agrees_with_our_parser(value):
    """Cross-validate against the standard library on our own output."""
    import json as stdlib_json

    ours = dumps(value)
    assert parse(stdlib_json.dumps(stdlib_json.loads(ours))) == parse(ours)


@given(json_values())
def test_freeze_unfreeze_roundtrip(value):
    assert strict_equal(unfreeze(freeze(value)), value)


@given(json_values(), json_values())
def test_freeze_injective(a, b):
    if freeze(a) == freeze(b):
        assert strict_equal(a, b)
    else:
        assert not strict_equal(a, b)


@given(json_values())
def test_every_leaf_path_resolves_by_pointer(value):
    """Invariant 8: pointer built from a model path resolves to that leaf."""
    for path, leaf in iter_paths(value):
        resolved = JsonPointer.from_path(path).resolve(value)
        assert strict_equal(resolved, leaf)


@given(json_values())
@settings(max_examples=50)
def test_canonical_dump_is_deterministic(value):
    options = DumpOptions(sort_keys=True)
    assert dumps(value, options) == dumps(value, options)


@given(st.text(max_size=40))
def test_string_escaping_roundtrip(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        # Lone surrogates cannot be produced by hypothesis text(), but guard anyway.
        return
    assert parse(dumps(text)) == text

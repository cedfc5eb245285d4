"""Differential tier for the two fast paths behind ``repro validate``.

- ``parse`` (the C decoder, falling back to the token parser) must equal
  ``_parse_reference`` (the token parser alone) under every
  ``ParseOptions`` combination: the same Python values — ints stay ints,
  key order and ``-0.0`` are kept — or the same exception class and
  message.  Inputs are generated JSON values written out with random
  whitespace, ``\\u`` escapes (paired and lone surrogates), ``\\/``,
  unusual number spellings and repeated keys, plus nesting around
  ``max_depth`` and a list of malformed texts.
- ``JsonSchema.is_valid`` (the compiled checker) must agree with the
  interpretive walk, and ``validate`` must report exactly the walk's
  failures: over schemas exported from inferred types, every schema of
  the conformance corpus, and randomly assembled schemas.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsonschema import compile_schema
from repro.jsonvalue.parser import ParseOptions, _parse_reference, parse
from repro.types import Equivalence, merge_all, type_of, type_to_jsonschema
from tests.strategies import json_documents, json_objects, json_values
from tests.test_jsonschema_corpus import CORPUS

# ---------------------------------------------------------------------------
# parse ≡ _parse_reference
# ---------------------------------------------------------------------------

OPTIONS = [
    ParseOptions(max_depth=depth, duplicate_keys=policy, require_top_level_container=top)
    for depth, policy, top in itertools.product(
        (10, 512), ("last", "first", "error"), (False, True)
    )
]

_WS = st.sampled_from(["", "", " ", "\n", "\t", "\r\n", " \t "])
_SHORT_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "/": "\\/", "\b": "\\b", "\f": "\\f",
    "\n": "\\n", "\r": "\\r", "\t": "\\t",
}
# Escape sequences whose decoding is the point: surrogate pairs (both
# hex cases), lone high and low surrogates, a high surrogate followed by
# a non-low escape, and the optional escaped solidus.
_ESCAPE_PIECES = st.sampled_from([
    "\\ud83d\\ude00", "\\uD834\\uDD1E", "\\ud800", "\\udfff", "\\ud800\\u0041",
    "\\udc00\\ud800", "\\/", "\\u0000", "\\u00e9",
])
_NUMBER_SPELLINGS = st.sampled_from([
    "1E2", "1e+2", "1e-2", "-0", "-0.0", "0.0", "1.0", "0e0", "1e400", "-1e400",
    "12345678901234567890", "-12345678901234567890", "4.9e-324", "1.5E308",
])


def _u_escape(ch: str, upper: bool) -> str:
    code = ord(ch)
    units = [code]
    if code > 0xFFFF:
        code -= 0x10000
        units = [0xD800 + (code >> 10), 0xDC00 + (code & 0x3FF)]
    form = "\\u%04X" if upper else "\\u%04x"
    return "".join(form % unit for unit in units)


def _string(draw, text: str) -> str:
    out = []
    for ch in text:
        how = draw(st.integers(0, 3))
        if how == 0 and ch not in '"\\' and ch >= " ":
            out.append(ch)
        elif how == 1 and ch in _SHORT_ESCAPES:
            out.append(_SHORT_ESCAPES[ch])
        else:
            out.append(_u_escape(ch, upper=how == 3))
    if draw(st.integers(0, 3)) == 0:
        out.insert(draw(st.integers(0, len(out))), draw(_ESCAPE_PIECES))
    return '"' + "".join(out) + '"'


def _write(draw, value) -> str:
    """``value`` as JSON text, with randomly chosen spellings."""
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, (int, float)):
        if draw(st.integers(0, 4)) == 0:
            return draw(_NUMBER_SPELLINGS)
        return json.dumps(value)
    if isinstance(value, str):
        return _string(draw, value)
    if isinstance(value, list):
        if not value:
            return "[" + draw(_WS) + "]"
        return "[" + ",".join(
            draw(_WS) + _write(draw, item) + draw(_WS) for item in value
        ) + "]"
    members = [(_string(draw, k), _write(draw, v)) for k, v in value.items()]
    if members and draw(st.booleans()):
        # Repeat a key (spelled afresh) with a new value somewhere.
        key = draw(st.sampled_from(list(value)))
        spot = draw(st.integers(0, len(members)))
        members.insert(spot, (_string(draw, key), _write(draw, draw(json_values(4)))))
    if not members:
        return "{" + draw(_WS) + "}"
    return "{" + ",".join(
        draw(_WS) + k + draw(_WS) + ":" + draw(_WS) + v + draw(_WS)
        for k, v in members
    ) + "}"


@st.composite
def json_texts(draw) -> str:
    return draw(_WS) + _write(draw, draw(json_values())) + draw(_WS)


def _same(left, right) -> bool:
    """Type-aware equality that also compares key order and float bits
    (iterative: the depth cases nest past the recursion limit)."""
    pending = [(left, right)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, list):
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif isinstance(a, dict):
            if list(a) != list(b):
                return False
            pending.extend((v, b[k]) for k, v in a.items())
        elif isinstance(a, float):
            if repr(a) != repr(b):
                return False
        elif a != b:
            return False
    return True


def _outcome(function, text: str, options: ParseOptions):
    try:
        return "value", function(text, options)
    except Exception as exc:  # the class and message are compared
        return "error", (type(exc), str(exc))


def assert_parse_matches_reference(text: str, options: ParseOptions) -> None:
    fast = _outcome(parse, text, options)
    reference = _outcome(_parse_reference, text, options)
    assert fast[0] == reference[0], (text, options, fast, reference)
    if fast[0] == "value":
        assert _same(fast[1], reference[1]), (text, options)
    else:
        assert fast[1] == reference[1], (text, options)


@given(json_texts(), st.sampled_from(OPTIONS))
@settings(max_examples=150, deadline=None)
def test_parse_matches_reference_on_generated_texts(text, options):
    assert_parse_matches_reference(text, options)


def _nested(depth: int, shape: str) -> str:
    """``depth`` levels of arrays, objects, or both alternating."""
    opens = []
    for level in range(depth):
        kind = shape if shape != "mixed" else ("array", "object")[level % 2]
        opens.append("[" if kind == "array" else '{"k":')
    closes = ["]" if o == "[" else "}" for o in reversed(opens)]
    return "".join(opens) + "1" + "".join(closes)


DEPTH_TEXTS = [
    pytest.param(_nested(max_depth + delta, shape), id=f"{shape}-{max_depth}{delta:+d}")
    for max_depth in (10, 512)
    for delta in (-1, 0, 1)
    for shape in ("array", "object", "mixed")
] + [
    # Brackets inside strings count toward the fast path's bound but are
    # not nesting: the token parser must take over and accept.
    pytest.param('["' + "[" * 600 + '"]', id="brackets-in-string-600"),
    pytest.param('{"' + "{" * 11 + '": [[1]]}', id="brackets-in-key-11"),
]

MALFORMED_TEXTS = [
    "NaN", "[NaN]", "Infinity", "-Infinity", '{"a": -Infinity}',
    "\ufeff{}", "\ufeff1",  # a byte-order mark
    "{} x", "[1] [2]", '{"a": 1}}', "1 2",
    '"a\x00b"', '"tab\there"', '["\x1f"]', '{"\n": 1}',
    "01", "[00]", "-01", '{"a": 012}',
    pytest.param("1" * 5000, id="int-5000-digits"),
    pytest.param("[" + "9" * 5000 + "]", id="array-int-5000-digits"),
    "", "   ", "[", "[1,]", '{"a" 1}', "{,}", "tru", "nul", '"\\x"',
    '"\\u12"', '"\\u+123"', '"unterminated', "[1 2]", "1.", ".5", "1e", "-",
    "+1", "[-]", "'single'", "{1: 2}", "[1,,2]", '{"a":1,}',
]


def _options_id(options: ParseOptions) -> str:
    top = "-container" if options.require_top_level_container else ""
    return f"depth{options.max_depth}-{options.duplicate_keys}{top}"


@pytest.mark.parametrize("options", OPTIONS, ids=_options_id)
@pytest.mark.parametrize("text", DEPTH_TEXTS + MALFORMED_TEXTS)
def test_parse_matches_reference_on_edge_texts(text, options):
    assert_parse_matches_reference(text, options)


# ---------------------------------------------------------------------------
# is_valid ≡ the walk, validate ≡ the walk's failures
# ---------------------------------------------------------------------------


def assert_checker_matches_walk(compiled, instance) -> None:
    walked = compiled._walk(instance)
    assert compiled.is_valid(instance) == walked.valid, (compiled.document, instance)
    assert compiled.validate(instance).failures == walked.failures


@given(
    json_documents(),
    json_documents(),
    st.sampled_from([Equivalence.KIND, Equivalence.LABEL]),
)
@settings(max_examples=60, deadline=None)
def test_checker_matches_walk_on_exported_schemas(docs, others, equivalence):
    inferred = merge_all((type_of(d) for d in docs), equivalence)
    compiled = compile_schema(type_to_jsonschema(inferred))
    for doc in docs:
        assert compiled.is_valid(doc)
    for instance in docs + others:
        assert_checker_matches_walk(compiled, instance)


@pytest.mark.parametrize(
    "schema,instances",
    [pytest.param(schema, [i for i, _ in pairs], id=desc[:40])
     for desc, schema, pairs in CORPUS],
)
@given(extra=st.lists(json_values(), max_size=6))
@settings(max_examples=10, deadline=None)
def test_checker_matches_walk_on_corpus_schemas(schema, instances, extra):
    compiled = compile_schema(schema)
    for instance in instances + extra:
        assert_checker_matches_walk(compiled, instance)


# Randomly assembled schemas: every keyword the checker compiles, nested
# under combinators, with $refs to the root and to a definition.
_numbers = st.one_of(st.integers(-5, 5), st.sampled_from([0.5, 2.5, -1.5, 1e300]))
_names = st.sampled_from(["a", "b", "c", ""])
_type_names = st.sampled_from(
    ["null", "boolean", "integer", "number", "string", "array", "object"]
)


def _schema_nodes(children):
    keyword = st.one_of(
        st.tuples(st.just("type"), st.one_of(_type_names, st.lists(_type_names, min_size=1, max_size=3))),
        st.tuples(st.just("enum"), st.lists(json_values(4), min_size=1, max_size=3)),
        st.tuples(st.just("const"), json_values(4)),
        st.tuples(st.sampled_from(["maximum", "minimum", "exclusiveMaximum", "exclusiveMinimum"]), _numbers),
        st.tuples(st.just("multipleOf"), st.sampled_from([1, 2, 0.5, 3])),
        st.tuples(st.sampled_from(["maxLength", "minLength", "maxItems", "minItems",
                                   "maxProperties", "minProperties"]), st.integers(0, 3)),
        st.tuples(st.just("pattern"), st.sampled_from(["^a", "b$", "[0-9]", ""])),
        st.tuples(st.just("format"), st.sampled_from(["date", "email", "ipv4", "unknown"])),
        st.tuples(st.just("uniqueItems"), st.booleans()),
        st.tuples(st.just("items"), st.one_of(children, st.lists(children, max_size=3))),
        st.tuples(st.sampled_from(["additionalItems", "contains", "propertyNames",
                                   "additionalProperties", "not", "if", "then", "else"]),
                  children),
        st.tuples(st.just("required"), st.lists(_names, max_size=3)),
        st.tuples(st.sampled_from(["properties", "patternProperties"]),
                  st.dictionaries(st.sampled_from(["a", "b", "^a", "c$"]), children, max_size=3)),
        st.tuples(st.sampled_from(["allOf", "anyOf", "oneOf"]),
                  st.lists(children, min_size=1, max_size=3)),
        st.tuples(st.just("dependencies"),
                  st.dictionaries(_names, st.one_of(st.lists(_names, max_size=2), children),
                                  max_size=2)),
        st.tuples(st.just("$ref"), st.sampled_from(["#", "#/definitions/d"])),
    )
    return st.one_of(st.booleans(), st.lists(keyword, max_size=4).map(dict))


_schemas = st.recursive(
    st.one_of(st.booleans(), st.just({}), _type_names.map(lambda t: {"type": t})),
    _schema_nodes,
    max_leaves=8,
)


@given(
    _schemas,
    _schemas,
    st.lists(st.one_of(json_values(), json_objects(8)), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_checker_matches_walk_on_random_schemas(schema, definition, instances):
    if isinstance(schema, dict):
        schema = {**schema, "definitions": {"d": definition}}
    compiled = compile_schema(schema)
    for instance in instances:
        assert_checker_matches_walk(compiled, instance)


@pytest.mark.parametrize("depth", range(60, 68))
def test_ref_depth_limit_matches_walk(depth):
    # Each array level expands the root $ref once more: the verdict
    # flips exactly where the walk's max_ref_depth (64) is reached.
    compiled = compile_schema({"type": ["integer", "array"], "items": {"$ref": "#"}})
    instance = 1
    for _ in range(depth):
        instance = [instance]
    assert_checker_matches_walk(compiled, instance)


class _Text(str):
    pass


class _Count(int):
    pass


class _Table(dict):
    pass


class _Items(list):
    pass


SUBCLASSED = [
    _Text("a"), _Count(0), _Count(7), _Table(a=1, k="c"), _Table(), _Items([1, 100]),
    _Items([_Text("x"), _Count(2)]), {"rows": _Items([_Table(cells=_Items([1, None]))])},
]


@pytest.mark.parametrize(
    "schema", [pytest.param(schema, id=desc[:40]) for desc, schema, _ in CORPUS]
)
def test_checker_matches_walk_on_builtin_subclasses(schema):
    # Instances of subclasses of the JSON builtins (an OrderedDict, say)
    # are checked as their builtin, as the walk's kind_of treats them.
    compiled = compile_schema(schema)
    for instance in SUBCLASSED:
        assert_checker_matches_walk(compiled, instance)


def test_compiled_schema_pickles_after_use():
    import pickle

    compiled = compile_schema({"type": "object", "required": ["a"]})
    assert compiled.is_valid({"a": 1})
    copy = pickle.loads(pickle.dumps(compiled))
    assert copy.is_valid({"a": 1}) and not copy.is_valid({})

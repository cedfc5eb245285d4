"""JSON substrate: data model, parser, serializer, pointers, and paths.

This package is the foundation every other subsystem builds on.  It
implements, from scratch:

- a tokenizer and iterative DOM parser for RFC 8259 JSON
  (:mod:`repro.jsonvalue.lexer`, :mod:`repro.jsonvalue.parser`).  The
  hand-written parser defines the semantics and every error; ``parse``
  lets the standard library's C decoder speed up only the documents it
  accepts, with identical values, and parses everything else by hand,
- a constant-memory streaming event parser (:mod:`repro.jsonvalue.events`),
- a serializer with compact and pretty modes (:mod:`repro.jsonvalue.serializer`),
- JSON Pointer, RFC 6901 (:mod:`repro.jsonvalue.pointer`),
- a small JSONPath dialect used by projections and skeleton mining
  (:mod:`repro.jsonvalue.path`),
- model helpers: kinds, strict equality, freezing, structural statistics
  (:mod:`repro.jsonvalue.model`).

JSON values are represented as plain Python objects: ``dict`` (objects,
insertion-ordered), ``list`` (arrays), ``str``, ``int``, ``float``, ``bool``
and ``None``.  ``int`` and ``float`` are deliberately kept distinct, and
``bool`` is never conflated with numbers.
"""

from repro.jsonvalue.model import (
    JsonKind,
    kind_of,
    is_json_value,
    strict_equal,
    freeze,
    unfreeze,
    structural_stats,
    StructuralStats,
    iter_paths,
    sort_keys_deep,
)
from repro.jsonvalue.lexer import JsonLexError, Token, TokenType, tokenize
from repro.jsonvalue.parser import JsonParseError, ParseOptions, parse, parse_lines
from repro.jsonvalue.events import JsonEvent, JsonEventType, iter_events, values_from_events
from repro.jsonvalue.serializer import DumpOptions, dumps, dump_lines
from repro.jsonvalue.pointer import JsonPointer, JsonPointerError
from repro.jsonvalue.path import JsonPath, JsonPathError, PathStep, Field, Index, Wildcard

__all__ = [
    "JsonKind",
    "kind_of",
    "is_json_value",
    "strict_equal",
    "freeze",
    "unfreeze",
    "structural_stats",
    "StructuralStats",
    "iter_paths",
    "sort_keys_deep",
    "JsonLexError",
    "Token",
    "TokenType",
    "tokenize",
    "JsonParseError",
    "ParseOptions",
    "parse",
    "parse_lines",
    "JsonEvent",
    "JsonEventType",
    "iter_events",
    "values_from_events",
    "DumpOptions",
    "dumps",
    "dump_lines",
    "JsonPointer",
    "JsonPointerError",
    "JsonPath",
    "JsonPathError",
    "PathStep",
    "Field",
    "Index",
    "Wildcard",
]

"""JSON substrate: data model, parser, serializer, pointers, and paths.

This package is the foundation every other subsystem builds on.  It
implements, from scratch:

- a tokenizer and iterative DOM parser for RFC 8259 JSON
  (:mod:`repro.jsonvalue.lexer`, :mod:`repro.jsonvalue.parser`).  The
  hand-written parser defines the semantics and every error; ``parse``
  lets the standard library's C decoder speed up only the documents it
  accepts, with identical values, and parses everything else by hand,
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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "JsonKind": "model",
    "kind_of": "model",
    "is_json_value": "model",
    "strict_equal": "model",
    "freeze": "model",
    "unfreeze": "model",
    "structural_stats": "model",
    "StructuralStats": "model",
    "iter_paths": "model",
    "sort_keys_deep": "model",
    "JsonLexError": "lexer",
    "Token": "lexer",
    "TokenType": "lexer",
    "tokenize": "lexer",
    "JsonParseError": "parser",
    "ParseOptions": "parser",
    "parse": "parser",
    "parse_lines": "parser",
    "DumpOptions": "serializer",
    "dumps": "serializer",
    "dump_lines": "serializer",
    "JsonPointer": "pointer",
    "JsonPointerError": "pointer",
    "JsonPath": "path",
    "JsonPathError": "path",
    "PathStep": "path",
    "Field": "path",
    "Index": "path",
    "Wildcard": "path",
})

"""JSON Schema (Draft-07 core) — the tutorial's reference schema language.

Compile with :func:`compile_schema`, validate with
:meth:`JsonSchema.validate` (collects all failures) or
:meth:`JsonSchema.is_valid`.  Cross-document references go through
:class:`SchemaRegistry`; witness instances come from
:mod:`repro.jsonschema.generate`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "InstanceValidationError": "errors",
    "SchemaCompileError": "errors",
    "ValidationFailure": "errors",
    "ValidationResult": "errors",
    "FORMAT_CHECKS": "formats",
    "GenerationError": "generate",
    "InstanceGenerator": "generate",
    "generate_instance": "generate",
    "SchemaRegistry": "refs",
    "JsonSchema": "validator",
    "compile_schema": "validator",
    "is_valid": "validator",
    "json_schema_equal": "validator",
    "validate": "validator",
})

"""Programming-language type systems for JSON (tutorial Part 3).

:mod:`repro.pl.typescript` — structural types with unions and literals;
:mod:`repro.pl.swift` — ``Codable``-style typed decoding;
:mod:`repro.pl.codegen` — from the inference algebra to declarations;
:mod:`repro.pl.features` — the E1 capability matrix, probe-generated.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "swift": "swift:",
    "typescript": "typescript:",
    "SwiftEnum": "swift_enum",
    "SwiftEnumCase": "swift_enum",
    "algebra_to_swift_with_enums": "swift_enum",
    "render_enum": "swift_enum",
    "JsonSchemaTranslationError": "from_jsonschema",
    "declaration_from_jsonschema": "from_jsonschema",
    "jsonschema_to_typescript": "from_jsonschema",
    "algebra_to_swift": "codegen",
    "algebra_to_typescript": "codegen",
    "swift_declaration_for": "codegen",
    "typescript_declaration_for": "codegen",
    "FEATURES": "features",
    "SYSTEMS": "features",
    "feature_matrix": "features",
    "render_matrix": "features",
})

"""Type- and structure-aware fast parsing (tutorial §4.2).

- :mod:`repro.parsing.structural` — Mison's bit-parallel structural index;
- :mod:`repro.parsing.mison` — projected parsing with speculation;
- :mod:`repro.parsing.projection` — projection tries + reference semantics;
- :mod:`repro.parsing.fadjs` — Fad.js-style speculative stream decoding.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EncodeStats": "fadjs_encode",
    "EncodeTemplate": "fadjs_encode",
    "SpeculativeEncoder": "fadjs_encode",
    "compile_encode_template": "fadjs_encode",
    "encode_shape_key": "fadjs_encode",
    "encode_stream": "fadjs_encode",
    "ProjectionTree": "projection",
    "apply_projection": "projection",
    "project_value": "projection",
    "StructuralIndex": "structural",
    "MisonParser": "mison",
    "MisonStats": "mison",
    "parse_projected": "mison",
    "FadStats": "fadjs",
    "ShapeTemplate": "fadjs",
    "SpeculativeDecoder": "fadjs",
    "TemplateCompileError": "fadjs",
    "compile_template": "fadjs",
    "decode_stream": "fadjs",
})

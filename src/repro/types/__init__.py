"""The internal JSON type algebra.

Terms (:mod:`repro.types.terms`), canonicalization
(:mod:`repro.types.simplify`), value typing (:mod:`repro.types.build`),
parametric merging (:mod:`repro.types.merge`), subtyping and semantics
(:mod:`repro.types.subtype`), concrete syntax (:mod:`repro.types.printer`)
and JSON Schema export (:mod:`repro.types.to_jsonschema`).
"""

from repro._exports import lazy_exports

# Functions named like their submodules, bound eagerly (see
# repro._exports): a lazy import would rebind them to the modules.
from repro.types.intern import intern
from repro.types.merge import merge
from repro.types.simplify import simplify

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ANY": "terms",
    "ATOMIC_TAGS": "terms",
    "AnyType": "terms",
    "ArrType": "terms",
    "AtomType": "terms",
    "BOOL": "terms",
    "BOT": "terms",
    "BotType": "terms",
    "FLT": "terms",
    "FieldType": "terms",
    "INT": "terms",
    "NULL": "terms",
    "NUM": "terms",
    "RecType": "terms",
    "STR": "terms",
    "Type": "terms",
    "UnionType": "terms",
    "walk": "terms",
    "simplify": "simplify",
    "union": "simplify",
    "union2": "simplify",
    "type_of": "build",
    "EventTypeEncoder": "build",
    "TypeEncoder": "build",
    "type_of_interned": "build",
    "Equivalence": "merge",
    "class_key": "merge",
    "merge": "merge",
    "merge_all": "merge",
    "reduce_type": "merge",
    "InternTable": "intern",
    "global_table": "intern",
    "intern": "intern",
    "intern_stats": "intern",
    "merge_interned": "intern",
    "reduce_interned": "intern",
    "is_equivalent": "subtype",
    "is_subtype": "subtype",
    "matches": "subtype",
    "TypeSyntaxError": "printer",
    "parse_type": "printer",
    "type_to_string": "printer",
    "type_to_jsonschema": "to_jsonschema",
    "TypeWitnessGenerator": "generate",
    "UninhabitedTypeError": "generate",
    "generate_witness": "generate",
    "generate_witnesses": "generate",
})

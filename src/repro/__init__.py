"""repro — Schemas and Types for JSON Data.

A comprehensive reproduction of the systems surveyed by the EDBT 2019
tutorial *"Schemas And Types For JSON Data"* (Baazizi, Colazzo, Ghelli,
Sartiani): JSON schema languages, programming-language type systems for
JSON, schema-inference algorithms, and type-aware fast parsers — all built
on a common from-scratch JSON substrate.

Subpackages
-----------
``repro.jsonvalue``
    JSON data model, parser, serializer, pointers, paths.
``repro.jsonschema``
    JSON Schema (Draft-07 core) validator with ``$ref`` support.
``repro.joi``
    Joi-style fluent schema builder with co-occurrence constraints.
``repro.jsound``
    JSound compact schema language.
``repro.types``
    The internal type algebra: terms, merging, subtyping, export.
``repro.inference``
    Schema inference: parametric (kind/label equivalence), counting types,
    Spark-style, mongodb-schema-like, Skinfer-like, Studio-3T-like,
    Couchbase-like discovery, skeletons, relational normalisation,
    ML profiling, and a distributed map/reduce harness.
``repro.pl``
    TypeScript-like structural types and Swift-like Codable decoding.
``repro.parsing``
    Mison-style structural index + projected parsing; Fad.js-style
    speculative decoding.
``repro.translation``
    Avro-like row codec, Parquet-like columnar shredder, schema-aware
    translation pipelines.
``repro.repository``
    Skeleton-based schema repository with containment queries.
``repro.datasets``
    Synthetic dataset generators with controllable heterogeneity.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

"""Schema-aware data translation (tutorial §5).

- :mod:`repro.translation.avro` — Avro-like schemas and binary row codec
  (``encode``/``decode`` and the row step ``encode_row``, which
  ``encode_rows`` maps over a collection);
- :mod:`repro.translation.parquet` — Parquet-like columnar shredding with
  definition/repetition levels (Dremel), batch ``shred`` plus the
  streaming :class:`~repro.translation.parquet.Shredder`;
- :mod:`repro.translation.translate` — schema-aware vs schema-oblivious
  translation pipelines (experiment E9): the DOM reference path (the
  test oracle) and the single-pass infer→translate→write flow;
- :mod:`repro.translation.stream` — the translate machine that flow
  runs on every source: a fused column program compiled from the
  resolution + Parquet + Avro trees, walked once over each document's
  decoded value (and over the text where a JSON-text fallback keeps its
  source slice), feeds the shredder and writes the Avro rows directly.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "avro": "avro:",
    "Column": "parquet",
    "ColumnStore": "parquet",
    "PLeaf": "parquet",
    "PList": "parquet",
    "PRecord": "parquet",
    "Shredder": "parquet",
    "assemble": "parquet",
    "compile_schema": "parquet",
    "shred": "parquet",
    "StreamTranslator": "stream",
    "compile_column_program": "stream",
    "ObliviousReport": "translate",
    "Resolution": "translate",
    "TextifyPlan": "translate",
    "TranslationReport": "translate",
    "TranslationRun": "translate",
    "column_store_json": "translate",
    "resolve_interned": "translate",
    "resolve_type": "translate",
    "schema_aware_translate": "translate",
    "schema_oblivious_translate": "translate",
    "textify": "translate",
    "translate_report_path": "translate",
    "write_artifacts": "translate",
})

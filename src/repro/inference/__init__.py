"""Schema inference for JSON collections (tutorial Part 4).

One module per surveyed system:

- :mod:`repro.inference.parametric` — the tutorial authors' parametric
  K/L-equivalence inference (EDBT '17 / VLDB J '19);
- :mod:`repro.inference.counting` — counting types (DBPL '17);
- :mod:`repro.inference.spark` — Spark DataFrame extraction (no unions,
  falls back to strings);
- :mod:`repro.inference.mongodb` — mongodb-schema streaming field summary;
- :mod:`repro.inference.skinfer` — Skinfer JSON Schema inference
  (record-only merge);
- :mod:`repro.inference.studio3t` — Studio 3T shape catalogue (no merging);
- :mod:`repro.inference.couchbase` — Couchbase flavor discovery;
- :mod:`repro.inference.skeleton` — Wang et al. skeletons (VLDB '15);
- :mod:`repro.inference.relational` — DiScala & Abadi FD-driven
  normalisation (SIGMOD '16);
- :mod:`repro.inference.profiling` — Gallinucci et al. decision-tree
  schema profiles (Inf. Syst. '18);
- :mod:`repro.inference.distributed` — the map/combine/reduce cost
  simulator plus a real multiprocessing execution of the distributed
  variant (workers read their own file byte ranges);
- :mod:`repro.inference.engine` — the hash-consed incremental merge
  accumulator the parametric/streaming/distributed/counting paths run
  through.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "InferenceReport": "parametric",
    "infer": "parametric",
    "infer_type": "parametric",
    "precision_against": "parametric",
    "CArr": "counting",
    "CAtom": "counting",
    "CField": "counting",
    "CRec": "counting",
    "CUnion": "counting",
    "counted_type_of": "counting",
    "counted_type_of_bytes": "counting",
    "counted_type_of_text": "counting",
    "field_presence_ratios": "counting",
    "infer_counted": "counting",
    "infer_counted_compressed": "counting",
    "infer_counted_streaming": "counting",
    "merge_counted": "counting",
    "infer_spark_schema": "spark",
    "render_spark_schema": "spark:render_schema",
    "count_string_collapses": "spark",
    "StreamingAnalyzer": "mongodb",
    "mongodb_analyze": "mongodb:analyze",
    "skinfer_infer_schema": "skinfer:infer_schema",
    "skinfer_merge_schemas": "skinfer:merge_schemas",
    "schema_from_object": "skinfer",
    "jsonschema_size": "skinfer:schema_size",
    "Studio3TAnalysis": "studio3t",
    "studio3t_analyze": "studio3t:analyze",
    "shape_of": "studio3t",
    "Flavor": "couchbase",
    "discover_flavors": "couchbase",
    "Skeleton": "skeleton",
    "Structure": "skeleton",
    "build_skeleton": "skeleton",
    "counted_coverage": "skeleton",
    "document_coverage": "skeleton",
    "mine_structures": "skeleton",
    "path_coverage": "skeleton",
    "rank_structures": "skeleton",
    "structure_of": "skeleton",
    "Decomposition": "relational",
    "FunctionalDependency": "relational",
    "NormalizationReport": "relational",
    "Table": "relational",
    "decompose": "relational",
    "flatten": "relational",
    "mine_fds": "relational",
    "normalize": "relational",
    "SchemaProfile": "profiling",
    "candidate_features": "profiling",
    "train_profile": "profiling",
    "DistributedRun": "distributed",
    "ParallelRun": "distributed",
    "SchedulePlan": "distributed",
    "auto_jobs": "distributed",
    "load_calibration": "calibration",
    "measure_calibration": "calibration",
    "infer_adaptive_text": "distributed",
    "infer_compressed_parallel": "distributed",
    "infer_counted_parallel": "distributed",
    "infer_distributed": "distributed",
    "infer_distributed_text": "distributed",
    "infer_subtree_text": "distributed",
    "partition": "distributed",
    "partition_bounds": "distributed",
    "plan_compressed_schedule": "distributed",
    "plan_schedule": "distributed",
    "infer_report_corpus": "streaming",
    "infer_report_path": "streaming",
    "infer_report_streaming": "streaming",
    "infer_type_streaming": "streaming",
    "type_of_bytes": "streaming",
    "type_of_text": "streaming",
    "CountingAccumulator": "engine",
    "TypeAccumulator": "engine",
    "accumulate": "engine",
    "accumulate_lines": "engine",
    "accumulate_ranges": "engine",
    "RangeFolder": "engine",
    "fold_line_blocks": "streaming",
    "infer_report_compressed": "streaming",
    "accumulate_types": "engine",
})

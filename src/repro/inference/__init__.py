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
  variant (workers read file byte ranges or receive pickled line
  batches);
- :mod:`repro.inference.engine` — the hash-consed incremental merge
  accumulator the parametric/streaming/distributed/counting paths run
  through.
"""

from repro.inference.parametric import InferenceReport, infer, infer_type, precision_against
from repro.inference.counting import (
    CArr,
    CAtom,
    CField,
    CRec,
    CUnion,
    counted_type_of,
    counted_type_of_bytes,
    counted_type_of_text,
    field_presence_ratios,
    infer_counted,
    infer_counted_compressed,
    infer_counted_streaming,
    merge_counted,
)
from repro.inference.spark import (
    infer_spark_schema,
    render_schema as render_spark_schema,
    count_string_collapses,
)
from repro.inference.mongodb import StreamingAnalyzer, analyze as mongodb_analyze
from repro.inference.skinfer import (
    infer_schema as skinfer_infer_schema,
    merge_schemas as skinfer_merge_schemas,
    schema_from_object,
    schema_size as jsonschema_size,
)
from repro.inference.studio3t import Studio3TAnalysis, analyze as studio3t_analyze, shape_of
from repro.inference.couchbase import Flavor, discover_flavors
from repro.inference.skeleton import (
    Skeleton,
    Structure,
    build_skeleton,
    document_coverage,
    mine_structures,
    path_coverage,
    structure_of,
)
from repro.inference.relational import (
    Decomposition,
    FunctionalDependency,
    NormalizationReport,
    Table,
    decompose,
    flatten,
    mine_fds,
    normalize,
)
from repro.inference.profiling import SchemaProfile, candidate_features, train_profile
from repro.inference.calibration import (
    SchedCalibration,
    load_calibration,
    measure_calibration,
)
from repro.inference.distributed import (
    CountedParallelRun,
    DistributedRun,
    ParallelRun,
    SchedulePlan,
    auto_jobs,
    infer_adaptive_text,
    infer_compressed_parallel,
    infer_counted_parallel,
    infer_distributed,
    infer_distributed_text,
    infer_subtree_text,
    partition,
    partition_bounds,
    partition_contiguous,
    plan_compressed_schedule,
    plan_schedule,
)
from repro.inference.streaming import (
    fold_compressed,
    infer_report_compressed,
    infer_report_corpus,
    infer_report_path,
    infer_report_streaming,
    infer_type_streaming,
    type_of_bytes,
    type_of_text,
)
from repro.inference.engine import (
    CountingAccumulator,
    RangeFolder,
    TypeAccumulator,
    accumulate,
    accumulate_lines,
    accumulate_ranges,
    accumulate_types,
)

__all__ = [
    "InferenceReport",
    "infer",
    "infer_type",
    "precision_against",
    "CArr",
    "CAtom",
    "CField",
    "CRec",
    "CUnion",
    "counted_type_of",
    "counted_type_of_bytes",
    "counted_type_of_text",
    "field_presence_ratios",
    "infer_counted",
    "infer_counted_compressed",
    "infer_counted_streaming",
    "merge_counted",
    "infer_spark_schema",
    "render_spark_schema",
    "count_string_collapses",
    "StreamingAnalyzer",
    "mongodb_analyze",
    "skinfer_infer_schema",
    "skinfer_merge_schemas",
    "schema_from_object",
    "jsonschema_size",
    "Studio3TAnalysis",
    "studio3t_analyze",
    "shape_of",
    "Flavor",
    "discover_flavors",
    "Skeleton",
    "Structure",
    "build_skeleton",
    "document_coverage",
    "mine_structures",
    "path_coverage",
    "structure_of",
    "Decomposition",
    "FunctionalDependency",
    "NormalizationReport",
    "Table",
    "decompose",
    "flatten",
    "mine_fds",
    "normalize",
    "SchemaProfile",
    "candidate_features",
    "train_profile",
    "CountedParallelRun",
    "DistributedRun",
    "ParallelRun",
    "SchedCalibration",
    "SchedulePlan",
    "auto_jobs",
    "load_calibration",
    "measure_calibration",
    "infer_adaptive_text",
    "infer_compressed_parallel",
    "infer_counted_parallel",
    "infer_distributed",
    "infer_distributed_text",
    "infer_subtree_text",
    "partition",
    "partition_bounds",
    "partition_contiguous",
    "plan_compressed_schedule",
    "plan_schedule",
    "infer_report_corpus",
    "infer_report_path",
    "infer_report_streaming",
    "infer_type_streaming",
    "type_of_bytes",
    "type_of_text",
    "CountingAccumulator",
    "TypeAccumulator",
    "accumulate",
    "accumulate_lines",
    "accumulate_ranges",
    "RangeFolder",
    "fold_compressed",
    "infer_report_compressed",
    "accumulate_types",
]

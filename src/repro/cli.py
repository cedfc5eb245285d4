"""Command-line interface: the tutorial's tools on NDJSON files.

::

    python -m repro infer data.ndjson --equivalence label --format typescript
    python -m repro validate data.ndjson --schema schema.json
    python -m repro skeleton data.ndjson --k 4
    python -m repro translate data.ndjson
    python -m repro matrix

Every command reads newline-delimited JSON (``-`` = stdin) and prints a
human-readable report; ``validate`` sets the exit code to the number of
invalid documents (capped at 125), so it composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro.errors import ReproError


def _read_documents(path: str) -> list[Any]:
    # stream_documents reads every path and "-" through the line-block
    # reader, so every subcommand accepts compressed corpora and reports
    # the same line-relative errors.
    from repro.datasets.ndjson import stream_documents

    return list(stream_documents(path))


def _positive_int(flag: str, value: str, alternatives: str = "") -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{flag} expects a positive integer{alternatives}, got {value!r}"
        ) from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{flag} must be at least 1")
    return number


def _jobs_arg(value: str):
    """Parse ``--jobs``: a positive worker count, or ``auto`` (None) to
    size the pool from CPU affinity."""
    if value == "auto":
        return None
    return _positive_int("--jobs", value, " or 'auto'")


def _k_arg(value: str) -> int:
    """Parse ``--k``: a positive skeleton order."""
    return _positive_int("--k", value)


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.inference import infer_report_path
    from repro.jsonvalue.serializer import PRETTY, dumps
    from repro.types import Equivalence, type_to_string

    # The type/jsonschema outputs run the fused text→type pipeline on
    # raw lines: no document DOM is built, regular files fold as mapped
    # byte ranges (through the adaptive scheduler under --jobs) and
    # other sources as line-aligned blocks.  Codegen needs the documents
    # whole: it reads the source once and parses them from its spans.
    equivalence = Equivalence(args.equivalence)
    if args.format in ("typescript", "swift"):
        return _infer_codegen(args, equivalence)
    report = infer_report_path(args.data, equivalence, jobs=args.jobs)
    print(f"# {report.document_count} documents, schema size {report.schema_size}")
    if args.format == "type":
        print(type_to_string(report.inferred))
    else:
        print(dumps(report.to_jsonschema(), PRETTY))
    return 0


def _infer_codegen(args: argparse.Namespace, equivalence) -> int:
    from repro.inference.streaming import report_with_spans
    from repro.jsonvalue.parser import parse_lines
    from repro.pl.codegen import swift_declaration_for, typescript_declaration_for

    with report_with_spans(args.data, equivalence, jobs=args.jobs) as (
        report,
        sections,
    ):
        docs = list(parse_lines(
            data[start:end].decode("utf-8")
            for data, spans in sections
            for start, end in spans
        ))
    print(f"# {report.document_count} documents, schema size {report.schema_size}")
    if args.format == "typescript":
        print(typescript_declaration_for(docs, args.name), end="")
    else:  # swift
        print(swift_declaration_for(docs, args.name), end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.datasets.ndjson import stream_documents
    from repro.jsonschema import compile_schema
    from repro.jsonvalue.parser import parse

    with open(args.schema, "r", encoding="utf-8") as handle:
        schema_doc = parse(handle.read())
    compiled = compile_schema(schema_doc)
    # One document in memory at a time: a malformed line still aborts
    # with the parser's error, after the verdicts of the lines before it.
    count = invalid = 0
    for count, doc in enumerate(stream_documents(args.data), 1):
        result = compiled.validate(doc)
        if not result.valid:
            invalid += 1
            print(f"line {count}: INVALID — {result.failures[0]}")
        elif args.verbose:
            print(f"line {count}: valid")
    print(f"# {count - invalid}/{count} valid")
    return min(invalid, 125)


def _cmd_skeleton(args: argparse.Namespace) -> int:
    from repro.inference import build_skeleton, document_coverage, path_coverage

    docs = _read_documents(args.data)
    skeleton = build_skeleton(docs, args.k)
    print(
        f"# skeleton of order {skeleton.order} over {skeleton.document_count} documents"
    )
    print(f"# document coverage {document_coverage(skeleton, docs):6.1%}, "
          f"path coverage {path_coverage(skeleton, docs):6.1%}")
    for i, structure in enumerate(skeleton.structures):
        paths = ", ".join(".".join(p) for p in sorted(structure.paths)[:6])
        more = len(structure.paths) - 6
        suffix = f" (+{more} paths)" if more > 0 else ""
        print(f"structure #{i}: {structure.count} docs — {paths}{suffix}")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from repro.translation import translate_report_path
    from repro.types import Equivalence

    run = translate_report_path(
        args.data, Equivalence(args.equivalence), jobs=args.jobs, out=args.out
    )
    aware = run.translation
    # The stream pass measured the corpus as it went — raw NDJSON bytes
    # are exactly what the no-schema baseline stores, so no second
    # schema-oblivious pass is needed.
    source_bytes = aware.input_bytes
    print(f"documents:        {aware.document_count}")
    print(f"JSON text bytes:  {source_bytes}")
    columnar_bytes = aware.columnar_bytes  # a walk over every column value
    if columnar_bytes:
        ratio = source_bytes / columnar_bytes
        print(f"columnar bytes:   {columnar_bytes} ({ratio:.2f}x smaller)")
    else:  # documents with no paths shred to no columns
        print("columnar bytes:   0")
    print(f"avro row bytes:   {aware.avro_bytes}")
    print(f"typed columns:    {aware.typed_fraction:6.1%}")
    print(f"union fallbacks:  {aware.fallback_count}")
    if args.out is not None:
        # Spilled while translating; nothing is re-encoded here.
        written = run.artifacts
        for path in sorted(written):
            print(f"wrote {path} ({written[path]} bytes)")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.pl import feature_matrix, render_matrix

    print(render_matrix(feature_matrix()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Schemas and types for JSON data (EDBT 2019 tutorial reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="infer a schema from NDJSON data")
    p_infer.add_argument(
        "data",
        help="NDJSON file (plain, gzip, or zstd — detected by magic "
        "bytes), or - for stdin",
    )
    p_infer.add_argument(
        "--equivalence", choices=["kind", "label"], default="kind",
        help="fusion parameter (default: kind)",
    )
    p_infer.add_argument(
        "--format",
        choices=["type", "jsonschema", "typescript", "swift"],
        default="type",
        help="output notation (default: the papers' type syntax)",
    )
    p_infer.add_argument("--name", default="Root", help="declaration name for codegen")
    p_infer.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N|auto",
        help="worker processes for the parallel merge of a file (default: "
        "1, serial — regular files then fold as undecoded mmap byte "
        "ranges; stdin and FIFOs always fold serially, one line-aligned "
        "block at a time). "
        "'auto' sizes the pool from CPU affinity; N and 'auto' both route "
        "through the adaptive scheduler, which picks one of three modes: "
        "'serial' (the mmap bytes fold), 'parallel' (line-parallel — "
        "each worker reads its own byte range of the file), "
        "or 'subtree' (intra-document parallel — a corpus "
        "dominated by one huge single-line document is split into "
        "top-level subtree byte ranges, typed by workers, and merged "
        "through the same monoid, yielding the identical interned type). "
        "The scheduler times a small sample of the corpus, models each "
        "mode (per-worker "
        "startup + the fold split across usable CPUs + splitting huge "
        "documents, with the constants loaded from "
        "the per-machine calibration profile at ~/.cache/repro/sched.json — "
        "measured once, REPRO_SCHED_PROFILE overrides the path), and falls "
        "back to the serial fold whenever the modeled win is negative — so "
        "small corpora and single-CPU machines never pay for a worker pool. "
        "File inputs are mapped as a zero-copy mmap corpus. Compressed "
        "files (gzip, or zstd with the optional zstandard module) instead "
        "stream through the chunked decompression fold; with jobs, a "
        "multi-member container lets workers decompress and fold "
        "independent member byte ranges in parallel, priced by a "
        "decompress-rate calibration constant "
        "(REPRO_DECOMPRESS_BYTES_PER_SECOND overrides) — single-member "
        "streams are inherently sequential and stay serial.",
    )
    # No --shared-memory flag; benchmarks/suite/trace_job.py reads the attribute.
    p_infer.set_defaults(shared_memory="auto")
    p_infer.set_defaults(func=_cmd_infer)

    p_validate = sub.add_parser("validate", help="validate NDJSON against a JSON Schema")
    p_validate.add_argument("data", help="NDJSON file, or - for stdin")
    p_validate.add_argument("--schema", required=True, help="JSON Schema document")
    p_validate.add_argument("--verbose", action="store_true", help="also print valid lines")
    p_validate.set_defaults(func=_cmd_validate)

    p_skeleton = sub.add_parser("skeleton", help="mine the top-k structures")
    p_skeleton.add_argument("data", help="NDJSON file, or - for stdin")
    p_skeleton.add_argument("--k", type=_k_arg, default=5, help="skeleton order (default 5)")
    p_skeleton.set_defaults(func=_cmd_skeleton)

    p_translate = sub.add_parser(
        "translate", help="schema-aware translation size report",
        description="Infer a schema, then translate every document to "
        "Parquet-like columns and Avro-like rows in one streaming pass "
        "over its raw bytes. A file, gzip, zstd or stdin source of the "
        "same bytes gives the same report and artifacts.",
    )
    p_translate.add_argument(
        "data",
        help="NDJSON file (plain, gzip, or zstd — detected by magic "
        "bytes), or - for stdin",
    )
    p_translate.add_argument(
        "--equivalence", choices=["kind", "label"], default="kind",
        help="fusion parameter for the inferred schema (default: kind)",
    )
    p_translate.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N|auto",
        help="worker processes for the inference pass over a file "
        "(stdin is inferred serially; see 'infer --help' for the "
        "scheduler)",
    )
    p_translate.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write the artifacts (rows.avro, columns.json, "
        "schema.txt) under DIR; rows.avro is spilled incrementally "
        "while translating",
    )
    # No --engine flag; benchmarks/suite/trace_job.py reads the attribute.
    p_translate.set_defaults(engine="stream")
    p_translate.set_defaults(func=_cmd_translate)

    p_matrix = sub.add_parser("matrix", help="print the schema-language feature matrix")
    p_matrix.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ReproError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro matrix | head`); exit
        # quietly like well-behaved Unix tools.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

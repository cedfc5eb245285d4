"""One ``repro`` CLI job, rebuilt from the layers' functions and traced.

::

    python benchmarks/suite/trace_job.py --spans SPANS.json --job-id ID -- \\
        infer data.ndjson --jobs auto

The arguments after ``--`` are parsed by the CLI's own parser.  The job
then runs the same calls the CLI makes, in the same order, with a span
around each call into a layer (``datasets``, ``types``, ``inference``,
``translation``, ``jsonvalue``, ``jsonschema``), and prints what the CLI
prints (a translate job writes the same artifacts).  ``infer`` and
``validate`` are rebuilt from the layers' public functions; ``translate``
makes the CLI's own ``translate_report_path`` call with hooks on the
functions it reaches (see ``hooked``).  ``run.py`` checks that the
output equals the CLI's byte for byte, so a rebuild that drifts from the
CLI fails the benchmark instead of tracing a different program.

The command's modules are imported before the root span opens, the same
set the CLI imports for it, so the root span covers the job's work and
the process holds what the CLI process holds.

Spans stay in memory and are written to ``SPANS.json`` at exit: name,
start, end, parent index, job id, and a ``probe`` flag for measurements
made outside the job (the decompression probe).  Counters recorded at
the same boundaries go beside them.  Only the routes the benchmark runs
are rebuilt; any other option combination exits with code 3.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.cli import build_parser  # noqa: E402
from repro.errors import ReproError  # noqa: E402

# What each command's path through ``repro.cli`` imports.
CLI_IMPORTS = {
    "infer": ("repro.inference", "repro.jsonvalue.serializer", "repro.pl",
              "repro.types", "repro.datasets.ndjson"),
    "translate": ("repro.types", "repro.translation", "repro.inference.streaming"),
    "validate": ("repro.jsonschema", "repro.jsonvalue.parser",
                 "repro.datasets.ndjson"),
}


class Unsupported(Exception):
    """An option combination the benchmark never runs."""


class Tracer:
    """In-memory spans and counters for one job."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def _open(self, name: str, start: float, probe: bool = False) -> dict:
        record = {
            "name": name,
            "start": start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job_id,
            "probe": probe,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, *, probe: bool = False):
        record = self._open(name, time.perf_counter(), probe)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """A span that has already ended, under the open span."""
        self._open(name, start)["end"] = end

    def spanned(self, name: str):
        """A hook maker: wraps a function in a ``name`` span."""
        def make(function):
            def traced(*args, **kwargs):
                with self.span(name):
                    return function(*args, **kwargs)
            return traced
        return make

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"job": self.job_id, "spans": self.spans,
                       "counts": self.counts}, handle)


class TracedEncoder:
    """Delegates to an ``EventTypeEncoder``, timing each line batch.

    Passed as ``RangeFolder(acc, encoder=...)``, it separates the
    batched scan (``types.encode_lines``) from the merge that folds the
    returned types (the rest of ``inference.merge``).
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def encode_lines(self, lines, **kwargs):
        with self._tracer.span("types.encode_lines"):
            return self._inner.encode_lines(lines, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def hooked(*hooks):
    """Replace module attributes while the block runs.

    Each hook is ``(module, name, make)``: the attribute becomes
    ``make(original)`` and is restored afterwards.  The code under the
    block looks these names up when it calls them, so it runs unchanged
    with a span or a counter around each call.  A name its module no
    longer has raises ``AttributeError``, so a renamed hook point fails
    the traced job rather than tracing less.
    """
    saved = []
    try:
        for module, name, make in hooks:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def _report(accumulator):
    from repro.errors import InferenceError
    from repro.inference.parametric import InferenceReport

    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=accumulator.equivalence,
        document_count=accumulator.document_count,
    )


def _run_report(run, equivalence):
    from repro.inference.parametric import InferenceReport

    return InferenceReport(
        inferred=run.result, equivalence=equivalence,
        document_count=run.document_count,
    )


def _fold(tr: Tracer, accumulator, sections):
    """``accumulate_ranges`` / ``fold_compressed``: (data, spans) pairs
    through one ``RangeFolder`` with a traced encoder into
    ``accumulator``, which is returned."""
    from repro.datasets.compressed import CompressedCorpusError
    from repro.inference.engine import RangeFolder
    from repro.types import EventTypeEncoder

    encoder = TracedEncoder(EventTypeEncoder(accumulator.table), tr)
    folder = RangeFolder(accumulator, encoder=encoder)
    try:
        with tr.span("inference.merge"):
            try:
                for data, spans in sections:
                    folder.feed(data, spans)
            except CompressedCorpusError:
                folder.finish()
                raise
            folder.finish()
        return accumulator
    finally:
        attempts, hits, _enabled = encoder.line_cache_stats
        tr.count("types.line_cache_attempts", attempts)
        tr.count("types.line_cache_hits", hits)


def _fold_report(tr: Tracer, equivalence, sections):
    """``_fold`` into a fresh accumulator, then its report."""
    from repro.inference.engine import TypeAccumulator

    accumulator = _fold(tr, TypeAccumulator(equivalence), sections)
    with tr.span("inference.merge"):
        return _report(accumulator)


def _compressed_sections(path: str, fmt: str):
    from repro.datasets.compressed import iter_block_line_spans, iter_line_blocks

    for block in iter_line_blocks(path, format=fmt):
        yield block, iter_block_line_spans(block)


def _count_plan(tr: Tracer, plan) -> None:
    for mode in ("serial", "parallel", "subtree"):
        tr.count(f"inference.plans_{mode}", int(plan.mode == mode))


def _infer_compressed(tr, path, fmt, equivalence, jobs):
    """``infer_report_compressed``."""
    from repro.inference.distributed import (
        infer_compressed_parallel,
        plan_compressed_schedule,
    )

    if jobs != 1:
        with tr.span("inference.plan"):
            plan = plan_compressed_schedule(path, format=fmt, jobs=jobs)
        _count_plan(tr, plan)
        if plan.parallel:
            with tr.span("inference.workers"):
                run = infer_compressed_parallel(
                    path, equivalence, processes=plan.jobs, format=fmt
                )
            if run is not None:
                return _run_report(run, equivalence)
            tr.count("inference.parallel_fallbacks", 1)
    return _fold_report(tr, equivalence, _compressed_sections(path, fmt))


def _count_declined(tr: Tracer):
    """A hook maker for the subtree splitter's per-document entry: a
    ``None`` result means the splitter declined (or its speculative
    chunks failed validation) and the document is scanned serially."""
    def make(function):
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            tr.count("inference.parallel_fallbacks", int(result is None))
            return result
        return counted
    return make


def _infer_adaptive(tr, corpus, equivalence, jobs, shared_memory):
    """``infer_adaptive_text`` on a mapped corpus, plan timed on its own."""
    from repro.inference import distributed
    from repro.inference.distributed import (
        infer_distributed_text,
        infer_subtree_text,
        plan_schedule,
    )

    with tr.span("inference.plan"):
        plan = plan_schedule(corpus, jobs=jobs, shared_memory=shared_memory)
    _count_plan(tr, plan)
    if plan.subtree:
        with tr.span("inference.workers"), hooked(
            (distributed, "_subtree_span_type", _count_declined(tr))
        ):
            run = infer_subtree_text(corpus, equivalence, processes=plan.jobs)
        return _run_report(run, equivalence)
    if plan.parallel:
        with tr.span("inference.workers"):
            run = infer_distributed_text(
                corpus,
                partitions=plan.partitions,
                equivalence=equivalence,
                processes=plan.jobs,
                shared_memory=shared_memory,
            )
        return _run_report(run, equivalence)
    return _fold_report(tr, equivalence, ((corpus.buffer(), corpus.spans),))


def _infer_path(tr, source, equivalence, jobs, shared_memory):
    """``infer_report_path`` for the sources the benchmark uses."""
    from repro.datasets import detect_compression, iter_ndjson_lines, open_corpus
    from repro.inference.engine import accumulate_lines

    if source == "-":
        if jobs != 1:
            raise Unsupported("stdin with --jobs")
        with tr.span("inference.str_fold"):
            accumulator = accumulate_lines(iter_ndjson_lines("-"), equivalence)
        return _report(accumulator)
    if not os.path.isfile(source):
        raise Unsupported("only regular files and stdin are rebuilt")
    with tr.span("datasets.open"):
        fmt = detect_compression(source)
    if fmt is not None:
        return _infer_compressed(tr, source, fmt, equivalence, jobs)
    with tr.span("datasets.open"):
        corpus = open_corpus(source)
    try:
        if jobs == 1:
            return _fold_report(tr, equivalence, ((corpus.buffer(), corpus.spans),))
        return _infer_adaptive(tr, corpus, equivalence, jobs, shared_memory)
    finally:
        corpus.close()


def cmd_infer(tr: Tracer, args) -> int:
    from repro.types import Equivalence, type_to_string

    if args.format != "type":
        raise Unsupported("infer --format other than type")
    shared_memory = {"always": True, "never": False}.get(args.shared_memory, "auto")
    report = _infer_path(
        tr, args.data, Equivalence(args.equivalence), args.jobs, shared_memory
    )
    with tr.span("types.render"):
        text = type_to_string(report.inferred)
    print(f"# {report.document_count} documents, schema size {report.schema_size}")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


def _traced_sink(tr: Tracer):
    """A hook maker for the row sink: each row the sink frames and writes
    to ``rows.avro`` is a ``translation.write`` span under the stream
    loop."""
    def make(sink_class):
        class TracedSink(sink_class):
            __slots__ = ()

            def add(self, row):
                start = time.perf_counter()
                sink_class.add(self, row)
                tr.record("translation.write", start, time.perf_counter())
        return TracedSink
    return make


def _collect(instances: list):
    """A hook maker that keeps every object the wrapped factory builds."""
    def make(factory):
        def build(*args, **kwargs):
            instance = factory(*args, **kwargs)
            instances.append(instance)
            return instance
        return build
    return make


def cmd_translate(tr: Tracer, args) -> int:
    """The CLI's own call, ``translate_report_path(..., out=DIR)``, with
    hooks on the layer functions it reaches: the same sink streams rows
    into ``rows.avro`` while translating, as in the CLI process."""
    from repro.datasets import compressed, ndjson
    from repro.inference import engine
    from repro.translation import stream, translate, translate_report_path
    from repro.types import Equivalence

    if args.engine != "stream" or args.jobs != 1 or args.out is None:
        raise Unsupported("translate other than --engine stream --jobs 1 --out")
    if not os.path.isfile(args.data):
        raise Unsupported("translate from a non-file source")

    def accumulate_ranges(_original):
        # Rebuilt as ``_fold``, so the scan and the merge time apart.
        def traced(data, spans, equivalence=Equivalence.KIND, *, table=None):
            accumulator = engine.TypeAccumulator(equivalence, table=table)
            return _fold(tr, accumulator, ((data, spans),))
        return traced

    translators: list = []
    with hooked(
        (compressed, "detect_compression", tr.spanned("datasets.open")),
        (ndjson, "open_corpus", tr.spanned("datasets.open")),
        (engine, "accumulate_ranges", accumulate_ranges),
        (translate, "resolve_interned", tr.spanned("translation.resolve")),
        (translate, "compiled_parquet", tr.spanned("translation.compile")),
        (translate, "compiled_avro", tr.spanned("translation.compile")),
        (stream, "compile_column_program", tr.spanned("translation.compile")),
        (stream, "StreamTranslator", _collect(translators)),
        (translate, "_stream_translate_sections", tr.spanned("translation.stream")),
        (translate, "_RowSink", _traced_sink(tr)),
        (translate, "_write_columns_and_schema", tr.spanned("translation.write")),
    ):
        run = translate_report_path(
            args.data, Equivalence(args.equivalence), jobs=args.jobs,
            engine=args.engine, out=args.out,
        )
    translation = run.translation
    written = run.artifacts
    tr.count("translation.documents", translation.document_count)
    tr.count("translation.delegated_docs", sum(t.delegated for t in translators))
    tr.count("translation.fallback_columns", translation.fallback_count)
    tr.count("translation.write_bytes", sum(written.values()))
    source_bytes = translation.input_bytes
    print(f"documents:        {translation.document_count}")
    print(f"JSON text bytes:  {source_bytes}")
    ratio = source_bytes / translation.columnar_bytes
    print(f"columnar bytes:   {translation.columnar_bytes} ({ratio:.2f}x smaller)")
    print(f"avro row bytes:   {translation.avro_bytes}")
    print(f"typed columns:    {translation.typed_fraction:6.1%}")
    print(f"union fallbacks:  {translation.fallback_count}")
    for path in sorted(written):
        print(f"wrote {path} ({written[path]} bytes)")
    return 0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def cmd_validate(tr: Tracer, args) -> int:
    from repro.datasets.ndjson import stream_documents
    from repro.jsonschema import compile_schema
    from repro.jsonvalue.parser import parse

    with tr.span("jsonvalue.parse"):
        with open(args.schema, "r", encoding="utf-8") as handle:
            schema_doc = parse(handle.read())
    with tr.span("jsonschema.compile"):
        compiled = compile_schema(schema_doc)
    with tr.span("jsonvalue.parse"):
        docs = list(stream_documents(args.data))
    invalid = 0
    with tr.span("jsonschema.validate"):
        for i, doc in enumerate(docs):
            result = compiled.validate(doc)
            if not result.valid:
                invalid += 1
                print(f"line {i + 1}: INVALID — {result.failures[0]}")
            elif args.verbose:
                print(f"line {i + 1}: valid")
    tr.count("jsonschema.invalid_docs", invalid)
    print(f"# {len(docs) - invalid}/{len(docs)} valid")
    return min(invalid, 125)


COMMANDS = {"infer": cmd_infer, "translate": cmd_translate, "validate": cmd_validate}


def _decompress_probe(tr: Tracer, args) -> None:
    """Drain the decompressing reader once, outside the job's root span."""
    from repro.datasets import detect_compression, iter_line_blocks

    source = getattr(args, "data", "-")
    if source == "-" or not os.path.isfile(source):
        return
    fmt = detect_compression(source)
    if fmt is None:
        return
    total = 0
    with tr.span("datasets.decompress", probe=True):
        for block in iter_line_blocks(source, format=fmt):
            total += len(block)
    tr.count("datasets.decompress_bytes", total)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--job-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    cli_args = build_parser().parse_args(command)
    handler = COMMANDS.get(cli_args.command)
    if handler is None:
        print(f"trace_job: not rebuilt: repro {cli_args.command}", file=sys.stderr)
        return 3
    for module in CLI_IMPORTS[cli_args.command]:
        importlib.import_module(module)
    from repro.types import intern_stats

    tr = Tracer(args.job_id)
    nodes_before = intern_stats()["nodes"]
    try:
        with tr.span("job"):
            code = handler(tr, cli_args)
    except Unsupported as exc:
        print(f"trace_job: not rebuilt: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    tr.count("types.intern_nodes_added", intern_stats()["nodes"] - nodes_before)
    sys.stdout.flush()
    _decompress_probe(tr, cli_args)
    tr.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

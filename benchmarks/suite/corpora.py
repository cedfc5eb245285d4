"""Seeded corpora and their oracle answers for the CLI benchmark.

Run as a child process of ``run.py`` (so the launcher never holds a
corpus and its peak RSS stays below every job's)::

    python benchmarks/suite/corpora.py --dir WORK --seed 1 infer-ndjson validate

For each workload it writes the input files under ``WORK/<workload>/``
and a ``manifest.json`` listing one job per input: the ``repro``
arguments, the uncompressed input size, and the expected answer.  The
answers come from the reference path, independent of the code the CLI
runs: documents are parsed by the stdlib ``json`` module, typed one by
one with the seed ``type_of``, merged with the seed ``merge_all``, and
translated with the DOM reference ``schema_aware_translate``.  Inputs
for different workloads build in parallel on at most two worker
processes.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import multiprocessing
import os
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.datasets import (  # noqa: E402
    compress_corpus,
    github_events,
    heterogeneous_collection,
    nyt_articles,
    opendata_catalog,
    tweets,
)
from repro.translation import (  # noqa: E402
    TranslationRun,
    resolve_interned,
    schema_aware_translate,
    write_artifacts,
)
from repro.types import (  # noqa: E402
    AnyType,
    ArrType,
    AtomType,
    Equivalence,
    RecType,
    UnionType,
    merge_all,
    type_of,
    type_to_jsonschema,
    type_to_string,
)

# Documents per input at scale 1.  Sized so one rotation through a
# workload's inputs takes 2-3.5 s of CLI jobs: a 30 s run then gives
# each input at least seven jobs, enough for per-input medians that one
# burst of host contention does not move.
INFER_DOCS = 3000
HETERO_DOCS = 12000  # small documents; grows the intern table
# The ingest sizes keep each --jobs auto input well inside its plan on
# two CPUs at the worker start-up cost run.py pins: the gzip members
# decode in parallel, the github NDJSON folds line-parallel, and the
# 5.6 MB arrays (above the 4 MiB single-document threshold) are planned
# subtree.
INGEST_TWEETS = 4000
INGEST_GITHUB = 6000
ARRAY_EVENTS = 12000
ARRAY_ROTATIONS = 16
TRANSLATE_DOCS = 2000
VALIDATE_DOCS = 600
GZIP_MEMBERS = 16
FLIP_FRACTION = 0.01


def derive_seed(seed: int, label: str) -> int:
    """An input's own seed, so inputs of one run never share documents."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def scaled(count: int, scale: float) -> int:
    return max(2, round(count * scale))


def dumps(document) -> str:
    # Compact and non-ASCII-preserving: byte-identical to repro's own
    # serializer on these corpora, so stream and DOM translation agree.
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)


def write_lines(path: Path, lines) -> int:
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    path.write_bytes(data)
    return len(data)


# ---------------------------------------------------------------------------
# the reference answers
# ---------------------------------------------------------------------------


def oracle_type(lines):
    """The seed inference over stdlib-parsed documents.

    Distinct document types are merged once each: the parametric merge
    is idempotent, so the result equals ``merge_all`` over every type.
    """
    types = dict.fromkeys(type_of(json.loads(line)) for line in lines)
    return merge_all(list(types), Equivalence.KIND)


def infer_stdout(t, documents: int) -> str:
    return f"# {documents} documents, schema size {t.size()}\n{type_to_string(t)}\n"


def translate_reference(lines, t, out: Path) -> None:
    """Write the DOM reference translation's artifacts under ``out``."""
    documents = [json.loads(line) for line in lines]
    report = schema_aware_translate(documents, t)
    run = TranslationRun(
        translation=report,
        inferred=t,
        resolved=resolve_interned(t).resolved,
        equivalence=Equivalence.KIND,
    )
    write_artifacts(run, out)


def _kinds(field_type) -> set:
    members = (
        field_type.members if isinstance(field_type, UnionType) else (field_type,)
    )
    kinds = set()
    for member in members:
        if isinstance(member, AtomType):
            kinds.add("number" if member.tag in ("int", "flt", "num") else member.tag)
        elif isinstance(member, RecType):
            kinds.add("record")
        elif isinstance(member, ArrType):
            kinds.add("array")
        elif isinstance(member, AnyType):
            kinds.add("any")
    return kinds


# A replacement value for each kind a field's schema may not admit.
_FLIPS = (("str", "flipped"), ("number", 17), ("bool", True))


def flip_documents(documents, t, count: int, rng: random.Random) -> list:
    """Flip one top-level field's kind in ``count`` documents, in place.

    Only fields whose inferred type admits none of the replacement's
    kind are flipped, so each flipped document is invalid under the
    schema exported from the clean corpus.  Returns the 0-based indices.
    """
    if not isinstance(t, RecType):
        raise ValueError(f"validate corpora must infer a record, got {type_to_string(t)}")
    flips = {}
    for field in t.fields:
        kinds = _kinds(field.type)
        if "any" in kinds:
            continue
        for kind, value in _FLIPS:
            if kind not in kinds:
                flips[field.name] = value
                break
    chosen: list = []
    for index in rng.sample(range(len(documents)), len(documents)):
        if len(chosen) == count:
            break
        names = [name for name in documents[index] if name in flips]
        if names:
            name = rng.choice(sorted(names))
            documents[index][name] = flips[name]
            chosen.append(index)
    return sorted(chosen)


# ---------------------------------------------------------------------------
# inputs: each task writes its files and returns its jobs
# ---------------------------------------------------------------------------


def _flat(count: int, seed: int) -> list:
    """E22's constant-structure telemetry shape."""
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "user": {"name": f"user-{rng.randint(0, 10**6)}", "verified": bool(i % 7)},
            "score": rng.random() * 100,
            "geo": {"lat": rng.random() * 90, "lon": rng.random() * 180},
            "level": rng.randint(0, 5),
        }
        for i in range(count)
    ]


def _nested(count: int, seed: int) -> list:
    """E22's variable shape: arrays, int|flt drift, a nullable record."""
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "user": {"name": f"user-{rng.randint(0, 10**6)}", "verified": bool(i % 7)},
            "score": rng.random() * 100 if i % 3 else rng.randint(0, 100),
            "geo": (
                {"lat": rng.random() * 90, "lon": rng.random() * 180} if i % 5 else None
            ),
            "tags": ["a", "b", "c"][: rng.randint(0, 3)],
        }
        for i in range(count)
    ]


def _hetero(count: int, seed: int) -> list:
    return heterogeneous_collection(count, kind_noise=0.1, seed=seed)


GENERATORS = {
    "tweets": tweets,
    "github": github_events,
    "nyt": nyt_articles,
    "opendata": opendata_catalog,
    "hetero": _hetero,
    "flat": _flat,
    "nested": _nested,
}


def _lines(generator: str, count: int, seed: int, label: str) -> list:
    documents = GENERATORS[generator](count, seed=derive_seed(seed, label))
    return [dumps(d) for d in documents]


def task_infer(work: Path, seed: int, generator: str, count: int) -> dict:
    lines = _lines(generator, count, seed, f"infer-{generator}")
    path = work / f"{generator}.ndjson"
    size = write_lines(path, lines)
    t = oracle_type(lines)
    return {
        "jobs": [
            {
                "name": generator,
                "argv": ["infer", str(path)],
                "input_bytes": size,
                "check": {"kind": "stdout", "stdout": infer_stdout(t, len(lines))},
            }
        ],
        "sample": lines[0],
    }


def task_ingest_tweets(work: Path, seed: int, count: int) -> dict:
    """One tweets corpus, arriving on stdin and as a multi-member gzip."""
    lines = _lines("tweets", count, seed, "ingest-tweets")
    plain = work / "tweets.ndjson"
    size = write_lines(plain, lines)
    packed = work / "tweets.ndjson.gz"
    compress_corpus(
        packed, lines, member_lines=max(1, -(-len(lines) // GZIP_MEMBERS))
    )
    expected = infer_stdout(oracle_type(lines), len(lines))
    check = {"kind": "stdout", "stdout": expected}
    return {
        "jobs": [
            {"name": "stdin-tweets", "argv": ["infer", "-"], "stdin": str(plain),
             "input_bytes": size, "check": check},
            {"name": "gzip-tweets", "argv": ["infer", str(packed), "--jobs", "auto"],
             "input_bytes": size, "check": check},
        ],
        "sample": lines[0],
    }


class _Decided(Exception):
    """Raised once the splitter's outcome is known, to skip the rest."""


def split_outcome(path: Path):
    """What the subtree splitter does with the one-line file ``path``:
    ``"carved"``, ``"declined"`` (no plan, or its speculative chunks
    failed validation, so the job scans the line serially), or ``None``
    when the line is too small to try.

    Runs ``infer_subtree_text`` in this process, planning as many chunks
    as a ``--jobs auto`` job on all this host's CPUs plans; one process
    types those chunks the way the job's workers would.
    """
    from repro.datasets import open_corpus
    from repro.inference import distributed

    outcomes = []
    original = distributed._subtree_span_type

    def observed(*args, **kwargs):
        carved = original(*args, **kwargs) is not None
        outcomes.append("carved" if carved else "declined")
        raise _Decided

    distributed._subtree_span_type = observed
    try:
        with open_corpus(path) as corpus:
            distributed.infer_subtree_text(
                corpus, processes=1, targets=max(2, distributed.auto_jobs())
            )
    except _Decided:
        pass
    finally:
        distributed._subtree_span_type = original
    return outcomes[0] if outcomes else None


def task_ingest_array(work: Path, seed: int, count: int, outcome: str) -> dict:
    """One huge single-line document: a JSON array of the seed's GitHub
    events that the subtree splitter carves, or one it declines.

    Whether the splitter carves such an array depends on where its
    speculative boundary lands: inside a nested array of records, chunk
    validation fails and the job scans the document serially at about
    twice the time (5 of 12 seeds at 5.6 MB).  The events are rotated
    until the wanted outcome comes up, so every seed measures both
    routes (one task each), and a splitter change that moves either
    shows.  Tiny test scales are too small to split and keep rotation 0.
    """
    events = github_events(count, seed=derive_seed(seed, "ingest-array"))
    path = work / f"github-array-{outcome}.json"
    for attempt in range(ARRAY_ROTATIONS):
        shift = attempt * len(events) // ARRAY_ROTATIONS
        text = dumps(events[shift:] + events[:shift])
        size = write_lines(path, [text])
        if split_outcome(path) in (outcome, None):
            break
    else:
        raise RuntimeError(
            f"no rotation of seed {seed}'s GitHub events array is "
            f"{outcome} by the subtree splitter"
        )
    t = oracle_type([text])
    return {
        "jobs": [
            {"name": f"array-{outcome}",
             "argv": ["infer", str(path), "--jobs", "auto"],
             "input_bytes": size,
             "check": {"kind": "stdout", "stdout": infer_stdout(t, 1)}},
        ],
    }


def task_ingest_parallel(work: Path, seed: int, count: int) -> dict:
    lines = _lines("github", count, seed, "ingest-github")
    path = work / "github.ndjson"
    size = write_lines(path, lines)
    t = oracle_type(lines)
    return {
        "jobs": [
            {"name": "parallel-github",
             "argv": ["infer", str(path), "--jobs", "auto"],
             "input_bytes": size,
             "check": {"kind": "stdout", "stdout": infer_stdout(t, len(lines))}},
        ],
    }


def task_translate(work: Path, seed: int, generator: str, count: int) -> dict:
    lines = _lines(generator, count, seed, f"translate-{generator}")
    path = work / f"{generator}.ndjson"
    size = write_lines(path, lines)
    reference = work / f"{generator}.oracle"
    translate_reference(lines, oracle_type(lines), reference)
    return {
        "jobs": [
            {"name": generator, "argv": ["translate", str(path)],
             "out": str(work / f"{generator}.out"), "input_bytes": size,
             "check": {"kind": "artifacts", "oracle_dir": str(reference)}},
        ],
        "sample": lines[0],
    }


def task_validate(work: Path, seed: int, generator: str, count: int) -> dict:
    documents = GENERATORS[generator](
        count, seed=derive_seed(seed, f"validate-{generator}")
    )
    clean = [dumps(d) for d in documents]
    t = oracle_type(clean)
    schema = work / f"{generator}.schema.json"
    schema.write_text(json.dumps(type_to_jsonschema(t)), encoding="utf-8")
    rng = random.Random(derive_seed(seed, f"flip-{generator}"))
    flipped = flip_documents(
        documents, t, max(1, round(len(documents) * FLIP_FRACTION)), rng
    )
    path = work / f"{generator}.ndjson"
    size = write_lines(path, [dumps(d) for d in documents])
    invalid = [i + 1 for i in flipped]
    sample = next(line for i, line in enumerate(clean) if i not in set(flipped))
    return {
        "jobs": [
            {"name": generator,
             "argv": ["validate", str(path), "--schema", str(schema)],
             "input_bytes": size,
             "check": {"kind": "validate", "invalid_lines": invalid,
                       "summary": f"# {count - len(invalid)}/{count} valid",
                       "exit_code": min(len(invalid), 125)}},
        ],
        "sample": sample,
        "schema": str(schema),
    }


def workload_tasks(workload: str, work: Path, seed: int, scale: float) -> list:
    """``(function, args)`` per input, in the workload's rotation order."""
    n = lambda count: scaled(count, scale)  # noqa: E731
    if workload == "infer-ndjson":
        return [
            (task_infer, (work, seed, "tweets", n(INFER_DOCS))),
            (task_infer, (work, seed, "github", n(INFER_DOCS))),
            (task_infer, (work, seed, "nyt", n(INFER_DOCS))),
            (task_infer, (work, seed, "hetero", n(HETERO_DOCS))),
        ]
    if workload == "infer-ingest":
        return [
            (task_ingest_tweets, (work, seed, n(INGEST_TWEETS))),
            (task_ingest_array, (work, seed, n(ARRAY_EVENTS), "carved")),
            (task_ingest_array, (work, seed, n(ARRAY_EVENTS), "declined")),
            (task_ingest_parallel, (work, seed, n(INGEST_GITHUB))),
        ]
    if workload == "translate-out":
        return [
            (task_translate, (work, seed, name, n(TRANSLATE_DOCS)))
            for name in ("tweets", "github", "flat", "nested")
        ]
    if workload == "validate":
        return [
            (task_validate, (work, seed, name, n(VALIDATE_DOCS)))
            for name in ("tweets", "github", "nyt", "opendata")
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_job(workload: str, work: Path, first: dict) -> dict:
    """The workload's command on a one-document input (for ``setup_s``)."""
    one = work / "one.ndjson"
    write_lines(one, [first["sample"]])
    if workload == "infer-ndjson":
        return {"argv": ["infer", str(one)]}
    if workload == "infer-ingest":
        return {"argv": ["infer", str(one), "--jobs", "auto"]}
    if workload == "translate-out":
        return {"argv": ["translate", str(one)], "out": str(work / "one.out")}
    return {"argv": ["validate", str(one), "--schema", first["schema"]]}


def _run_task(task):
    function, args = task
    return function(*args)


def build(work_dir: Path, seed: int, workloads, scale: float = 1.0) -> dict:
    """Write every workload's inputs and manifest; returns the manifests."""
    # Compile the sources up front, as installing a package does, so no
    # timed job pays for writing bytecode.
    compileall.compile_dir(SRC / "repro", quiet=1)
    processes = min(2, len(os.sched_getaffinity(0)))
    tasks, owners = [], []
    for workload in workloads:
        work = work_dir / workload
        work.mkdir(parents=True, exist_ok=True)
        for task in workload_tasks(workload, work, seed, scale):
            tasks.append(task)
            owners.append(workload)
    if processes > 1:
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes) as pool:
            results = pool.map(_run_task, tasks, chunksize=1)
    else:
        results = [_run_task(task) for task in tasks]
    manifests = {}
    for workload in workloads:
        mine = [r for r, owner in zip(results, owners) if owner == workload]
        manifest = {
            "workload": workload,
            "seed": seed,
            "scale": scale,
            "jobs": [job for result in mine for job in result["jobs"]],
            "setup": setup_job(workload, work_dir / workload, mine[0]),
        }
        (work_dir / workload / "manifest.json").write_text(
            json.dumps(manifest, indent=1), encoding="utf-8"
        )
        manifests[workload] = manifest
    return manifests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    build(args.dir, args.seed, args.workloads, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())

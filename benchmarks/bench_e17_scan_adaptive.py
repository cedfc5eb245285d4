"""E17 — regex-vectorized structural scan, mmap corpora, adaptive scheduling.

Artifact reconstructed: the map-phase throughput of the text→type
pipeline after replacing PR 3's per-character Python dispatch with the
compiled structural scan (phase-specific master regexes + fused
member/element matches), the corpus *load* cost once NDJSON files are
mmap-indexed instead of read-and-split, and the behaviour of the
adaptive scheduler that routes ``--jobs N`` (fixing E16's 0.94–1.01x
parallel rows: the scheduler falls back to a serial fold whenever its
timed-sample cost model says workers would lose).

Three sections, all recorded in ``BENCH_scan.json``:

- **scan**: docs/sec of ``encode_text`` — the PR 3 character machine
  (reconstructed below, driving the *current* shape caches, so the
  comparison isolates the scan itself) vs. ``encode_text`` as it is now
  (the regex scan when this bench was written; the C decoder plus a
  value walk since the scan was deleted; the ``regex_scan`` record keys
  keep their names) — on the generator corpora plus a number-heavy and a
  whitespace-heavy corpus (the shapes where per-character dispatch was
  most expensive);
- **load**: mmap index+decode vs. reading the same file's lines through
  ``read_ndjson_lines`` (line-aligned blocks, each line decoded; the
  ``read_split_seconds`` key keeps its name);
- **adaptive**: serial fold vs. fixed ``--jobs`` pools vs. the adaptive
  scheduler over the mmap corpus, with the plan's decision and reason
  recorded per row.

Timing ratios are asserted only under ``REPRO_BENCH_ASSERT=1`` (wall
clock on shared CI runners is flaky); the identity gates — every path
lands on the interned-identical type — always run.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Optional

from repro.datasets import (
    github_events,
    ndjson_lines,
    nyt_articles,
    open_corpus,
    read_ndjson_lines,
    tweets,
    write_ndjson,
)
from repro.inference.distributed import infer_adaptive_text, infer_distributed_text
from repro.inference.engine import TypeAccumulator
from repro.jsonvalue.lexer import _Scanner
from repro.jsonvalue.parser import JsonParseError
from repro.jsonvalue.serializer import DumpOptions, dumps
from repro.types import Type
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable, global_table

from helpers import RESULTS_DIR, emit, table

SIZES = [10_000, 50_000]
if os.environ.get("REPRO_BENCH_FULL"):
    SIZES.append(100_000)

ASSERT_TIMING = bool(os.environ.get("REPRO_BENCH_ASSERT"))

_WS = " \t\n\r"
_DIGITS = "0123456789"
_NUMBER_START = "-0123456789"
# The PR 3 string probe: one regex search over the candidate span
# decides whether the literal needs the lexer's full decode.
_STRING_SPECIAL = __import__("re").compile("[\x00-\x1f\\\\]").search


# --------------------------------------------------------------------------
# The PR 3 map phase, reconstructed as the baseline: the per-character
# dispatch machine of the old ``encode_text`` (string fast path via
# ``str.find``, digit-at-a-time number walk, per-character whitespace
# skip), driving the *current* encoder's shape caches so the comparison
# isolates the scan.  Valid-input paths only — the bench corpora are
# well-formed; malformed text is the fuzz suite's business.
# --------------------------------------------------------------------------


def _close_record(enc: EventTypeEncoder, keyparts: list, ctypes: list) -> Type:
    """Resolve a closed record through the encoder's shape cache
    (duplicate keys last-wins, as the parser's default policy)."""
    key = tuple(keyparts)
    done = enc._rec_cache.get(key)
    if done is None:
        table = enc.table
        fields: dict = {}
        for name, t in zip(keyparts[0::2], ctypes):
            fields[name] = t
        done = table.rec_of([table.field_of(n, t) for n, t in fields.items()])
        enc._rec_cache[key] = done
    return done


def _close_array(enc: EventTypeEncoder, keyparts: list, ctypes: list) -> Type:
    """Resolve a closed array through the encoder's shape cache."""
    if not ctypes:
        return enc._empty_arr
    key = tuple(keyparts)
    done = enc._arr_cache.get(key)
    if done is None:
        table = enc.table
        done = table.arr_of(table.union_of(ctypes))
        enc._arr_cache[key] = done
    return done


def _pr3_encode_text(enc: EventTypeEncoder, text: str) -> Type:
    int_atom = enc._int
    flt_atom = enc._flt
    str_atom = enc._str
    bool_atom = enc._bool
    null_atom = enc._null
    empty_rec = enc.table.rec_of([])
    find_quote = text.find
    length = len(text)
    pos = 0
    line = 1
    line_start = 0
    scanner: Optional[_Scanner] = None
    stack: list[list] = []
    phase = 0  # 0 value, 1 key, 2 after, 3 key-or-close, 4 value-or-close
    result: Optional[Type] = None
    while True:
        # Inter-token whitespace (tracks line numbers for errors, as the
        # PR 3 machine did on every character).
        while pos < length:
            ch = text[pos]
            if ch == " " or ch == "\t" or ch == "\r":
                pos += 1
            elif ch == "\n":
                pos += 1
                line += 1
                line_start = pos
            else:
                break
        if pos >= length:
            if phase == 2 and not stack:
                assert result is not None
                return result
            raise JsonParseError("unexpected end of input", None)  # pragma: no cover
        if phase == 4:
            if ch == "]":
                pos += 1
                stack.pop()
                completed = enc._empty_arr
                if stack:
                    frame = stack[-1]
                    frame[1].append(id(completed))
                    frame[2].append(completed)
                else:
                    result = completed
                phase = 2
                continue
            phase = 0
        elif phase == 3:
            if ch == "}":
                pos += 1
                stack.pop()
                completed = empty_rec
                if stack:
                    frame = stack[-1]
                    frame[1].append(id(completed))
                    frame[2].append(completed)
                else:
                    result = completed
                phase = 2
                continue
            phase = 1

        if phase == 0:
            if ch == '"':
                end = find_quote('"', pos + 1)
                if end != -1 and _STRING_SPECIAL(text, pos + 1, end) is None:
                    pos = end + 1
                else:
                    if scanner is None:
                        scanner = _Scanner(text)
                    scanner.pos = pos
                    scanner.line = line
                    scanner.line_start = line_start
                    scanner.scan_string()
                    pos = scanner.pos
                completed = str_atom
            elif ch in _NUMBER_START:
                npos = pos
                if ch == "-":
                    npos += 1
                if text[npos] == "0":
                    npos += 1
                else:
                    while npos < length and text[npos] in _DIGITS:
                        npos += 1
                is_float = False
                if npos < length and text[npos] == ".":
                    is_float = True
                    npos += 1
                    while npos < length and text[npos] in _DIGITS:
                        npos += 1
                if npos < length and text[npos] in "eE":
                    is_float = True
                    npos += 1
                    if npos < length and text[npos] in "+-":
                        npos += 1
                    while npos < length and text[npos] in _DIGITS:
                        npos += 1
                pos = npos
                completed = flt_atom if is_float else int_atom
            elif ch == "t":
                pos += 4
                completed = bool_atom
            elif ch == "f":
                pos += 5
                completed = bool_atom
            elif ch == "n":
                pos += 4
                completed = null_atom
            elif ch == "{":
                pos += 1
                stack.append([True, [], []])
                phase = 3
                continue
            else:  # "["
                pos += 1
                stack.append([False, [], []])
                phase = 4
                continue
            if stack:
                frame = stack[-1]
                frame[1].append(id(completed))
                frame[2].append(completed)
            else:
                result = completed
            phase = 2
        elif phase == 1:
            end = find_quote('"', pos + 1)
            if end != -1 and _STRING_SPECIAL(text, pos + 1, end) is None:
                name = text[pos + 1 : end]
                pos = end + 1
            else:
                if scanner is None:
                    scanner = _Scanner(text)
                scanner.pos = pos
                scanner.line = line
                scanner.line_start = line_start
                name = scanner.scan_string().value
                pos = scanner.pos
            stack[-1][1].append(name)
            while pos < length:
                ch = text[pos]
                if ch == " " or ch == "\t" or ch == "\r":
                    pos += 1
                elif ch == "\n":
                    pos += 1
                    line += 1
                    line_start = pos
                else:
                    break
            pos += 1  # ":"
            phase = 0
        else:  # phase == 2
            frame = stack[-1]
            if ch == ",":
                pos += 1
                phase = 1 if frame[0] else 0
            elif ch == "}":
                pos += 1
                stack.pop()
                completed = _close_record(enc, frame[1], frame[2])
                if stack:
                    parent = stack[-1]
                    parent[1].append(id(completed))
                    parent[2].append(completed)
                else:
                    result = completed
            else:  # "]"
                pos += 1
                stack.pop()
                completed = _close_array(enc, frame[1], frame[2])
                if stack:
                    parent = stack[-1]
                    parent[1].append(id(completed))
                    parent[2].append(completed)
                else:
                    result = completed


# --------------------------------------------------------------------------


def _numeric_lines(n: int) -> list[str]:
    rng = random.Random(17)
    return [
        dumps(
            {
                "series": [rng.randint(0, 10**12) for _ in range(40)],
                "metrics": {
                    "mean": rng.random() * 100,
                    "p99": rng.random() * 1000,
                    "count": rng.randint(0, 10**6),
                },
            }
        )
        for _ in range(n)
    ]


def _pretty_lines(n: int) -> list[str]:
    # Indented serialization with the newlines flattened to spaces: the
    # whitespace density of pretty-printed JSON, one document per line.
    return [
        dumps(doc, DumpOptions(indent=2)).replace("\n", " ")
        for doc in tweets(n, seed=17)
    ]


def _time_scan(lines, use_pr3: bool) -> float:
    enc = EventTypeEncoder(InternTable())
    start = time.perf_counter()
    if use_pr3:
        for line in lines:
            _pr3_encode_text(enc, line)
    else:
        encode_text = enc.encode_text
        for line in lines:
            encode_text(line)
    return time.perf_counter() - start


def _bench_scan(rows, records):
    corpora = [("tweets", lambda n: ndjson_lines(tweets(n, seed=17)))]
    corpora.append(("github", lambda n: ndjson_lines(github_events(n, seed=17))))
    corpora.append(("nyt", lambda n: ndjson_lines(nyt_articles(n, seed=17))))
    corpora.append(("numeric", _numeric_lines))
    corpora.append(("pretty", _pretty_lines))
    for name, make in corpora:
        for n in SIZES:
            lines = make(n)
            seconds_pr3 = min(_time_scan(lines, True) for _ in range(2))
            seconds_scan = min(_time_scan(lines, False) for _ in range(2))

            # Identity gate: both scanners produce the same canonical
            # type for the corpus.
            verify = global_table()
            old_enc = EventTypeEncoder(InternTable())
            new_enc = EventTypeEncoder(InternTable())
            acc_old = TypeAccumulator(table=old_enc.table)
            acc_new = TypeAccumulator(table=new_enc.table)
            for line in lines:
                acc_old.add_type(_pr3_encode_text(old_enc, line))
                acc_new.add_type(new_enc.encode_text(line))
            assert verify.canonical(acc_old.result()) is verify.canonical(
                acc_new.result()
            )

            speedup = seconds_pr3 / seconds_scan
            record = {
                "corpus": name,
                "documents": n,
                "docs_per_sec_pr3_chars": round(n / seconds_pr3),
                "docs_per_sec_regex_scan": round(n / seconds_scan),
                "speedup_vs_pr3": round(speedup, 2),
            }
            records.append(record)
            rows.append(
                [
                    name,
                    n,
                    record["docs_per_sec_pr3_chars"],
                    record["docs_per_sec_regex_scan"],
                    f"{speedup:5.2f}x",
                ]
            )
    if ASSERT_TIMING:
        at_50k = [r for r in records if r["documents"] == 50_000]
        assert max(r["speedup_vs_pr3"] for r in at_50k) >= 1.5


def _bench_load(rows, records, tmp_dir):
    n = max(SIZES)
    path = os.path.join(tmp_dir, "corpus.ndjson")
    write_ndjson(path, tweets(n, seed=17))
    size_mb = os.path.getsize(path) / 1e6

    start = time.perf_counter()
    read_lines = read_ndjson_lines(path)
    seconds_read = time.perf_counter() - start

    start = time.perf_counter()
    corpus = open_corpus(path)
    seconds_index = time.perf_counter() - start
    start = time.perf_counter()
    mmap_lines = list(corpus)
    seconds_decode = time.perf_counter() - start
    assert mmap_lines == read_lines  # identity gate
    corpus.close()

    record = {
        "documents": n,
        "file_mb": round(size_mb, 1),
        "read_split_seconds": round(seconds_read, 4),
        "mmap_index_seconds": round(seconds_index, 4),
        "mmap_full_decode_seconds": round(seconds_decode, 4),
        # What the zero-copy feed actually pays in the parent: the
        # index, not the decode.
        "parent_cost_ratio": round(seconds_index / seconds_read, 3),
    }
    records.append(record)
    rows.append(
        [
            n,
            f"{size_mb:6.1f}",
            f"{seconds_read:7.3f}",
            f"{seconds_index:7.3f}",
            f"{seconds_decode:7.3f}",
            f"{record['parent_cost_ratio']:6.3f}",
        ]
    )
    return path


def _bench_adaptive(rows, records, path):
    n = max(SIZES)
    lines = read_ndjson_lines(path)

    def _serial_fold() -> tuple[float, TypeAccumulator]:
        accumulator = TypeAccumulator(table=InternTable())
        add_text = accumulator.add_text
        start = time.perf_counter()
        for line in lines:
            add_text(line)
        return time.perf_counter() - start, accumulator

    seconds_serial, serial_acc = min(
        (_serial_fold() for _ in range(2)), key=lambda pair: pair[0]
    )
    reference = global_table().canonical(serial_acc.result())

    def row(feed, jobs_label, seconds, run=None, plan=None):
        speedup = seconds_serial / seconds
        record = {
            "feed": feed,
            "jobs": jobs_label,
            "documents": n,
            "docs_per_sec": round(n / seconds),
            "speedup_vs_serial": round(speedup, 2),
        }
        if plan is not None:
            record["plan_mode"] = plan.mode
            record["plan_reason"] = plan.reason
        records.append(record)
        rows.append([feed, jobs_label, record["docs_per_sec"], f"{speedup:5.2f}x",
                     plan.mode if plan is not None else "-"])
        if run is not None:
            assert global_table().canonical(run.result) is reference
            assert run.document_count == n

    records.append(
        {
            "feed": "serial",
            "jobs": 1,
            "documents": n,
            "docs_per_sec": round(n / seconds_serial),
            "speedup_vs_serial": 1.0,
        }
    )
    rows.append(["serial", 1, round(n / seconds_serial), " 1.00x", "-"])

    def _timed(fn):
        best_seconds, best_run = None, None
        for _ in range(2):
            start = time.perf_counter()
            outcome = fn()
            elapsed = time.perf_counter() - start
            if best_seconds is None or elapsed < best_seconds:
                best_seconds, best_run = elapsed, outcome
        return best_seconds, best_run

    # Fixed pools and the adaptive scheduler, all over the mmap corpus:
    # workers read their own byte ranges (the one worker transport).
    with open_corpus(path) as corpus:
        for jobs in (2, 4):
            seconds, run = _timed(
                lambda jobs=jobs: infer_distributed_text(
                    corpus, partitions=jobs, processes=jobs
                )
            )
            row("fixed-ranges", jobs, seconds, run=run)
        seconds, run = _timed(lambda: infer_adaptive_text(corpus, jobs=4))
        row("adaptive-mmap", "≤4", seconds, run=run, plan=run.plan)
        seconds, run = _timed(lambda: infer_adaptive_text(corpus, jobs=None))
        row("adaptive-mmap", "auto", seconds, run=run, plan=run.plan)

    if ASSERT_TIMING:
        adaptive = [r for r in records if str(r["feed"]).startswith("adaptive")]
        fixed = [r for r in records if str(r["feed"]).startswith("fixed")]
        # The scheduler's contract: adaptive rows never lose to serial
        # (beyond timing noise), and never lose to the fixed pools it
        # replaced.
        for r in adaptive:
            assert r["speedup_vs_serial"] >= 0.9, r
        if fixed:
            worst_fixed = min(r["speedup_vs_serial"] for r in fixed)
            best_adaptive = max(r["speedup_vs_serial"] for r in adaptive)
            assert best_adaptive >= worst_fixed


def test_e17_scan_adaptive(tmp_path):
    scan_rows: list[list] = []
    scan_records: list[dict] = []
    _bench_scan(scan_rows, scan_records)

    load_rows: list[list] = []
    load_records: list[dict] = []
    corpus_path = _bench_load(load_rows, load_records, str(tmp_path))

    adaptive_rows: list[list] = []
    adaptive_records: list[dict] = []
    _bench_adaptive(adaptive_rows, adaptive_records, corpus_path)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scan.json").write_text(
        json.dumps(
            {
                "experiment": "e17-scan-adaptive",
                "scan_rows": scan_records,
                "load_rows": load_records,
                "adaptive_rows": adaptive_records,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E17-scan-adaptive",
        table(
            ["corpus", "docs", "pr3-chars/s", "regex-scan/s", "speedup"],
            scan_rows,
        )
        + "\n\n"
        + table(
            ["docs", "MB", "read+split s", "mmap index s", "mmap decode s",
             "parent ratio"],
            load_rows,
        )
        + "\n\n"
        + table(["feed", "jobs", "docs/s", "vs serial", "plan"], adaptive_rows),
    )

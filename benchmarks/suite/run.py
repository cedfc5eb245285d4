"""The CLI benchmark: seeded corpora, closed-loop ``repro`` jobs, oracle checks.

::

    python benchmarks/suite/run.py --seed 1 [--out result.json]
    python benchmarks/suite/run.py --workload infer-ndjson --seed 1 --seconds 30 --trace 0

Without ``--workload`` every workload runs, then the traced pass.  With
``--workload W --trace 0`` only W runs and the last stdout line holds
its end-to-end metrics; with ``--trace 1`` the traced pass runs (over
every workload's inputs, so every layer's spans see work) and the last line
holds the per-layer metrics.  The last line is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is non-zero when any output differs from its oracle.

This process is the load generator: one job in flight, each job a fresh
``python -m repro`` process timed from ``Popen`` to ``os.wait4``.  It
imports nothing from ``repro`` and never holds a corpus, because a
child's ``ru_maxrss`` starts at its parent's high-water mark: the
corpora and their oracle answers are built by ``corpora.py`` in a child
process.  Job times are reported at a reference host speed (see
``HostSpeed``).  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("infer-ndjson", "infer-ingest", "translate-out", "validate")

END_TO_END = {
    "mb_per_s": "MB/s",
    "job_p50_s": "s",
    "job_p75_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.overhead_s": "s",
    "datasets.open_s": "s",
    "datasets.decompress_s": "s",
    "datasets.decompress_mb_per_s": "MB/s",
    "types.encode_lines_s": "s",
    "types.line_cache_attempts": "count",
    "types.line_cache_hit_ratio": "fraction",
    "types.intern_nodes_added": "count",
    "types.render_s": "s",
    "inference.merge_s": "s",
    "inference.str_fold_s": "s",
    "inference.plan_s": "s",
    "inference.plans_serial": "count",
    "inference.plans_parallel": "count",
    "inference.plans_subtree": "count",
    "inference.workers_s": "s",
    "inference.parallel_fallbacks": "count",
    "translation.resolve_s": "s",
    "translation.compile_s": "s",
    "translation.stream_s": "s",
    "translation.delegated_docs": "count",
    "translation.delegation_ratio": "fraction",
    "translation.fallback_columns": "count",
    "translation.write_s": "s",
    "translation.write_mb": "MB",
    "jsonvalue.parse_s": "s",
    "jsonschema.compile_s": "s",
    "jsonschema.validate_s": "s",
    "jsonschema.invalid_docs": "count",
    "trace.overhead_frac": "fraction",
}

# Counters the traced jobs record under the metric's own name.
_COUNTS = (
    "types.line_cache_attempts",
    "types.intern_nodes_added",
    "inference.plans_serial",
    "inference.plans_parallel",
    "inference.plans_subtree",
    "inference.parallel_fallbacks",
    "translation.delegated_docs",
    "translation.fallback_columns",
    "jsonschema.invalid_docs",
)

JOB_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 150


class Job:
    """One finished process: wall time, peak RSS, exit code, output.

    ``seconds`` is the wall time at the reference host speed
    (``HostSpeed``); it equals ``wall`` until a ``Runner`` scales it.
    """

    __slots__ = ("wall", "seconds", "rss_mb", "code", "stdout", "stderr")

    def __init__(self, wall, rss_mb, code, stdout, stderr):
        self.wall = self.seconds = wall
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv, *, stdin=None, env=None, capture_dir=None) -> Job:
    """Run ``argv`` to completion, timed from ``Popen`` to ``wait4``.

    ``rss_mb`` is the child's own ``ru_maxrss`` from ``os.wait4``, which
    covers the workers it reaped.  Output goes to files, so no reader
    thread runs while the job does.  A job past ``JOB_TIMEOUT_S`` is
    killed with its whole process group, workers included.
    """
    capture = Path(capture_dir) if capture_dir is not None else None
    out_path = capture / "stdout" if capture else None
    err_path = capture / "stderr" if capture else None
    with open(stdin or os.devnull, "rb") as fin, \
            open(out_path or os.devnull, "wb") as fout, \
            open(err_path or os.devnull, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=env,
                                start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
        code=proc.returncode,
        stdout=out_path.read_bytes() if out_path else b"",
        stderr=err_path.read_bytes() if err_path else b"",
    )


# The reference loop: fixed pure-Python work, and its time on an idle CPU
# of the host the bounds in BENCHMARK.json were set on (a 2-vCPU Xeon VM
# running CPython 3.11).
REFERENCE_ITERATIONS = 150_000
REFERENCE_S = 0.0115


def reference_loop() -> float:
    """Seconds the reference loop takes on the CPU this process runs on."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Each CPU's current speed, timed with the reference loop.

    On a shared host, neighbours slow each vCPU by up to 2.2x, in bursts
    of seconds and independently of the other vCPU, and a job slows with
    the CPUs it runs on.  The loop is timed on every CPU after each job
    (which serves as the next job's "before"), a job that starts no
    workers runs on the fastest CPU (timed again just before the job),
    and the job's wall time is scaled by ``REFERENCE_S`` over the loop's
    mean time on the job's CPUs before and after it.  Over ten 30 s runs
    of each workload this cut the spread of the median job time from
    6-30% to 2-12%, and it keeps a slow hour from reading as a
    regression.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.latest = self.measure()

    def measure(self, cpus=None) -> dict:
        """The reference loop's time on each of ``cpus`` (default: all)."""
        times = {}
        try:
            for cpu in cpus or self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = reference_loop()
        finally:
            os.sched_setaffinity(0, self.cpus)
        return times

    def run(self, argv, *, workers: bool, **kwargs) -> Job:
        """``launch`` with the job placed and timed as described above."""
        if workers:
            cpus = self.cpus
            before = self.latest
        else:
            cpus = [min(self.latest, key=self.latest.get)]
            # Chosen as the lowest of noisy readings, the fastest CPU's
            # latest time reads low: time it afresh for this job.
            before = self.measure(cpus)
        os.sched_setaffinity(0, cpus)  # the child inherits it
        try:
            result = launch(argv, **kwargs)
        finally:
            os.sched_setaffinity(0, self.cpus)
        after = self.latest = self.measure()
        loop = statistics.fmean([before[c] for c in cpus] + [after[c] for c in cpus])
        result.seconds = result.wall * REFERENCE_S / loop
        return result


# Worker start-up cost the scheduler assumes in measured and traced jobs:
# what a 2-vCPU host measures when idle.  Pinned so each input gets the
# same plan in every run; one start-up measurement taken under a busy
# neighbour would otherwise flip the gzip and huge-array inputs between
# serial and parallel plans from one run to the next.
WORKER_STARTUP_S = "0.005"

# glibc's default mmap threshold, fixed.  Left to slide, it moved a
# translate job's peak RSS between 44.2 and 46.8 MB with nothing changed
# but the length of the input file's path.
MALLOC_MMAP_THRESHOLD = "131072"


def job_env(profile: Path, *, pinned: bool = True) -> dict:
    """The job environment: this checkout's sources, a scheduler profile
    inside the work directory, no ``REPRO_*`` settings from the caller,
    a fixed allocator mmap threshold, and (unless ``pinned`` is false)
    the pinned worker start-up cost."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["MALLOC_MMAP_THRESHOLD_"] = MALLOC_MMAP_THRESHOLD
    env["REPRO_SCHED_PROFILE"] = str(profile)
    if pinned:
        env["REPRO_WORKER_STARTUP_SECONDS"] = WORKER_STARTUP_S
    return env


class Runner:
    """Runs one manifest's jobs inside a work directory."""

    def __init__(self, work: Path, speed: HostSpeed) -> None:
        self.work = work
        self.speed = speed
        self.profile = work / "sched" / "sched.json"
        self.capture = work / "capture"
        self.capture.mkdir(parents=True, exist_ok=True)

    def _run(self, argv, job: dict, env: dict) -> Job:
        return self.speed.run(argv, workers="--jobs" in job["argv"],
                              stdin=job.get("stdin"), env=env,
                              capture_dir=self.capture)

    def _out_dir(self, job: dict, suffix: str = ""):
        if "out" not in job:
            return None
        out = Path(job["out"] + suffix)
        shutil.rmtree(out, ignore_errors=True)
        return out

    def cli(self, job: dict, *, cold_profile: Path = None) -> tuple:
        """One ``python -m repro`` job; returns ``(Job, out_dir)``.

        A ``cold_profile`` runs the job as a first start on a machine:
        that (empty) scheduler profile and no pinned calibration.
        """
        out = self._out_dir(job)
        argv = [sys.executable, "-m", "repro", *job["argv"]]
        if out is not None:
            argv += ["--out", str(out)]
        if cold_profile is None:
            env = job_env(self.profile)
        else:
            env = job_env(cold_profile, pinned=False)
        return self._run(argv, job, env), out

    def traced(self, job: dict, spans: Path) -> tuple:
        """The same job through ``trace_job.py``; returns ``(Job, out_dir)``."""
        out = self._out_dir(job, ".trace")
        argv = [sys.executable, str(SUITE / "trace_job.py"), "--spans", str(spans),
                "--job-id", spans.stem, "--", *job["argv"]]
        if out is not None:
            argv += ["--out", str(out)]
        return self._run(argv, job, job_env(self.profile)), out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def same_files(left, right) -> bool:
    """Two directories hold the same file names with the same bytes.

    Compared in chunks by ``filecmp``: reading whole artifacts (or
    loading a hashing library) would raise this process's RSS, which is
    the floor under every job's ``ru_maxrss``.
    """
    if left is None or right is None:
        return False
    if not (os.path.isdir(left) and os.path.isdir(right)):
        return False
    names = sorted(os.listdir(left))
    if names != sorted(os.listdir(right)):
        return False
    return all(
        filecmp.cmp(os.path.join(left, n), os.path.join(right, n), shallow=False)
        for n in names
    )


def same_output(job: dict, a: Job, a_out, b: Job, b_out) -> bool:
    """Two runs of a job produced the same result: exit code, and stdout
    or (for a translate job, whose stdout names its output directory)
    the artifact files."""
    if a.code != b.code:
        return False
    if job["check"]["kind"] == "artifacts":
        return same_files(a_out, b_out)
    return a.stdout == b.stdout


def check(job: dict, result: Job, out) -> str:
    """Compare a job's output with the oracle; '' when it matches."""
    expect = job["check"]
    kind = expect["kind"]
    code = expect.get("exit_code", 0)
    if result.code != code:
        tail = result.stderr.decode("utf-8", "replace").strip()[-300:]
        return f"exit code {result.code}, expected {code}: {tail}"
    if kind == "stdout":
        if result.stdout.decode("utf-8", "replace") != expect["stdout"]:
            return "stdout differs from the oracle's type"
    elif kind == "artifacts":
        if not same_files(out, expect["oracle_dir"]):
            return "artifacts differ from the DOM reference translation"
    elif kind == "validate":
        lines = result.stdout.decode("utf-8", "replace").splitlines()
        invalid = [
            int(line.split(":", 1)[0][len("line "):])
            for line in lines
            if line.startswith("line ") and ": INVALID" in line
        ]
        if invalid != expect["invalid_lines"]:
            return f"invalid lines {invalid}, expected {expect['invalid_lines']}"
        if not lines or lines[-1] != expect["summary"]:
            return f"summary {lines[-1:]!r}, expected {expect['summary']!r}"
    else:
        return f"unknown check {kind!r}"
    return ""


# ---------------------------------------------------------------------------
# end-to-end: set-up time and the closed loop
# ---------------------------------------------------------------------------


def _p75(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def run_loop(runner: Runner, manifest: dict, seconds: float) -> dict:
    """Rotate through the inputs, one job in flight, for ``seconds``.

    Whole rotations only, so every input has the same number of jobs;
    a rotation that would end past the deadline is not started.  Each
    rotation opens with a cold start (``setup``): the workload's command
    on a one-document input with a fresh, empty scheduler profile, so
    set-up time is sampled across the run as the jobs are.  The first
    cold start's profile becomes the run's, as a machine keeps the
    profile it measured once.  The bytecode cache is already warm:
    ``corpora.py`` compiles the sources, as installing a package does.
    """
    jobs = manifest["jobs"]
    results = {job["name"]: [] for job in jobs}
    last, errors, setup = {}, [], []
    deadline = time.perf_counter() + seconds
    rotations = 0
    while True:
        started = time.perf_counter()
        cold = runner.work / "cold" / str(rotations) / "sched.json"
        result, _ = runner.cli(manifest["setup"], cold_profile=cold)
        setup.append(result)
        if result.code != 0:
            errors.append(f"{manifest['workload']}/setup: exit code {result.code}: "
                          f"{result.stderr.decode('utf-8', 'replace')[-300:]}")
        if not runner.profile.exists() and cold.exists():
            runner.profile.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(cold, runner.profile)
        for job in jobs:
            result, out = runner.cli(job)
            results[job["name"]].append(result)
            last[job["name"]] = (result, out)
            error = check(job, result, out)
            if error:
                errors.append(f"{manifest['workload']}/{job['name']}: {error}")
        rotations += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    return {"results": results, "last": last, "errors": errors,
            "setup": setup, "rotations": rotations}


def end_to_end(manifest: dict, loop: dict) -> dict:
    """The workload's end-to-end metrics from its jobs' times at the
    reference host speed.

    Percentiles are taken per input and then averaged, so a run that
    ends one rotation earlier cannot move a percentile from one input's
    jobs to another's.  Whole rotations give every input the same number
    of jobs, so ``mb_per_s`` (all input bytes over all job time) weighs
    the inputs alike.
    """
    seconds = {name: [r.seconds for r in rs] for name, rs in loop["results"].items()}
    input_bytes = sum(job["input_bytes"] * len(seconds[job["name"]])
                      for job in manifest["jobs"])
    rss = [r.rss_mb for rs in loop["results"].values() for r in rs]
    values = {
        "mb_per_s": input_bytes / sum(map(sum, seconds.values())) / 1e6,
        "job_p50_s": statistics.fmean(map(statistics.median, seconds.values())),
        "job_p75_s": statistics.fmean(map(_p75, seconds.values())),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(r.seconds for r in loop["setup"]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def run_workload(manifest: dict, work: Path, seconds: float, speed: HostSpeed) -> tuple:
    """The closed loop and the workload's end-to-end metrics.

    Returns the workload's record and, per input, its last CLI job, that
    job's output directory and the input's median job time: the
    reference a traced rebuild is checked and timed against.
    """
    runner = Runner(work, speed)
    loop = run_loop(runner, manifest, seconds)
    attempted = len(loop["setup"]) + sum(len(rs) for rs in loop["results"].values())
    failed = len(loop["errors"])
    reference = {
        name: (result, out, statistics.median(r.seconds for r in loop["results"][name]))
        for name, (result, out) in loop["last"].items()
    }
    return {
        "metrics": end_to_end(manifest, loop),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": loop["errors"],
        "rotations": loop["rotations"],
        "setup": {"seconds": [r.seconds for r in loop["setup"]],
                  "wall_s": [r.wall for r in loop["setup"]]},
        "inputs": {
            job["name"]: {
                "input_bytes": job["input_bytes"],
                "seconds": [r.seconds for r in loop["results"][job["name"]]],
                "wall_s": [r.wall for r in loop["results"][job["name"]]],
                "rss_mb": [r.rss_mb for r in loop["results"][job["name"]]],
            }
            for job in manifest["jobs"]
        },
    }, reference


# ---------------------------------------------------------------------------
# per-layer: the traced pass
# ---------------------------------------------------------------------------


def self_times(trace: dict) -> tuple:
    """``(self seconds by span name, root seconds, probe seconds)``.

    A span's self time is its duration minus its children's; spans of
    one job never overlap, so the children's durations simply add.
    """
    spans = trace["spans"]
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    own = defaultdict(float)
    root = probe = 0.0
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        own[span["name"]] += duration - children[index]
        if span["parent"] is None:
            if span["probe"]:
                probe += duration
            else:
                root += duration
    return own, root, probe


def layer_metrics(traces) -> dict:
    """Per-layer metrics from ``(trace, traced Job, untraced seconds)``
    triples, summed over the jobs.

    ``cli.overhead_s`` is the traced process's wall time outside its
    root and probe spans: interpreter start, imports, argument parsing
    and exit, which the root span (opened after the imports) leaves out.
    ``trace.overhead_frac`` compares times at the reference host speed.
    """
    times = defaultdict(float)
    counts = defaultdict(float)
    overhead = traced = untraced = 0.0
    for trace, job, untraced_seconds in traces:
        own, root, probe = self_times(trace)
        for name, seconds in own.items():
            times[name] += seconds
        for name, value in trace["counts"].items():
            counts[name] += value
        overhead += job.wall - root - probe
        traced += job.seconds * (1 - probe / job.wall)
        untraced += untraced_seconds
    values = {name: counts[name] for name in _COUNTS}
    for name in PER_LAYER:
        if name.endswith("_s") and name != "cli.overhead_s":
            values[name] = times[name[:-2]]
    decompress = times["datasets.decompress"]
    attempts = counts["types.line_cache_attempts"]
    documents = counts["translation.documents"]
    values.update({
        "cli.overhead_s": overhead,
        "datasets.decompress_mb_per_s": (
            counts["datasets.decompress_bytes"] / 1e6 / decompress if decompress else 0.0
        ),
        "types.line_cache_hit_ratio": (
            counts["types.line_cache_hits"] / attempts if attempts else 0.0
        ),
        "translation.delegation_ratio": (
            counts["translation.delegated_docs"] / documents if documents else 0.0
        ),
        "translation.write_mb": counts["translation.write_bytes"] / 1e6,
        "trace.overhead_frac": traced / untraced - 1 if untraced else 0.0,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def trace_pass(manifests: dict, work: Path, speed: HostSpeed, references=None) -> dict:
    """Run every input once through ``trace_job.py``.

    The traced job must produce exactly what the CLI job produced.
    ``references`` (workload → the reference ``run_workload`` returns)
    reuses a measured loop's jobs; otherwise each input also runs once
    untraced and is checked against its oracle.
    """
    by_workload, all_traces, errors = {}, [], []
    attempted = 0
    for workload, manifest in manifests.items():
        runner = Runner(work / workload, speed)
        (runner.work / "spans").mkdir(parents=True, exist_ok=True)
        traces = []
        for job in manifest["jobs"]:
            name = f"{workload}/{job['name']}"
            known = (references or {}).get(workload, {}).get(job["name"])
            if known is None:
                result, out = runner.cli(job)
                attempted += 1
                error = check(job, result, out)
                if error:
                    errors.append(f"{name}: {error}")
                known = (result, out, result.seconds)
            spans = runner.work / "spans" / f"{workload}-{job['name']}.json"
            result, out = runner.traced(job, spans)
            attempted += 1
            if result.code == 3 or not spans.exists():
                errors.append(f"{name}: trace job failed: "
                              f"{result.stderr.decode('utf-8', 'replace')[-300:]}")
                continue
            if not same_output(job, known[0], known[1], result, out):
                errors.append(f"{name}: traced output differs from the CLI's")
            trace = json.loads(spans.read_text(encoding="utf-8"))
            traces.append((trace, result, known[2]))
        by_workload[workload] = layer_metrics(traces)
        all_traces.extend(traces)
    return {
        "metrics": layer_metrics(all_traces),
        "by_workload": by_workload,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_corpora(work: Path, seed: int, workloads, scale: float) -> dict:
    """Generate inputs and oracles in a child process (see corpora.py)."""
    subprocess.run(
        [sys.executable, str(SUITE / "corpora.py"), "--dir", str(work),
         "--seed", str(seed), "--scale", str(scale), *workloads],
        env=job_env(work / "sched.json"),
        check=True,
        timeout=BUILD_TIMEOUT_S,
    )
    return {
        w: json.loads((work / w / "manifest.json").read_text(encoding="utf-8"))
        for w in workloads
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_workload(name: str, record: dict) -> None:
    print(f"== {name}: {record['rotations']} rotations, {record['attempted']} jobs, "
          f"error_rate {record['error_rate']:.4g}")
    print(f"  {'input':<22}{'jobs':>5}{'MB':>9}{'p50 s':>9}{'p75 s':>9}"
          f"{'wall p50':>10}{'rss MB':>9}")
    for input_name, data in record["inputs"].items():
        seconds = data["seconds"]
        print(f"  {input_name:<22}{len(seconds):>5}{data['input_bytes'] / 1e6:>9.2f}"
              f"{statistics.median(seconds):>9.3f}{_p75(seconds):>9.3f}"
              f"{statistics.median(data['wall_s']):>10.3f}{max(data['rss_mb']):>9.1f}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<22}{_fmt(entry['value']):>12} {entry['unit']}")


def print_layers(trace: dict) -> None:
    workloads = list(trace["by_workload"])
    print("== per-layer (traced pass; self times and counts summed over inputs)")
    header = "".join(f"{w:>15}" for w in workloads)
    print(f"  {'metric':<30}{header}{'total':>15}  unit")
    for metric, entry in trace["metrics"].items():
        cells = "".join(
            f"{_fmt(trace['by_workload'][w][metric]['value']):>15}" for w in workloads
        )
        print(f"  {metric:<30}{cells}{_fmt(entry['value']):>15}  {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, then the traced pass)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30,
                        help="closed-loop time per workload (at least one rotation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 = end-to-end run, 1 = traced pass")
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor (tests use tiny corpora)")
    parser.add_argument("--workdir", type=Path,
                        help="work directory (default: .bench_work/<pid>, removed after)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    work = args.workdir or ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    run_e2e = args.workload is None or args.trace != 1
    run_trace = args.workload is None or args.trace == 1
    if args.workload is not None and run_e2e:
        workloads = (args.workload,)
    else:
        workloads = WORKLOADS
    manifests = build_corpora(work, args.seed, workloads, args.scale)

    result = {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
              "workloads": {}}
    errors, attempted, references = [], 0, {}
    speed = HostSpeed()
    if run_e2e:
        for workload in workloads:
            record, references[workload] = run_workload(
                manifests[workload], work / workload, args.seconds, speed
            )
            result["workloads"][workload] = record
            print_workload(workload, record)
            errors += record["errors"]
            attempted += record["attempted"]
    if run_trace:
        trace = trace_pass(manifests, work, speed, references)
        result["per_layer"] = trace
        print_layers(trace)
        errors += trace["errors"]
        attempted += trace["attempted"]

    for error in errors:
        print(f"FAILED {error}")
    if args.workload is None:
        metrics = {f"{w}.{m}": v for w, r in result["workloads"].items()
                   for m, v in r["metrics"].items()}
        metrics.update(result["per_layer"]["metrics"])
    elif run_e2e:
        metrics = result["workloads"][args.workload]["metrics"]
    else:
        metrics = result["per_layer"]["metrics"]
    summary = {"correct": not errors, "attempted": attempted,
               "failed": len(errors), "metrics": metrics}
    if args.out is not None:
        args.out.write_text(json.dumps({**result, "summary": summary}, indent=1),
                            encoding="utf-8")
    print(json.dumps(summary))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the CLI benchmark: tiny corpora, one job per input.

Runs ``run.py`` end to end (every workload, then the traced pass) and
checks the reported metric names against ``BENCHMARK.json``, that every
output matches its oracle and every traced rebuild matches its CLI job,
the failure accounting, and the lean launcher.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
if str(SUITE) not in sys.path:
    sys.path.insert(0, str(SUITE))

import run  # noqa: E402


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("suite")
    out = base / "result.json"
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--seed", "1", "--seconds", "0",
         "--scale", "0.004", "--workdir", str(base / "work"), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc, json.loads(out.read_text(encoding="utf-8")), base / "work"


def test_every_metric_is_reported_and_traces_match_the_cli(tiny_run):
    proc, result, _ = tiny_run
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER
    for workload in run.WORKLOADS:
        record = result["workloads"][workload]
        assert list(record["metrics"]) == list(run.END_TO_END)
        assert record["error_rate"] == 0, record["errors"]
        assert {len(i["wall_s"]) for i in record["inputs"].values()} == {1}
    trace = result["per_layer"]
    # Every traced rebuild reproduced its CLI job's output.
    assert trace["failed"] == 0, trace["errors"]
    assert list(trace["metrics"]) == list(run.PER_LAYER)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_a_corrupted_oracle_counts_in_error_rate(tiny_run):
    _, _, work = tiny_run
    manifest_path = work / "infer-ndjson" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["jobs"] = manifest["jobs"][:1]
    manifest["jobs"][0]["check"]["stdout"] += "corrupted"
    record, _ = run.run_workload(manifest, work / "infer-ndjson", 0, run.HostSpeed())
    # One rotation: a cold start (correct) and the corrupted job.
    assert record["attempted"] == 2
    assert record["failed"] == 1
    assert record["error_rate"] == 0.5


def test_a_lean_launcher_measures_a_bare_interpreter_under_30_mb():
    # Launched from a fresh interpreter: a child's ru_maxrss starts at
    # its parent's high-water mark, and this test process is large.
    code = "import run, sys; print(run.launch([sys.executable, '-c', 'pass']).rss_mb)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=SUITE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 30

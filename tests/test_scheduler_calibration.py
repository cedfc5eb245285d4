"""Tests for the persisted scheduler calibration and the plans that
consume it (`repro.inference.calibration` /
`repro.inference.distributed`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.inference import calibration as calibration_module
from repro.inference import distributed as distributed_module
from repro.inference.distributed import plan_schedule
from repro.datasets import (
    compress_corpus,
    ndjson_lines,
    open_corpus,
    tweets,
    write_ndjson,
)


@pytest.fixture()
def fresh_profile(tmp_path, monkeypatch):
    """Point the profile at a fresh path and drop the process cache."""
    path = tmp_path / "sched.json"
    monkeypatch.setenv("REPRO_SCHED_PROFILE", str(path))
    monkeypatch.delenv("REPRO_WORKER_STARTUP_SECONDS", raising=False)
    calibration_module._LOADED.clear()
    yield path
    calibration_module._LOADED.clear()


@pytest.fixture()
def many_cpus(monkeypatch):
    monkeypatch.setattr(distributed_module, "auto_jobs", lambda: 8)
    return 8


class TestCalibrationProfile:
    def test_profile_file_is_loaded_not_remeasured(self, fresh_profile):
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 0.5}))
        assert calibration_module.load_calibration() == (0.5, "profile")
        assert calibration_module.worker_startup_seconds() == 0.5
        assert calibration_module.calibration_source() == "profile"

    @pytest.mark.parametrize(
        "extra",
        [{}, {"ship_bytes_per_second": 150e6}],
        ids=["current", "older-with-shipping-rate"],
    )
    def test_profiles_load_with_or_without_a_shipping_rate(
        self, fresh_profile, extra
    ):
        """Profiles written before the shipping rate was dropped carry
        it; both they and current ones load as the profile."""
        fresh_profile.write_text(
            json.dumps({"worker_startup_seconds": 0.5, **extra})
        )
        assert calibration_module.load_calibration() == (0.5, "profile")

    def test_missing_profile_measures_once_and_persists(self, fresh_profile):
        startup, source = calibration_module.load_calibration()
        assert source == "measured"
        assert startup > 0
        assert fresh_profile.exists()
        record = json.loads(fresh_profile.read_text())
        assert record["worker_startup_seconds"] == startup
        assert "ship_bytes_per_second" not in record
        # a second load (fresh cache) reads the persisted file
        calibration_module._LOADED.clear()
        assert calibration_module.load_calibration() == (startup, "profile")

    def test_malformed_profile_falls_back_to_defaults(self, fresh_profile):
        fresh_profile.write_text("{not json")
        assert calibration_module.load_calibration() == (
            calibration_module.DEFAULT_WORKER_STARTUP_SECONDS,
            "default",
        )
        # the hand-broken file is not silently overwritten
        assert fresh_profile.read_text() == "{not json"

    def test_saved_profile_records_every_constant(self, fresh_profile):
        assert calibration_module.save_calibration(0.25, fresh_profile)
        record = json.loads(fresh_profile.read_text())
        assert list(record) == ["worker_startup_seconds", "source", "measured_at"]
        assert [record["worker_startup_seconds"], record["source"]] == [
            0.25, "measured",
        ]
        assert [p.name for p in fresh_profile.parent.iterdir()] == ["sched.json"]

    def test_a_failed_write_leaves_the_previous_profile(
        self, fresh_profile, monkeypatch
    ):
        """A profile write that dies midway (a crash, a full disk) must
        not leave a truncated profile, which would load as the default
        on every later run without re-measuring."""
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 0.5}))
        write_text = Path.write_text

        def torn_write(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write)
        assert not calibration_module.save_calibration(0.25, fresh_profile)
        assert calibration_module.load_calibration() == (0.5, "profile")
        assert [p.name for p in fresh_profile.parent.iterdir()] == ["sched.json"]

    def test_negative_profile_startup_rejected(self, fresh_profile):
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": -1}))
        assert calibration_module.load_calibration()[1] == "default"

    def test_env_overrides_beat_the_profile(self, fresh_profile, monkeypatch):
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 0.5}))
        monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0.25")
        assert calibration_module.worker_startup_seconds() == 0.25
        assert calibration_module.calibration_source() == "env"
        # the profile is never read while the override is set
        assert not calibration_module._LOADED

    def test_measure_calibration_is_sane(self):
        assert 0 < calibration_module.measure_calibration() < 30


def _plan_lines(tmp_path, lines, **kwargs):
    """``plan_schedule`` over ``lines`` written to a mapped corpus file."""
    path = tmp_path / "lines.ndjson"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with open_corpus(path) as corpus:
        return plan_schedule(corpus, **kwargs)


class TestPlanConsumesCalibration:
    def test_plan_records_profile_source(self, fresh_profile, many_cpus, tmp_path):
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 0.0}))
        lines = ndjson_lines(tweets(400, seed=3)) * 25  # 10k docs
        plan = _plan_lines(tmp_path, lines, jobs=4)
        assert plan.calibration_source == "profile"
        assert plan.mode == "parallel"  # zero startup: workers always win

    def test_profile_startup_changes_the_decision(
        self, fresh_profile, many_cpus, tmp_path
    ):
        # A machine profile with pathological startup cost forces serial.
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 3600.0}))
        lines = ndjson_lines(tweets(200, seed=3))
        plan = _plan_lines(tmp_path, lines, jobs=4)
        assert plan.mode == "serial"
        assert plan.calibration_source == "profile"

    def test_corpus_sampling_is_bytes_native(self, fresh_profile, many_cpus, tmp_path):
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 0.0}))
        path = tmp_path / "corpus.ndjson"
        write_ndjson(path, tweets(2000, seed=5))
        with open_corpus(path) as corpus:
            plan = plan_schedule(corpus, jobs=2)
            assert plan.sample_docs_per_sec > 0
            assert plan.documents == 2000


# ---------------------------------------------------------------------------
# the bytes rates are constants: pinned start-up plans without a profile
# ---------------------------------------------------------------------------


def _huge_document(tmp_path) -> Path:
    """One single-line document over the subtree mode's 4 MiB floor."""
    path = tmp_path / "huge.json"
    rows = [{"id": i, "name": "x" * 40, "tags": ["a", "b"]} for i in range(60000)]
    path.write_text(json.dumps({"rows": rows}) + "\n", encoding="utf-8")
    return path


def _gzip_members(tmp_path) -> Path:
    """A 16-member gzip corpus of 2,000 tweets."""
    path = tmp_path / "tweets.ndjson.gz"
    lines = ndjson_lines(tweets(400, seed=3)) * 5
    assert compress_corpus(path, lines, member_lines=125) == 16
    return path


_PLAN_BOTH = textwrap.dedent("""
    import sys
    from repro.datasets import open_corpus
    from repro.inference import distributed

    distributed.auto_jobs = lambda: 4
    with open_corpus(sys.argv[1]) as corpus:
        huge = distributed.plan_schedule(corpus, jobs=4)
    packed = distributed.plan_compressed_schedule(sys.argv[2], jobs=4)
    print(huge.mode, huge.calibration_source, packed.calibration_source,
          "multiprocessing" in sys.modules)
""")


def test_pinned_startup_plans_without_measuring(tmp_path):
    """With the start-up pinned and no profile, planning a huge document
    and a multi-member gzip corpus reads only constants: no measuring
    worker starts (so ``multiprocessing`` stays unloaded) and no profile
    is written.  Runs in a fresh interpreter, which is what is under
    test."""
    profile = tmp_path / "cache" / "sched.json"
    src = Path(distributed_module.__file__).resolve().parents[2]
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "REPRO_SCHED_PROFILE": str(profile),
        "REPRO_WORKER_STARTUP_SECONDS": "0.005",
    }
    done = subprocess.run(
        [sys.executable, "-c", _PLAN_BOTH, str(_huge_document(tmp_path)),
         str(_gzip_members(tmp_path))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # Both sources reached the cost model ("env" is its start-up's source).
    assert done.stdout.split() == ["subtree", "env", "env", "False"]
    assert not profile.exists()
    assert not profile.parent.exists()


# A profile as earlier versions wrote it: the start-up, its source and
# three bytes rates (at the values every measurement wrote), which no
# plan reads any more.
_EARLIER_PROFILE = {
    "worker_startup_seconds": 0.001,
    "source": "measured",
    "scan_bytes_per_second": 80e6,
    "split_bytes_per_second": 2e9,
    "decompress_bytes_per_second": 250e6,
    "measured_at": "2026-01-01T00:00:00",
}


class TestEarlierProfileKeepsThePlans:
    """A profile with the retired rate keys loads as the profile, and the
    plans priced from it keep their modes, jobs and estimates: the
    constants are the rates earlier versions read from it."""

    @pytest.fixture(autouse=True)
    def _earlier_profile(self, fresh_profile, many_cpus):
        fresh_profile.write_text(json.dumps(_EARLIER_PROFILE))

    def test_loads_as_the_profile(self):
        assert calibration_module.load_calibration() == (0.001, "profile")

    def test_huge_document_plan(self, tmp_path):
        with open_corpus(_huge_document(tmp_path)) as corpus:
            total = corpus.size_bytes
            plan = plan_schedule(corpus, jobs=4)
        assert (plan.mode, plan.jobs, plan.calibration_source) == (
            "subtree", 4, "profile",
        )
        assert plan.estimated_serial_seconds == pytest.approx(total / 80e6)
        assert plan.estimated_parallel_seconds == pytest.approx(
            0.001 * 4 + total / 2e9 + total / 80e6 / 4
        )

    def test_gzip_members_plan(self, tmp_path):
        from repro.datasets.compressed import estimate_ratio

        path = _gzip_members(tmp_path)
        total = os.path.getsize(path) * estimate_ratio(path, "gzip")
        plan = distributed_module.plan_compressed_schedule(path, jobs=4)
        assert (plan.mode, plan.jobs, plan.calibration_source) == (
            "parallel", 4, "profile",
        )
        serial = total / 250e6 + total / 80e6
        assert plan.estimated_serial_seconds == pytest.approx(serial)
        assert plan.estimated_parallel_seconds == pytest.approx(
            0.001 * 4 + serial / 4
        )

    def test_line_corpus_plan(self, tmp_path):
        lines = ndjson_lines(tweets(400, seed=3)) * 25  # 10k docs
        plan = _plan_lines(tmp_path, lines, jobs=4)
        assert (plan.mode, plan.jobs, plan.calibration_source) == (
            "parallel", 4, "profile",
        )
        assert plan.estimated_parallel_seconds == pytest.approx(
            0.001 * 4 + plan.estimated_serial_seconds / 4
        )

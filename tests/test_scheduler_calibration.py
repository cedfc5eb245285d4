"""Tests for the persisted scheduler calibration and the plans that
consume it (`repro.inference.calibration` /
`repro.inference.distributed`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.inference import calibration as calibration_module
from repro.inference import distributed as distributed_module
from repro.inference.distributed import plan_schedule
from repro.datasets import ndjson_lines, open_corpus, tweets, write_ndjson


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
        fresh_profile.write_text(
            json.dumps(
                {"worker_startup_seconds": 0.5, "scan_bytes_per_second": 1e6}
            )
        )
        loaded = calibration_module.load_calibration()
        assert loaded.source == "profile"
        assert loaded.worker_startup_seconds == 0.5
        assert calibration_module.worker_startup_seconds() == 0.5
        assert calibration_module.scan_bytes_per_second() == 1e6

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
        loaded = calibration_module.load_calibration()
        assert loaded.source == "profile"
        assert loaded.worker_startup_seconds == 0.5

    def test_missing_profile_measures_once_and_persists(self, fresh_profile):
        loaded = calibration_module.load_calibration()
        assert loaded.source == "measured"
        assert loaded.worker_startup_seconds > 0
        assert fresh_profile.exists()
        record = json.loads(fresh_profile.read_text())
        assert record["worker_startup_seconds"] == loaded.worker_startup_seconds
        assert "ship_bytes_per_second" not in record
        # a second load (fresh cache) reads the persisted file
        calibration_module._LOADED.clear()
        again = calibration_module.load_calibration()
        assert again.source == "profile"
        assert again.worker_startup_seconds == loaded.worker_startup_seconds

    def test_malformed_profile_falls_back_to_defaults(self, fresh_profile):
        fresh_profile.write_text("{not json")
        loaded = calibration_module.load_calibration()
        assert loaded.source == "default"
        assert (
            loaded.worker_startup_seconds
            == calibration_module.DEFAULT_WORKER_STARTUP_SECONDS
        )
        # the hand-broken file is not silently overwritten
        assert fresh_profile.read_text() == "{not json"

    def test_saved_profile_records_every_constant(self, fresh_profile):
        saved = calibration_module.SchedCalibration(0.25, "measured", 1e6, 2e6, 3e6)
        assert calibration_module.save_calibration(saved, fresh_profile)
        record = json.loads(fresh_profile.read_text())
        assert list(record) == [
            "worker_startup_seconds", "source", "scan_bytes_per_second",
            "split_bytes_per_second", "decompress_bytes_per_second", "measured_at",
        ]
        assert [record[key] for key in list(record)[:5]] == [
            0.25, "measured", 1e6, 2e6, 3e6,
        ]
        assert [p.name for p in fresh_profile.parent.iterdir()] == ["sched.json"]

    def test_a_failed_write_leaves_the_previous_profile(
        self, fresh_profile, monkeypatch
    ):
        """A profile write that dies midway (a crash, a full disk) must
        not leave a truncated profile, which would load as the defaults
        on every later run without re-measuring."""
        fresh_profile.write_text(json.dumps({"worker_startup_seconds": 0.5}))
        write_text = Path.write_text

        def torn_write(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write)
        measured = calibration_module.SchedCalibration(0.25, "measured")
        assert not calibration_module.save_calibration(measured, fresh_profile)
        loaded = calibration_module.load_calibration()
        assert loaded.source == "profile"
        assert loaded.worker_startup_seconds == 0.5
        assert [p.name for p in fresh_profile.parent.iterdir()] == ["sched.json"]

    def test_nonpositive_profile_values_rejected(self, fresh_profile):
        fresh_profile.write_text(
            json.dumps(
                {"worker_startup_seconds": -1, "scan_bytes_per_second": 0}
            )
        )
        assert calibration_module.load_calibration().source == "default"

    def test_env_overrides_beat_the_profile(self, fresh_profile, monkeypatch):
        fresh_profile.write_text(
            json.dumps(
                {"worker_startup_seconds": 0.5, "scan_bytes_per_second": 1e6}
            )
        )
        monkeypatch.setenv("REPRO_WORKER_STARTUP_SECONDS", "0.25")
        assert calibration_module.worker_startup_seconds() == 0.25
        assert calibration_module.calibration_source() == "env"
        # the scan rate still comes from the profile
        assert calibration_module.scan_bytes_per_second() == 1e6

    def test_measure_calibration_is_sane(self):
        measured = calibration_module.measure_calibration()
        assert 0 < measured.worker_startup_seconds < 30
        assert measured.source == "measured"


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

"""Persisted per-machine scheduler calibration.

The scheduler has one cost model (:func:`repro.inference.distributed._schedule`,
behind :func:`~repro.inference.distributed.plan_schedule` and
:func:`~repro.inference.distributed.plan_compressed_schedule`): a
parallel run costs *per-worker startup* plus the source's split cost
plus the serial fold divided across the workers.  The constants here are
machine properties, not corpus properties:

- ``worker_startup_seconds`` — fork, pool handshake and imports, per
  worker; every parallel mode pays it;
- ``scan_bytes_per_second`` — serial typing of raw bytes, which prices
  the serial fold of a huge-document corpus and of a compressed one;
- ``split_bytes_per_second`` — the structural splitter's carve of a
  huge document (the subtree mode's split cost);
- ``decompress_bytes_per_second`` — gzip/zstd output rate, added to the
  scan for a compressed corpus.

A plain corpus of many lines times its own sample instead of the two
bytes rates.  Startup is measured **once per machine** and cached in a
small JSON profile:

- ``$REPRO_SCHED_PROFILE`` if set, else
- ``$XDG_CACHE_HOME/repro/sched.json``, else ``~/.cache/repro/sched.json``.

Resolution order for each constant (first hit wins):

1. the env overrides (``REPRO_WORKER_STARTUP_SECONDS`` and the
   bytes-rate ones below; read on every plan, so tests and operators
   can pin values without touching the profile);
2. the persisted profile;
3. a fresh measurement, persisted best-effort (an unwritable cache
   directory degrades to measuring once per process);
4. the built-in defaults, when measurement is disabled or fails.

Measurement is deliberately cheap and one-shot: worker startup times a
no-op ``multiprocessing.Process`` spawn+join (the dominant fork/exec +
import cost the pool pays per worker).  Profiles written by older
versions may carry keys no plan reads any more; they load, the keys
unread.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

DEFAULT_WORKER_STARTUP_SECONDS = 0.08
# Bytes-rate constants for the subtree (intra-document) mode, where the
# timed per-line sample is useless: a corpus of few huge lines would pay
# whole-document scans just to decide the plan.  ``scan`` is the serial
# bytes-native typing rate; ``split`` the structural splitter's carving
# rate (speculative separator searches — near memory bandwidth).
DEFAULT_SCAN_BYTES_PER_SECOND = 80e6
DEFAULT_SPLIT_BYTES_PER_SECOND = 2e9
# Decompression output rate for the compressed-corpus mode
# (zlib/zstd single-stream decode in decompressed bytes per second) —
# prices the I/O-bound stage the member-parallel fold overlaps.
DEFAULT_DECOMPRESS_BYTES_PER_SECOND = 250e6

_PROFILE_ENV = "REPRO_SCHED_PROFILE"
_STARTUP_ENV = "REPRO_WORKER_STARTUP_SECONDS"
_SCAN_ENV = "REPRO_SCAN_BYTES_PER_SECOND"
_SPLIT_ENV = "REPRO_SPLIT_BYTES_PER_SECOND"
_DECOMPRESS_ENV = "REPRO_DECOMPRESS_BYTES_PER_SECOND"


class SchedCalibration:
    """The scheduler's machine constants and where they came from.

    ``source`` is ``"measured"``, ``"profile"``, or ``"default"`` —
    benchmarks and the CLI surface it so a run can prove it consumed
    the persisted profile rather than a fallback.  Immutable.
    """

    def __init__(
        self,
        worker_startup_seconds: float,
        source: str = "default",
        scan_bytes_per_second: float = DEFAULT_SCAN_BYTES_PER_SECOND,
        split_bytes_per_second: float = DEFAULT_SPLIT_BYTES_PER_SECOND,
        decompress_bytes_per_second: float = DEFAULT_DECOMPRESS_BYTES_PER_SECOND,
    ) -> None:
        object.__setattr__(self, "worker_startup_seconds", worker_startup_seconds)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "scan_bytes_per_second", scan_bytes_per_second)
        object.__setattr__(self, "split_bytes_per_second", split_bytes_per_second)
        object.__setattr__(
            self, "decompress_bytes_per_second", decompress_bytes_per_second
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


_DEFAULT = SchedCalibration(DEFAULT_WORKER_STARTUP_SECONDS, "default")

# Process-level cache, keyed by resolved profile path so tests pointing
# REPRO_SCHED_PROFILE at fresh files are isolated from each other.
_LOADED: dict = {}


def profile_path() -> Path:
    """Where this machine's calibration profile lives."""
    override = os.environ.get(_PROFILE_ENV)
    if override:
        return Path(override)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "sched.json"


def _noop() -> None:  # pragma: no cover - runs in the probe child
    pass


def measure_calibration() -> SchedCalibration:
    """Measure the machine constants (one no-op worker)."""
    import multiprocessing

    start = time.perf_counter()
    process = multiprocessing.Process(target=_noop)
    process.start()
    process.join()
    startup = max(time.perf_counter() - start, 1e-4)
    return SchedCalibration(
        worker_startup_seconds=round(startup, 5), source="measured"
    )


def _read_profile(path: Path) -> Optional[SchedCalibration]:
    """Parse a profile file; ``None`` on missing or malformed data."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        startup = float(raw["worker_startup_seconds"])
        # Newer constants default when absent so profiles written by
        # older versions keep loading; keys no longer read (such as
        # the cache-hit speedup and the shipping rate) are ignored.
        scan = float(raw.get("scan_bytes_per_second", DEFAULT_SCAN_BYTES_PER_SECOND))
        split = float(
            raw.get("split_bytes_per_second", DEFAULT_SPLIT_BYTES_PER_SECOND)
        )
        decompress = float(
            raw.get(
                "decompress_bytes_per_second", DEFAULT_DECOMPRESS_BYTES_PER_SECOND
            )
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not (startup >= 0 and scan > 0 and split > 0 and decompress > 0):
        return None
    return SchedCalibration(startup, "profile", scan, split, decompress)


def save_calibration(calibration: SchedCalibration, path: Path) -> bool:
    """Persist a measurement; returns False when the path is unwritable.

    The profile is written to a temporary file beside ``path`` and
    renamed over it, so a crash or a concurrent reader never sees a
    truncated profile (which would load as the defaults on every later
    run, never re-measured).
    """
    record = {
        "worker_startup_seconds": calibration.worker_startup_seconds,
        "source": "measured",
        "scan_bytes_per_second": calibration.scan_bytes_per_second,
        "split_bytes_per_second": calibration.split_bytes_per_second,
        "decompress_bytes_per_second": calibration.decompress_bytes_per_second,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        staging.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        os.replace(staging, path)
    except OSError:
        try:
            staging.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    return True


def load_calibration(*, measure_if_missing: bool = True) -> SchedCalibration:
    """The machine constants: profile if present, else measure-and-persist.

    Cached per process (per profile path).  Malformed profiles fall back
    to the defaults without re-measuring — a hand-edited file should be
    fixed, not silently overwritten.
    """
    path = profile_path()
    key = str(path)
    cached = _LOADED.get(key)
    if cached is not None:
        return cached
    calibration: Optional[SchedCalibration] = None
    if path.exists():
        calibration = _read_profile(path)
        if calibration is None:
            calibration = _DEFAULT
    elif measure_if_missing:
        try:
            calibration = measure_calibration()
        except Exception:  # pragma: no cover - exotic platforms
            calibration = None
        else:
            save_calibration(calibration, path)
    if calibration is None:
        calibration = _DEFAULT
    _LOADED[key] = calibration
    return calibration


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def worker_startup_seconds() -> float:
    """Per-worker startup cost: env override > profile > measurement."""
    override = _env_float(_STARTUP_ENV)
    if override is not None:
        return override
    return load_calibration().worker_startup_seconds


def scan_bytes_per_second() -> float:
    """Serial bytes-native typing throughput (subtree-mode cost model)."""
    override = _env_float(_SCAN_ENV)
    if override is not None:
        return override
    return load_calibration().scan_bytes_per_second


def split_bytes_per_second() -> float:
    """Structural-splitter carving throughput (subtree-mode cost model)."""
    override = _env_float(_SPLIT_ENV)
    if override is not None:
        return override
    return load_calibration().split_bytes_per_second


def decompress_bytes_per_second() -> float:
    """Decompression output rate (compressed-corpus cost model)."""
    override = _env_float(_DECOMPRESS_ENV)
    if override is not None:
        return override
    return load_calibration().decompress_bytes_per_second


def calibration_source() -> str:
    """Provenance of the constants the next plan will use."""
    envs = (_STARTUP_ENV, _SCAN_ENV, _SPLIT_ENV, _DECOMPRESS_ENV)
    if any(_env_float(name) is not None for name in envs):
        return "env"
    return load_calibration().source

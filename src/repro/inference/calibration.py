"""Persisted per-machine scheduler calibration: worker start-up.

The scheduler has one cost model (:func:`repro.inference.distributed._schedule`,
behind :func:`~repro.inference.distributed.plan_schedule` and
:func:`~repro.inference.distributed.plan_compressed_schedule`): a
parallel run costs *per-worker startup* plus the source's split cost
plus the serial fold divided across the workers.  Start-up (fork, pool
handshake and imports, paid by every parallel mode) is the one machine
property it measures; the bytes rates that price huge-document and
compressed corpora are constants in :mod:`repro.inference.distributed`,
and a plain corpus of many lines times its own sample.

Start-up is measured **once per machine** and cached in a small JSON
profile:

- ``$REPRO_SCHED_PROFILE`` if set, else
- ``$XDG_CACHE_HOME/repro/sched.json``, else ``~/.cache/repro/sched.json``.

Resolution order (first hit wins):

1. ``REPRO_WORKER_STARTUP_SECONDS`` (read on every plan, so tests and
   operators can pin it without touching the profile);
2. the persisted profile;
3. a fresh measurement, persisted best-effort (an unwritable cache
   directory degrades to measuring once per process);
4. the built-in default, when measurement fails.

Measurement is deliberately cheap and one-shot: it times a no-op
``multiprocessing.Process`` spawn+join (the dominant fork/exec + import
cost the pool pays per worker).  Profiles written by older versions
carry keys no plan reads any more (bytes rates, a shipping rate, a
cache speedup); they load, the keys unread.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

DEFAULT_WORKER_STARTUP_SECONDS = 0.08

_PROFILE_ENV = "REPRO_SCHED_PROFILE"
_STARTUP_ENV = "REPRO_WORKER_STARTUP_SECONDS"

# Process-level cache of ``(seconds, source)``, keyed by resolved
# profile path so tests pointing REPRO_SCHED_PROFILE at fresh files are
# isolated from each other.
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


def measure_calibration() -> float:
    """Measure per-worker start-up in seconds (one no-op worker)."""
    import multiprocessing

    start = time.perf_counter()
    process = multiprocessing.Process(target=_noop)
    process.start()
    process.join()
    return round(max(time.perf_counter() - start, 1e-4), 5)


def _read_profile(path: Path) -> Optional[float]:
    """The profile's start-up; ``None`` on missing or malformed data."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        startup = float(raw["worker_startup_seconds"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return startup if startup >= 0 else None


def save_calibration(seconds: float, path: Path) -> bool:
    """Persist a measured start-up; returns False when the path is
    unwritable.

    The profile is written to a temporary file beside ``path`` and
    renamed over it, so a crash or a concurrent reader never sees a
    truncated profile (which would load as the default on every later
    run, never re-measured).
    """
    record = {
        "worker_startup_seconds": seconds,
        "source": "measured",
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


def load_calibration() -> tuple:
    """``(worker start-up seconds, source)``: the profile if present,
    else measure-and-persist.

    ``source`` is ``"profile"``, ``"measured"`` or ``"default"``.
    Cached per process (per profile path).  A malformed profile falls
    back to the default without re-measuring — a hand-edited file
    should be fixed, not silently overwritten.
    """
    path = profile_path()
    key = str(path)
    cached = _LOADED.get(key)
    if cached is not None:
        return cached
    if path.exists():
        startup = _read_profile(path)
        loaded = (
            (DEFAULT_WORKER_STARTUP_SECONDS, "default")
            if startup is None
            else (startup, "profile")
        )
    else:
        try:
            startup = measure_calibration()
        except Exception:  # pragma: no cover - exotic platforms
            loaded = (DEFAULT_WORKER_STARTUP_SECONDS, "default")
        else:
            save_calibration(startup, path)
            loaded = (startup, "measured")
    _LOADED[key] = loaded
    return loaded


def _startup_override() -> Optional[float]:
    raw = os.environ.get(_STARTUP_ENV)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def worker_startup_seconds() -> float:
    """Per-worker startup cost: env override > profile > measurement."""
    override = _startup_override()
    if override is not None:
        return override
    return load_calibration()[0]


def calibration_source() -> str:
    """Provenance of the start-up the next plan will use."""
    if _startup_override() is not None:
        return "env"
    return load_calibration()[1]

"""Test-suite configuration: deterministic hypothesis profiles.

CI runs the tier-1 suite with ``HYPOTHESIS_PROFILE=ci`` (see
``.github/workflows/ci.yml``): ``derandomize=True`` fixes the generation
seed so failures reproduce across runs, and the explicit deadline keeps a
pathological shrink from hanging the workflow instead of failing loudly.
Local runs keep hypothesis's default randomized exploration.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=1000,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Pin the scheduler's machine calibration to a known profile for the
# whole session: plans stay deterministic, and no test run measures (or
# writes into) the real ~/.cache/repro/sched.json.  Tests that exercise
# the calibration machinery point REPRO_SCHED_PROFILE elsewhere.
if "REPRO_SCHED_PROFILE" not in os.environ:
    _profile = os.path.join(
        tempfile.mkdtemp(prefix="repro-sched-"), "sched.json"
    )
    with open(_profile, "w", encoding="utf-8") as _handle:
        json.dump({"worker_startup_seconds": 0.08}, _handle)
    os.environ["REPRO_SCHED_PROFILE"] = _profile

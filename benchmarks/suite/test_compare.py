"""Verdicts of ``compare.py`` on hand-made sets of runs."""

import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
if str(SUITE) not in sys.path:
    sys.path.insert(0, str(SUITE))

from compare import verdict  # noqa: E402


def test_a_side_with_one_run_is_unresolved():
    base = [1.00, 1.01, 0.99]
    assert verdict(base, [1.0], 0.10, "lower") == "unresolved"
    assert verdict(base, [2.0], 0.10, "lower") == "unresolved"
    assert verdict([1.0], base, 0.10, "lower") == "unresolved"


def test_tight_runs_give_a_verdict_from_the_medians():
    base = [1.00, 1.01, 0.99]
    assert verdict(base, [1.02, 1.03, 1.01], 0.10, "lower") == "unchanged"
    assert verdict(base, [1.20, 1.21, 1.19], 0.10, "lower") == "worse"
    assert verdict(base, [1.20, 1.21, 1.19], 0.10, "higher") == "improved"


def test_wide_runs_are_unresolved_unless_every_pair_agrees():
    base = [0.7, 1.0, 1.3, 1.0]
    assert verdict(base, [1.1, 1.3, 0.9, 1.1], 0.10, "lower") == "unresolved"
    assert verdict(base, [1.5, 1.9, 1.6, 1.7], 0.10, "lower") == "worse"

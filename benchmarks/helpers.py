"""Shared helpers for the experiment benchmarks.

Every experiment prints the rows/series of the tutorial artifact it
reconstructs *and* records them under ``benchmarks/results/<name>.txt``,
so the tables survive pytest's output capturing.  End-to-end performance
claims are measured by the CLI benchmark suite instead
(``benchmarks/suite/``, declared in ``BENCHMARK.json``).
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Callable

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(experiment: str, text: str) -> None:
    """Print an experiment table and persist it to results/<experiment>.txt."""
    banner = f"\n===== {experiment} =====\n{text}\n"
    print(banner)
    sys.stderr.write(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")


def wall_ms(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-N wall-clock milliseconds for quick in-table measurements."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def table(headers: list[str], rows: list[list[object]]) -> str:
    """Format a fixed-width text table."""
    texts = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in texts)) if texts else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: list[str]) -> str:
        return " | ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in texts)
    return "\n".join(lines)

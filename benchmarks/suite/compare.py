"""Verdicts between two sets of benchmark runs, one per (metric, workload).

::

    python benchmarks/suite/compare.py BASE CHANGE

BASE and CHANGE are each a result file written by ``run.py --out`` or a
directory of them (one set of runs).  For every end-to-end metric in
``BENCHMARK.json`` and every workload both sides ran, the verdict is:

- ``unresolved`` when either side's run-to-run spread (quartile distance
  over the median) is unknown, because that side has fewer than two
  runs;
- ``unresolved`` when the wider spread exceeds the metric's bound,
  unless every CHANGE run reads better (or worse) than every BASE run and
  the medians moved by more than the bound;
- otherwise ``improved`` or ``worse`` when CHANGE's median moved by more
  than the bound, and ``unchanged`` when it stayed within it.

The exit code is 1 when any verdict is ``worse`` or any run had a failed
job.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def spread(values) -> float:
    """Quartile distance over the median, or None below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def verdict(base, change, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(change) - base_median) / base_median
    widest = wider_spread(base, change)
    if widest is None:
        return "unresolved"
    if widest <= bound:
        if worse_by > bound:
            return "worse"
        if worse_by < -bound:
            return "improved"
        return "unchanged"
    pairs = [sign * (c - b) for b in base for c in change]
    if worse_by < -bound and all(p < 0 for p in pairs):
        return "improved"
    if worse_by > bound and all(p > 0 for p in pairs):
        return "worse"
    return "unresolved"


def wider_spread(base, change):
    """The wider of the two sides' spreads, or None if either is unknown."""
    spreads = (spread(base), spread(change))
    return None if None in spreads else max(spreads)


def compare(base_runs, change_runs, benchmark: dict) -> list:
    """One row per (workload, metric) both sides measured."""
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        base_w = [r["workloads"][workload] for r in base_runs
                  if workload in r.get("workloads", {})]
        change_w = [r["workloads"][workload] for r in change_runs
                    if workload in r.get("workloads", {})]
        if not base_w or not change_w:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [w["metrics"][name]["value"] for w in base_w]
            change = [w["metrics"][name]["value"] for w in change_w]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": statistics.median(base),
                "change": statistics.median(change),
                "spread": wider_spread(base, change),
                "bound": metric["bound"],
                "verdict": verdict(base, change, metric["bound"], metric["better"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    rows = compare(base_runs, change_runs, benchmark)

    print(f"base: {len(base_runs)} run(s), change: {len(change_runs)} run(s)")
    print(f"{'workload':<15}{'metric':<13}{'base':>11}{'change':>11}{'delta':>9}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        delta = (row["change"] - row["base"]) / row["base"]
        width = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        print(f"{row['workload']:<15}{row['metric']:<13}{row['base']:>11.4g}"
              f"{row['change']:>11.4g}{delta:>+9.1%}{width:>9}"
              f"{row['bound']:>7.0%}  {row['verdict']}")
    failed = sum(r.get("summary", {}).get("failed", 0) for r in base_runs + change_runs)
    if failed:
        print(f"{failed} failed job(s) in the compared runs")
    return 1 if failed or any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of benchmark results, cell by cell.

    python3 bench/compare.py --base a1.json a2.json --new b1.json b2.json

Each file is what ``bench/run.py`` (all workloads, tracing off) wrote.
One row per workload x end-to-end metric: both medians with their
quartiles, the change, the bound, and a verdict.

* ``REGRESSION`` — the new median is worse than the base median by
  more than the bound (``BENCHMARK.json`` for the gated metrics,
  ``spec.EXTRA`` for the workload-specific ones), or ``failed_share``
  rose at all.
* ``unresolved`` — a side's spread is wider than the bound, so the
  cell cannot be called unchanged; with at least four runs a side it
  is still a regression when every new run is worse than every base
  run by more than the bound, and still fine when every new run is
  better than every base run.
* ``ok`` — within the bound.

The spread of a side is the distance between its quartiles over its
files as a share of their median; with one file, the same over that
run's own rounds.  Exit code 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import spec  # noqa: E402


#: runs per side before "every new run is worse/better" is believed
MIN_RUNS = 4


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def bounds() -> Dict[str, spec.Metric]:
    """Every end-to-end metric with its bound: ``BENCHMARK.json`` wins
    for the metrics it lists."""
    table = {m.name: m for m in spec.END_TO_END}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            for row in json.load(fh)["end_to_end"]:
                table[row["name"]] = table[row["name"]]._replace(
                    bound=row["bound"], better=row["better"])
    except OSError:
        pass
    return table


def load(paths: Sequence[str]) -> Dict[str, Dict[str, List[dict]]]:
    """workload -> metric -> that metric's record in each file."""
    out: Dict[str, Dict[str, List[dict]]] = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for name, detail in doc["workloads"].items():
            if not detail:
                continue
            for metric, row in detail["metrics"].items():
                out.setdefault(name, {}).setdefault(metric, []).append(row)
    return out


def side_spread(rows: Sequence[dict]) -> float:
    """Quartile distance over median: across the side's files, or with
    one file across that run's own rounds."""
    values = [r["value"] for r in rows]
    if len(values) < 2:
        values = rows[0].get("rounds") or values
    if len(values) < 2:
        return 0.0
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(m: spec.Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` in the metric's own
    direction: a share of ``base`` (relative) or a difference
    (absolute); negative when better."""
    delta = new - base if m.better == "lower" else base - new
    if m.bound_kind == "absolute":
        return delta
    return delta / base if base else (0.0 if delta == 0 else float("inf"))


def judge(m: spec.Metric, base: Sequence[dict], new: Sequence[dict]
          ) -> Tuple[str, float, float]:
    """(verdict, worse_by, spread) of one cell."""
    b_vals = [r["value"] for r in base]
    n_vals = [r["value"] for r in new]
    change = worse_by(m, statistics.median(b_vals), statistics.median(n_vals))
    spread = max(side_spread(base), side_spread(new))
    if m.name == "failed_share":
        return ("REGRESSION" if change > 0 else "ok"), change, spread
    # "every run" only says something about sets of runs
    enough = min(len(b_vals), len(n_vals)) >= MIN_RUNS
    every_worse = enough and all(worse_by(m, b, n) > m.bound
                                 for b in b_vals for n in n_vals)
    every_better = enough and all(worse_by(m, b, n) < 0
                                  for b in b_vals for n in n_vals)
    noisy = m.bound_kind == "relative" and spread > m.bound
    if every_worse or (change > m.bound and not noisy):
        return "REGRESSION", change, spread
    if noisy and not every_better:
        return "unresolved", change, spread
    return "ok", change, spread


def compare(base_paths: Sequence[str], new_paths: Sequence[str]) -> int:
    """Print the table; return the number of regressions."""
    table = bounds()
    base, new = load(base_paths), load(new_paths)
    regressions = 0
    print(f"{'workload':<13}{'metric':<21}{'unit':<6}"
          f"{'base median [q1,q3]':>34}{'new median [q1,q3]':>34}"
          f"{'worse by':>10}{'bound':>7}{'spread':>8}  verdict")
    for workload in spec.WORKLOADS:
        for m in (table[x.name] for x in spec.END_TO_END):
            rows_b = base.get(workload, {}).get(m.name)
            rows_n = new.get(workload, {}).get(m.name)
            if not rows_b or not rows_n:
                continue
            verdict, change, spread = judge(m, rows_b, rows_n)
            regressions += verdict == "REGRESSION"

            def cell(rows):
                q1, med, q3 = quartiles([r["value"] for r in rows])
                return f"{med:.4f} [{q1:.4f},{q3:.4f}]"
            unit = "abs" if m.bound_kind == "absolute" else "rel"
            print(f"{workload:<13}{m.name:<21}{m.unit:<6}"
                  f"{cell(rows_b):>34}{cell(rows_n):>34}"
                  f"{change:>+10.3f}{m.bound:>7.2f}{spread:>8.3f}  "
                  f"{verdict} ({unit})")
    print(f"{regressions} regression(s)")
    return regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True,
                    help="result files of the parent commit")
    ap.add_argument("--new", nargs="+", required=True,
                    help="result files of the change")
    args = ap.parse_args(argv)
    return 1 if compare(args.base, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())

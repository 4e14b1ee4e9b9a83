"""Offline schedule tuning CLI.

``python -m repro.tools.tune --workloads lstm,attention --seed 0``
measures every kernel schedule (:mod:`repro.tune`) each workload's
compiled graph can read, proves every measured candidate bit-exact
against the default schedule, persists the winners into a
:class:`~repro.tune.db.TuningDB`, and writes the full report to
``results/tune.json``.

After each workload the DB is *round-tripped*: a fresh ``TuningDB``
instance re-opens the same root and must return exactly the schedule
that was just recorded — the cross-process persistence property the
serve layer depends on.

Exit status is ``oracle divergences + round-trip failures`` (0 on a
healthy run), so CI gates on it directly.  Point a server at the same
root via ``ServePolicy(tuning_db_path=...)`` (or ``serve_bench
--tune-db``) and warm traffic runs the winners with zero tuning-time
searches.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..tune.db import TuningDB
from ..tune.search import tune_workload
from .drive import common_args, write_report


def _us(wall_us: Optional[float]) -> str:
    return "      n/a  " if wall_us is None else f"{wall_us:9.1f}us"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns divergences + round-trip failures."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.tune",
        description="offline kernel-schedule search with a persistent "
                    "tuning database")
    common_args(parser, workloads="lstm,attention,nasrnn,seq2seq",
                seq_len=64, seed=(0, "input seed"),
                out="results/tune.json", pipeline="tensorssa",
                batch_size=4)
    parser.add_argument("--best-of", type=int, default=5,
                        help="measuring rounds; each samples every "
                             "candidate once")
    parser.add_argument("--dynamic-shapes", action="store_true",
                        help="key the DB on the duck-shaped family "
                             "structure instead of concrete shapes")
    parser.add_argument("--db", type=str, default="results/tune_db",
                        help="tuning-database root directory")
    args = parser.parse_args(argv)

    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    db = TuningDB(args.db)
    report = {"best_of": args.best_of, "workloads": []}

    divergences = 0
    roundtrip_failures = 0
    improved = 0
    for name in names:
        start = time.perf_counter()
        result = tune_workload(
            name, pipeline=args.pipeline,
            batch_size=args.batch_size, seq_len=args.seq_len,
            seed=args.seed, best_of=args.best_of, db=db,
            dynamic_shapes=args.dynamic_shapes)
        elapsed = time.perf_counter() - start

        # cross-process persistence gate: a *fresh* instance over the
        # same root must return exactly what was just recorded
        reread = TuningDB(args.db).best(result.key)
        roundtrip_ok = reread == result.best_schedule
        if not roundtrip_ok:
            roundtrip_failures += 1
        divergences += result.divergences
        improved += int(result.improved)

        entry = result.to_dict()
        entry["tune_wall_s"] = elapsed
        entry["roundtrip_ok"] = roundtrip_ok
        report["workloads"].append(entry)
        print(f"[{name}] default {_us(result.default_wall_us)}  "
              f"best {_us(result.best_wall_us)}  "
              f"speedup {result.speedup:5.3f}x  "
              f"schedule {result.best_schedule_id:<8}  "
              f"candidates {len(result.candidates):2d}  "
              f"divergences {result.divergences}  "
              f"roundtrip {'ok' if roundtrip_ok else 'FAIL'}  "
              f"({elapsed:.1f}s)")

    failures = divergences + roundtrip_failures
    report["db"] = db.snapshot()
    report["improved"] = improved
    report["divergences"] = divergences
    report["roundtrip_failures"] = roundtrip_failures
    print(f"\n{improved}/{len(names)} workloads improved over the "
          f"default schedule, {divergences} divergence(s), "
          f"{roundtrip_failures} round-trip failure(s) "
          f"(db at {args.db})")
    return write_report(report, args, failures)


if __name__ == "__main__":
    sys.exit(main())

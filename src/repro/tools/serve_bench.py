"""Serving benchmark: one policy under test vs one reference policy.

``python -m repro.tools.serve_bench --workloads lstm,attention
--requests 200 --concurrency 8`` drives a closed-loop load generator
(N client threads, each keeping one request in flight) against a
:class:`repro.serve.Server` twice per workload, over the identical
request pool, under two policies that differ in one thing:

* default — ``batched`` (``max_batch_size=--max-batch``) vs
  ``baseline`` (``max_batch_size=1``: same queues, same workers, no
  coalescing); ``--min-speedup`` gates the throughput ratio;
* ``--dynamic-shapes`` — every request draws a *seeded random* length
  from ``[--dyn-seq-min, --dyn-seq-max]``; ``family`` (lengths bucketed
  to powers of two, cache keyed on shape families) vs ``concrete``
  (exact-shape keys, so every novel length is a fresh compile and its
  own batch group); ``--min-compile-ratio`` (default 5.0) gates that
  the family path compiles that many times less often *and* achieves
  strictly higher batch occupancy (mean batch size / max batch).

Every response is verified bit-exact against eager on the identical
executed (padded) batch inputs (``verify="batch"``).  Every batch shape
1…``--max-batch`` is compiled before the clock starts
(``drive.serve_closed_loop``), so the ratio compares serving, not
compile luck; each run reports throughput, latency percentiles,
compiles per 1k requests (cache misses + guard misses; those inside the
timed run separately), occupancy and the scheduler's flushes by reason
to ``results/serve_bench.json``.  Always gated: with at least two
clients per worker, some workload's ``batched`` run must average 2 or
more requests a batch — none doing so means the scheduler grabs
requests one at a time.  Exit status = dropped +
diverging requests + failed gates (+ tuning-time searches under
``--tune-db``, which must be 0 on the hot path).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Optional

from ..models import get_workload
from ..serve import ServePolicy
from .drive import (common_args, request_pool, serve_closed_loop,
                    write_report)


#: the two policies compared, by ``--dynamic-shapes``: under test first
MODES = {False: ("batched", "baseline"), True: ("family", "concrete")}


def bench_workload(name: str, args: argparse.Namespace,
                   lengths: List[int]) -> Dict[str, object]:
    """One workload served under both policies of the mode (see the
    module docstring) over one request pool, an input tuple per entry
    of ``lengths``; returns both runs and their three ratios."""
    wl = get_workload(name)
    pool = request_pool(wl, lengths)
    common = dict(workers=args.workers, batch_wait_s=args.batch_wait_ms / 1e3,
                  queue_capacity=args.queue_capacity,
                  request_timeout_s=args.timeout_s,
                  verify=("off" if args.no_verify else "batch"),
                  tuning_db_path=args.tune_db)
    if args.dynamic_shapes:
        differing = (dict(max_batch_size=args.max_batch, dynamic_shapes=True,
                          bucket_min=args.bucket_min),
                     dict(max_batch_size=args.max_batch))
    else:
        differing = (dict(max_batch_size=args.max_batch),
                     dict(max_batch_size=1))
    modes = MODES[args.dynamic_shapes]
    entry: Dict[str, object] = {"workload": name}
    for mode, differs in zip(modes, differing):
        policy = ServePolicy(**common, **differs)
        run = serve_closed_loop(
            wl, pool, policy, args.requests, args.concurrency,
            warmup=(args.warmup if policy.max_batch_size > 1
                    else min(args.warmup, args.max_batch)),
            hang_timeout_s=args.timeout_s,
            pipeline=args.pipeline, platform=args.platform)
        cache = run["server"]["compile_cache"]  # guard miss = recompile
        run["compiles"] = cache["misses"] + cache["guard_misses"]
        run["compiles_per_1k_requests"] = (
            run["compiles"] / max(1, args.requests) * 1000.0)
        run["batch_occupancy"] = (
            run["mean_batch_requests"] / max(1, args.max_batch))
        entry[mode] = run
    test, ref = entry[modes[0]], entry[modes[1]]
    entry["throughput_speedup"] = (
        test["throughput_rps"] / ref["throughput_rps"]
        if ref["throughput_rps"] else float("inf"))
    entry["compile_ratio"] = (ref["compiles"] / test["compiles"]
                              if test["compiles"] else float("inf"))
    entry["occupancy_gain"] = (test["batch_occupancy"]
                               - ref["batch_occupancy"])
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns dropped + diverging request count."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve_bench",
        description="closed-loop serving benchmark: dynamic batching "
                    "vs batch-size-1 serving")
    common_args(
        parser, workloads="lstm,attention",
        requests=(200, "requests per workload per mode"), seq_len=16,
        out="results/serve_bench.json",
        concurrency=(8, "closed-loop client threads"),
        workers=(4, "server worker threads"), max_batch=8,
        batch_wait_ms=4.0, pipeline="tensorssa", platform="datacenter",
        distinct_inputs=(32, "distinct request payloads cycled through"),
        warmup=(16, "untimed warmup requests per mode"),
        timeout_s=(120.0, "per-request deadline"))
    parser.add_argument("--queue-capacity", type=int, default=512)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the eager bit-exactness oracle")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless some workload's batched "
                             "throughput beats baseline by this factor")
    parser.add_argument("--dynamic-shapes", action="store_true",
                        help="serve seeded randomized sequence lengths "
                             "and compare family-keyed (bucketed) "
                             "compilation against concrete shape keys")
    parser.add_argument("--dyn-seq-min", type=int, default=8,
                        help="shortest randomized sequence length")
    parser.add_argument("--dyn-seq-max", type=int, default=48,
                        help="longest randomized sequence length")
    parser.add_argument("--shape-seed", type=int, default=0,
                        help="seed for the random length draws")
    parser.add_argument("--bucket-min", type=int, default=8,
                        help="smallest padding bucket in family mode")
    parser.add_argument("--min-compile-ratio", type=float, default=5.0,
                        help="dynamic mode: fail a workload whose "
                             "concrete/family compile ratio is below "
                             "this (and require strictly higher family "
                             "batch occupancy)")
    parser.add_argument("--tune-db", type=str, default=None,
                        help="read-only tuning database root "
                             "(tools/tune output): serve runs pick up "
                             "best-known schedules, and the run FAILS "
                             "if any tuning-time search happens on the "
                             "hot path (warm-serve gate)")
    args = parser.parse_args(argv)

    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    report: Dict[str, object] = {"workloads": []}
    if args.dynamic_shapes:
        rng = random.Random(args.shape_seed)
        lengths = [rng.randint(args.dyn_seq_min, args.dyn_seq_max)
                   for _ in range(args.distinct_inputs)]
        report["lengths"] = lengths
        shapes = (f"lengths in [{args.dyn_seq_min}, {args.dyn_seq_max}] "
                  f"(seed {args.shape_seed})")
    else:
        lengths = [args.seq_len] * args.distinct_inputs
        shapes = f"seq_len {args.seq_len}"

    failures = 0
    for name in names:
        print(f"[{name}] {args.requests} requests x {args.concurrency} "
              f"clients, {shapes}, max_batch={args.max_batch} "
              f"(pipeline={args.pipeline})")
        entry = bench_workload(name, args, lengths)
        report["workloads"].append(entry)
        for mode in MODES[args.dynamic_shapes]:
            e = entry[mode]
            failures += e["dropped"] + e["diverged"]
            print(f"  {mode:<9} {e['throughput_rps']:8.1f} req/s  "
                  f"p50 {e['server']['latency_p50_ms']:7.1f}ms  "
                  f"p95 {e['server']['latency_p95_ms']:7.1f}ms  "
                  f"mean batch {e['mean_batch_requests']:.2f}  "
                  f"occupancy {e['batch_occupancy']:.2f}  "
                  f"compiles {e['compiles']:3d} "
                  f"({e['compiles_per_1k_requests']:6.1f}/1k, "
                  f"{e['timed_compiles']} timed)  "
                  f"cache hit {e['server']['cache_hit_rate']:.0%}  "
                  f"dropped {e['dropped']}  diverged {e['diverged']}")
            print(f"            flushes "
                  f"{e['server']['flushes_by_reason']}")
            if args.tune_db is not None:
                # the server only ever *reads* the tuning DB; searching
                # is offline work for ``tools/tune``
                searches = e["server"]["tune_db"]["searches"]
                failures += searches
                print(f"            tuned {e['server']['tuned']}  "
                      f"schedules {e['server']['schedule_hist']}  "
                      f"tuning-time searches {searches}"
                      + ("  FAIL: hot path searched" if searches else ""))
        print(f"  speedup {entry['throughput_speedup']:.2f}x  "
              f"compile ratio {entry['compile_ratio']:.1f}x  "
              f"occupancy gain {entry['occupancy_gain']:+.2f}")
        if args.dynamic_shapes:
            if entry["compile_ratio"] < args.min_compile_ratio:
                print(f"  FAIL: compile ratio {entry['compile_ratio']:.1f}x"
                      f" < required {args.min_compile_ratio:.1f}x")
                failures += 1
            if entry["occupancy_gain"] <= 0:
                print("  FAIL: family occupancy not strictly above "
                      "concrete")
                failures += 1

    best = max((e["throughput_speedup"] for e in report["workloads"]),
               default=0.0)
    report["best_speedup"] = best
    if args.min_speedup is not None and best < args.min_speedup:
        print(f"FAIL: best speedup {best:.2f}x < required "
              f"{args.min_speedup:.2f}x")
        failures += 1
    if not args.dynamic_shapes and args.concurrency >= 2 * args.workers:
        # two clients per worker and no workload coalesces: the
        # scheduler is grabbing requests one at a time.  Judged on the
        # best workload, like the speedup: a heavy model's closed loop
        # can settle at clients / workers per batch under any scheduler
        fullest = max((e["batched"]["mean_batch_requests"]
                       for e in report["workloads"]), default=0.0)
        report["best_mean_batch"] = fullest
        if fullest < 2:
            print(f"FAIL: best batched mean batch {fullest:.2f} < 2 at "
                  f"{args.concurrency} clients / {args.workers} workers")
            failures += 1
    print(f"\nbest speedup {best:.2f}x")
    return write_report(report, args, failures)


if __name__ == "__main__":
    sys.exit(main())

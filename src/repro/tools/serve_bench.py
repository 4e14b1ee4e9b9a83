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
  from ``[--dyn-seq-min, --dyn-seq-max]``; ``bucketed`` (lengths padded
  to power-of-two buckets, so near-miss lengths share a batch) vs
  ``exact`` (every length its own batch group).  Gated: each mode
  compiles **exactly once** per (pipeline, workload) — one artifact
  serves every length — and ``bucketed`` achieves strictly higher
  batch occupancy (mean batch size / max batch).

Every response is verified bit-exact against eager on the identical
executed (padded) batch inputs (``verify="batch"``).  Every batch shape
1…``--max-batch`` runs before the clock starts
(``drive.serve_closed_loop``), so the ratio compares serving, not
compile luck; each run reports throughput, latency percentiles,
compiles per 1k requests (cache misses; those inside the timed run
separately), occupancy and the scheduler's flushes by reason to
``results/serve_bench.json``.  Always gated: with at least two
clients per worker, some workload's ``batched`` run must average 2 or
more requests a batch — none doing so means the scheduler grabs
requests one at a time.  Exit status = dropped +
diverging requests + failed gates.
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
MODES = {False: ("batched", "baseline"), True: ("bucketed", "exact")}


def bench_workload(name: str, args: argparse.Namespace,
                   lengths: List[int]) -> Dict[str, object]:
    """One workload served under both policies of the mode (see the
    module docstring) over one request pool, an input tuple per entry
    of ``lengths``; returns both runs, the throughput speedup and the
    occupancy gain."""
    wl = get_workload(name)
    pool = request_pool(wl, lengths)
    common = dict(workers=args.workers, batch_wait_s=args.batch_wait_ms / 1e3,
                  queue_capacity=args.queue_capacity,
                  request_timeout_s=args.timeout_s,
                  verify=("off" if args.no_verify else "batch"))
    if args.dynamic_shapes:
        differing = (dict(max_batch_size=args.max_batch, dynamic_shapes=True),
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
        run["compiles"] = run["server"]["compile_cache"]["misses"]
        run["compiles_per_1k_requests"] = (
            run["compiles"] / max(1, args.requests) * 1000.0)
        run["batch_occupancy"] = (
            run["mean_batch_requests"] / max(1, args.max_batch))
        entry[mode] = run
    test, ref = entry[modes[0]], entry[modes[1]]
    entry["throughput_speedup"] = (
        test["throughput_rps"] / ref["throughput_rps"]
        if ref["throughput_rps"] else float("inf"))
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
                             "and compare bucketed padding against "
                             "exact-length batch groups")
    parser.add_argument("--dyn-seq-min", type=int, default=8,
                        help="shortest randomized sequence length")
    parser.add_argument("--dyn-seq-max", type=int, default=48,
                        help="longest randomized sequence length")
    parser.add_argument("--shape-seed", type=int, default=0,
                        help="seed for the random length draws")
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
        print(f"  speedup {entry['throughput_speedup']:.2f}x  "
              f"occupancy gain {entry['occupancy_gain']:+.2f}")
        if args.dynamic_shapes:
            for mode in MODES[True]:
                if entry[mode]["compiles"] != 1:
                    print(f"  FAIL: {mode} compiled "
                          f"{entry[mode]['compiles']} times, not once")
                    failures += 1
            if entry["occupancy_gain"] <= 0:
                print("  FAIL: bucketed occupancy not strictly above "
                      "exact")
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

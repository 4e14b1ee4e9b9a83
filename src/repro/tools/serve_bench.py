"""Serving throughput benchmark: batched vs one-at-a-time.

``python -m repro.tools.serve_bench --workloads lstm,attention
--requests 200 --concurrency 8`` drives a closed-loop load generator
(N client threads, each keeping one request in flight) against a
:class:`repro.serve.Server` twice per workload: once with dynamic
batching enabled and once with ``max_batch_size=1`` (the serving
baseline — same queues, same workers, no coalescing).  Every response
is verified bit-exact against the eager pipeline on the identical
executed inputs (``verify="batch"``), and the run fails if any request
is dropped, errors, times out, or diverges.

Results (throughput, latency percentiles, batch histogram, cache hit
rates, speedup) are printed and written to ``results/serve_bench.json``.
Exit status is the number of dropped/diverging requests across all
runs, so CI can gate on it directly.

``--dynamic-shapes`` switches the benchmark into the symbolic-shape
comparison instead: every request draws a *seeded random* sequence
length from ``[--dyn-seq-min, --dyn-seq-max]`` and each workload is
served twice — once with family-keyed compilation plus power-of-two
bucketing (``ServePolicy(dynamic_shapes=True)``) and once with plain
concrete shape keying.  The report then carries compiles-per-1k-
requests (compile-cache misses + guard misses, normalized) and batch
occupancy (mean batch size / max batch) for both modes, and
``--min-compile-ratio`` (default 5.0) gates that the family path
compiles at least that many times less often *and* achieves strictly
higher occupancy.  All responses stay verified bit-exact against eager
on the padded batch inputs (``verify="batch"``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..models import Workload, get_workload
from ..serve import (Response, ServePolicy, Server, get_batch_spec)
from ..shard import ShardPolicy, ShardRouter

#: seed of the shared model state; per-request data seeds start above it
STATE_SEED = 0
DATA_SEED0 = 10_000


def build_request_args(wl: Workload, seq_len: int, count: int
                       ) -> List[tuple]:
    """``count`` distinct request-input tuples that share model state.

    Shared (non-batched) arguments — weights, priors, grids — come from
    one ``make_inputs`` call and are reused by every request, mirroring
    a server that loads a model once; batched arguments are freshly
    synthesized per request so every user sends different data.
    """
    base = wl.make_inputs(batch_size=1, seq_len=seq_len, seed=STATE_SEED)
    spec = get_batch_spec(wl.name)
    if spec is None:
        return [wl.make_inputs(batch_size=1, seq_len=seq_len,
                               seed=DATA_SEED0 + i) for i in range(count)]
    out: List[tuple] = []
    for i in range(count):
        fresh = wl.make_inputs(batch_size=1, seq_len=seq_len,
                               seed=DATA_SEED0 + i)
        out.append(tuple(
            fresh[k] if axis is not None else base[k]
            for k, axis in enumerate(spec.arg_axes)))
    return out


def build_dynamic_pool(wl: Workload, lengths: List[int]) -> List[tuple]:
    """One request-input tuple per entry of ``lengths``, sharing state.

    Same sharing rule as :func:`build_request_args` — weights and other
    non-batched arguments come from a single ``make_inputs`` call (they
    do not depend on the sequence length), while each request's batched
    arguments are synthesized at its own drawn length.
    """
    base = wl.make_inputs(batch_size=1, seq_len=max(lengths),
                          seed=STATE_SEED)
    spec = get_batch_spec(wl.name)
    pool: List[tuple] = []
    for i, length in enumerate(lengths):
        fresh = wl.make_inputs(batch_size=1, seq_len=length,
                               seed=DATA_SEED0 + i)
        if spec is None:
            pool.append(tuple(fresh))
        else:
            pool.append(tuple(
                fresh[k] if axis is not None else base[k]
                for k, axis in enumerate(spec.arg_axes)))
    return pool


def run_load(wl: Workload, args_pool: List[tuple], policy: ServePolicy,
             requests: int, concurrency: int, pipeline: str,
             platform: str, warmup: int) -> Dict[str, object]:
    """One closed-loop run; returns stats + throughput."""
    server = Server(policy)
    responses: List[Optional[Response]] = [None] * requests
    counter = {"next": 0}
    lock = threading.Lock()

    try:
        # warmup: populate the compile cache for the shapes the steady
        # state will see, so throughput is not dominated by cold compiles
        warm = [server.submit(wl, args=args_pool[i % len(args_pool)],
                              pipeline=pipeline, platform=platform)
                for i in range(warmup)]
        for f in warm:
            f.result()

        def client() -> None:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= requests:
                        return
                    counter["next"] = i + 1
                fut = server.submit(wl, args=args_pool[i % len(args_pool)],
                                    pipeline=pipeline, platform=platform)
                responses[i] = fut.result()

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(concurrency)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
    finally:
        server.shutdown(drain=True)

    stats = server.stats.to_dict()
    ok = sum(1 for r in responses if r is not None and r.ok)
    dropped = requests - ok
    diverged = sum(1 for r in responses
                   if r is not None and r.verified is False)
    mean_batch = (sum(int(k) * v for k, v in
                      stats["batch_size_hist"].items())
                  / max(1, stats["batches_executed"]))
    return {
        "requests": requests,
        "wall_s": wall,
        "throughput_rps": requests / wall if wall > 0 else 0.0,
        "ok": ok,
        "dropped": dropped,
        "diverged": diverged,
        "mean_batch_requests": mean_batch,
        "server": stats,
    }


def _compile_events(run: Dict[str, object]) -> int:
    """Compilations a run paid for: cache misses + guard-miss recompiles."""
    cache = run["server"].get("compile_cache") or {}
    return int(cache.get("misses", 0)) + int(cache.get("guard_misses", 0))


def _tune_searches(run: Dict[str, object]) -> int:
    """Tuning-time searches a serve run performed (must stay 0: the
    server only ever *reads* the tuning DB; searching is offline work
    for ``tools/tune``)."""
    tdb = run["server"].get("tune_db") or {}
    return int(tdb.get("searches", 0))


def bench_workload_dynamic(name: str, args: argparse.Namespace,
                           lengths: List[int]) -> Dict[str, object]:
    """One workload under mixed sequence lengths: family vs concrete keys.

    Both modes serve the identical randomized-length request pool with
    the same worker/batching policy; only the compile keying differs —
    ``family`` buckets lengths to powers of two and keys the cache on
    shape families, ``concrete`` keys on exact shapes (so every novel
    length is a fresh compile and its own batch group).
    """
    wl = get_workload(name)
    pool = build_dynamic_pool(wl, lengths)
    common = dict(workers=args.workers, max_batch_size=args.max_batch,
                  batch_wait_s=args.batch_wait_ms / 1e3,
                  queue_capacity=args.queue_capacity,
                  request_timeout_s=args.timeout_s,
                  verify=("off" if args.no_verify else "batch"),
                  tuning_db_path=args.tune_db)
    family_policy = ServePolicy(dynamic_shapes=True,
                                bucket_min=args.bucket_min, **common)
    concrete_policy = ServePolicy(dynamic_shapes=False, **common)

    runs: Dict[str, Dict[str, object]] = {}
    for mode, policy in (("family", family_policy),
                         ("concrete", concrete_policy)):
        run = run_load(wl, pool, policy, args.requests, args.concurrency,
                       args.pipeline, args.platform, warmup=args.warmup)
        run["compiles"] = _compile_events(run)
        run["compiles_per_1k_requests"] = (
            run["compiles"] / max(1, args.requests) * 1000.0)
        run["batch_occupancy"] = (
            run["mean_batch_requests"] / max(1, args.max_batch))
        runs[mode] = run

    fam, conc = runs["family"], runs["concrete"]
    ratio = (conc["compiles"] / fam["compiles"] if fam["compiles"]
             else float("inf"))
    return {
        "workload": name,
        "family": fam,
        "concrete": conc,
        "compile_ratio": ratio,
        "occupancy_gain": (fam["batch_occupancy"]
                           - conc["batch_occupancy"]),
    }


def run_shard_load(wl: Workload, pool: List[tuple], num_workers: int,
                   args: argparse.Namespace,
                   store_root: str) -> Dict[str, object]:
    """One closed-loop run against a :class:`~repro.shard.ShardRouter`
    fleet of ``num_workers`` worker processes sharing one artifact
    store.  The inner servers run ``max_batch_size=1`` so the compile-
    key population is exactly the distinct request shapes — the
    property that makes the warm-restart zero-compiles gate
    deterministic (coalesced-batch shapes depend on thread timing)."""
    policy = ShardPolicy(
        num_workers=num_workers, store_root=store_root,
        request_timeout_s=args.timeout_s,
        worker_policy={"workers": 2, "max_batch_size": 1,
                       "request_timeout_s": args.timeout_s})
    requests = args.requests
    responses: List[Optional[Response]] = [None] * requests
    counter = {"next": 0}
    lock = threading.Lock()
    router = ShardRouter(policy)
    try:
        ready = router.wait_ready(num_workers, timeout=120)
        if ready < num_workers:
            raise RuntimeError(
                f"only {ready}/{num_workers} shard workers came up")
        # warmup: compile (or warm-load) every distinct shape once
        warm = [router.submit(wl, args=p, pipeline=args.pipeline,
                              platform=args.platform) for p in pool]
        for f in warm:
            f.result(timeout=args.timeout_s)

        def client() -> None:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= requests:
                        return
                    counter["next"] = i + 1
                fut = router.submit(wl, args=pool[i % len(pool)],
                                    pipeline=args.pipeline,
                                    platform=args.platform)
                responses[i] = fut.result(timeout=args.timeout_s)

        threads = [threading.Thread(target=client,
                                    name=f"shard-client-{i}")
                   for i in range(args.concurrency)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        report = router.report()
    finally:
        router.shutdown(drain=True)
    ok = sum(1 for r in responses if r is not None and r.ok)
    return {
        "workers": num_workers,
        "requests": requests,
        "wall_s": wall,
        "throughput_rps": requests / wall if wall > 0 else 0.0,
        "ok": ok,
        "dropped": requests - ok,
        "compiles": max(report["worker_compiles"].values(), default=0),
        "router": report,
    }


def bench_workload_sharded(name: str, args: argparse.Namespace
                           ) -> Dict[str, object]:
    """One workload through the multi-process shard fleet, at
    ``--workers`` processes and again at one process (same artifact
    store, so the second fleet warm-starts and must pay **zero**
    compiles — the crash-restart property measured as a benchmark).

    The request pool spans ``--shard-keys`` distinct sequence lengths:
    the hash ring places requests by shape-specialization key, so a
    single-shape pool would land on one worker and measure nothing.
    """
    wl = get_workload(name)
    lengths = [args.seq_len + 4 * k for k in range(args.shard_keys)]
    pool = [wl.make_inputs(batch_size=1, seq_len=lengths[i],
                           seed=DATA_SEED0 + i)
            for i in range(len(lengths))]
    store = tempfile.mkdtemp(prefix="shard-bench-store-")
    try:
        sharded = run_shard_load(wl, pool, args.workers, args, store)
        baseline = run_shard_load(wl, pool, 1, args, store)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    scaling = (sharded["throughput_rps"] / baseline["throughput_rps"]
               if baseline["throughput_rps"] else float("inf"))
    return {"workload": name, "sharded": sharded, "baseline": baseline,
            "scaling": scaling,
            "warm_restart_compiles": baseline["compiles"]}


def bench_workload(name: str, args: argparse.Namespace
                   ) -> Dict[str, object]:
    """Benchmark one workload: batched policy vs max_batch_size=1."""
    wl = get_workload(name)
    pool = build_request_args(wl, args.seq_len, args.distinct_inputs)
    common = dict(workers=args.workers, batch_wait_s=args.batch_wait_ms / 1e3,
                  queue_capacity=args.queue_capacity,
                  request_timeout_s=args.timeout_s,
                  verify=("off" if args.no_verify else "batch"),
                  tuning_db_path=args.tune_db)
    batched_policy = ServePolicy(max_batch_size=args.max_batch, **common)
    baseline_policy = ServePolicy(max_batch_size=1, **common)

    batched = run_load(wl, pool, batched_policy, args.requests,
                       args.concurrency, args.pipeline, args.platform,
                       warmup=args.warmup)
    baseline = run_load(wl, pool, baseline_policy, args.requests,
                        args.concurrency, args.pipeline, args.platform,
                        warmup=min(args.warmup, args.max_batch))
    speedup = (batched["throughput_rps"] / baseline["throughput_rps"]
               if baseline["throughput_rps"] else float("inf"))
    return {"workload": name, "batched": batched, "baseline": baseline,
            "throughput_speedup": speedup}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns dropped + diverging request count."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve_bench",
        description="closed-loop serving benchmark: dynamic batching "
                    "vs batch-size-1 serving")
    parser.add_argument("--workloads", type=str, default="lstm,attention")
    parser.add_argument("--requests", type=int, default=200,
                        help="requests per workload per mode")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop client threads")
    parser.add_argument("--workers", type=int, default=4,
                        help="server worker threads")
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--batch-wait-ms", type=float, default=4.0)
    parser.add_argument("--seq-len", type=int, default=16)
    parser.add_argument("--pipeline", type=str, default="tensorssa")
    parser.add_argument("--platform", type=str, default="datacenter")
    parser.add_argument("--distinct-inputs", type=int, default=32,
                        help="distinct request payloads cycled through")
    parser.add_argument("--warmup", type=int, default=16,
                        help="untimed warmup requests per mode")
    parser.add_argument("--queue-capacity", type=int, default=512)
    parser.add_argument("--timeout-s", type=float, default=120.0,
                        help="per-request deadline")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the eager bit-exactness oracle")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless some workload's batched "
                             "throughput beats baseline by this factor")
    parser.add_argument("--sharded", action="store_true",
                        help="benchmark the multi-process shard fleet "
                             "(repro.shard): --workers worker "
                             "processes vs one, sharing an artifact "
                             "store so the second fleet warm-starts "
                             "with zero compiles")
    parser.add_argument("--shard-keys", type=int, default=12,
                        help="distinct sequence lengths in the sharded "
                             "request pool (= hash-ring keys)")
    parser.add_argument("--min-scaling", type=float, default=None,
                        help="sharded mode: fail unless some "
                             "workload's N-worker throughput beats "
                             "1-worker by this factor")
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
    parser.add_argument("--out", type=str,
                        default="results/serve_bench.json")
    args = parser.parse_args(argv)

    names = [w.strip() for w in args.workloads.split(",") if w.strip()]

    report = {
        "config": {k: v for k, v in vars(args).items() if k != "out"},
        "workloads": [],
    }
    failures = 0

    if args.sharded:
        if args.out == "results/serve_bench.json":
            args.out = "results/shard_bench.json"
        for name in names:
            print(f"[{name}] sharded: {args.requests} requests x "
                  f"{args.concurrency} clients, {args.workers} worker "
                  f"processes vs 1, {args.shard_keys} ring keys")
            entry = bench_workload_sharded(name, args)
            report["workloads"].append(entry)
            for mode in ("sharded", "baseline"):
                e = entry[mode]
                failures += e["dropped"]
                print(f"  {mode:<9} workers={e['workers']}  "
                      f"{e['throughput_rps']:8.1f} req/s  "
                      f"compiles {e['compiles']:3d}  "
                      f"dropped {e['dropped']}")
            print(f"  scaling   {entry['scaling']:.2f}x  "
                  f"warm-restart compiles "
                  f"{entry['warm_restart_compiles']}")
            # the crash-restart property, gated as a benchmark: the
            # warm-started 1-worker fleet must never cold compile
            failures += entry["warm_restart_compiles"]
        best = max((e["scaling"] for e in report["workloads"]),
                   default=0.0)
        report["best_scaling"] = best
        cores = os.cpu_count() or 1
        report["cpu_count"] = cores
        if cores < args.workers:
            print(f"note: {cores} CPU core(s) < {args.workers} workers "
                  f"— throughput scaling is not expressible on this "
                  f"machine; the availability and warm-restart gates "
                  f"still hold")
        if args.min_scaling is not None and best < args.min_scaling:
            print(f"FAIL: best scaling {best:.2f}x < required "
                  f"{args.min_scaling:.2f}x")
            failures += 1
        report["failures"] = failures
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nbest scaling {best:.2f}x, {failures} failure(s); "
              f"wrote {out}")
        return failures

    if args.dynamic_shapes:
        rng = random.Random(args.shape_seed)
        lengths = [rng.randint(args.dyn_seq_min, args.dyn_seq_max)
                   for _ in range(args.distinct_inputs)]
        report["config"]["lengths"] = lengths
        for name in names:
            print(f"[{name}] {args.requests} requests x "
                  f"{args.concurrency} clients, lengths in "
                  f"[{args.dyn_seq_min}, {args.dyn_seq_max}] "
                  f"(seed {args.shape_seed}), max_batch={args.max_batch}")
            entry = bench_workload_dynamic(name, args, lengths)
            report["workloads"].append(entry)
            for mode in ("family", "concrete"):
                e = entry[mode]
                failures += e["dropped"] + e["diverged"]
                if args.tune_db is not None:
                    failures += _tune_searches(e)
                print(f"  {mode:<9} {e['throughput_rps']:8.1f} req/s  "
                      f"compiles {e['compiles']:3d} "
                      f"({e['compiles_per_1k_requests']:6.1f}/1k)  "
                      f"occupancy {e['batch_occupancy']:.2f}  "
                      f"dropped {e['dropped']}  diverged {e['diverged']}")
            print(f"  compile ratio {entry['compile_ratio']:.1f}x, "
                  f"occupancy gain {entry['occupancy_gain']:+.2f}")
            if entry["compile_ratio"] < args.min_compile_ratio:
                print(f"  FAIL: compile ratio {entry['compile_ratio']:.1f}x"
                      f" < required {args.min_compile_ratio:.1f}x")
                failures += 1
            if entry["occupancy_gain"] <= 0:
                print("  FAIL: family occupancy not strictly above "
                      "concrete")
                failures += 1
        report["failures"] = failures
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\n{failures} failure(s); wrote {out}")
        return failures

    for name in names:
        print(f"[{name}] {args.requests} requests x {args.concurrency} "
              f"clients, max_batch={args.max_batch} "
              f"(pipeline={args.pipeline})")
        entry = bench_workload(name, args)
        report["workloads"].append(entry)
        for mode in ("batched", "baseline"):
            e = entry[mode]
            failures += e["dropped"] + e["diverged"]
            print(f"  {mode:<9} {e['throughput_rps']:8.1f} req/s  "
                  f"p50 {e['server']['latency_p50_ms']:7.1f}ms  "
                  f"p95 {e['server']['latency_p95_ms']:7.1f}ms  "
                  f"mean batch {e['mean_batch_requests']:.2f}  "
                  f"cache hit {e['server']['cache_hit_rate']:.0%}  "
                  f"dropped {e['dropped']}  diverged {e['diverged']}")
            if args.tune_db is not None:
                searches = _tune_searches(e)
                failures += searches
                print(f"            tuned {e['server'].get('tuned', 0)}"
                      f"  schedules "
                      f"{e['server'].get('schedule_hist', {})}  "
                      f"tuning-time searches {searches}"
                      + ("  FAIL: hot path searched" if searches else ""))
        print(f"  speedup   {entry['throughput_speedup']:.2f}x")

    best = max((e["throughput_speedup"] for e in report["workloads"]),
               default=0.0)
    report["best_speedup"] = best
    report["failures"] = failures
    if args.min_speedup is not None and best < args.min_speedup:
        print(f"FAIL: best speedup {best:.2f}x < required "
              f"{args.min_speedup:.2f}x")
        failures += 1
        report["failures"] = failures

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nbest speedup {best:.2f}x, {failures} failure(s); "
          f"wrote {out}")
    return failures


if __name__ == "__main__":
    sys.exit(main())

"""Trace CLI: run a workload under the obs layer, export Chrome trace.

``python -m repro.tools.trace --workload lstm`` compiles and runs one
workload under a context-local trace sink, writes
``results/trace_<workload>_<pipeline>.json`` in the
``chrome://tracing`` / Perfetto object format, validates it against the
schema checker, and gates on root-span coverage: the top-level spans
must account for at least ``--min-coverage`` (default 95%) of the
measured wall window.

Modes:

* default — one ``run_workload`` call under :func:`repro.obs.tracing`;
  prints a per-stage time breakdown (span durations grouped by name).
* ``--serve N`` — replay a serving campaign: a live
  :class:`~repro.serve.Server` under :func:`repro.obs.global_tracing`
  (worker threads report into one trace), ``N`` requests submitted and
  awaited; every response carries its per-request lifecycle timeline.
* ``--overhead-check`` — the disabled-mode overhead gate: times the
  instrumented-but-disabled stack (no sink installed) against a
  :func:`repro.obs.null_instrumentation` bypass baseline and fails if
  the overhead exceeds ``--max-overhead`` (default 5%).

Exit status is the number of failed gates, so CI can run it directly
(the ``trace-smoke`` job does).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from ..eval.cache import CompileCache
from ..eval.harness import run_workload
from ..obs import (chrome_trace, coverage_fraction, global_tracing,
                   null_instrumentation, tracing, validate_chrome_trace,
                   write_chrome_trace)
from ..obs import trace as obs_trace
from ..serve import ServePolicy, Server
from .drive import burst, common_args, tally


def _stage_breakdown(trace_obj) -> Dict[str, float]:
    """Total seconds per span name (summed over occurrences)."""
    totals: Dict[str, float] = {}
    for s in trace_obj.spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration_s
    return totals


def _print_breakdown(trace_obj, wall_s: float, top: int = 18) -> None:
    """Print the largest span-name totals as a stage-time table."""
    totals = _stage_breakdown(trace_obj)
    print(f"  stage breakdown ({len(trace_obj.spans)} spans, "
          f"wall {wall_s * 1e3:.1f} ms):")
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1])[:top]:
        print(f"    {name:<28s} {total * 1e3:9.3f} ms "
              f"({100.0 * total / wall_s:5.1f}% of wall)")


def export_trace(trace_obj, out: str) -> int:
    """Write ``trace_obj`` to ``out`` as Chrome-trace JSON and check the
    document against the schema; prints each violation and returns how
    many there were (failed gates, to the callers)."""
    problems = validate_chrome_trace(chrome_trace(trace_obj))
    for p in problems:
        print(f"  SCHEMA: {p}")
    path = write_chrome_trace(trace_obj, out)
    print(f"  wrote {path} ({path.stat().st_size} bytes)")
    return len(problems)


def _trace_workload(args: argparse.Namespace) -> int:
    """Default mode: one traced run_workload call; returns failures."""
    failures = 0
    with tracing(name=f"{args.workload}/{args.pipeline}",
                 seed=args.seed) as trace_obj:
        t0 = time.perf_counter()
        # check=True raises on divergence from eager, aborting the gate
        result = run_workload(args.workload, args.pipeline,
                              batch_size=args.batch_size,
                              seq_len=args.seq_len, seed=args.seed,
                              check=True, cache=CompileCache())
        t1 = time.perf_counter()
    wall = t1 - t0
    cover = coverage_fraction(trace_obj, (t0, t1))
    print(f"trace: {args.workload}/{args.pipeline} "
          f"(seed {args.seed}, trace_id {trace_obj.trace_id})")
    print(f"  spans {len(trace_obj.spans)}  roots {len(trace_obj.roots())}"
          f"  coverage {cover * 100:.1f}%  "
          f"latency {result.latency_ms:.2f} ms (modeled)")
    if cover < args.min_coverage:
        print(f"  FAIL: root-span coverage {cover * 100:.1f}% < "
              f"{args.min_coverage * 100:.0f}%")
        failures += 1
    _print_breakdown(trace_obj, wall)
    return failures + export_trace(
        trace_obj,
        args.out or f"results/trace_{args.workload}_{args.pipeline}.json")


def _trace_serve(args: argparse.Namespace) -> int:
    """``--serve N`` mode: traced serving campaign; returns failures."""
    failures = 0
    n = args.serve
    with global_tracing(name=f"serve:{args.workload}",
                        seed=args.seed) as trace_obj:
        policy = ServePolicy(workers=2, max_batch_size=4)
        with Server(policy) as srv:
            load = burst(srv, args.workload,
                         [{"seed": args.seed + i} for i in range(n)],
                         pipeline=args.pipeline,
                         batch_size=args.batch_size, seq_len=args.seq_len)
            counts, responses = tally(load, hang_timeout_s=60.0)
        stats = srv.stats.to_dict()
    ok = counts["ok"]
    responses = [r for r in responses if r is not None]
    with_timeline = sum(1 for r in responses if r.timeline)
    events = sorted({e["event"] for r in responses for e in r.timeline})
    print(f"serve replay: {n} requests, {ok} ok, "
          f"{stats['batches_executed']} batches "
          f"(flushed {stats['flushes_by_reason']}), "
          f"{len(trace_obj.spans)} spans")
    print(f"  request timelines: {with_timeline}/{n} populated, "
          f"events {events}")
    if ok != n:
        print(f"  FAIL: {n - ok} request(s) not served ok")
        failures += 1
    if with_timeline != n:
        print(f"  FAIL: {n - with_timeline} response(s) missing a "
              f"lifecycle timeline")
        failures += 1
    for required in ("enqueue", "dequeue", "execute", "finish"):
        if required not in events:
            print(f"  FAIL: no response timeline recorded {required!r}")
            failures += 1
    return failures + export_trace(
        trace_obj, args.out or f"results/trace_serve_{args.workload}.json")


def _time_one(args: argparse.Namespace) -> float:
    """Wall time of one uncached workload run."""
    t0 = time.perf_counter()
    run_workload(args.workload, args.pipeline,
                 batch_size=args.batch_size, seq_len=args.seq_len,
                 seed=args.seed, cache=CompileCache())
    return time.perf_counter() - t0


def _overhead_check(args: argparse.Namespace) -> int:
    """Gate disabled-mode instrumentation overhead; returns failures."""
    assert not obs_trace.tracing_active(), \
        "overhead check must run with no sink installed"
    _time_one(args)  # warmup (imports, op registry, numpy pools)
    # interleave the two modes pairwise so machine drift (thermal, CI
    # noisy neighbors) hits both equally; best-of damps outliers
    baseline = disabled = float("inf")
    for _ in range(args.overhead_repeats):
        with null_instrumentation():
            baseline = min(baseline, _time_one(args))
        disabled = min(disabled, _time_one(args))
    overhead = (disabled - baseline) / baseline if baseline > 0 else 0.0
    print(f"overhead: baseline {baseline * 1e3:.2f} ms, "
          f"disabled-instrumentation {disabled * 1e3:.2f} ms "
          f"-> {overhead * 100:+.2f}% (gate {args.max_overhead * 100:.0f}%)")
    if overhead > args.max_overhead:
        print(f"  FAIL: disabled-mode overhead {overhead * 100:.2f}% "
              f"exceeds {args.max_overhead * 100:.0f}%")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry; returns the number of failed gates."""
    ap = argparse.ArgumentParser(
        prog="repro.tools.trace",
        description="run a workload under structured tracing and export "
                    "Chrome-trace JSON")
    ap.add_argument("--workload", default="lstm")
    common_args(ap, pipeline="tensorssa", batch_size=1, seq_len=16, seed=0,
                out=(None, "output path (default results/trace_*.json)"))
    ap.add_argument("--min-coverage", type=float, default=0.95,
                    help="root-span coverage gate (fraction of wall)")
    ap.add_argument("--serve", type=int, default=0, metavar="N",
                    help="replay a serve campaign of N requests instead "
                         "of a single harness run")
    ap.add_argument("--overhead-check", action="store_true",
                    help="gate disabled-mode instrumentation overhead")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="overhead gate as a fraction (default 0.05)")
    ap.add_argument("--overhead-repeats", type=int, default=5,
                    help="best-of repeats per mode for the overhead gate")
    args = ap.parse_args(argv)

    if args.overhead_check:
        return _overhead_check(args)
    if args.serve > 0:
        return _trace_serve(args)
    return _trace_workload(args)


if __name__ == "__main__":
    sys.exit(main())

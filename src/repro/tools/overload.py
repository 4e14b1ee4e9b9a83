"""Overload drill: admission control at 2x saturation load.

``python -m repro.tools.overload --seed 0`` measures the server's
saturation throughput with a short closed-loop probe, then drives an
*open-loop* paced campaign at ``--overload-factor`` (default 2x) that
rate against two server configurations:

* **baseline** — the pre-admission-control world: no priority lanes
  (every request submits at priority 0), no shedding, reject-on-full
  as the only overload response.
* **qos** — priority lanes (25% of traffic is high-priority "gold",
  the rest low-priority "free"), per-tenant token-bucket quotas, and
  percentile-driven load shedding.

Both campaigns run the same scheduler — their policies differ only in
admission-control values (``shed_enabled``, ``tenant_rates``), which is
what the drill isolates — and serve the identical seeded request
sequence with
``verify="batch"`` (every executed batch checked bit-exact against
eager), optionally under a deterministic latency-only
:class:`~repro.faults.FaultPlan` (``--chaos latency``, the default) so
the drill exercises the degradation machinery too, and run under
``global_tracing`` — the qos trace is exported to Chrome format and
schema-validated, with ``serve:shed`` / ``serve:batch`` span counts
reported.

The queue capacity is sized *from the probe* at ``2 x saturation x
deadline``, so in the baseline a full queue takes twice the deadline
budget to drain and steady-state FIFO waits blow every deadline, while
the qos shedder keeps recent queue waits inside the budget and the
high-priority lane keeps draining.  The drill gates on:

* zero unresolved futures (hangs) and zero untyped errors,
* zero batch-oracle divergences,
* qos high-priority client-observed p99 latency within the deadline
  budget,
* qos goodput (ok responses / campaign wall) strictly above baseline.

Results land in ``results/overload.json``; the exit status is the
number of failed gates (CI-friendly, like the other drills).
"""

from __future__ import annotations

import argparse
import collections
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..faults import (Fault, FaultPlan, FaultRule, KIND_LATENCY,
                      SITE_BATCH_EXEC, SITE_KERNEL_LAUNCH,
                      global_fault_scope)
from ..models import get_workload
from ..obs import global_tracing, percentile_nearest_rank
from ..serve import ServePolicy, Server
from .drive import (common_args, open_loop, request_pool,
                    serve_closed_loop, tally, write_report)
from .trace import export_trace

#: the two traffic classes the drill mixes
KIND_HIGH = "high"
KIND_LOW = "low"


def build_chaos_plan(seed: int) -> FaultPlan:
    """A latency-only fault plan: jitter, never corruption.

    Probabilistic latency injections on kernel launches and batch
    executions stress the deadline/shedding machinery without ever
    producing wrong results, so the drill's correctness gates stay
    meaningful under chaos.
    """
    rules = [
        FaultRule(site=SITE_KERNEL_LAUNCH, probability=0.05, times=None,
                  fault=Fault(kind=KIND_LATENCY, latency_s=0.001)),
        FaultRule(site=SITE_BATCH_EXEC, probability=0.10, times=None,
                  fault=Fault(kind=KIND_LATENCY, latency_s=0.002)),
    ]
    return FaultPlan(rules, seed=seed)


def probe_saturation(args: argparse.Namespace) -> float:
    """Closed-loop saturation throughput (req/s) of the qos-free server.

    Short and warmup-primed: it only needs to be the right order of
    magnitude, since the campaign's queue capacity and pacing both
    derive from it (keeping the drill's overload geometry
    machine-independent).
    """
    wl = get_workload(args.workload)
    pool = request_pool(wl, [args.low_seq_len] * args.distinct_inputs)
    policy = _policy(args, queue_capacity=4096, request_timeout_s=60.0,
                     shed_enabled=False)
    run = serve_closed_loop(wl, pool, policy, args.probe_requests,
                            args.concurrency, warmup=args.warmup,
                            pipeline=args.pipeline, platform=args.platform)
    return float(run["throughput_rps"])


def _draw_kinds(seed: int, n: int, high_fraction: float) -> List[str]:
    """The seeded per-request traffic-class sequence (shared by both
    campaign modes so they serve identical workload mixes)."""
    rng = random.Random(seed ^ 0xC0FFEE)
    return [KIND_HIGH if rng.random() < high_fraction else KIND_LOW
            for _ in range(n)]


def _policy(args: argparse.Namespace, **admission) -> ServePolicy:
    """The drill's one scheduler configuration; the probe and the two
    campaign modes differ only in the ``admission`` values on top."""
    return ServePolicy(
        workers=args.workers, max_batch_size=args.max_batch,
        batch_wait_s=args.batch_wait_ms / 1e3,
        verify=("off" if args.no_verify else "batch"), **admission)


def _campaign_policy(mode: str, args: argparse.Namespace,
                     queue_capacity: int,
                     free_rate: float) -> ServePolicy:
    """The server policy for one campaign mode."""
    common = dict(queue_capacity=queue_capacity, reject_on_full=True,
                  request_timeout_s=args.timeout_s)
    if mode == "baseline":
        return _policy(args, shed_enabled=False, **common)
    return _policy(
        args, shed_enabled=True,
        tenant_rates={"free": (free_rate, max(8.0, free_rate))},
        **common)


def run_campaign(mode: str, args: argparse.Namespace, rate_rps: float,
                 queue_capacity: int, kinds: List[str],
                 plan: Optional[FaultPlan]
                 ) -> Tuple[Dict[str, object], object]:
    """One :func:`~repro.tools.drive.open_loop` campaign paced at
    ``rate_rps``; returns (report, trace object).  ``reject_on_full``
    keeps the pacer from ever blocking in ``submit``."""
    wl = get_workload(args.workload)
    pools = {KIND_HIGH: request_pool(
                 wl, [args.high_seq_len] * args.distinct_inputs),
             KIND_LOW: request_pool(
                 wl, [args.low_seq_len] * args.distinct_inputs)}
    free_rate = rate_rps * (1.0 - args.high_fraction) * args.free_quota
    policy = _campaign_policy(mode, args, queue_capacity, free_rate)
    qos = mode == "qos"
    requests = [
        {"args": pools[kind][i % args.distinct_inputs],
         "priority": args.high_priority if qos and kind == KIND_HIGH else 0,
         "tenant": ("gold" if kind == KIND_HIGH else "free")
         if qos else "default"}
        for i, kind in enumerate(kinds)]
    with global_fault_scope(plan), global_tracing(
            name=f"overload:{mode}", seed=args.seed) as trace_obj:
        server = Server(policy)
        try:
            load = open_loop(server, wl, requests, rate_rps,
                             pipeline=args.pipeline, platform=args.platform)
            counts, responses = tally(load, args.hang_timeout_s)
            wall = time.perf_counter() - load.started_at
            server.shutdown(drain=True, timeout=args.hang_timeout_s)
        finally:
            server.shutdown(drain=False, timeout=1.0)

    by_status: Dict[str, int] = {}
    by_kind = {KIND_HIGH: {"sent": 0, "ok": 0, "latencies": []},
               KIND_LOW: {"sent": 0, "ok": 0, "latencies": []}}
    for i, (kind, resp) in enumerate(zip(kinds, responses)):
        slot = by_kind[kind]
        slot["sent"] += 1
        if resp is None:
            continue
        by_status[resp.status] = by_status.get(resp.status, 0) + 1
        if resp.ok and resp.verified is not False:
            slot["ok"] += 1
            slot["latencies"].append(load.done_at[i] - load.sent_at[i])
    stats = server.stats.to_dict()
    report: Dict[str, object] = {
        "mode": mode,
        **counts,
        "wall_s": wall,
        "goodput_rps": counts["ok"] / wall if wall > 0 else 0.0,
        "diverged": counts["wrong"],
        "by_status": dict(sorted(by_status.items())),
        "shed": stats["shed"],
        "quota_rejected": stats["quota_rejected"],
        "rejected": stats["rejected"],
        "server": stats,
    }
    for kind, slot in by_kind.items():
        lat = slot.pop("latencies")
        slot["p50_ms"] = percentile_nearest_rank(lat, 50) * 1e3
        slot["p99_ms"] = percentile_nearest_rank(lat, 99) * 1e3
        report[kind] = slot
    return report, trace_obj


def run_drill(args: argparse.Namespace) -> Tuple[Dict[str, object], int]:
    """The full drill: probe, both campaigns, gates.  Returns
    (report, failed-gate count)."""
    failures = 0
    plan = build_chaos_plan(args.seed) if args.chaos == "latency" else None

    sat_rps = probe_saturation(args)
    rate = sat_rps * args.overload_factor
    queue_capacity = max(32, int(sat_rps * args.timeout_s
                                 * args.overload_factor))
    print(f"probe: saturation {sat_rps:.0f} req/s -> pacing "
          f"{rate:.0f} req/s ({args.overload_factor:g}x), queue "
          f"capacity {queue_capacity}, deadline {args.timeout_s:g}s, "
          f"chaos={args.chaos}")

    kinds = _draw_kinds(args.seed, args.requests, args.high_fraction)
    report: Dict[str, object] = {
        "saturation_rps": sat_rps,
        "paced_rps": rate,
        "queue_capacity": queue_capacity,
        "high_requests": kinds.count(KIND_HIGH),
        "low_requests": kinds.count(KIND_LOW),
    }

    campaigns: Dict[str, Dict[str, object]] = {}
    qos_trace = None
    for mode in ("baseline", "qos"):
        entry, trace_obj = run_campaign(mode, args, rate, queue_capacity,
                                        kinds, plan)
        campaigns[mode] = entry
        if mode == "qos":
            qos_trace = trace_obj
        print(f"  {mode:<9} goodput {entry['goodput_rps']:7.1f} req/s  "
              f"ok {entry['ok']:4d}/{entry['requests']}  "
              f"high p99 {entry['high']['p99_ms']:7.1f}ms  "
              f"shed {entry['shed']:4d}  rejected {entry['rejected']:4d}  "
              f"hangs {entry['hangs']}  untyped "
              f"{entry['untyped_errors']}  diverged {entry['diverged']}")
    report["campaigns"] = campaigns

    # -- trace export (qos campaign) ------------------------------------
    names = collections.Counter(span.name for span in qos_trace.spans)
    spans = {name: names[name] for name in ("serve:shed", "serve:batch")}
    report["qos_spans"] = spans
    trace_out = Path(args.out).with_name("overload_trace.json")
    report["trace_path"] = str(trace_out)
    print(f"  qos trace: {spans}")
    failures += export_trace(qos_trace, trace_out)

    # -- gates ----------------------------------------------------------
    gates: List[Dict[str, object]] = []

    def gate(name: str, passed: bool, detail: str) -> None:
        gates.append({"name": name, "passed": bool(passed),
                      "detail": detail})
        if not passed:
            print(f"  FAIL [{name}]: {detail}")

    for mode, entry in campaigns.items():
        gate(f"{mode}:no_hangs", entry["hangs"] == 0,
             f"{entry['hangs']} unresolved future(s)")
        gate(f"{mode}:no_untyped_errors", entry["untyped_errors"] == 0,
             f"{entry['untyped_errors']} untyped error(s)")
        gate(f"{mode}:no_divergence", entry["diverged"] == 0,
             f"{entry['diverged']} batch-oracle divergence(s)")
    qos, base = campaigns["qos"], campaigns["baseline"]
    budget_ms = args.timeout_s * 1e3
    gate("qos:high_p99_within_deadline",
         qos["high"]["ok"] > 0 and qos["high"]["p99_ms"] <= budget_ms,
         f"high-priority p99 {qos['high']['p99_ms']:.1f}ms vs budget "
         f"{budget_ms:.0f}ms ({qos['high']['ok']} ok)")
    gate("qos:goodput_beats_baseline",
         qos["goodput_rps"] > base["goodput_rps"],
         f"qos {qos['goodput_rps']:.1f} req/s vs baseline "
         f"{base['goodput_rps']:.1f} req/s")
    failures += sum(1 for g in gates if not g["passed"])
    report["gates"] = gates
    report["failures"] = failures
    return report, failures


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the number of failed gates."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.overload",
        description="2x-saturation overload drill: admission control "
                    "vs the reject-on-full baseline")
    parser.add_argument("--workload", type=str, default="lstm")
    common_args(
        parser, out="results/overload.json",
        requests=(1000, "paced requests per campaign mode (long enough "
                        "that steady-state overload, not the fill "
                        "transient, dominates)"),
        seed=(0, "seed for the traffic mix and chaos plan"),
        hang_timeout_s=(30.0, "seconds before an unresolved future "
                              "counts as a hang"),
        timeout_s=(0.8, "per-request deadline (the budget every gate "
                        "measures against)"),
        workers=2, max_batch=4, batch_wait_ms=2.0,
        concurrency=(8, "closed-loop clients in the probe"), warmup=16,
        distinct_inputs=16, pipeline="tensorssa", platform="datacenter")
    parser.add_argument("--overload-factor", type=float, default=2.0,
                        help="paced rate as a multiple of saturation")
    parser.add_argument("--high-fraction", type=float, default=0.25,
                        help="fraction of traffic that is high priority")
    parser.add_argument("--high-priority", type=int, default=2,
                        help="lane of the gold tenant's requests")
    parser.add_argument("--free-quota", type=float, default=1.0,
                        help="free tenant's token rate as a multiple of "
                             "its paced arrival rate")
    parser.add_argument("--probe-requests", type=int, default=96)
    parser.add_argument("--high-seq-len", type=int, default=8,
                        help="sequence length of high-priority requests "
                             "(its own batch group = its own lane)")
    parser.add_argument("--low-seq-len", type=int, default=16,
                        help="sequence length of low-priority requests")
    parser.add_argument("--chaos", choices=("off", "latency"),
                        default="latency",
                        help="latency-only fault plan under both "
                             "campaigns (off to disable)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the batch bit-exactness oracle")
    args = parser.parse_args(argv)

    report, failures = run_drill(args)
    return write_report(report, args, failures)


if __name__ == "__main__":
    sys.exit(main())

"""Chaos harness: seeded fault campaigns against the whole stack.

``python -m repro.tools.chaos --seed 0 --campaigns 25`` derives a
deterministic :class:`~repro.faults.FaultPlan` per campaign (primary
injection site cycling through all seven sites, plus extra random
rules — errors and latency, one-shot and persistent) and drives it
through three paths:

* **harness campaigns** — ``run_workload_resilient`` calls under a
  context-local ``fault_scope``, each result checked *bit-exact*
  against a fault-free eager reference;
* **serve campaigns** — a live :class:`~repro.serve.Server`
  (``verify="batch"``) under a ``global_fault_scope`` so the
  worker threads see the plan, every future awaited with a hang
  timeout;
* **shard campaigns** — when the primary site is ``process_kill`` or
  ``heartbeat_stall``, a live multi-process
  :class:`~repro.shard.ShardRouter` fleet whose *workers* run the plan
  (shipped as a spec across the spawn boundary); firings are observed
  in the parent as supervisor-detected deaths.

The contract each campaign enforces is the paper-stack's availability
discipline: every request either returns bit-exact-correct output
(possibly served by a lower ladder rung) or a clean *typed* error —
never a hang, a wrong answer, an untyped crash, or torn process state
(a :class:`~repro.faults.StateAuditor` checks profiler/pool stacks and
compile-cache in-flight slots after every campaign).  The first two
campaigns run fault-free as controls and additionally demand fallback
depth 0 and 100% availability.

Writes ``results/chaos.json`` (availability %, fallback-depth
histogram, per-site fault counts, breaker transitions).  Exit status is
``hangs + torn audits + wrong answers + untyped errors + uncovered
sites``, so CI gates on it directly.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from concurrent.futures import Future
from typing import Dict, List, Optional

from ..degrade import BreakerRegistry
from ..eval.cache import CompileCache, clone_args
from ..eval.harness import run_workload, run_workload_resilient
from ..faults import (ALL_SITES, Fault, FaultPlan, FaultRule,
                      KIND_LATENCY, SITE_ALLOC, SITE_BATCH_EXEC,
                      SITE_FUSION_COMPILE, SITE_HEARTBEAT_STALL,
                      SITE_KERNEL_LAUNCH, SITE_PASS, SITE_PROCESS_KILL,
                      StateAuditor, fault_scope, global_fault_scope)
from ..models import get_workload
from ..serve import Response, STATUS_OK, ServePolicy, Server
from ..shard import ShardRouter
from ..shard.ipc import HEARTBEAT_TIMEOUT_S
from .drive import (burst, common_args, request_pool, tally,
                    write_report)
from .sharddrill import LEDGER, fleet_policy

#: per-request data seeds start here (campaign c, request j -> BASE+17c+j)
DATA_SEED0 = 50_000

#: plausible hit-count ceilings per site for nth-based scheduling (a
#: seq_len-8 lstm run performs dozens of launches/allocs but only a
#: handful of passes/fusion compiles/batches)
_MAX_NTH = {
    SITE_KERNEL_LAUNCH: 60,
    SITE_ALLOC: 40,
    SITE_FUSION_COMPILE: 4,
    SITE_PASS: 6,
    SITE_BATCH_EXEC: 3,
    # shard-worker checkpoints: boot + one per submit receipt/reply
    SITE_PROCESS_KILL: 3,
    # heartbeat beats accrue fast; fire within the first few
    SITE_HEARTBEAT_STALL: 2,
}

#: sites whose checkpoints live inside spawned shard workers — a
#: campaign with one of these as primary runs in shard mode, and the
#: parent observes firings through supervisor death detection (the
#: child's fault log dies with the child)
_SHARD_SITES = (SITE_PROCESS_KILL, SITE_HEARTBEAT_STALL)

#: ``ServePolicy.fallback_chain`` under ``--no-ladder``: the requested
#: pipeline alone (None, the default ladder, otherwise)
_NO_FALLBACK = ("tensorssa",)

#: sites where a *persistent* fault still leaves the eager floor
#: reachable (eager runs no passes, no fusion compiles, no batch step,
#: and allocates outside any MemoryPool)
_PERSISTABLE = (SITE_ALLOC, SITE_FUSION_COMPILE, SITE_PASS,
                SITE_BATCH_EXEC)


def _make_rule(site: str, rng: random.Random) -> FaultRule:
    """One deterministic rule for ``site`` drawn from ``rng``."""
    if site in _SHARD_SITES:
        # a latency fault at a kill/stall checkpoint is a no-op; these
        # sites only mean anything as hard errors
        return FaultRule(site=site, nth=rng.randint(0, _MAX_NTH[site]),
                         times=1, fault=Fault())
    if rng.random() < 0.15:
        fault = Fault(kind=KIND_LATENCY,
                      latency_s=rng.uniform(0.0005, 0.003))
    else:
        fault = Fault()
    if site in _PERSISTABLE and rng.random() < 0.3:
        # persistent probabilistic fault: the ladder must route around
        # the rung for the campaign's whole lifetime
        return FaultRule(site=site, probability=rng.uniform(0.3, 1.0),
                         times=None, fault=fault)
    # one-shot (or few-shot) fault: retries and fallbacks absorb it
    return FaultRule(site=site, nth=rng.randint(0, _MAX_NTH[site]),
                     times=rng.choice([1, 1, 1, 2]), fault=fault)


def build_plan(seed: int, index: int, primary_site: str) -> FaultPlan:
    """The campaign's deterministic fault schedule."""
    rng = random.Random((seed << 20) ^ (index * 0x9E3779B1))
    rules = [_make_rule(primary_site, rng)]
    for _ in range(rng.randint(0, 2)):
        rules.append(_make_rule(rng.choice(ALL_SITES), rng))
    return FaultPlan(rules, seed=(seed << 8) ^ index)


class _Harness:
    """``run_workload`` behind the ``submit`` contract (run inline, the
    result or the exception delivered through a resolved future), so
    the harness campaign is driven and tallied like the serving ones."""

    def __init__(self, ladder: bool) -> None:
        self.ladder = ladder
        self.cache = CompileCache()
        self.breakers = BreakerRegistry()

    def submit(self, workload: str, *, seq_len: int, seed: int) -> Future:
        """Run one request now; returns its already-resolved future."""
        fut: Future = Future()
        try:
            if self.ladder:
                r = run_workload_resilient(
                    workload, "tensorssa", seq_len=seq_len, seed=seed,
                    cache=self.cache, breakers=self.breakers)
            else:
                r = run_workload(workload, "tensorssa", seq_len=seq_len,
                                 seed=seed, cache=self.cache)
            fut.set_result(Response(
                request_id=seed, workload=workload, pipeline="tensorssa",
                platform=r.platform, status=STATUS_OK,
                served_by=r.served_by, fallback_depth=r.fallback_depth,
                degraded=r.degraded, outputs=r.outputs))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def _seeds(index: int, requests: int) -> List[int]:
    return [DATA_SEED0 + index * 17 + j for j in range(requests)]


def _result(mode: str, counts: Dict[str, object], auditor: StateAuditor,
            breaker_transitions: Dict[str, int]) -> Dict[str, object]:
    """A campaign's report entry: the tally plus the torn-state audit."""
    audit = auditor.audit()
    return {"mode": mode, **counts, "torn": len(audit), "audit": audit,
            "breaker_transitions": breaker_transitions}


def run_harness_campaign(workload: str, plan: Optional[FaultPlan],
                         index: int, requests: int, seq_len: int,
                         ladder: bool,
                         hang_timeout_s: float) -> Dict[str, object]:
    """``requests`` resilient runs under a context-local plan, each
    checked bit-exact against a fault-free eager reference."""
    seeds = _seeds(index, requests)
    # references computed before the plan installs: faults must never
    # touch the oracle
    refs = [run_workload(workload, "eager", seq_len=seq_len, seed=s,
                         cache=CompileCache()).outputs for s in seeds]
    harness = _Harness(ladder)
    auditor = StateAuditor(cache=harness.cache)
    with fault_scope(plan):
        load = burst(harness, workload, [{"seed": s} for s in seeds],
                     seq_len=seq_len)
    counts, _ = tally(load, hang_timeout_s, refs)
    return _result("harness", counts, auditor,
                   harness.breakers.transitions())


def run_serve_campaign(workload: str, plan: Optional[FaultPlan],
                       index: int, requests: int, seq_len: int,
                       ladder: bool,
                       hang_timeout_s: float) -> Dict[str, object]:
    """``requests`` through a live server under a global plan; every
    future must resolve within the hang timeout."""
    policy = ServePolicy(
        workers=2, max_batch_size=4, batch_wait_s=0.001,
        verify="batch", fallback_chain=None if ladder else _NO_FALLBACK,
        request_timeout_s=hang_timeout_s)
    server = Server(policy)
    auditor = StateAuditor(cache=server.cache)
    try:
        with global_fault_scope(plan):
            load = burst(server, workload,
                         [{"seed": s} for s in _seeds(index, requests)],
                         seq_len=seq_len)
            counts, _ = tally(load, hang_timeout_s)
            server.shutdown(drain=True, timeout=hang_timeout_s)
    finally:
        server.shutdown(drain=False, timeout=1.0)
    return _result("serve", counts, auditor,
                   server.executor.breakers.transitions())


def run_shard_campaign(workload: str, plan: Optional[FaultPlan],
                       index: int, requests: int, seq_len: int,
                       ladder: bool,
                       hang_timeout_s: float) -> Dict[str, object]:
    """``requests`` through a live multi-process shard fleet whose
    workers run the plan (shipped as a spec across the spawn
    boundary); the parent checks every answer bit-exact against its
    own eager oracle and observes fault firings as supervisor-detected
    deaths."""
    wl = get_workload(workload)
    pool = request_pool(wl, [seq_len] * requests,
                        seed0=DATA_SEED0 + index * 17)
    refs = [wl.model_fn(*clone_args(args)) for args in pool]
    policy = fleet_policy(
        plan.to_spec() if plan else None, hang_timeout_s,
        fallback_chain=None if ladder else _NO_FALLBACK)
    auditor = StateAuditor()
    with ShardRouter(policy) as router:
        router.wait_ready(2, timeout=60)
        load = burst(router, wl, [{"args": args} for args in pool],
                     timeout_s=hang_timeout_s)
        counts, _ = tally(load, hang_timeout_s * 2, refs)
        if plan is not None and any(rule.site in _SHARD_SITES
                                    for rule in plan.rules):
            # death detection is asynchronous (a stalled beacon only
            # shows after the heartbeat deadline): hold the fleet open
            # one detection window so the supervisor can witness it
            wait_until = time.monotonic() + HEARTBEAT_TIMEOUT_S + 1.0
            while time.monotonic() < wait_until \
                    and router.supervisor.deaths == 0:
                time.sleep(0.05)
        report = router.report()
    # supervisor-detected deaths are the parent-side witness for
    # faults that fired inside the children
    reasons = report["death_reasons"]
    fired: Dict[str, int] = {}
    kills = reasons.get("crash", 0) + reasons.get("boot", 0)
    if kills:
        fired[SITE_PROCESS_KILL] = kills
    if reasons.get("hang"):
        fired[SITE_HEARTBEAT_STALL] = reasons["hang"]
    out = _result("shard", counts, auditor, {})
    out["fired_by_site"] = fired
    out["shard"] = {k: report[k] for k in LEDGER}
    return out


_CAMPAIGNS = {"harness": run_harness_campaign, "serve": run_serve_campaign,
              "shard": run_shard_campaign}


def _merge_hist(total: Dict[str, int], part: Dict) -> None:
    for k, v in part.items():
        total[str(k)] = total.get(str(k), 0) + v


def run_campaigns(args: argparse.Namespace) -> Dict[str, object]:
    """Run every campaign of the configured sweep and aggregate the
    report: the primary fault site cycles through all seven sites
    (guaranteeing coverage), campaigns alternate harness/serve mode
    (serve whenever the primary is the serving-only ``batch_exec``
    site), and the first two run fault-free as controls."""
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    ladder = not args.no_ladder
    campaigns: List[Dict[str, object]] = []
    fired_by_site: Dict[str, int] = {}
    fallback_hist: Dict[str, int] = {}
    breaker_transitions: Dict[str, int] = {}
    untyped_strings: set = set()
    totals = {"requests": 0, "ok": 0, "degraded": 0, "wrong": 0,
              "typed_errors": 0, "untyped_errors": 0, "hangs": 0,
              "torn_audits": 0, "control_violations": 0}

    for i in range(args.campaigns):
        control = i < min(2, args.campaigns)  # first two run fault-free
        workload = workloads[i % len(workloads)]
        if control:
            plan, primary = None, "none"
            mode = "harness" if i % 2 == 0 else "serve"
        else:
            primary = ALL_SITES[(i - 2) % len(ALL_SITES)]
            plan = build_plan(args.seed, i, primary)
            if primary in _SHARD_SITES:
                mode = "shard"
            else:
                mode = "serve" if primary == SITE_BATCH_EXEC \
                    or i % 2 == 0 else "harness"
        start = time.perf_counter()
        result = _CAMPAIGNS[mode](workload, plan, i, args.requests,
                                  args.seq_len, ladder,
                                  args.hang_timeout_s)
        result.update(index=i, workload=workload, control=control,
                      primary_site=primary,
                      wall_s=time.perf_counter() - start)
        if plan is not None:
            # shard campaigns report detection-based firings already;
            # in-process campaigns read the plan's own log
            result.setdefault("fired_by_site", plan.fired_by_site())
            _merge_hist(fired_by_site, result["fired_by_site"])
        if control:
            # the fault-free control must be perfect: full availability
            # at fallback depth 0
            depths = set(result["fallback_depth_hist"])
            if result["ok"] != result["requests"] or depths - {0}:
                result["control_violation"] = True
                totals["control_violations"] += 1
        campaigns.append(result)
        totals["requests"] += result["requests"]
        for k in ("ok", "degraded", "wrong", "typed_errors",
                  "untyped_errors", "hangs"):
            totals[k] += result[k]
        totals["torn_audits"] += result["torn"]
        untyped_strings.update(result["untyped_error_strings"])
        _merge_hist(fallback_hist, result["fallback_depth_hist"])
        _merge_hist(breaker_transitions, result["breaker_transitions"])

    site_gaps = [s for s in ALL_SITES if not fired_by_site.get(s)]
    availability = 100.0 * totals["ok"] / max(1, totals["requests"])
    return {
        "campaigns": campaigns,
        "totals": {**totals,
                   "availability_pct": availability,
                   "untyped_error_strings": sorted(untyped_strings),
                   "fallback_depth_hist": fallback_hist,
                   "fired_by_site": fired_by_site,
                   "site_gaps": site_gaps,
                   "breaker_transitions": breaker_transitions},
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry; exit = hangs + torn + wrong + untyped + site gaps
    (+ control violations), i.e. zero only when chaos stayed clean."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.chaos",
        description="seeded fault-injection campaigns across the "
                    "harness and serving stack")
    common_args(parser, seed=0, workloads="lstm,attention",
                requests=(6, "requests per campaign"), seq_len=8,
                hang_timeout_s=(30.0, "a future unresolved past this "
                                      "counts as a hang"),
                out="results/chaos.json", campaigns=25)
    parser.add_argument("--no-ladder", action="store_true",
                        help="no fallback chain: serve on the requested "
                             "pipeline alone (ablation: availability "
                             "under faults collapses)")
    parser.add_argument("--min-availability", type=float, default=95.0,
                        help="fail below this availability %% "
                             "(ladder mode only)")
    args = parser.parse_args(argv)

    report = run_campaigns(args)
    t = report["totals"]
    print(f"chaos: {args.campaigns} campaigns, {t['requests']} requests "
          f"(seed {args.seed}, ladder "
          f"{'off' if args.no_ladder else 'on'})")
    print(f"  availability {t['availability_pct']:.1f}%  "
          f"degraded {t['degraded']}  typed errors {t['typed_errors']}")
    print(f"  hangs {t['hangs']}  torn audits {t['torn_audits']}  "
          f"wrong answers {t['wrong']}  untyped {t['untyped_errors']}")
    print(f"  faults fired by site: {t['fired_by_site']}")
    print(f"  fallback depths: {t['fallback_depth_hist']}  "
          f"breakers: {t['breaker_transitions']}")
    for text in t["untyped_error_strings"]:
        print(f"  UNTYPED: {text}")
    if t["site_gaps"]:
        print(f"  UNCOVERED SITES: {t['site_gaps']}")

    failures = (t["hangs"] + t["torn_audits"] + t["wrong"]
                + t["untyped_errors"] + len(t["site_gaps"])
                + t["control_violations"])
    if not args.no_ladder \
            and t["availability_pct"] < args.min_availability:
        print(f"FAIL: availability {t['availability_pct']:.1f}% < "
              f"{args.min_availability:.1f}%")
        failures += 1
    return write_report(report, args, failures)


if __name__ == "__main__":
    sys.exit(main())

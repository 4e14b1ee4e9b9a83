"""Kill-the-worker chaos drill for the sharded serving layer.

``python -m repro.tools.sharddrill --seed 0 --campaigns 10`` runs
seeded campaigns against a live :class:`~repro.shard.ShardRouter`
fleet, cycling through the failure modes the supervisor must survive:

* ``kill_submit`` — SIGKILL semantics (``os._exit(137)``) the moment a
  worker accepts a request: the cleanest redelivery case;
* ``kill_reply`` — the worker dies *after* executing but before the
  answer leaves: redelivery must still produce exactly one answer;
* ``stall`` — the heartbeat beacon goes permanently silent while the
  process keeps running: only deadline detection catches it;
* ``kill_boot`` — the worker dies mid warm-start, before HELLO: the
  respawned incarnation must warm-start cleanly.

Every campaign runs two phases against one shared artifact store:
a fault-free *populate* pass that compiles and publishes every
(workload, shape) the drill will serve, then the *drill* pass whose
workers all warm-start — so the drill also pins the headline artifact
property: **a worker restart pays zero cold compiles** (gated on the
compile counters every worker reports in-band).

The contract gated per campaign (exit status = violations, so CI gates
directly):

* zero hangs — every future resolves within the hang timeout;
* zero wrong answers — responses match an in-parent eager oracle
  bit-exact;
* zero untyped errors — anything non-OK carries a typed error string;
* 100% availability — redelivery plus the eager floor answer
  everything OK despite the kills;
* zero warm-restart compiles — no drill-phase worker ever cold
  compiles.

Writes ``results/sharddrill.json``.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

from ..eval.cache import clone_args
from ..faults import (Fault, FaultPlan, FaultRule, SITE_HEARTBEAT_STALL,
                      SITE_PROCESS_KILL)
from ..models import get_workload
from ..shard import ShardPolicy, ShardRouter
from .drive import (burst, common_args, request_pool, tally,
                    write_report)

#: per-request data seeds start here (campaign c, request j -> BASE+13c+j)
DATA_SEED0 = 80_000

#: drill rotation; index 0 is always the fault-free control
KINDS = ("control", "kill_submit", "kill_reply", "stall", "kill_boot")

#: the router's crash-handling ledger, copied per campaign and summed
LEDGER = ("deaths", "respawned", "redelivered", "duplicates_dropped",
           "replayed", "eager_floor")


def build_spec(kind: str, seed: int, index: int) -> Optional[dict]:
    """The campaign's deterministic worker-side fault schedule, as a
    :meth:`~repro.faults.FaultPlan.to_spec` dict (live plans cannot
    cross the spawn boundary)."""
    rng = random.Random((seed << 16) ^ (index * 0x9E3779B1))
    if kind == "control":
        return None
    if kind == "kill_submit":
        rule = FaultRule(site=SITE_PROCESS_KILL, match="submit",
                         nth=rng.randint(1, 3), fault=Fault())
    elif kind == "kill_reply":
        rule = FaultRule(site=SITE_PROCESS_KILL, match="reply",
                         nth=rng.randint(0, 2), fault=Fault())
    elif kind == "kill_boot":
        rule = FaultRule(site=SITE_PROCESS_KILL, match="boot", nth=0,
                         fault=Fault())
    elif kind == "stall":
        rule = FaultRule(site=SITE_HEARTBEAT_STALL,
                         nth=rng.randint(0, 2), fault=Fault())
    else:
        raise ValueError(f"unknown drill kind {kind!r}")
    return FaultPlan([rule], seed=(seed << 8) ^ index).to_spec()


def fleet_policy(spec: Optional[dict], hang_timeout_s: float,
                 store: Optional[str] = None,
                 **worker_policy) -> ShardPolicy:
    """The two-worker drill fleet (``chaos`` shard campaigns run it
    too).  ``max_batch_size=1`` keeps compile keys identical across
    phases (coalesced-batch shapes depend on crash timing, and the
    zero-warm-compiles gate needs the drill phase to serve exactly the
    keys the populate phase published)."""
    return ShardPolicy(
        num_workers=2, store_root=store, fault_spec=spec,
        heartbeat_interval_s=0.05, heartbeat_timeout_s=0.6,
        max_respawns=2, redeliver_max=3,
        request_timeout_s=hang_timeout_s,
        worker_policy={"workers": 2, "max_batch_size": 1, **worker_policy})


def _phase(spec: Optional[dict], store: str, wl, pool: List[tuple],
           refs: List, hang_timeout_s: float):
    """One fleet lifetime over the shared ``store``: boot two workers
    under ``spec``, submit every request of ``pool`` and score every
    response; returns (scores, the router's closing report)."""
    with ShardRouter(fleet_policy(spec, hang_timeout_s, store)) as router:
        router.wait_ready(2, timeout=60)
        load = burst(router, wl, [{"args": args} for args in pool],
                     timeout_s=hang_timeout_s)
        out, responses = tally(load, hang_timeout_s * 2, refs)
        served = [r for r in responses if r is not None and r.ok]
        out["redelivered_answered"] = sum(
            1 for r in served if r.redelivered)
        out["floor_answered"] = sum(
            1 for r in served if r.served_by == "eager" and not r.worker)
        return out, router.report()


def run_campaign(kind: str, workload: str, index: int,
                 args: argparse.Namespace) -> Dict[str, object]:
    """One two-phase drill campaign (populate fault-free, then drill
    under the fault schedule with warm-started workers)."""
    wl = get_workload(workload)
    pool = request_pool(wl, [args.seq_len] * args.requests,
                        seed0=DATA_SEED0 + index * 13)
    # the oracle: in-parent eager on the identical inputs, computed
    # before any fleet exists
    refs = [wl.model_fn(*clone_args(inputs)) for inputs in pool]

    store = tempfile.mkdtemp(prefix="sharddrill-store-")
    start = time.perf_counter()
    try:
        # phase 1: populate the artifact store (no faults)
        populate, populate_report = _phase(
            None, store, wl, pool, refs, args.hang_timeout_s)
        # phase 2: the drill — every worker warm-starts, then the
        # fault schedule kills/stalls first incarnations
        drill, report = _phase(build_spec(kind, args.seed, index), store,
                               wl, pool, refs, args.hang_timeout_s)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    warm_compiles = max(report["worker_compiles"].values(), default=0)
    result: Dict[str, object] = {
        "index": index, "kind": kind, "workload": workload,
        "control": kind == "control",
        "populate": populate, "drill": drill,
        "death_reasons": report["death_reasons"],
        **{k: report[k] for k in LEDGER},
        "warm_compiles": warm_compiles,
        "populate_compiles": max(
            populate_report["worker_compiles"].values(), default=0),
        "wall_s": time.perf_counter() - start,
    }
    violations = (drill["hangs"] + drill["wrong"]
                  + drill["untyped_errors"]
                  + (drill["requests"] - drill["ok"])  # availability
                  + populate["requests"] - populate["ok"]
                  + warm_compiles)
    if kind != "control" and kind != "stall" and report["deaths"] == 0:
        # a kill campaign where nothing died never drilled anything
        violations += 1
        result["no_fault_fired"] = True
    result["violations"] = violations
    return result


def run_campaigns(args: argparse.Namespace) -> Dict[str, object]:
    """Run the rotation and aggregate the report."""
    workloads = [w.strip() for w in args.workloads.split(",")
                 if w.strip()]
    campaigns = []
    drill_keys = ("requests", "ok", "hangs", "wrong", "untyped_errors")
    result_keys = LEDGER + ("warm_compiles", "violations")
    totals = dict.fromkeys(drill_keys + result_keys, 0)
    for i in range(args.campaigns):
        kind = KINDS[0] if i == 0 else KINDS[1 + (i - 1) % (len(KINDS)
                                                           - 1)]
        workload = workloads[i % len(workloads)]
        result = run_campaign(kind, workload, i, args)
        campaigns.append(result)
        for k in drill_keys:
            totals[k] += result["drill"][k]
        for k in result_keys:
            totals[k] += result[k]
    totals["availability_pct"] = \
        100.0 * totals["ok"] / max(1, totals["requests"])
    return {"campaigns": campaigns, "totals": totals}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry; exit status = total gate violations."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.sharddrill",
        description="seeded kill-the-worker campaigns against the "
                    "sharded serving fleet")
    common_args(parser, seed=0, workloads="lstm,attention",
                requests=(6, "requests per campaign phase"), seq_len=8,
                hang_timeout_s=60.0, out="results/sharddrill.json",
                campaigns=10)
    args = parser.parse_args(argv)

    report = run_campaigns(args)
    t = report["totals"]
    print(f"sharddrill: {args.campaigns} campaigns, {t['requests']} "
          f"drill requests (seed {args.seed})")
    print(f"  availability {t['availability_pct']:.1f}%  hangs "
          f"{t['hangs']}  wrong {t['wrong']}  untyped "
          f"{t['untyped_errors']}")
    print(f"  deaths {t['deaths']}  respawned {t['respawned']}  "
          f"redelivered {t['redelivered']}  duplicates dropped "
          f"{t['duplicates_dropped']}  replayed {t['replayed']}")
    print(f"  eager-floor answers {t['eager_floor']}  warm-restart "
          f"compiles {t['warm_compiles']}")

    return write_report(report, args, t["violations"])


if __name__ == "__main__":
    sys.exit(main())

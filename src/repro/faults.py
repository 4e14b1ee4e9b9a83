"""Deterministic, seeded fault injection across the whole stack.

Chaos engineering for the simulated device: a :class:`FaultPlan` is a
schedule of :class:`FaultRule` entries — *which* site, *which* op
(substring match), *which* occurrence (``nth``) or probability — and
the runtime consults it at seven injection sites:

========================  ====================================================
site                      checked in
========================  ====================================================
``kernel_launch``         ``runtime/profiler.record_launch`` (interpreted and
                          eager launches) and ``backend/kernels.pre_launch``
                          (compiled fused kernels, horizontal loops, maps)
``alloc``                 ``runtime/storage.MemoryPool.allocate``
``fusion_compile``        ``backend/fusion_runtime._node_kernel``
``pass``                  ``passes/pass_manager.PassManager.run``
``batch_exec``            ``serve/executor.BatchExecutor._execute_plan``
``process_kill``          ``shard/worker`` boot / submit / reply checkpoints
                          (a fired fault makes the worker ``os._exit`` —
                          modeled SIGKILL, no cleanup)
``heartbeat_stall``       ``shard/worker`` heartbeat thread (a fired fault
                          silences or delays heartbeats so supervisor
                          deadline detection trips)
========================  ====================================================

Faults either *raise* a typed error from :mod:`repro.errors` (marked
``injected=True``) or *sleep* (injected latency).  Scheduling is fully
deterministic: ``nth``-based rules fire on exact hit indices, and
probabilistic rules draw from the plan's own seeded RNG, so the same
plan over the same single-threaded execution produces the identical
fault sequence — the property ``tests/test_faults.py`` pins.

Plans install two ways:

* :func:`fault_scope` — context-local (``contextvars``), for tests and
  the harness path; worker threads of a server do **not** see it.
* :func:`global_fault_scope` — process-global, for chaos campaigns that
  must reach server worker threads spawned before the plan existed.

When no plan is installed, :func:`maybe_inject` is a single contextvar
read plus a global load — cheap enough to sit on the hot path.

:class:`StateAuditor` is the crash-consistency half: it snapshots the
process state a fault could tear (profiler stack depth, pool-scope
stack depth, pool bytes-in-use, compile-cache in-flight slots) and
asserts everything returned to baseline after the dust settles.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Type

from .errors import (CompileError, KernelError, OOMError, ReproError,
                     TornStateError, WorkerCrashed)

__all__ = [
    "SITE_KERNEL_LAUNCH", "SITE_ALLOC", "SITE_FUSION_COMPILE",
    "SITE_PASS", "SITE_BATCH_EXEC", "SITE_PROCESS_KILL",
    "SITE_HEARTBEAT_STALL", "ALL_SITES",
    "Fault", "FaultRule", "FaultRecord", "FaultPlan",
    "fault_scope", "global_fault_scope", "active_plan", "maybe_inject",
    "StateAuditor",
]

#: Injection-site names (the ``site`` field of a rule).
SITE_KERNEL_LAUNCH = "kernel_launch"
SITE_ALLOC = "alloc"
SITE_FUSION_COMPILE = "fusion_compile"
SITE_PASS = "pass"
SITE_BATCH_EXEC = "batch_exec"
#: sharded-serving crash domain (repro.shard.worker checkpoints): a
#: fired ``process_kill`` makes the worker ``os._exit`` — modeling
#: SIGKILL, no cleanup, no goodbye frame — and a fired
#: ``heartbeat_stall`` silences or delays its heartbeat thread so the
#: supervisor's deadline detection has something real to detect
SITE_PROCESS_KILL = "process_kill"
SITE_HEARTBEAT_STALL = "heartbeat_stall"
ALL_SITES = (SITE_KERNEL_LAUNCH, SITE_ALLOC, SITE_FUSION_COMPILE,
             SITE_PASS, SITE_BATCH_EXEC, SITE_PROCESS_KILL,
             SITE_HEARTBEAT_STALL)

#: Error type a site raises when the rule does not name one.
DEFAULT_ERRORS: Dict[str, Type[ReproError]] = {
    SITE_KERNEL_LAUNCH: KernelError,
    SITE_ALLOC: OOMError,
    SITE_FUSION_COMPILE: CompileError,
    SITE_PASS: CompileError,
    SITE_BATCH_EXEC: KernelError,
    SITE_PROCESS_KILL: WorkerCrashed,
    SITE_HEARTBEAT_STALL: WorkerCrashed,
}

#: Fault kinds.
KIND_ERROR = "error"
KIND_LATENCY = "latency"


@dataclass(frozen=True)
class Fault:
    """What happens when a rule fires: raise a typed error, or sleep."""

    kind: str = KIND_ERROR
    #: error type to raise; None = the site's default from DEFAULT_ERRORS
    error: Optional[Type[ReproError]] = None
    #: sleep duration for ``kind="latency"``
    latency_s: float = 0.0
    message: str = ""


@dataclass(frozen=True)
class FaultRule:
    """One schedule entry: where, what to match, when, and what fault.

    Deterministic mode (default): the rule fires on matching hits with
    index in ``[nth, nth + times)`` (0-based, per-rule counter).

    Probabilistic mode (``probability`` set): every matching hit fires
    with that probability, drawn from the plan's seeded RNG, up to
    ``times`` total firings (``times=None`` = unbounded).
    """

    site: str
    #: substring that must appear in the site detail ("" matches all)
    match: str = ""
    nth: int = 0
    times: Optional[int] = 1
    probability: Optional[float] = None
    fault: Fault = field(default_factory=Fault)

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {ALL_SITES}")


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, as logged by the plan (the determinism witness)."""

    site: str
    detail: str
    hit_index: int
    rule_index: int
    kind: str
    error: str = ""


class FaultPlan:
    """A seeded, thread-safe schedule of faults.

    One plan owns one RNG and one set of per-rule hit counters; all
    updates happen under a lock so concurrent server workers consult it
    safely (the *plan* stays consistent even when thread interleaving
    makes the hit order nondeterministic — single-threaded execution is
    fully deterministic).
    """

    def __init__(self, rules: List[FaultRule] = (), seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: List[int] = [0] * len(self.rules)
        self._fired: List[int] = [0] * len(self.rules)
        self.log: List[FaultRecord] = []

    def on_hit(self, site: str, detail: str) -> Optional[Fault]:
        """Consult the schedule for one site hit; returns the fault to
        apply, or None.  The first firing rule wins, but every matching
        rule's hit counter advances (so rules are independent)."""
        with self._lock:
            fired: Optional[Fault] = None
            for idx, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if rule.match and rule.match not in detail:
                    continue
                hit = self._hits[idx]
                self._hits[idx] = hit + 1
                if fired is not None:
                    continue
                if rule.probability is not None:
                    fire = ((rule.times is None
                             or self._fired[idx] < rule.times)
                            and self._rng.random() < rule.probability)
                else:
                    fire = (hit >= rule.nth
                            and (rule.times is None
                                 or hit < rule.nth + rule.times))
                if fire:
                    self._fired[idx] += 1
                    fault = rule.fault
                    err = "" if fault.kind != KIND_ERROR else \
                        (fault.error or DEFAULT_ERRORS[site]).__name__
                    self.log.append(FaultRecord(
                        site=site, detail=detail, hit_index=hit,
                        rule_index=idx, kind=fault.kind, error=err))
                    fired = fault
            return fired

    def to_spec(self) -> dict:
        """A JSON/pickle-safe description of the plan's *schedule*
        (rules + seed, not the runtime hit counters).  A worker process
        rebuilt from this spec replays the same deterministic fault
        sequence — the bridge that lets one chaos campaign reach
        spawned shard workers (:mod:`repro.shard.worker`), which cannot
        inherit a live plan across an exec boundary."""
        rules = []
        for rule in self.rules:
            rules.append({
                "site": rule.site, "match": rule.match, "nth": rule.nth,
                "times": rule.times, "probability": rule.probability,
                "kind": rule.fault.kind,
                "error": rule.fault.error.__name__
                if rule.fault.error is not None else None,
                "latency_s": rule.fault.latency_s,
                "message": rule.fault.message,
            })
        return {"seed": self.seed, "rules": rules}

    @staticmethod
    def from_spec(spec: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_spec` output.  Error types are
        resolved by name against :mod:`repro.errors` and must subclass
        :class:`~repro.errors.ReproError`."""
        from . import errors as errors_mod
        rules = []
        for r in spec.get("rules", ()):
            error = None
            if r.get("error"):
                error = getattr(errors_mod, r["error"], None)
                if not (isinstance(error, type)
                        and issubclass(error, ReproError)):
                    raise ValueError(
                        f"fault spec names unknown error type {r['error']!r}")
            rules.append(FaultRule(
                site=r["site"], match=r.get("match", ""),
                nth=r.get("nth", 0), times=r.get("times", 1),
                probability=r.get("probability"),
                fault=Fault(kind=r.get("kind", KIND_ERROR), error=error,
                            latency_s=r.get("latency_s", 0.0),
                            message=r.get("message", ""))))
        return FaultPlan(rules, seed=spec.get("seed", 0))

    def fired_by_site(self) -> Dict[str, int]:
        """How many faults fired at each site (for coverage reports)."""
        with self._lock:
            out: Dict[str, int] = {}
            for rec in self.log:
                out[rec.site] = out.get(rec.site, 0) + 1
            return out

    @property
    def num_fired(self) -> int:
        with self._lock:
            return len(self.log)

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
                f"fired={len(self.log)})")


#: Context-local plan (fault_scope) — never inherited by new threads.
_plan_var: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro_fault_plan", default=None)
#: Process-global plan (global_fault_scope) — seen by every thread.
_global_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect for this context (context-local wins)."""
    plan = _plan_var.get()
    return plan if plan is not None else _global_plan


@contextmanager
def fault_scope(plan: Optional[FaultPlan]) -> Iterator[FaultPlan]:
    """Install ``plan`` for the current context only (``None``, a
    fault-free control, installs nothing)."""
    token = _plan_var.set(plan)
    try:
        yield plan
    finally:
        _plan_var.reset(token)


@contextmanager
def global_fault_scope(plan: Optional[FaultPlan]) -> Iterator[FaultPlan]:
    """Install ``plan`` process-wide (chaos campaigns reach server
    worker threads through this; ``None`` installs nothing).  Not
    reentrant across plans: nesting a second global plan raises."""
    global _global_plan
    if _global_plan is not None:
        raise RuntimeError("a global fault plan is already installed")
    _global_plan = plan
    try:
        yield plan
    finally:
        _global_plan = None


def maybe_inject(site: str, detail: str = "") -> None:
    """Fault checkpoint: no-op without a plan; under a plan, consult the
    schedule and sleep or raise the scheduled fault."""
    plan = _plan_var.get()
    if plan is None:
        plan = _global_plan
        if plan is None:
            return
    fault = plan.on_hit(site, detail)
    if fault is None:
        return
    if fault.kind == KIND_LATENCY:
        time.sleep(fault.latency_s)
        return
    err_type = fault.error or DEFAULT_ERRORS[site]
    exc = err_type(fault.message
                   or f"injected {site} fault at {detail or site!r}")
    exc.injected = True
    raise exc


class StateAuditor:
    """Asserts that fault recovery left no torn process state behind.

    Captures a baseline at construction — the current context's
    profiler stack depth and pool-scope stack depth, plus (optionally)
    a compile cache's in-flight count and a pool's bytes-in-use — and
    :meth:`audit` reports every divergence from it.  Run it around any
    code that may fail: a clean audit proves the try/finally discipline
    held everywhere the failure unwound through.
    """

    def __init__(self, cache=None, pool=None) -> None:
        self._cache = cache
        self._pool = pool
        (self._profiler_depth, self._pool_depth, self._inflight,
         self._in_use) = self._observe()

    def _observe(self):
        from .runtime import profiler, storage
        depth = len(profiler.active_profiles())
        pools = len(storage.active_pools())
        inflight = self._cache.inflight_count() \
            if self._cache is not None else 0
        in_use = self._pool.in_use_bytes if self._pool is not None else 0
        return depth, pools, inflight, in_use

    def audit(self) -> List[str]:
        """Every way the current state diverges from the baseline."""
        depth, pools, inflight, in_use = self._observe()
        violations: List[str] = []
        if depth != self._profiler_depth:
            violations.append(
                f"profiler stack depth {depth} != baseline "
                f"{self._profiler_depth} (leaked profile frame)")
        if pools != self._pool_depth:
            violations.append(
                f"pool-scope stack depth {pools} != baseline "
                f"{self._pool_depth} (leaked pool scope)")
        if inflight != self._inflight:
            violations.append(
                f"compile-cache in-flight slots {inflight} != baseline "
                f"{self._inflight} (waiters would block forever)")
        if in_use != self._in_use:
            violations.append(
                f"pool bytes-in-use {in_use} != baseline {self._in_use} "
                f"(leaked allocations)")
        return violations

    def assert_clean(self) -> None:
        violations = self.audit()
        if violations:
            raise TornStateError("; ".join(violations))

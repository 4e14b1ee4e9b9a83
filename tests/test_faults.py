"""Fault-injection subsystem: deterministic scheduling, every site
fires, and recovery leaves no torn state (``repro.faults``)."""

import random
import time

import pytest

from repro.errors import (CompileError, KernelError, OOMError, ReproError,
                          TornStateError)
from repro.eval.harness import CompileCache, run_workload
from repro.faults import (ALL_SITES, Fault, FaultPlan, FaultRule,
                          KIND_LATENCY, SITE_ALLOC, SITE_BATCH_EXEC,
                          SITE_FUSION_COMPILE, SITE_HEARTBEAT_STALL,
                          SITE_KERNEL_LAUNCH, SITE_PASS,
                          SITE_PROCESS_KILL, StateAuditor, active_plan,
                          fault_scope, global_fault_scope, maybe_inject)
from repro.runtime import profiler, storage
from repro.serve import ServePolicy, Server


def _one_shot(site, **kw):
    return FaultPlan([FaultRule(site=site, **kw)])


# -- rule and plan semantics ---------------------------------------------


def test_unknown_site_rejected():
    with pytest.raises(ValueError):
        FaultRule(site="flux_capacitor")


def test_nth_window_scheduling():
    """A deterministic rule fires exactly on hits [nth, nth + times)."""
    plan = _one_shot(SITE_KERNEL_LAUNCH, nth=2, times=2)
    outcomes = []
    with fault_scope(plan):
        for _ in range(6):
            try:
                maybe_inject(SITE_KERNEL_LAUNCH, "matmul")
                outcomes.append("ok")
            except KernelError:
                outcomes.append("fault")
    assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]
    assert plan.num_fired == 2
    assert [r.hit_index for r in plan.log] == [2, 3]


def test_match_substring_filters_details():
    plan = _one_shot(SITE_KERNEL_LAUNCH, match="matmul", nth=0)
    with fault_scope(plan):
        maybe_inject(SITE_KERNEL_LAUNCH, "add")  # no match, no hit
        with pytest.raises(KernelError):
            maybe_inject(SITE_KERNEL_LAUNCH, "batched_matmul")
    assert plan.log[0].detail == "batched_matmul"
    assert plan.log[0].hit_index == 0  # 'add' never advanced the counter


def test_injected_errors_are_typed_and_marked():
    plan = _one_shot(SITE_ALLOC, nth=0)
    with fault_scope(plan):
        with pytest.raises(OOMError) as exc_info:
            maybe_inject(SITE_ALLOC, "1024")
    assert exc_info.value.injected is True
    assert isinstance(exc_info.value, ReproError)


def test_latency_fault_sleeps_instead_of_raising():
    plan = _one_shot(SITE_KERNEL_LAUNCH, nth=0,
                     fault=Fault(kind=KIND_LATENCY, latency_s=0.02))
    with fault_scope(plan):
        start = time.perf_counter()
        maybe_inject(SITE_KERNEL_LAUNCH, "matmul")  # must not raise
        assert time.perf_counter() - start >= 0.02
    assert plan.log[0].kind == KIND_LATENCY


def test_probabilistic_mode_is_seed_deterministic():
    def run(seed):
        plan = FaultPlan([FaultRule(site=SITE_PASS, probability=0.3,
                                    times=None)], seed=seed)
        fired = []
        with fault_scope(plan):
            for i in range(50):
                try:
                    maybe_inject(SITE_PASS, f"pass{i}")
                except CompileError:
                    fired.append(i)
        return fired

    assert run(7) == run(7)  # same seed, same fault sequence
    assert run(7) != run(8)  # the seed actually matters
    assert 0 < len(run(7)) < 50


def test_probabilistic_mode_bounded_by_times():
    plan = FaultPlan([FaultRule(site=SITE_PASS, probability=1.0, times=2)])
    fired = 0
    with fault_scope(plan):
        for _ in range(10):
            try:
                maybe_inject(SITE_PASS, "fuse")
            except CompileError:
                fired += 1
    assert fired == 2


def test_no_plan_is_a_no_op():
    assert active_plan() is None
    maybe_inject(SITE_KERNEL_LAUNCH, "matmul")  # must not raise


def test_context_plan_wins_over_global_and_nesting_rejected():
    ctx = FaultPlan()
    glob = FaultPlan()
    with global_fault_scope(glob):
        assert active_plan() is glob
        with fault_scope(ctx):
            assert active_plan() is ctx
        with pytest.raises(RuntimeError):
            with global_fault_scope(FaultPlan()):
                pass  # pragma: no cover
    assert active_plan() is None


# -- every injection site fires through the real stack -------------------


def _fault_run(site, workload="lstm", **rule_kw):
    """Run tensorssa cold (fresh cache) under a one-shot fault at
    ``site``; returns (raised exception or None, audit violations)."""
    cache = CompileCache()
    auditor = StateAuditor(cache=cache)
    plan = _one_shot(site, **rule_kw)
    raised = None
    with fault_scope(plan):
        try:
            run_workload(workload, "tensorssa", seq_len=8, cache=cache)
        except ReproError as exc:
            raised = exc
    assert plan.num_fired >= 1, f"site {site} never fired"
    return raised, auditor.audit()


@pytest.mark.parametrize("site,err", [
    (SITE_KERNEL_LAUNCH, KernelError),
    (SITE_ALLOC, OOMError),
    (SITE_FUSION_COMPILE, CompileError),
    (SITE_PASS, CompileError),
])
def test_harness_sites_fire_typed_and_clean(site, err):
    raised, violations = _fault_run(site)
    assert isinstance(raised, err)
    assert raised.injected is True
    assert violations == []


def test_kernel_launch_fault_mid_run_cleans_up():
    """A launch failure deep inside a profiled, pooled run must unwind
    without leaking profile frames, pool scopes, or pool bytes."""
    raised, violations = _fault_run(SITE_KERNEL_LAUNCH, nth=10)
    assert isinstance(raised, KernelError)
    assert violations == []


def _add_then_double(x, y):
    return (x + y) * 2.0


def test_each_launch_passes_the_launch_checkpoint_once():
    """An eager op checks ``kernel_launch`` in ``record_op``, a fused
    group in ``pre_launch``; recording the launch checks nothing more.
    Under a rule that fires on the second hit, one launch passes and an
    identical second one fails."""
    import repro.runtime as rt
    from repro.pipelines import get_pipeline

    x, y = rt.ones((3,)), rt.ones((3,))
    compiled = get_pipeline("tensorssa").compile(_add_then_double)
    compiled(x, y)  # its kernel compiles outside the plan
    for detail, launch in (("neg", lambda: rt.neg(x)),
                           ("fusion_group", lambda: compiled(x, y))):
        plan = _one_shot(SITE_KERNEL_LAUNCH, match=detail, nth=1)
        with fault_scope(plan):
            launch()
            with pytest.raises(KernelError):
                launch()
        assert [(r.detail, r.hit_index) for r in plan.log] == [(detail, 1)]


def test_failed_lowering_caches_nothing_and_retry_lowers_cleanly():
    """Whole-program lowering is a compile step: its ``fusion_compile``
    checkpoint (detail ``program``) fires before anything is cached, the
    failure is a typed CompileError under a ``program:lower`` span, and
    the next call — a retried ladder rung — lowers and runs clean."""
    from repro.models import get_workload
    from repro.obs import trace as obs_trace
    from repro.pipelines import get_pipeline
    from repro.runtime import bit_exact
    wl = get_workload("lstm")
    args = wl.make_inputs(seq_len=8, seed=0)
    compiled = get_pipeline("tensorssa").compile(wl.model_fn,
                                                 example_args=args)
    plan = compiled.graph._memplan
    faults = _one_shot(SITE_FUSION_COMPILE, match="program")
    with obs_trace.tracing() as tracer, fault_scope(faults):
        with pytest.raises(CompileError) as info:
            compiled(*wl.make_inputs(seq_len=8, seed=0))
        assert info.value.injected is True
        assert plan.program is None
        out = compiled(*wl.make_inputs(seq_len=8, seed=0))
    assert plan.program is not None
    assert bit_exact(out, wl.model_fn(*wl.make_inputs(seq_len=8, seed=0)))
    spans = tracer.by_name("program:lower")
    assert [sp.error for sp in spans] == ["CompileError", ""]
    assert {sp.cat for sp in spans} == {"compile"}
    # an organic lowering failure is typed too, and caches nothing
    plan.program = None
    plan.release_after[id(compiled.graph.block.nodes[-1])] = [object()]
    with pytest.raises(CompileError, match="lowering"):
        compiled(*wl.make_inputs(seq_len=8, seed=0))
    assert plan.program is None


def test_batch_exec_site_fires_in_server():
    """The serving-only site: a persistent batch_exec fault fails every
    compiled rung, and requests land on the eager floor (which bypasses
    batch execution by design) — degraded but served."""
    plan = FaultPlan([FaultRule(site=SITE_BATCH_EXEC, probability=1.0,
                                times=None)])
    policy = ServePolicy(workers=1, max_batch_size=2, batch_wait_s=0.001)
    with Server(policy) as srv:
        auditor = StateAuditor(cache=srv.cache)
        with global_fault_scope(plan):
            resps = [f.result(timeout=30)
                     for f in [srv.submit("lstm", seq_len=8, seed=s)
                               for s in range(3)]]
    assert plan.fired_by_site().get(SITE_BATCH_EXEC, 0) >= 1
    for resp in resps:
        assert resp.ok
        assert resp.served_by == "eager"
        assert resp.degraded and resp.fallback_depth > 0
    assert auditor.audit() == []


def test_server_answers_typed_errors_when_every_rung_fails():
    """batch_exec + kernel_launch faults together take out the eager
    floor too: every response must still resolve with a clean typed
    reason — no hang, no silent drop."""
    plan = FaultPlan([
        FaultRule(site=SITE_BATCH_EXEC, probability=1.0, times=None),
        FaultRule(site=SITE_KERNEL_LAUNCH, probability=1.0, times=None),
    ])
    policy = ServePolicy(workers=1, max_batch_size=2, batch_wait_s=0.001)
    with Server(policy) as srv:
        auditor = StateAuditor(cache=srv.cache)
        with global_fault_scope(plan):
            resps = [f.result(timeout=30)
                     for f in [srv.submit("lstm", seq_len=8, seed=s)
                               for s in range(3)]]
    for resp in resps:
        assert not resp.ok
        assert resp.error  # a clean typed reason, never a silent drop
    assert auditor.audit() == []


def test_same_plan_same_run_identical_fault_log():
    """End-to-end determinism: the property the chaos harness builds
    on — one plan, one single-threaded execution, one fault sequence."""
    def one(seed):
        cache = CompileCache()
        plan = FaultPlan([
            FaultRule(site=SITE_KERNEL_LAUNCH, probability=0.05,
                      times=None),
            FaultRule(site=SITE_ALLOC, nth=5, times=1),
        ], seed=seed)
        with fault_scope(plan):
            for s in range(3):
                try:
                    run_workload("lstm", "tensorssa", seq_len=8, seed=s,
                                 cache=cache)
                except ReproError:
                    pass
        return list(plan.log)

    assert one(3) == one(3)
    assert len(one(3)) >= 1


# -- fault sites leave module state consistent ---------------------------


def test_oom_leaves_pool_accounting_intact():
    pool = storage.MemoryPool()
    pool.allocate(256)
    before = pool.in_use_bytes
    plan = _one_shot(SITE_ALLOC, nth=0)
    with fault_scope(plan):
        with pytest.raises(OOMError):
            pool.allocate(512)
    assert pool.in_use_bytes == before  # failed alloc never accounted
    assert pool.allocate(512) in (True, False)  # pool still serviceable


def test_auditor_catches_leaked_profile_frame():
    auditor = StateAuditor()
    prof = profiler.Profile()
    profiler.push_profile(prof)
    try:
        violations = auditor.audit()
        assert any("profiler stack" in v for v in violations)
        with pytest.raises(TornStateError):
            auditor.assert_clean()
    finally:
        profiler.pop_profile()
    assert auditor.audit() == []


def test_all_sites_enumerated():
    assert set(ALL_SITES) == {SITE_KERNEL_LAUNCH, SITE_ALLOC,
                              SITE_FUSION_COMPILE, SITE_PASS,
                              SITE_BATCH_EXEC, SITE_PROCESS_KILL,
                              SITE_HEARTBEAT_STALL}

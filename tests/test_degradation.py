"""Graceful degradation: breaker state machine, retry backoff bounds,
fallback-chain ordering, resilient harness runs, server ladder, and the
shutdown-drain contract (``repro.degrade`` + consumers)."""

import random

import numpy as np
import pytest

from conftest import HeldWorkers

from repro.degrade import (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN,
                           BreakerRegistry, CircuitBreaker, DEFAULT_LADDER,
                           RetryPolicy, fallback_chain, run_ladder)
from repro.errors import CircuitOpen, KernelError, ServerShutdown
from repro.eval.harness import (CompileCache, run_workload,
                                run_workload_resilient)
from repro.faults import (FaultPlan, FaultRule, SITE_BATCH_EXEC,
                          SITE_KERNEL_LAUNCH, SITE_PASS, fault_scope,
                          global_fault_scope)
from repro.serve import (STATUS_CANCELLED, STATUS_ERROR, ServePolicy,
                         Server)


def _bit_equal(a, b):
    a = a if isinstance(a, tuple) else (a,)
    b = b if isinstance(b, tuple) else (b,)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.numpy(), y.numpy())


# -- fallback chain ------------------------------------------------------


def test_fallback_chain_full_ladder_from_top():
    assert fallback_chain("tensorssa") == DEFAULT_LADDER


def test_fallback_chain_slices_from_requested_rung():
    assert fallback_chain("tensorssa_noplan") == \
        ("tensorssa_noplan", "ts_nnc", "eager")
    assert fallback_chain("ts_nnc") == ("ts_nnc", "eager")


def test_fallback_chain_eager_is_its_own_floor():
    assert fallback_chain("eager") == ("eager",)


def test_fallback_chain_off_ladder_pipeline_gets_eager_floor():
    assert fallback_chain("dynamo_inductor") == ("dynamo_inductor", "eager")


def test_fallback_chain_custom_ladder_always_ends_eager():
    assert fallback_chain("ts_nnc", ladder=("ts_nnc",)) == \
        ("ts_nnc", "eager")


# -- circuit breaker -----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_breaker_opens_at_failure_rate():
    clk = FakeClock()
    b = CircuitBreaker(failure_rate=0.5, window=8, min_calls=4,
                       reset_timeout_s=1.0, clock=clk)
    assert b.state == BREAKER_CLOSED
    b.record_failure()
    b.record_failure()
    b.record_failure()
    assert b.state == BREAKER_CLOSED  # below min_calls
    b.record_failure()
    assert b.state == BREAKER_OPEN
    assert b.transitions == {"closed->open": 1}
    assert not b.allow()


def test_breaker_stays_closed_below_rate():
    b = CircuitBreaker(failure_rate=0.5, window=8, min_calls=4,
                       clock=FakeClock())
    for _ in range(6):
        b.record_success()
    b.record_failure()
    b.record_failure()
    assert b.state == BREAKER_CLOSED  # 2/8 failures < 0.5


def test_breaker_half_open_probe_success_closes():
    clk = FakeClock()
    b = CircuitBreaker(min_calls=1, failure_rate=1.0, reset_timeout_s=1.0,
                       clock=clk)
    b.record_failure()
    assert b.state == BREAKER_OPEN
    assert not b.allow()            # cooldown not elapsed
    clk.advance(1.5)
    assert b.allow()                # the single half-open probe
    assert b.state == BREAKER_HALF_OPEN
    assert not b.allow()            # only one probe outstanding
    b.record_success()
    assert b.state == BREAKER_CLOSED
    assert b.allow()
    assert b.transitions == {"closed->open": 1, "open->half_open": 1,
                             "half_open->closed": 1}


def test_breaker_half_open_probe_failure_reopens():
    clk = FakeClock()
    b = CircuitBreaker(min_calls=1, failure_rate=1.0, reset_timeout_s=1.0,
                       clock=clk)
    b.record_failure()
    clk.advance(1.5)
    assert b.allow()
    b.record_failure()
    assert b.state == BREAKER_OPEN
    assert not b.allow()  # cooldown restarts from the probe failure
    clk.advance(1.5)
    assert b.allow()


def test_breaker_registry_aggregates_transitions():
    reg = BreakerRegistry(min_calls=1, failure_rate=1.0,
                          reset_timeout_s=99.0, clock=FakeClock())
    reg.breaker("lstm", "tensorssa").record_failure()
    reg.breaker("attention", "ts_nnc").record_failure()
    assert reg.breaker("lstm", "tensorssa") is \
        reg.breaker("lstm", "tensorssa")
    assert reg.transitions() == {"closed->open": 2}
    assert reg.states() == {"lstm/tensorssa": BREAKER_OPEN,
                            "attention/ts_nnc": BREAKER_OPEN}


# -- retry backoff -------------------------------------------------------


def test_all_rungs_circuit_broken_is_a_typed_error():
    # regression (chaos --no-ladder, seed 0): this used to be a bare
    # RuntimeError, which reached clients as an untyped error string
    breakers = BreakerRegistry(reset_timeout_s=60.0)
    breaker = breakers.breaker("lstm", "tensorssa")
    while breaker.allow():
        breaker.record_failure()
    with pytest.raises(CircuitOpen, match="circuit-broken"):
        run_ladder(("tensorssa",), "lstm",
                   lambda rung, depth, attempt: pytest.fail("no attempt"),
                   breakers=breakers, retry=RetryPolicy(),
                   rng=random.Random(0), scope="test")


def test_retry_delay_within_jitter_bounds():
    policy = RetryPolicy(max_retries=5, base_delay_s=0.01,
                         max_delay_s=0.05, jitter=0.5)
    rng = random.Random(0)
    for k in range(6):
        expected = min(0.01 * 2 ** k, 0.05)
        for _ in range(20):
            d = policy.delay_s(k, rng)
            assert expected <= d <= expected * 1.5 + 1e-12


def test_retry_delay_caps_at_max():
    policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.03, jitter=0.0)
    rng = random.Random(0)
    assert policy.delay_s(10, rng) == pytest.approx(0.03)


# -- resilient harness runs ----------------------------------------------


def test_resilient_faultless_is_bit_exact_at_depth_zero():
    cache = CompileCache()
    plain = run_workload("lstm", "tensorssa", seq_len=8, cache=cache)
    res = run_workload_resilient("lstm", "tensorssa", seq_len=8,
                                 cache=CompileCache(),
                                 breakers=BreakerRegistry())
    assert res.served_by == "tensorssa"
    assert res.fallback_depth == 0
    assert not res.degraded
    assert res.attempts == 1
    _bit_equal(res.outputs, plain.outputs)


def test_resilient_descends_to_eager_under_persistent_compile_fault():
    """A pass failure is non-retryable: every compiled rung dies at
    compile time and eager serves — still bit-exact with eager."""
    ref = run_workload("lstm", "eager", seq_len=8, cache=CompileCache())
    plan = FaultPlan([FaultRule(site=SITE_PASS, probability=1.0,
                                times=None)])
    with fault_scope(plan):
        res = run_workload_resilient(
            "lstm", "tensorssa", seq_len=8, cache=CompileCache(),
            breakers=BreakerRegistry(),
            retry=RetryPolicy(max_retries=1, base_delay_s=0.0001,
                              max_delay_s=0.001))
    assert res.served_by == "eager"
    assert res.degraded
    assert res.fallback_depth == len(DEFAULT_LADDER) - 1
    _bit_equal(res.outputs, ref.outputs)


def test_resilient_retries_transient_retryable_fault_in_rung():
    """One transient kernel fault is absorbed by an in-rung retry: the
    request is still served at depth 0."""
    plan = FaultPlan([FaultRule(site=SITE_KERNEL_LAUNCH, nth=0, times=1)])
    with fault_scope(plan):
        res = run_workload_resilient(
            "lstm", "tensorssa", seq_len=8, cache=CompileCache(),
            breakers=BreakerRegistry(),
            retry=RetryPolicy(max_retries=1, base_delay_s=0.0001,
                              max_delay_s=0.001))
    assert plan.num_fired == 1
    assert res.served_by == "tensorssa"
    assert res.fallback_depth == 0
    assert res.attempts == 2


def test_resilient_raises_typed_error_when_all_rungs_fail():
    plan = FaultPlan([FaultRule(site=SITE_KERNEL_LAUNCH, probability=1.0,
                                times=None)])
    with fault_scope(plan):
        with pytest.raises(KernelError):
            run_workload_resilient(
                "lstm", "tensorssa", seq_len=8, cache=CompileCache(),
                breakers=BreakerRegistry(),
                retry=RetryPolicy(max_retries=0, base_delay_s=0.0001))


# -- server ladder -------------------------------------------------------


def _ladder_policy(**kw):
    base = dict(workers=2, max_batch_size=4, batch_wait_s=0.001,
                verify="batch", max_retries=1,
                retry_base_delay_s=0.0001, retry_max_delay_s=0.001,
                breaker_reset_s=0.02)
    base.update(kw)
    return ServePolicy(**base)


def test_server_ladder_serves_bit_exact_through_fallback():
    """Persistent batch failures on both tensorssa rungs: requests are
    served by a lower rung, verified bit-exact against eager."""
    plan = FaultPlan([FaultRule(site=SITE_BATCH_EXEC, match="tensorssa",
                                probability=1.0, times=None)])
    with Server(_ladder_policy()) as srv:
        with global_fault_scope(plan):
            resps = [f.result(timeout=30)
                     for f in [srv.submit("lstm", seq_len=8, seed=s)
                               for s in range(4)]]
        stats = srv.stats
    for resp in resps:
        assert resp.ok
        assert resp.served_by not in ("tensorssa", "tensorssa_noplan")
        assert resp.degraded and resp.fallback_depth >= 2
        assert resp.verified is not False  # batch oracle: bit-exact
    assert stats.degraded >= 4
    assert sum(k >= 2 for k in stats.fallback_depth_hist) >= 1


def test_server_ladder_disabled_faultless_unchanged():
    """With no fallback chain (the requested pipeline alone) and no
    faults, responses look exactly like the default ladder's: depth 0,
    not degraded, verified."""
    policy = ServePolicy(workers=2, max_batch_size=4, batch_wait_s=0.001,
                         verify="batch", fallback_chain=("tensorssa",))
    with Server(policy) as srv:
        resps = [f.result(timeout=30)
                 for f in [srv.submit("attention", seq_len=8, seed=s)
                           for s in range(4)]]
    for resp in resps:
        assert resp.ok
        assert resp.served_by == "tensorssa"
        assert resp.fallback_depth == 0
        assert not resp.degraded
        assert resp.verified is True


def test_server_ladder_faultless_depth_zero():
    with Server(_ladder_policy()) as srv:
        resp = srv.submit("lstm", seq_len=8).result(timeout=30)
    assert resp.ok and resp.served_by == "tensorssa"
    assert resp.fallback_depth == 0 and not resp.degraded


# -- shutdown contract (satellite regression) ----------------------------


def test_shutdown_no_drain_cancels_queued_with_typed_error():
    # the one worker is held inside a batch, so the requests behind it
    # sit *queued* (unclaimed) and a no-drain shutdown must cancel them
    policy = ServePolicy(workers=1, max_batch_size=64, batch_wait_s=30.0,
                         request_timeout_s=60.0)
    srv = Server(policy)
    held = HeldWorkers(srv)
    first = srv.submit("lstm", seq_len=8, seed=9)
    held.next_taken()
    futs = srv.submit_many({"workload": "lstm", "seq_len": 8, "seed": s}
                           for s in range(3))
    # the worker is let go only once the shutdown has cancelled the queue
    futs[0].add_done_callback(lambda _: held.release_all())
    srv.shutdown(drain=False, timeout=10.0)
    for fut in futs:
        resp = fut.result(timeout=5)  # resolved, not hanging
        assert resp.status == STATUS_CANCELLED
        assert resp.error
    assert first.result(timeout=5).ok


def test_submit_after_shutdown_raises_server_shutdown():
    srv = Server(ServePolicy(workers=1))
    srv.shutdown()
    with pytest.raises(ServerShutdown):
        srv.submit("lstm", seq_len=8)
    # backward compat: ServerShutdown still reads as a RuntimeError
    with pytest.raises(RuntimeError):
        srv.submit("lstm", seq_len=8)


def test_worker_survives_executor_crash_and_scatters_errors():
    """An exception escaping the executor must not kill the worker or
    leave futures unresolved."""
    policy = ServePolicy(workers=1, max_batch_size=2, batch_wait_s=0.001)
    srv = Server(policy)
    boom = {"n": 0}

    def exploding_execute(batch):
        boom["n"] += 1
        raise ValueError("synthetic executor bug")

    srv.executor.execute = exploding_execute
    try:
        futs = [srv.submit("lstm", seq_len=8, seed=s) for s in range(4)]
        resps = [f.result(timeout=10) for f in futs]
    finally:
        srv.shutdown(drain=False, timeout=5.0)
    assert boom["n"] >= 1
    for resp in resps:
        assert resp.status == STATUS_ERROR
        assert "executor crashed" in resp.error


def test_shutdown_drain_serves_everything_queued():
    policy = ServePolicy(workers=1, max_batch_size=4, batch_wait_s=0.05)
    srv = Server(policy)
    futs = [srv.submit("lstm", seq_len=8, seed=s) for s in range(4)]
    srv.shutdown(drain=True, timeout=30.0)
    for fut in futs:
        assert fut.result(timeout=5).ok

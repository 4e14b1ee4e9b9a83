"""Serving layer: batcher units, server behavior, policies, oracles."""

import threading
import time

import numpy as np
import pytest

import repro.runtime as rt
from repro.models import Workload, get_workload
from repro.serve import (BatchSpec, ServePolicy, Server, coalesce,
                         get_batch_spec, group_key, scatter)
from repro.serve.batching import request_rows
from repro.serve.executor import BatchExecutor
from repro.serve.request import Request
from repro.serve.stats import ServerStats
from repro.eval.harness import CompileCache


def make_request(workload="lstm", seq_len=8, seed=0, base=None,
                 pipeline="tensorssa", platform="datacenter",
                 deadline=None):
    """A Request with optionally shared model state from ``base``."""
    wl = get_workload(workload)
    args = wl.make_inputs(batch_size=1, seq_len=seq_len, seed=seed)
    spec = get_batch_spec(wl.name)
    if base is not None and spec is not None:
        args = tuple(args[i] if ax is not None else base[i]
                     for i, ax in enumerate(spec.arg_axes))
    return Request(workload=wl, pipeline=pipeline, platform=platform,
                   args=tuple(args), batch_rows=request_rows(spec, args),
                   deadline=deadline)


def shared_base(workload="lstm", seq_len=8):
    return get_workload(workload).make_inputs(batch_size=1,
                                              seq_len=seq_len, seed=0)


class TestGroupKey:
    def test_shared_state_and_shapes_coalesce(self):
        base = shared_base()
        a = make_request(seed=1, base=base)
        b = make_request(seed=2, base=base)
        assert group_key(a) == group_key(b)

    def test_different_seq_len_splits(self):
        base = shared_base(seq_len=8)
        a = make_request(seq_len=8, base=base)
        b = make_request(seq_len=16)
        assert group_key(a) != group_key(b)

    def test_different_weights_split(self):
        # distinct weight tensors = distinct models: never coalesce
        a = make_request(seed=1)
        b = make_request(seed=2)
        assert group_key(a) != group_key(b)

    def test_different_pipeline_platform_split(self):
        base = shared_base()
        a = make_request(base=base, pipeline="tensorssa")
        b = make_request(base=base, pipeline="eager")
        c = make_request(base=base, platform="consumer")
        assert len({group_key(a), group_key(b), group_key(c)}) == 3

    def test_unspecced_workload_is_solo(self):
        a = make_request("yolact", seed=1)
        b = make_request("yolact", seed=1)
        assert get_batch_spec("yolact") is None
        assert group_key(a) != group_key(b)  # unique per request


class TestCoalesceScatter:
    def test_single_request_passthrough(self):
        req = make_request()
        plan = coalesce([req])
        assert plan.args is req.args
        assert plan.segments == [(0, 1)]

    def test_segments_and_composed_shapes(self):
        base = shared_base()
        reqs = [make_request(seed=s, base=base) for s in (1, 2, 3)]
        plan = coalesce(reqs)
        assert plan.segments == [(0, 1), (1, 2), (2, 3)]
        assert plan.total_rows == 3
        x, wx = plan.args[0], plan.args[1]
        assert x.shape[1] == 3          # (T, B, D): batch axis 1
        assert wx is base[1]            # shared weights pass through

    def test_scatter_roundtrip_is_exact(self):
        base = shared_base("attention", seq_len=8)
        reqs = [make_request("attention", seed=s, base=base)
                for s in (1, 2)]
        plan = coalesce(reqs)
        wl = get_workload("attention")
        outs = wl.model_fn(*plan.args)
        per_req = scatter(outs, plan)
        assert len(per_req) == 2
        for i, outs_i in enumerate(per_req):
            # slices must exactly equal the corresponding batch rows
            assert outs_i[0].shape[0] == 1
            np.testing.assert_array_equal(
                outs_i[0].numpy(), outs[0].numpy()[[i]])

    def test_mixed_row_counts(self):
        wl = get_workload("attention")
        base = shared_base("attention", seq_len=8)
        r1 = make_request("attention", seed=1, base=base)
        a2 = wl.make_inputs(batch_size=3, seq_len=8, seed=2)
        spec = get_batch_spec("attention")
        r2 = Request(workload=wl, pipeline="tensorssa",
                     platform="datacenter", args=a2,
                     batch_rows=request_rows(spec, a2))
        assert r2.batch_rows == 3
        plan = coalesce([r1, r2])
        assert plan.segments == [(0, 1), (1, 4)]
        assert plan.args[0].shape[0] == 4


class TestServerBasics:
    def test_submit_solo_bit_exact_vs_eager(self):
        wl = get_workload("attention")
        args = wl.make_inputs(batch_size=1, seq_len=8, seed=3)
        expected = wl.model_fn(*tuple(a.clone() for a in args))
        with Server(ServePolicy(workers=1, max_batch_size=1,
                                verify="solo")) as srv:
            resp = srv.submit("attention", args=args).result(timeout=60)
        assert resp.ok and resp.served_by == "tensorssa"
        assert resp.verified is True
        for got, exp in zip(resp.outputs, expected):
            np.testing.assert_array_equal(got.numpy(), exp.numpy())

    def test_requests_coalesce_into_batches(self):
        base = shared_base(seq_len=8)
        wl = get_workload("lstm")
        pol = ServePolicy(workers=1, max_batch_size=4, batch_wait_s=0.05,
                          verify="batch")
        with Server(pol) as srv:
            futs = []
            for s in range(4):
                a = wl.make_inputs(batch_size=1, seq_len=8, seed=10 + s)
                args = (a[0],) + base[1:4] + (a[4], a[5])
                futs.append(srv.submit("lstm", args=args))
            rs = [f.result(timeout=60) for f in futs]
        assert all(r.ok for r in rs)
        assert any(r.batch_requests > 1 for r in rs)
        assert all(r.verified is True for r in rs)

    def test_partial_batch_flushes_on_timeout(self):
        # fewer requests than max_batch_size must still be served once
        # the oldest has waited batch_wait_s
        pol = ServePolicy(workers=1, max_batch_size=64,
                          batch_wait_s=0.01)
        with Server(pol) as srv:
            start = time.monotonic()
            resp = srv.submit("attention", seq_len=8).result(timeout=60)
            elapsed = time.monotonic() - start
        assert resp.ok
        assert resp.batch_requests == 1
        assert elapsed < 30.0

    def test_submit_many(self):
        with Server(ServePolicy(workers=2, max_batch_size=2)) as srv:
            futs = srv.submit_many(
                {"workload": "attention", "seq_len": 8, "seed": s}
                for s in range(3))
            rs = [f.result(timeout=60) for f in futs]
        assert [r.ok for r in rs] == [True] * 3

    def test_stats_surface(self):
        srv = Server(ServePolicy(workers=2, max_batch_size=4,
                                 verify="batch"))
        try:
            futs = [srv.submit("attention", seq_len=8, seed=s)
                    for s in range(6)]
            for f in futs:
                assert f.result(timeout=60).ok
        finally:
            srv.shutdown()
        s = srv.stats.to_dict()
        assert s["submitted"] == 6 and s["completed"] == 6
        assert s["errors"] == 0 and s["diverged"] == 0
        assert sum(int(k) * v for k, v in s["batch_size_hist"].items()) == 6
        assert s["latency_p95_ms"] >= s["latency_p50_ms"] >= 0.0
        assert s["compile_cache"]["epoch"] == 0
        assert 0.0 <= s["cache_hit_rate"] <= 1.0


def _unscriptable_model(x):
    # numpy round-trip: runs fine eagerly, but the frontend cannot
    # script it (np is not a registered op namespace)
    arr = x.numpy() * 2.0
    return rt.from_numpy(arr)


UNSCRIPTABLE = Workload(
    name="unscriptable", domain="module", model_fn=_unscriptable_model,
    make_inputs=lambda batch_size=1, seq_len=8, seed=0:
        (get_workload("attention").make_inputs(batch_size, seq_len,
                                               seed)[0],))


class TestRobustnessPolicies:
    def test_fallback_to_eager_on_compile_failure(self):
        pol = ServePolicy(workers=1, max_batch_size=1, verify="solo")
        with Server(pol) as srv:
            resp = srv.submit(UNSCRIPTABLE, seq_len=8).result(timeout=60)
        assert resp.ok and resp.served_by == "eager"
        assert resp.verified is True
        assert srv.stats.fallbacks == 1

    def test_compile_failure_without_fallback_errors(self):
        pol = ServePolicy(workers=1, max_batch_size=1,
                          fallback_chain=("tensorssa",), max_retries=0)
        with Server(pol) as srv:
            resp = srv.submit(UNSCRIPTABLE, seq_len=8).result(timeout=60)
        assert resp.status == "error"

    def test_expired_request_times_out_without_running(self):
        stats = ServerStats()
        ex = BatchExecutor(ServePolicy(), CompileCache(), stats)
        req = make_request("attention",
                           deadline=time.monotonic() - 1.0)
        ex.execute([req])
        resp = req.future.result(timeout=5)
        assert resp.status == "timeout"
        assert stats.timeouts == 1

    def test_deadline_near_skips_cold_compile(self):
        # no cached artifact + deadline inside the slack window -> the
        # executor serves eagerly instead of starting a cold compile
        stats = ServerStats()
        pol = ServePolicy(deadline_slack_s=10.0, verify="solo")
        ex = BatchExecutor(pol, CompileCache(), stats)
        req = make_request("attention",
                           deadline=time.monotonic() + 1.0)
        ex.execute([req])
        resp = req.future.result(timeout=30)
        assert resp.ok and resp.served_by == "eager"
        assert stats.fallbacks == 1

    def test_backpressure_rejects_when_full(self):
        release = threading.Event()
        pol = ServePolicy(workers=1, max_batch_size=1, queue_capacity=1,
                          reject_on_full=True, batch_wait_s=0.0)
        srv = Server(pol)
        original = srv.executor.execute

        def blocking_execute(batch):
            release.wait(30)
            original(batch)

        srv.executor.execute = blocking_execute
        try:
            first = srv.submit("attention", seq_len=8)   # worker blocks
            time.sleep(0.1)                              # worker took it
            second = srv.submit("attention", seq_len=8)  # fills queue
            third = srv.submit("attention", seq_len=8)   # rejected
            resp3 = third.result(timeout=5)
            assert resp3.status == "rejected"
            assert srv.stats.rejected == 1
            release.set()
            assert first.result(timeout=60).ok
            assert second.result(timeout=60).ok
        finally:
            release.set()
            srv.shutdown()

    def test_shutdown_no_drain_cancels_queued(self):
        release = threading.Event()
        pol = ServePolicy(workers=1, max_batch_size=1, batch_wait_s=0.0)
        srv = Server(pol)
        original = srv.executor.execute

        def blocking_execute(batch):
            release.wait(30)
            original(batch)

        srv.executor.execute = blocking_execute
        first = srv.submit("attention", seq_len=8)
        time.sleep(0.1)
        queued = srv.submit("attention", seq_len=8)
        release.set()
        srv.shutdown(drain=False)
        assert queued.result(timeout=5).status == "cancelled"
        assert first.result(timeout=60).status in ("ok", "cancelled")
        with pytest.raises(RuntimeError):
            srv.submit("attention", seq_len=8)


class TestFuzzOracleThroughServer:
    """Fuzz-generated programs served end to end: the differential
    oracle's bit-exactness contract must survive the serving path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_program_served_bit_exact(self, seed):
        from repro.fuzz import generate_program, materialize
        from repro.fuzz.generator import make_inputs as fuzz_inputs

        program = generate_program(seed, max_nodes=64)
        fn = materialize(program.source, program.name)
        x_data, variants = fuzz_inputs(seed)
        flag, n = variants[0]
        wl = Workload(name=f"fuzz{seed}", domain="module", model_fn=fn,
                      make_inputs=lambda **kw: (rt.from_numpy(x_data),
                                                flag, n))
        expected = fn(rt.from_numpy(x_data.copy()), flag, n)
        pol = ServePolicy(workers=2, max_batch_size=4, verify="solo")
        with Server(pol) as srv:
            resp = srv.submit(
                wl, args=(rt.from_numpy(x_data.copy()), flag, n),
                pipeline="tensorssa").result(timeout=120)
        assert resp.ok, resp.error
        assert resp.verified is True
        got = resp.outputs
        exp = expected if isinstance(expected, tuple) else (expected,)
        assert len(got) == len(exp)
        for g, e in zip(got, exp):
            np.testing.assert_array_equal(g.numpy(), e.numpy())


# -- batch assembly over time + admission control ------------------------

from repro.serve import (AdmissionController, TokenBucket,  # noqa: E402
                         group_lane, group_min_deadline)


def shared_args(base, workload="lstm", seq_len=8, seed=1):
    """Request args reusing ``base``'s shared model state (so requests
    land in one group) with fresh batched inputs from ``seed``."""
    wl = get_workload(workload)
    fresh = wl.make_inputs(batch_size=1, seq_len=seq_len, seed=seed)
    spec = get_batch_spec(workload)
    return tuple(fresh[i] if ax is not None else base[i]
                 for i, ax in enumerate(spec.arg_axes))


class _StubStats:
    """Feeds AdmissionController a hand-set queue-wait percentile."""

    def __init__(self, p=0.0):
        self.p = p

    def recent_queue_wait_percentile(self, q):
        return self.p


class TestTokenBucket:
    def test_burst_then_refill(self):
        t = [0.0]
        b = TokenBucket(rate=1.0, burst=2.0, clock=lambda: t[0])
        assert b.try_take()
        assert b.try_take()
        assert not b.try_take()          # burst drained
        t[0] += 1.0                       # 1 token refilled
        assert b.try_take()
        assert not b.try_take()

    def test_refill_caps_at_burst(self):
        t = [0.0]
        b = TokenBucket(rate=10.0, burst=3.0, clock=lambda: t[0])
        t[0] += 100.0
        assert b.tokens == 3.0

    def test_zero_rate_never_refills(self):
        t = [0.0]
        b = TokenBucket(rate=0.0, burst=1.0, clock=lambda: t[0])
        assert b.try_take()
        t[0] += 1000.0
        assert not b.try_take()

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_hysteresis_trip_and_recover(self):
        pol = ServePolicy(shed_budget_s=1.0, shed_recover_fraction=0.5)
        stub = _StubStats()
        ctrl = AdmissionController(pol, stub)
        stub.p = 0.5
        assert not ctrl.should_shed(0)
        stub.p = 1.5
        assert ctrl.should_shed(0)        # tripped: p > budget
        stub.p = 0.8
        assert ctrl.should_shed(0)        # hysteresis: 0.8 > 1.0 * 0.5
        stub.p = 0.4
        assert not ctrl.should_shed(0)    # recovered below budget*frac
        assert not ctrl.shedding

    def test_high_priority_never_shed(self):
        pol = ServePolicy(shed_budget_s=0.1, shed_priority_max=0)
        stub = _StubStats(p=10.0)
        ctrl = AdmissionController(pol, stub)
        assert ctrl.should_shed(0)
        assert not ctrl.should_shed(1)
        assert not ctrl.should_shed(2)

    def test_budget_derives_from_request_timeout(self):
        pol = ServePolicy(request_timeout_s=2.0, deadline_slack_s=0.5)
        ctrl = AdmissionController(pol, _StubStats())
        assert ctrl.shed_budget_s() == pytest.approx(1.5)

    def test_no_deadline_disables_shedding(self):
        pol = ServePolicy(request_timeout_s=0)
        ctrl = AdmissionController(pol, _StubStats(p=100.0))
        assert ctrl.shed_budget_s() is None
        assert not ctrl.should_shed(0)

    def test_disabled_flag_wins(self):
        pol = ServePolicy(shed_enabled=False, shed_budget_s=0.01)
        ctrl = AdmissionController(pol, _StubStats(p=100.0))
        assert not ctrl.should_shed(0)

    def test_work_conservation_floor(self):
        # even while tripped, a near-empty queue is never shed into:
        # the lagging percentile must not idle the server
        pol = ServePolicy(workers=2, max_batch_size=4,
                          shed_budget_s=0.1)
        ctrl = AdmissionController(pol, _StubStats(p=10.0))
        assert ctrl.keep_busy_floor == 8    # derived workers*max_batch
        assert ctrl.should_shed(0, pending=100)
        assert ctrl.shedding
        assert not ctrl.should_shed(0, pending=7)
        assert ctrl.should_shed(0, pending=8)
        explicit = AdmissionController(
            ServePolicy(shed_budget_s=0.1, shed_min_pending=3),
            _StubStats(p=10.0))
        assert explicit.keep_busy_floor == 3
        assert not explicit.should_shed(0, pending=2)


class TestGroupLaneHelpers:
    def test_group_lane_is_max_priority(self):
        base = shared_base()
        reqs = [make_request(seed=1, base=base),
                make_request(seed=2, base=base)]
        reqs[1].priority = 3
        assert group_lane(reqs) == 3
        assert group_lane([]) == 0

    def test_group_min_deadline_scans_all_members(self):
        base = shared_base()
        a = make_request(seed=1, base=base, deadline=None)
        b = make_request(seed=2, base=base, deadline=50.0)
        c = make_request(seed=3, base=base, deadline=10.0)
        assert group_min_deadline([a]) is None
        assert group_min_deadline([a, b, c]) == 10.0


class TestSchedulerRegressions:
    """The three deadline-scheduler bugs, pinned."""

    def test_sleeping_scheduler_wakes_for_deadline(self):
        # Bug 1: the cond-wait timeout was computed from flush_at
        # alone, so a lone request with a deadline far inside
        # batch_wait_s slept until it had already expired.
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=5.0)
        t0 = time.monotonic()
        with Server(pol) as srv:
            resp = srv.submit("attention", seq_len=8,
                              timeout_s=0.8).result(timeout=10)
        wall = time.monotonic() - t0
        assert resp.ok, resp.error
        assert wall < 2.0, f"scheduler slept through the deadline ({wall:.2f}s)"

    def test_group_min_deadline_triggers_urgent_flush(self):
        # Bug 2: urgency inspected only queue[0]; a later member with
        # a tighter deadline starved behind a relaxed oldest one.
        wl = get_workload("lstm")
        base = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=5.0)
        t0 = time.monotonic()
        with Server(pol) as srv:
            relaxed = srv.submit("lstm", args=shared_args(base, seed=1),
                                 timeout_s=30.0)
            tight = srv.submit("lstm", args=shared_args(base, seed=2),
                               timeout_s=0.8)
            r_tight = tight.result(timeout=10)
            r_relaxed = relaxed.result(timeout=10)
        wall = time.monotonic() - t0
        assert r_tight.ok, r_tight.error
        assert r_relaxed.ok, r_relaxed.error
        # the group flushed at the tight member's urgency point, not at
        # the relaxed oldest member's 5s batch_wait (the executor may
        # still peel the near-deadline member onto the eager path)
        assert r_tight.queue_wait_s < 2.0, r_tight.queue_wait_s
        assert wall < 2.0, f"tight-deadline member starved ({wall:.2f}s)"

    def test_backpressure_wait_is_visible_in_queue_wait(self):
        # Bug 3: enqueued_at was re-stamped after the backpressure
        # wait, hiding blocked-submit time from the queue-wait
        # percentiles (the very signal the shedder reads).
        release = threading.Event()
        pol = ServePolicy(workers=1, max_batch_size=1, queue_capacity=1,
                          reject_on_full=False, submit_timeout_s=10.0,
                          batch_wait_s=0.0)
        srv = Server(pol)
        original = srv.executor.execute

        def blocking_execute(batch):
            release.wait(30)
            original(batch)

        srv.executor.execute = blocking_execute
        try:
            first = srv.submit("attention", seq_len=8)   # worker blocks
            time.sleep(0.1)                              # worker took it
            second = srv.submit("attention", seq_len=8)  # fills queue
            futs = []

            def blocked_submit():
                futs.append(srv.submit("attention", seq_len=8))

            t = threading.Thread(target=blocked_submit)
            t.start()
            time.sleep(0.4)          # third sits in the backpressure wait
            release.set()
            t.join(timeout=10)
            assert not t.is_alive()
            third = futs[0].result(timeout=30)
            assert third.ok, third.error
            assert first.result(timeout=30).ok
            assert second.result(timeout=30).ok
            assert srv.stats.backpressure_waits == 1
            # the blocked ~0.4s must show up in the request's queue wait
            assert third.queue_wait_s >= 0.3, third.queue_wait_s
        finally:
            release.set()
            srv.shutdown()


class TestPriorityLanes:
    def test_high_priority_group_drains_first(self):
        release = threading.Event()
        order = []
        pol = ServePolicy(workers=1, max_batch_size=1, batch_wait_s=0.0)
        srv = Server(pol)
        original = srv.executor.execute

        def gated_execute(batch):
            order.append(batch[0].priority)
            release.wait(30)
            original(batch)

        srv.executor.execute = gated_execute
        try:
            dummy = srv.submit("attention", seq_len=4)     # occupies worker
            time.sleep(0.1)
            low = srv.submit("attention", seq_len=8, priority=0)
            high = srv.submit("attention", seq_len=16, priority=2)
            release.set()
            assert high.result(timeout=30).ok
            assert low.result(timeout=30).ok
            assert dummy.result(timeout=30).ok
            # after the dummy, the high lane drained before the low one
            assert order == [0, 2, 0]
        finally:
            release.set()
            srv.shutdown()

    def test_response_echoes_lane_and_tenant(self):
        pol = ServePolicy(workers=1)
        with Server(pol) as srv:
            resp = srv.submit("attention", seq_len=8, priority=2,
                              tenant="gold").result(timeout=30)
        assert resp.ok
        assert resp.priority == 2
        assert resp.tenant == "gold"
        assert srv.stats.lane_submitted.get(2) == 1
        assert srv.stats.lane_completed.get(2) == 1
        assert srv.stats.lane_latency_percentile(2, 50) > 0.0


class TestContinuousBatching:
    def test_window_admits_late_arrival(self):
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=0.5)
        with Server(pol) as srv:
            f1 = srv.submit("attention", seq_len=16, seed=1)
            time.sleep(0.1)      # f1 still waits for peers in its group
            f2 = srv.submit("attention", seq_len=16, seed=2)
            r1, r2 = f1.result(timeout=30), f2.result(timeout=30)
        assert r1.ok and r2.ok
        assert r1.batch_requests == 2 and r2.batch_requests == 2

    def test_deadline_pulls_cutoff_before_batch_wait(self):
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=5.0)
        t0 = time.monotonic()
        with Server(pol) as srv:
            resp = srv.submit("attention", seq_len=8,
                              timeout_s=0.8).result(timeout=10)
        wall = time.monotonic() - t0
        assert resp.ok, resp.error
        assert wall < 2.0, f"flush ignored the deadline ({wall:.2f}s)"

    def test_batch_oracle_exact_with_admitted_members(self):
        wl = get_workload("lstm")
        base = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=0.4,
                          verify="batch")
        with Server(pol) as srv:
            futs = []
            for seed in range(1, 5):
                futs.append(srv.submit(
                    "lstm", args=shared_args(base, seed=seed)))
                time.sleep(0.05)
            resps = [f.result(timeout=60) for f in futs]
        assert all(r.ok for r in resps), [r.error for r in resps]
        assert all(r.verified for r in resps)
        assert srv.stats.diverged == 0
        # later submits rode the batch the first one was waiting in
        assert max(r.batch_requests for r in resps) >= 2


class TestQuotasAndShedding:
    def test_tenant_quota_rejects_when_drained(self):
        pol = ServePolicy(workers=1,
                          tenant_rates={"free": (0.0, 2.0)})
        with Server(pol) as srv:
            a = srv.submit("attention", seq_len=8, tenant="free")
            b = srv.submit("attention", seq_len=8, tenant="free")
            c = srv.submit("attention", seq_len=8, tenant="free")
            gold = srv.submit("attention", seq_len=8, tenant="gold")
            rc = c.result(timeout=30)
            assert a.result(timeout=30).ok
            assert b.result(timeout=30).ok
            assert gold.result(timeout=30).ok
        assert rc.status == "rejected"
        assert "quota" in rc.error
        assert srv.stats.quota_rejected_by_tenant == {"free": 1}

    def test_shed_then_recover_through_server(self):
        pol = ServePolicy(workers=1, shed_budget_s=0.5, shed_window=8,
                          shed_priority_max=0, shed_min_pending=0)
        with Server(pol) as srv:
            # simulate a queue-wait spike crossing the budget
            for _ in range(8):
                srv.stats.on_response("ok", 0.01, 1.0, False, False, 0,
                                      None)
            shed = srv.submit("attention", seq_len=8, priority=0)
            kept = srv.submit("attention", seq_len=8, priority=1)
            r_shed = shed.result(timeout=30)
            assert r_shed.status == "shed"
            assert "shed" in r_shed.error
            assert kept.result(timeout=30).ok
            assert srv.admission.shedding
            # the spike drains: recent waits fall below budget * frac
            for _ in range(8):
                srv.stats.on_response("ok", 0.01, 0.01, False, False, 0,
                                      None)
            recovered = srv.submit("attention", seq_len=8, priority=0)
            assert recovered.result(timeout=30).ok
        assert srv.stats.shed == 1
        assert srv.stats.shed_by_lane == {0: 1}


class TestDrainDeadline:
    """``shutdown(drain=True)`` is bounded: a wedged worker thread can
    delay shutdown by at most the drain deadline, and whatever it
    would have served is answered with a typed ``ServerShutdown``
    rejection instead of hanging its waiters forever."""

    def _wedge_plan(self, seconds):
        from repro.faults import (Fault, FaultPlan, FaultRule,
                                  KIND_LATENCY, SITE_BATCH_EXEC)
        return FaultPlan([FaultRule(
            site=SITE_BATCH_EXEC, probability=1.0, times=None,
            fault=Fault(kind=KIND_LATENCY, latency_s=seconds))])

    def test_wedged_worker_cannot_stall_shutdown(self):
        from repro.faults import global_fault_scope
        policy = ServePolicy(workers=1, max_batch_size=1,
                             batch_wait_s=0.001, drain_timeout_s=0.3)
        srv = Server(policy)
        with global_fault_scope(self._wedge_plan(8.0)):
            futs = [srv.submit("attention", seq_len=8, seed=s)
                    for s in range(3)]
            start = time.monotonic()
            srv.shutdown(drain=True)
            elapsed = time.monotonic() - start
        assert elapsed < 4.0  # bounded by the deadline, not the wedge
        assert srv.stats.drain_expired >= 1
        # the wedged request's waiter is not our concern here; every
        # *queued* request must already hold a typed rejection
        done = [f for f in futs if f.done()]
        assert len(done) >= 2
        for f in done:
            resp = f.result(timeout=0)
            if resp.ok:
                continue  # served before the worker wedged
            assert resp.status == "cancelled"
            assert "ServerShutdown" in resp.error \
                or "shut down" in resp.error

    def test_explicit_timeout_overrides_policy(self):
        from repro.faults import global_fault_scope
        policy = ServePolicy(workers=1, max_batch_size=1,
                             batch_wait_s=0.001, drain_timeout_s=30.0)
        srv = Server(policy)
        with global_fault_scope(self._wedge_plan(8.0)):
            futs = [srv.submit("attention", seq_len=8, seed=s)
                    for s in range(2)]
            start = time.monotonic()
            srv.shutdown(drain=True, timeout=0.2)
            elapsed = time.monotonic() - start
        assert elapsed < 4.0
        assert srv.stats.drain_expired >= 1
        del futs

    def test_clean_drain_leaves_no_expiry(self):
        policy = ServePolicy(workers=1, max_batch_size=2,
                             batch_wait_s=0.001, drain_timeout_s=10.0)
        srv = Server(policy)
        futs = [srv.submit("attention", seq_len=8, seed=s)
                for s in range(4)]
        srv.shutdown(drain=True)
        assert all(f.result(timeout=0).ok for f in futs)
        assert srv.stats.drain_expired == 0

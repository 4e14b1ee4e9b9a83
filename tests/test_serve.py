"""Serving layer: batcher units, server behavior, policies, oracles."""

import threading
import time

import numpy as np
import pytest

import repro.runtime as rt
from conftest import HeldWorkers
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
        inputs = [wl.make_inputs(batch_size=1, seq_len=8, seed=10 + s)
                  for s in range(4)]
        with Server(pol) as srv:
            # atomic: an idle worker claims a lone request at once, so
            # one-by-one submits race a warm lstm call and may run solo
            futs = srv.submit_many(
                {"workload": "lstm", "args": (a[0],) + base[1:4] + a[4:6]}
                for a in inputs)
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
        pol = ServePolicy(workers=1, max_batch_size=1, queue_capacity=1,
                          reject_on_full=True, batch_wait_s=0.0)
        srv = Server(pol)
        held = HeldWorkers(srv)
        try:
            first = srv.submit("attention", seq_len=8)   # worker blocks
            held.next_taken()                            # worker took it
            second = srv.submit("attention", seq_len=8)  # fills queue
            third = srv.submit("attention", seq_len=8)   # rejected
            resp3 = third.result(timeout=5)
            assert resp3.status == "rejected"
            assert srv.stats.rejected == 1
            held.release_all()
            assert first.result(timeout=60).ok
            assert second.result(timeout=60).ok
        finally:
            held.release_all()
            srv.shutdown()

    def test_shutdown_no_drain_cancels_queued(self):
        pol = ServePolicy(workers=1, max_batch_size=1, batch_wait_s=0.0)
        srv = Server(pol)
        held = HeldWorkers(srv)
        first = srv.submit("attention", seq_len=8)
        held.next_taken()
        queued = srv.submit("attention", seq_len=8)
        # the worker stays held until the shutdown has cancelled the
        # queued request, so it cannot serve it first
        queued.add_done_callback(lambda _: held.release_all())
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
        pol = ServePolicy(workers=1, max_batch_size=1, queue_capacity=1,
                          reject_on_full=False, submit_timeout_s=10.0,
                          batch_wait_s=0.0)
        srv = Server(pol)
        held = HeldWorkers(srv)
        try:
            first = srv.submit("attention", seq_len=8)   # worker blocks
            held.next_taken()                            # worker took it
            second = srv.submit("attention", seq_len=8)  # fills queue
            futs = []

            def blocked_submit():
                futs.append(srv.submit("attention", seq_len=8))

            t = threading.Thread(target=blocked_submit)
            t.start()
            time.sleep(0.4)          # third sits in the backpressure wait
            held.release_all()
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
            held.release_all()
            srv.shutdown()


class TestPriorityLanes:
    def test_high_priority_group_drains_first(self):
        pol = ServePolicy(workers=1, max_batch_size=1, batch_wait_s=0.0)
        srv = Server(pol)
        held = HeldWorkers(srv)
        try:
            dummy = srv.submit("attention", seq_len=4)     # occupies worker
            order = [held.next_taken()[0][0].priority]
            low = srv.submit("attention", seq_len=8, priority=0)
            high = srv.submit("attention", seq_len=16, priority=2)
            held.release_all()
            assert high.result(timeout=30).ok
            assert low.result(timeout=30).ok
            assert dummy.result(timeout=30).ok
            order += [held.next_taken()[0][0].priority for _ in range(2)]
            # after the dummy, the high lane drained before the low one
            assert order == [0, 2, 0]
        finally:
            held.release_all()
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
        # the worker is held on another group, so f1 waits in its own
        # and f2 — submitted later, no timer involved — rides its batch
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=30.0)
        with Server(pol) as srv:
            held = HeldWorkers(srv)
            dummy = srv.submit("attention", seq_len=4)
            held.next_taken()
            f1 = srv.submit("attention", seq_len=16, seed=1)
            f2 = srv.submit("attention", seq_len=16, seed=2)
            held.release_all()
            r1, r2 = f1.result(timeout=30), f2.result(timeout=30)
            assert dummy.result(timeout=30).ok
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
        pol = ServePolicy(workers=1, max_batch_size=8, batch_wait_s=30.0,
                          verify="batch")
        with Server(pol) as srv:
            held = HeldWorkers(srv)
            dummy = srv.submit("attention", seq_len=4)
            held.next_taken()
            futs = [srv.submit("lstm", args=shared_args(base, seed=seed))
                    for seed in range(1, 5)]
            held.release_all()
            resps = [f.result(timeout=60) for f in futs]
            assert dummy.result(timeout=30).ok
        assert all(r.ok for r in resps), [r.error for r in resps]
        assert all(r.verified for r in resps)
        assert srv.stats.diverged == 0
        # later submits rode the batch the first one was waiting in
        assert [r.batch_requests for r in resps] == [4] * 4


class TestLingerOnEvidence:
    """A group lingers for peers only when something says they are
    coming: a batch executing now, or this key's last flush coalesced."""

    def test_flush_reason_truth_table(self):
        from repro.serve.server import flush_reason
        wake = (10.0, "linger_expired")

        def reason(length=1, now=0.0, wake=wake, executing=0,
                   coalesced=False, closed=False):
            return flush_reason(length, 8, now, wake, executing, coalesced,
                                closed)

        # no evidence: an idle server claims at once, long before wake
        assert reason() == "idle"
        # evidence: the wake point applies, exactly as without the rule
        assert reason(executing=1) is None
        assert reason(coalesced=True) is None
        assert reason(executing=2, coalesced=True) is None
        assert reason(now=10.0, executing=1) == "linger_expired"
        assert reason(now=10.0, coalesced=True) == "linger_expired"
        assert reason(now=3.0, wake=(3.0, "deadline"),
                      executing=1) == "deadline"
        assert reason(now=2.9, wake=(3.0, "deadline"), executing=1) is None
        # full and closing hold whatever the load or the evidence
        for executing in (0, 1):
            for coalesced in (False, True):
                assert reason(length=8, executing=executing,
                              coalesced=coalesced) == "full"
                assert reason(length=9, executing=executing,
                              coalesced=coalesced, closed=True) == "full"
                assert reason(executing=executing, coalesced=coalesced,
                              closed=True) == "closing"

    def test_wake_point_names_its_bound_on_fake_clock(self):
        t = [100.0]
        pol = ServePolicy(workers=1, batch_wait_s=2.0, deadline_slack_s=0.25)
        with Server(pol, clock=lambda: t[0]) as srv:
            relaxed = make_request(deadline=t[0] + 30.0)
            relaxed.enqueued_at = t[0]
            assert srv._group_wake_at([relaxed]) == \
                (102.0, "linger_expired")
            tight = make_request(deadline=t[0] + 1.0)
            tight.enqueued_at = t[0] + 0.5
            assert srv._group_wake_at([relaxed, tight]) == \
                (100.75, "deadline")

    def test_lone_request_on_idle_server_skips_the_linger(self):
        from repro.obs import global_tracing
        pol = ServePolicy(workers=2, max_batch_size=8, batch_wait_s=5.0)
        with global_tracing():
            with Server(pol) as srv:
                resp = srv.submit("attention", seq_len=8).result(timeout=30)
        assert resp.ok and resp.batch_requests == 1
        dequeue = [e for e in resp.timeline if e["event"] == "dequeue"]
        assert [e["reason"] for e in dequeue] == ["idle"]
        assert resp.queue_wait_s < 0.5, resp.queue_wait_s
        assert srv.stats.flushes_by_reason == {"idle": 1}

    def test_out_of_phase_clients_still_merge(self):
        # two full batches held on two workers, released apart: their
        # clients come back one by one to an idle worker, and because
        # the key's last flush coalesced they gather into one batch
        # instead of being grabbed one at a time (no timer: the linger
        # is 30 s away and the group flushes by filling up)
        n = 4
        one = {"workload": "attention", "seq_len": 8}
        pol = ServePolicy(workers=2, max_batch_size=n, batch_wait_s=30.0)
        with Server(pol) as srv:
            held = HeldWorkers(srv)
            first = srv.submit_many(dict(one, seed=s) for s in range(n))
            _, gate_a = held.next_taken()
            second = srv.submit_many(dict(one, seed=s) for s in range(n))
            _, gate_b = held.next_taken()
            gate_a.set()
            assert all(f.result(timeout=30).ok for f in first)
            back = [srv.submit(**one, seed=s) for s in range(2)]
            gate_b.set()
            assert all(f.result(timeout=30).ok for f in second)
            assert srv.queue_depth() == 2      # both workers idle, none took
            held.release_all()
            back += [srv.submit(**one, seed=s) for s in range(2, n)]
            merged = [f.result(timeout=30) for f in back]
        assert [r.batch_requests for r in merged] == [n] * n
        assert srv.stats.flushes_by_reason == {"full": 3}

    def test_coalesced_key_set_stays_bounded(self):
        from repro.serve.server import COALESCED_KEYS_MAX
        pol = ServePolicy(workers=1, max_batch_size=2, batch_wait_s=30.0)
        srv = Server(pol)

        def answer(batch):          # no compile, no run: keys only
            for req in batch:
                req.future.set_result(req.answer("ok"))

        srv.executor.execute = answer
        args = get_workload("attention").make_inputs(batch_size=1,
                                                     seq_len=4, seed=0)
        try:
            for k in range(10_000):  # the platform is part of the key
                futs = srv.submit_many(
                    [{"workload": "attention", "args": args,
                      "platform": f"p{k}"}] * 2)
                assert all(f.result(timeout=60).ok for f in futs)
        finally:
            srv.shutdown()
        assert srv.stats.flushes_by_reason == {"full": 10_000}
        assert len(srv._coalesced) == COALESCED_KEYS_MAX
        # unbatchable workloads get a per-request key: never remembered
        assert group_key(make_request("yolact"))[3] == "solo"
        srv._note_flush(group_key(make_request("yolact")), 1)
        assert len(srv._coalesced) == COALESCED_KEYS_MAX

    def test_batch_oracle_exact_across_light_loaded_light(self):
        wl = get_workload("lstm")
        base = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        pol = ServePolicy(workers=1, max_batch_size=4, batch_wait_s=0.01,
                          verify="batch")
        seeds = iter(range(1, 100))

        def one():
            return {"workload": "lstm",
                    "args": shared_args(base, seed=next(seeds))}

        with Server(pol) as srv:
            def reasons():
                return dict(srv.stats.flushes_by_reason)

            light = srv.submit(**one()).result(timeout=60)
            assert reasons() == {"idle": 1}
            loaded = [f.result(timeout=60)
                      for f in srv.submit_many(one() for _ in range(4))]
            assert reasons() == {"idle": 1, "full": 1}
            # the key just coalesced: a lone follower sits out the linger
            after = srv.submit(**one()).result(timeout=60)
            assert reasons() == {"idle": 1, "full": 1, "linger_expired": 1}
            assert after.queue_wait_s >= 0.01
            # ... and its solo flush is the evidence that load is gone
            # (once the worker is out of that batch: the response
            # resolves a moment before the executing count drops)
            deadline = time.monotonic() + 10.0
            while srv._executing and time.monotonic() < deadline:
                time.sleep(0.0005)
            again = srv.submit(**one()).result(timeout=60)
            assert reasons() == {"idle": 2, "full": 1, "linger_expired": 1}
        resps = [light, *loaded, after, again]
        assert all(r.ok and r.verified is True for r in resps), \
            [r.error for r in resps]
        assert [r.batch_requests for r in resps] == [1, 4, 4, 4, 4, 1, 1]
        assert srv.stats.diverged == 0


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

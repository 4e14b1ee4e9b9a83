"""The repro.obs layer: spans, metrics, Chrome export, and the three
bugfixes that shipped with it (nearest-rank percentile, reservoir
sampling past the cap, constant-fold fault swallowing)."""

import json
import threading

import pytest

import repro.runtime as rt
from repro.errors import CompileError, ReproError
from repro.eval.harness import CompileCache, run_workload
from repro.faults import FaultPlan, FaultRule, SITE_PASS, fault_scope
from repro.ir import Graph
from repro.ir import types as T
from repro.obs import (Counter, Gauge, Histogram, LabeledCounter,
                       MetricsRegistry, Trace, add_instant, chrome_trace,
                       coverage_fraction, current_span, global_tracing,
                       null_instrumentation, percentile_nearest_rank, span,
                       tracing, tracing_active, validate_chrome_trace,
                       write_chrome_trace)
from repro.passes import constant_fold
from repro.serve import ServePolicy, Server, ServerStats


# -- percentile: the nearest-rank regression --------------------------------

class TestPercentileNearestRank:
    def test_p50_of_four_is_second_element(self):
        # the old int(round(q/100*(n-1))) gave 3 here
        assert percentile_nearest_rank([1, 2, 3, 4], 50) == 2

    def test_small_sets(self):
        assert percentile_nearest_rank([1, 2, 3, 4], 25) == 1
        assert percentile_nearest_rank([1, 2, 3, 4], 75) == 3
        assert percentile_nearest_rank([1, 2, 3, 4], 100) == 4
        assert percentile_nearest_rank([1, 2, 3], 50) == 2
        assert percentile_nearest_rank([7], 99) == 7

    def test_q0_is_minimum_q100_is_maximum(self):
        data = [5, 1, 9, 3]
        assert percentile_nearest_rank(data, 0) == 1
        assert percentile_nearest_rank(data, 100) == 9

    def test_empty_is_zero(self):
        assert percentile_nearest_rank([], 50) == 0.0

    def test_returns_actual_member(self):
        data = [0.1, 0.2, 0.9]
        for q in (10, 50, 90, 95):
            assert percentile_nearest_rank(data, q) in data


# -- metrics instruments ----------------------------------------------------

class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_peak(self):
        g = Gauge("g")
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2
        assert g.peak == 10

    def test_labeled_counter(self):
        lc = LabeledCounter("lc")
        lc.inc(4)
        lc.inc(4)
        lc.inc(1)
        assert lc.as_dict() == {4: 2, 1: 1}
        assert lc.total == 3

    def test_histogram_exact_until_cap(self):
        h = Histogram("h", max_samples=10, seed=0)
        for x in range(5):
            h.record(float(x))
        assert h.count == 5
        assert h.sum == 10.0
        assert sorted(h.samples()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_reservoir_shifts_after_cap(self):
        # the frozen-sampling regression: the old ServerStats dropped
        # every sample past the cap, so a late-run distribution shift
        # was invisible to percentiles
        h = Histogram("h", max_samples=100, seed=0)
        for _ in range(100):
            h.record(1.0)
        assert h.percentile(95) == 1.0
        for _ in range(900):
            h.record(100.0)
        assert h.count == 1000
        # ~90% of the reservoir should now be late samples
        assert h.percentile(50) == 100.0
        assert 100.0 in h.samples()

    def test_reservoir_is_seeded_deterministic(self):
        def run(seed):
            h = Histogram("h", max_samples=8, seed=seed)
            for x in range(100):
                h.record(float(x))
            return h.samples()
        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_registry_idempotent_and_typed(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        d = reg.to_dict()
        assert d["a"] == 0

    def test_registry_histogram_snapshot(self):
        reg = MetricsRegistry(seed=1)
        h = reg.histogram("lat")
        for x in (1.0, 2.0, 3.0, 4.0):
            h.record(x)
        snap = reg.to_dict()["lat"]
        assert snap["count"] == 4
        assert snap["p50"] == 2.0  # nearest-rank, not interpolated


# -- ServerStats over the registry ------------------------------------------

class TestServerStats:
    def test_to_dict_keys_and_counts(self):
        st = ServerStats()
        st.on_submit(queue_depth=3)
        st.on_batch(2)
        st.on_response(status="ok", latency_s=0.01, queue_wait_s=0.001,
                       cache_hit=True, fallback=False, retries=0,
                       verified=True)
        st.on_response(status="error", latency_s=0.02, queue_wait_s=0.002,
                       cache_hit=False, fallback=True, retries=2,
                       verified=False, fallback_depth=1, degraded=True)
        d = st.to_dict()
        assert d["submitted"] == 1
        assert d["completed"] == 1
        assert d["errors"] == 1
        assert d["fallbacks"] == 1
        assert d["retries"] == 2
        assert d["verified"] == 2
        assert d["diverged"] == 1
        assert d["degraded"] == 1
        assert d["batches_executed"] == 1
        assert d["batch_size_hist"] == {"2": 1}
        assert d["fallback_depth_hist"] == {"0": 1}
        assert d["queue_depth_peak"] == 3
        assert d["request_cache_hits"] == 1
        assert d["cache_hit_rate"] == 0.5
        assert st.latency_percentile(50) == 0.01

    #: ``to_dict`` key set of a bare ``ServerStats`` at the commit that
    #: introduced the instrument table (captured from its parent), plus
    #: ``flushes_by_reason`` (PR 22): the results/*.json schema must
    #: not drift silently
    GOLDEN_KEYS = {
        "backpressure_wait_p95_ms", "backpressure_waits",
        "batch_size_hist", "batches_executed", "breaker_transitions",
        "bucket_pad_efficiency", "bucket_padded_units",
        "bucket_real_units", "cache_hit_rate", "cancelled", "completed",
        "degraded", "diverged", "drain_expired", "errors",
        "fallback_depth_hist", "fallbacks", "flushes_by_reason",
        "lane_completed",
        "lane_latency_ms", "lane_submitted", "latency_p50_ms",
        "latency_p95_ms", "queue_depth_peak", "queue_wait_p50_ms",
        "queue_wait_p95_ms", "queue_wait_p99_ms", "quota_rejected",
        "quota_rejected_by_tenant", "rejected", "request_cache_hits",
        "request_cache_misses", "retries", "schedule_hist", "shed",
        "shed_by_lane", "submitted", "timeouts", "tuned", "verified"}

    def test_to_dict_key_set_golden(self):
        d = ServerStats().to_dict()
        assert set(d) == self.GOLDEN_KEYS
        json.dumps(d)  # and it stays JSON-ready
        # every table row also reads as an attribute
        st = ServerStats()
        st.on_shed(priority=1)
        assert st.shed == 1 and st.shed_by_lane == {1: 1}
        with pytest.raises(AttributeError):
            st.no_such_counter

    def test_idle_server_reports_pulled_sections(self, tmp_path):
        # nothing is pushed per batch any more: a server that never
        # executed one still reports its cache, breakers and tuning DB
        pol = ServePolicy(workers=1, tuning_db_path=str(tmp_path))
        with Server(pol) as srv:
            d = srv.stats.to_dict()
        assert set(d) == self.GOLDEN_KEYS | {"compile_cache", "tune_db"}
        assert d["batches_executed"] == 0
        assert d["compile_cache"]["misses"] == 0
        assert d["tune_db"]["searches"] == 0 and d["tune_db"]["size"] == 0
        assert d["breaker_transitions"] == {}

    def test_latency_reservoir_not_frozen_after_cap(self):
        class SmallStats(ServerStats):
            MAX_SAMPLES = 50
        st = SmallStats()
        for _ in range(50):
            st.on_response(status="ok", latency_s=0.001,
                           queue_wait_s=0.0, cache_hit=True,
                           fallback=False, retries=0, verified=None)
        assert st.latency_percentile(95) == 0.001
        # distribution shifts two orders of magnitude after the cap
        for _ in range(450):
            st.on_response(status="ok", latency_s=0.1,
                           queue_wait_s=0.0, cache_hit=True,
                           fallback=False, retries=0, verified=None)
        assert st.latency_percentile(50) == 0.1


# -- span tracing -----------------------------------------------------------

class TestSpans:
    def test_disabled_is_inert(self):
        assert not tracing_active()
        with span("x") as sp:
            assert sp is None
        add_instant("y")  # must not raise
        assert current_span() is None

    def test_nesting_and_args(self):
        with tracing(seed=0) as tr:
            with span("outer", cat="compile", k=1) as outer:
                with span("inner") as inner:
                    assert current_span() is inner
                    add_instant("tick", n=3)
                assert current_span() is outer
        assert [s.name for s in tr.spans] == ["inner", "outer"]
        inner, outer = tr.spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.args["k"] == 1
        assert inner.instants[0].name == "tick"
        assert inner.duration_s >= 0.0
        assert tr.roots() == [outer]
        assert tr.children(outer) == [inner]

    def test_error_unwind_stamps_and_closes(self):
        with tracing() as tr:
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("x")
        assert tr.spans[0].error == "ValueError"
        assert tr.spans[0].end_s >= tr.spans[0].start_s

    def test_orphan_instant(self):
        with tracing() as tr:
            add_instant("loose")
        assert [i.name for i in tr.orphan_instants] == ["loose"]

    def test_ids_deterministic(self):
        def ids():
            with tracing(seed=7) as tr:
                with span("a"):
                    with span("b"):
                        pass
                with span("c"):
                    pass
            return [(s.name, s.span_id) for s in tr.spans]
        assert ids() == ids()
        assert ids() == [("b", 2), ("a", 1), ("c", 3)]

    def test_global_sink_not_reentrant(self):
        with global_tracing():
            with pytest.raises(RuntimeError):
                with global_tracing():
                    pass

    def test_context_local_wins_over_global(self):
        with global_tracing() as g:
            with tracing() as local:
                with span("s"):
                    pass
            assert len(local.spans) == 1
            assert len(g.spans) == 0

    def test_two_threads_disjoint_well_nested_trees(self):
        """Two workers tracing into one shared sink must produce
        disjoint, well-nested span trees (the contextvar isolation
        contract)."""
        shared = Trace(name="shared")
        barrier = threading.Barrier(2)

        def worker(label):
            with tracing(trace=shared):
                with span(f"{label}:outer") as outer:
                    barrier.wait(timeout=5)
                    with span(f"{label}:inner"):
                        barrier.wait(timeout=5)
                return outer

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(shared.spans) == 4
        assert len({s.span_id for s in shared.spans}) == 4
        roots = shared.roots()
        assert sorted(s.name for s in roots) == ["t0:outer", "t1:outer"]
        for root in roots:
            label = root.name.split(":")[0]
            kids = shared.children(root)
            # each tree is confined to its own thread and label
            assert [k.name for k in kids] == [f"{label}:inner"]
            assert all(k.tid == root.tid for k in kids)
            assert all(root.start_s <= k.start_s
                       and k.end_s <= root.end_s for k in kids)

    def test_null_instrumentation_bypass(self):
        from repro.obs import trace as obs_trace
        with null_instrumentation():
            assert not obs_trace.tracing_active()
            with tracing() as tr:  # sink installs, but call sites bypass
                with obs_trace.span("x"):
                    pass
            assert len(tr.spans) == 0
        assert obs_trace.tracing_active() is False


# -- Chrome export ----------------------------------------------------------

class TestChromeExport:
    def _sample_trace(self):
        with tracing(name="sample", seed=0) as tr:
            with span("outer", cat="compile"):
                add_instant("tick")
                with span("inner", cat="exec"):
                    pass
            add_instant("orphan")
        return tr

    def test_export_validates(self):
        doc = chrome_trace(self._sample_trace())
        assert validate_chrome_trace(doc) == []
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "X" in phases and "i" in phases and "M" in phases

    def test_span_ids_and_parents_in_args(self):
        doc = chrome_trace(self._sample_trace())
        xs = {e["name"]: e for e in doc["traceEvents"]
              if e["ph"] == "X"}
        assert xs["inner"]["args"]["parent_id"] == \
            xs["outer"]["args"]["span_id"]

    def test_validator_catches_corruption(self):
        doc = chrome_trace(self._sample_trace())
        doc["traceEvents"][-1] = {"name": "bad", "ph": "Q"}
        assert validate_chrome_trace(doc)
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]

    def test_write_round_trips(self, tmp_path):
        path = write_chrome_trace(self._sample_trace(),
                                  tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_coverage_fraction(self):
        tr = Trace()
        import time
        t0 = time.perf_counter()
        with tracing(trace=tr):
            with span("root"):
                time.sleep(0.01)
        t1 = time.perf_counter()
        assert coverage_fraction(tr, (t0, t1)) > 0.5
        assert coverage_fraction(tr, (t0, t0)) == 0.0


# -- stage-boundary integration ---------------------------------------------

class TestPipelineIntegration:
    def test_workload_trace_covers_stages(self):
        with tracing(seed=0) as tr:
            import time
            t0 = time.perf_counter()
            run_workload("lstm", "tensorssa", seq_len=8,
                         cache=CompileCache())
            t1 = time.perf_counter()
        names = {s.name for s in tr.spans}
        for expected in ("harness:run_workload", "harness:compile",
                         "harness:execute", "pipeline:compile",
                         "frontend:script", "tensorssa:convert",
                         "pass_manager:run", "cache:lookup",
                         "cache:compile", "memplan:plan",
                         "kernel:fusion_group"):
            assert expected in names, f"missing span {expected}"
        assert any(s.name.startswith("pass:") for s in tr.spans)
        # kernel/alloc events bridge in as instants somewhere
        instants = [i for s in tr.spans for i in s.instants]
        assert any(i.name.startswith("kernel:") for i in instants)
        assert any(i.name.startswith("alloc:") for i in instants)
        assert coverage_fraction(tr, (t0, t1)) >= 0.95
        assert validate_chrome_trace(chrome_trace(tr)) == []

    def test_serve_timelines_under_global_tracing(self):
        with global_tracing() as tr:
            with Server(ServePolicy(workers=2, max_batch_size=4,
                                    batch_wait_s=0.001)) as srv:
                futs = [srv.submit("attention", pipeline="tensorssa",
                                   seq_len=8, seed=i) for i in range(4)]
                responses = [f.result(timeout=30) for f in futs]
        assert all(r.ok for r in responses)
        for r in responses:
            events = [e["event"] for e in r.timeline]
            assert events[0] == "enqueue"
            assert events[-1] == "finish"
            for needed in ("dequeue", "execute"):
                assert needed in events
            # marks are monotonically timestamped
            ts = [e["t_s"] for e in r.timeline]
            assert ts == sorted(ts)
        assert {"serve:batch", "serve:coalesce",
                "serve:execute"} <= {s.name for s in tr.spans}

    def test_serve_timeline_grammar_on_full_batch_flush(self):
        # no sleeps, no races: ``submit_many`` queues the N members
        # under one lock hold, so no worker sees the group before it is
        # full, and every member must have queued to get there
        n = 4
        with global_tracing():
            with Server(ServePolicy(workers=2, max_batch_size=n,
                                    batch_wait_s=60.0)) as srv:
                futs = srv.submit_many(
                    {"workload": "attention", "seq_len": 8, "seed": i}
                    for i in range(n))
                responses = [f.result(timeout=60) for f in futs]
        for r in responses:
            assert r.ok and r.batch_requests == n
            events = [e["event"] for e in r.timeline]
            assert events == ["enqueue", "dequeue", "coalesce", "execute",
                              "scatter", "finish"]
            assert r.timeline[1]["reason"] == "full"
            ts = [e["t_s"] for e in r.timeline]
            assert ts == sorted(ts)
        assert srv.stats.flushes_by_reason == {"full": 1}

    def test_serve_timeline_empty_without_sink(self):
        with Server(ServePolicy(workers=1)) as srv:
            resp = srv.submit("attention", seq_len=8).result(timeout=30)
        assert resp.ok
        assert resp.timeline == ()


# -- constant-fold fault swallowing -----------------------------------------

def _div_graph(numer, denom):
    g = Graph()
    c0 = g.constant(denom)
    c1 = g.constant(numer)
    g.block.append(c0)
    g.block.append(c1)
    div = g.create("prim::truediv", [c1.output(), c0.output()],
                   ["d"], [T.FloatType()])
    g.block.append(div)
    g.add_output(div.output())
    return g


class TestConstantFoldFaults:
    def test_injected_fault_is_not_swallowed(self):
        """Regression: the blanket ``except Exception: continue``
        masked injected infrastructure faults as "leave unfolded"."""
        plan = FaultPlan([FaultRule(site=SITE_PASS,
                                    match="constant_fold:")])
        g = _div_graph(4.0, 2.0)
        with fault_scope(plan):
            with pytest.raises(ReproError) as exc_info:
                constant_fold(g)
        assert getattr(exc_info.value, "injected", False)
        assert plan.num_fired == 1

    def test_expected_eval_failure_still_skips(self):
        g = _div_graph(1.0, 0)
        constant_fold(g)  # ZeroDivisionError: skip, don't raise
        assert g.nodes_of("prim::truediv")

    def test_clean_fold_still_works(self):
        g = _div_graph(4.0, 2.0)
        assert constant_fold(g)
        assert not g.nodes_of("prim::truediv")

"""Memory planner: liveness, pool, plan, and planned-execution equivalence."""

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend.interpreter import run_graph
from repro.frontend import script
from repro.memplan import (compute_liveness, format_plan, get_or_build_plan,
                           plan_graph)
from repro.models import registry as models
from repro.pipelines.registry import get_pipeline
from repro.runtime import profiler
from repro.runtime.storage import MemoryPool, _bucket

from conftest import assert_outputs_equal


# -- MemoryPool -------------------------------------------------------------

class TestMemoryPool:
    def test_bucket_is_pow2_min_256(self):
        assert _bucket(1) == 256
        assert _bucket(256) == 256
        assert _bucket(257) == 512
        assert _bucket(4096) == 4096
        assert _bucket(4097) == 8192

    def test_fresh_allocations_grow_arena(self):
        pool = MemoryPool()
        assert pool.allocate(1024) is False
        assert pool.allocate(2048) is False
        assert pool.peak_bytes == 3072
        assert pool.num_allocs == 2 and pool.num_reuses == 0

    def test_release_then_reuse(self):
        pool = MemoryPool()
        pool.allocate(1024)
        pool.release(1024)
        assert pool.allocate(1024) is True
        assert pool.peak_bytes == 1024
        assert pool.bytes_reused == 1024

    def test_best_fit_prefers_smallest_fitting_block(self):
        pool = MemoryPool()
        pool.allocate(8192)
        pool.allocate(2048)
        pool.release(8192)
        pool.release(2048)
        assert pool.allocate(2000) is True
        # the 2048 block served the request; 8192 must still be free
        assert pool.allocate(8192) is True
        assert pool.peak_bytes == 8192 + 2048

    def test_split_returns_remainder_to_free_list(self):
        pool = MemoryPool()
        pool.allocate(4096)
        pool.release(4096)
        assert pool.allocate(1024) is True
        # the 3072-byte remainder is reusable without arena growth
        assert pool.allocate(3072) is True
        assert pool.peak_bytes == 4096

    def test_search_span_bounds_fragmentation(self):
        pool = MemoryPool()
        pool.allocate(1 << 20)
        pool.release(1 << 20)
        # far smaller than the free block / 2**SPAN: allocate fresh
        assert pool.allocate(256) is False

    def test_storage_routes_through_active_pool(self):
        from repro.runtime.storage import pool_scope
        pool = MemoryPool()
        with pool_scope(pool):
            t = rt.zeros((16, 16))
        assert pool.arena_bytes >= t.nbytes

    def test_storage_outside_pool_records_plain_alloc(self):
        with profiler.profile() as prof:
            t = rt.zeros((8, 8))
        assert prof.bytes_allocated >= t.nbytes
        assert prof.bytes_reused == 0


# -- liveness ---------------------------------------------------------------

def _graph(fn):
    return script(fn).graph


class TestLiveness:
    def test_view_alias_merges_lifetime(self):
        def f(x):
            a = rt.add(x, 1.0)
            b = a.select(0, 0)
            return rt.mul(b, 2.0)

        live = compute_liveness(_graph(f))
        by_name = {c.origin.name: c for c in live.classes}
        cls = by_name["v.0"]
        assert [v.name for v in cls.values] == ["v.0", "v.1"]
        # the class dies at the view's last use (the mul), not at the
        # view's creation: the interval must span both
        assert cls.plannable
        assert cls.release_node is not None
        assert cls.release_node.op == "aten::mul"
        assert cls.release_before  # donation: mul reads it once

    def test_graph_inputs_and_outputs_stay_resident(self):
        def f(x):
            return rt.add(x, 1.0)

        live = compute_liveness(_graph(f))
        reasons = {c.origin.name: c.reason for c in live.classes
                   if not c.plannable}
        assert "graph input" in reasons["x.0"]
        assert "graph output" in reasons["v.0"]

    def test_value_used_inside_loop_lives_through_it(self):
        def f(x, n: int):
            a = rt.add(x, 1.0)
            h = x.clone()
            for i in range(n):
                h = rt.add(rt.tanh(h), a)
            return h

        graph = _graph(f)
        live = compute_liveness(graph)
        by_name = {c.origin.name: c for c in live.classes}
        cls = by_name["v.0"]  # `a`, captured by the loop body
        assert cls.plannable
        assert cls.release_node.op == "prim::Loop"
        # a loop body may re-read the capture every iteration, so the
        # release must come after the loop, never as a donation into it
        assert not cls.release_before

    def test_loop_back_edge_marks_rotating_slot(self):
        def f(x, n: int):
            h = x.clone()
            for i in range(n):
                h = rt.tanh(h)
            return h

        graph = _graph(f)
        live = compute_liveness(graph)
        assert list(live.rotating_slots.values()) == [[0]]
        # the body-produced generation escapes through the body return:
        # it is recycled by rotation, not by in-block release
        ret_cls = next(c for c in live.classes if c.origin.name == "v.1")
        assert not ret_cls.plannable

    def test_loop_passthrough_slot_does_not_rotate(self):
        def f(x, n: int):
            h = x.clone()
            acc = x.clone()
            for i in range(n):
                h = rt.tanh(h)
                acc = acc  # carried through unchanged
            return rt.add(h, acc)

        graph = _graph(f)
        live = compute_liveness(graph)
        loop = next(n for n in graph.walk() if n.op == "prim::Loop")
        body = loop.blocks[0]
        slots = live.rotating_slots[id(loop)]
        # only the tanh-producing slot may rotate; the passthrough slot
        # rebinds the same outer storage every iteration
        for k, ret in enumerate(body.returns[1:]):
            if ret.is_param:
                assert k not in slots
            elif ret.node is not None and ret.node.op == "aten::tanh":
                assert k in slots

    def test_donation_scheduled_before_last_user(self):
        def f(x):
            a = rt.add(x, 1.0)
            b = rt.mul(a, 2.0)
            return b

        graph = _graph(f)
        live = compute_liveness(graph)
        cls = next(c for c in live.classes if c.origin.name == "v.0")
        assert cls.plannable and cls.release_before
        assert id(cls.release_node) in live.release_before


# -- planner ----------------------------------------------------------------

class TestPlanner:
    def test_non_overlapping_classes_share_a_slot(self):
        def f(x):
            a = rt.add(x, 1.0)
            b = rt.mul(a, 2.0)   # a dies here
            c = rt.add(b, 3.0)   # b dies here
            return rt.mul(c, 4.0)

        plan = plan_graph(_graph(f))
        planned = [c for c in plan.liveness.classes if c.plannable]
        assert len(planned) == 3
        # chain of immediately-dying temporaries: fewer slots than classes
        assert len(plan.slots) < len(planned)
        assert plan.static_peak_slots <= 2

    def test_plan_cached_per_graph(self):
        def f(x):
            return rt.mul(rt.add(x, 1.0), 2.0)

        graph = _graph(f)
        assert get_or_build_plan(graph) is get_or_build_plan(graph)

    def test_format_plan_mentions_slots_and_peak(self):
        wl = models.get_workload("lstm")
        args = wl.make_inputs(2, 8, 0)
        compiled = get_pipeline("tensorssa").compile(wl.model_fn, args)
        text = format_plan(get_or_build_plan(compiled.graph))
        assert "slot table" in text
        assert "rotating loop slots" in text
        assert "reuse edges" in text

    def test_summary_counts(self):
        def f(x):
            return rt.mul(rt.add(x, 1.0), 2.0)

        summary = plan_graph(_graph(f)).summary()
        assert summary["mem_total_classes"] >= summary["mem_planned_classes"]
        assert summary["mem_planned_classes"] == 1


# -- planned execution ------------------------------------------------------

def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


class TestPlannedExecution:
    @pytest.mark.parametrize("name", models.workload_names())
    def test_planned_matches_unplanned_bit_exact(self, name):
        """Property: planning changes accounting, never values."""
        wl = models.get_workload(name)
        args = wl.make_inputs(2, 8, 0)
        planned = get_pipeline("tensorssa").compile(wl.model_fn, args)
        unplanned = get_pipeline("tensorssa_noplan").compile(
            wl.model_fn, args)
        expected = _as_tuple(unplanned(*args))
        got = _as_tuple(planned(*args))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            ga = g.numpy() if isinstance(g, rt.Tensor) else np.asarray(g)
            ea = e.numpy() if isinstance(e, rt.Tensor) else np.asarray(e)
            assert np.array_equal(ga, ea), f"{name}: outputs diverge"

    @pytest.mark.parametrize("name", ["lstm", "nasrnn", "attention"])
    def test_peak_reduction_at_least_30_percent(self, name):
        wl = models.get_workload(name)
        b, s = (4, 64) if name == "attention" else (4, 16)
        args = wl.make_inputs(b, s, 0)
        planned = get_pipeline("tensorssa").compile(wl.model_fn, args)
        unplanned = get_pipeline("tensorssa_noplan").compile(
            wl.model_fn, args)
        with profiler.profile() as base:
            unplanned(*args)
        with profiler.profile() as opt:
            planned(*args)
        assert opt.peak_bytes <= 0.7 * base.peak_bytes, \
            f"{name}: {opt.peak_bytes} vs {base.peak_bytes}"
        assert opt.bytes_reused > 0

    def test_planned_run_is_repeatable(self):
        """Env eviction must not leak state between runs of one plan."""
        wl = models.get_workload("lstm")
        args = wl.make_inputs(2, 8, 0)
        compiled = get_pipeline("tensorssa").compile(wl.model_fn, args)
        first = _as_tuple(compiled(*args))
        second = _as_tuple(compiled(*args))
        assert_outputs_equal(second, first)

    def test_zero_trip_loop_passthrough_survives_release(self):
        def f(x, n: int):
            h = x.clone()
            for i in range(n):
                h = rt.tanh(h)
            return rt.add(h, 1.0)

        graph = _graph(f)
        plan = get_or_build_plan(graph)
        x = rt.ones((4, 4))
        # n=0: the loop output IS the carried-in clone; the release of
        # the clone's class after the loop must not break the output
        outs = run_graph(graph, (x, 0), plan=plan)
        np.testing.assert_allclose(outs[0].numpy(), 2.0 * np.ones((4, 4)))
        outs2 = run_graph(graph, (x, 3), plan=plan)
        expected = np.tanh(np.tanh(np.tanh(np.ones((4, 4))))) + 1.0
        np.testing.assert_allclose(outs2[0].numpy(), expected, rtol=1e-6)

    def test_rotation_reclaims_loop_generations(self):
        def f(x, n: int):
            h = x.clone()
            for i in range(n):
                h = rt.tanh(h)
            return rt.add(h, 1.0)

        graph = _graph(f)
        plan = get_or_build_plan(graph)
        x = rt.ones((64, 64))
        with profiler.profile() as prof:
            run_graph(graph, (x, 10), plan=plan)
        # 10 generations, but rotation keeps only ~2 resident: the peak
        # must stay far below the 10x an unplanned run materializes
        with profiler.profile() as base:
            run_graph(graph, (x, 10))
        assert prof.peak_bytes < 0.5 * base.peak_bytes

    def test_peak_surfaces_in_run_result(self):
        from repro.eval.cache import process_cache
        from repro.eval.harness import run_workload
        process_cache.clear()
        try:
            res = run_workload("lstm", "tensorssa", seq_len=8)
            assert res.peak_bytes > 0
            assert res.bytes_reused > 0
            noplan = run_workload("lstm", "tensorssa_noplan", seq_len=8)
            assert noplan.peak_bytes > res.peak_bytes
            assert noplan.bytes_reused == 0
        finally:
            process_cache.clear()

"""Memory planner: liveness, pool, plan, and planned-execution equivalence."""

import re

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend.interpreter import run_graph
from repro.eval.harness import clone_args
from repro.frontend import script
from repro.ir import parse_graph
from repro.ir.graph import runs_as_kernel
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


# -- kernel bodies: no class, no release -----------------------------------

#: the workloads ``compile_grad`` accepts
_BACKWARDS = ("attention", "lstm", "nasrnn")


def _kernel_body_values(graph):
    """Names of the values defined inside nodes that run as one kernel
    (their bodies' params and nested outputs)."""
    names = set()
    for node in graph.walk():
        if not runs_as_kernel(node):
            continue
        for inner in node.walk():
            names.update(p.name for b in inner.blocks for p in b.params)
            if inner is not node:
                names.update(o.name for o in inner.outputs)
    return names


@pytest.mark.parametrize("name, grad", [
    *((n, False) for n in models.workload_names()),
    *((n, True) for n in _BACKWARDS)])
def test_kernel_body_values_are_never_planned(name, grad):
    """A value that lives only inside a kernel never reaches the
    interpreter: it is in no lifetime class, and the lowered program
    neither frees nor deletes it."""
    wl = models.get_workload(name)
    args = wl.make_inputs(2, 8, 0)
    pipe = get_pipeline("tensorssa")
    compiled = (pipe.compile_grad if grad else pipe.compile)(
        wl.model_fn, args)
    compiled(*clone_args(args))  # lowers the program
    plan = compiled.graph._memplan
    inside = _kernel_body_values(compiled.graph)
    assert inside
    assert [v.name for cls in plan.liveness.classes for v in cls.values
            if v.name in inside] == []
    local = {"v_" + re.sub(r"\W", "_", n) for n in inside}
    released = {word for line in plan.program.__source__.splitlines()
                if "_free(" in line or line.lstrip().startswith("del ")
                for word in re.findall(r"\w+", line)}
    assert sorted(released & local) == []


# -- donation: a kernel writes the dying buffer it is handed ---------------

#: a loop whose body kernel stores row ``i`` into its carried param
_CARRIED = """graph g(%x : Tensor, %s : Tensor, %n : Int):
  %one = prim::Constant[value=1.0]()
  %t = prim::Constant[value=True]()
  %a = aten::add(%x, %one)
  %y = prim::Loop(%n, %t, INIT)
    block0(%i : Int, %p : Tensor):
      %r = prim::FusionGroup(%p, %s, %i)
        block0(%q : Tensor, %src : Tensor, %j : Int):
          %c0 = prim::Constant[value=0]()
          %w = immut::select_assign(%q, %src, %c0, %j)
          -> (%w)
      -> (%t, %r)
  return (%y)"""

#: the same store, by one group at the top level, into BASE
_GROUP = """graph g(%x : Tensor, %s : Tensor, %n : Int):
  %one = prim::Constant[value=1.0]()
  %t = prim::Constant[value=True]()
  %c = prim::Constant[value=0]()
  %a = aten::add(%x, %one)
  %v = aten::select(%a, %c, %c)
  %y = prim::Loop(%n, %t, %x)
    block0(%i : Int, %p : Tensor):
      %m = aten::tanh(%p)
      -> (%t, %m)
  %r = prim::FusionGroup(BASE, %s, %c)
    block0(%q : Tensor, %src : Tensor, %j : Int):
      %c0 = prim::Constant[value=0]()
      %w = immut::select_assign(%q, %src, %c0, %j)
      -> (%w)
  %after = aten::mul(READ, %one)
  return (%r, %after)"""


def _donation_case(text):
    """Parse and plan ``text``; returns (graph, plan, its one group)."""
    graph = parse_graph(text)
    plan = get_or_build_plan(graph)
    group, = graph.nodes_of("prim::FusionGroup")
    return graph, plan, group


def _runs_like_the_interpreter(graph, plan, x, s, reference):
    """Planned runs, twice and at 0 and 6 trips, match the unplanned
    walk of ``reference`` — the same program, never planned, so its
    kernels copy every input they write — bit for bit, and leave every
    graph input as it was."""
    before = [x.numpy(), s.numpy()]
    for trips in (6, 0):
        want = run_graph(reference, [x.clone(), s.clone(), trips])
        assert rt.bit_exact(run_graph(graph, [x, s, trips], plan=plan), want)
        assert rt.bit_exact(run_graph(graph, [x, s, trips], plan=plan), want)
    for tensor, kept in zip((x, s), before):
        assert tensor.version == 0 and rt.bit_exact(tensor, kept)


class TestDonation:
    X = staticmethod(lambda: rt.rand((6, 3, 4), seed=2))
    S = staticmethod(lambda: rt.rand((3, 4), seed=3))

    @pytest.mark.parametrize("name", models.workload_names())
    def test_two_calls_bit_exact_and_inputs_untouched(self, name):
        wl = models.get_workload(name)
        args = wl.make_inputs(2, 8, 0)
        inputs = [a for a in args if isinstance(a, rt.Tensor)]
        before = [a.numpy() for a in inputs]
        expected = rt.as_tuple(get_pipeline("eager").compile(
            wl.model_fn, args)(*[a.clone() if isinstance(a, rt.Tensor)
                                 else a for a in args]))
        compiled = get_pipeline("tensorssa").compile(wl.model_fn, args)
        first = rt.as_tuple(compiled(*args))
        first_copy = [o.clone() if isinstance(o, rt.Tensor) else o
                      for o in first]
        second = rt.as_tuple(compiled(*args))
        assert rt.bit_exact(first_copy, expected)
        assert rt.bit_exact(second, expected)
        for tensor, kept in zip(inputs, before):
            assert tensor.version == 0 and rt.bit_exact(tensor, kept)
        # every buffer a kernel stores into is donated: no copy remains
        for node in compiled.graph.walk():
            kernel = node.attrs.get("kernel")
            if kernel is not None:
                assert kernel.__copies__ == ()

    @pytest.mark.parametrize("name, donated, outs", [
        # lstm: the gates' pre-activation sum and the cell state die in
        # the step that updates them, and are written by out= members
        pytest.param("lstm", (0, 3, 4),
                     (("aten::add", 0), ("aten::mul", 3)), id="lstm"),
        pytest.param("nasrnn", (3,), (), id="nasrnn")])
    def test_rnn_output_buffer_threads_through_the_loop(self, name, donated,
                                                         outs):
        wl = models.get_workload(name)
        args = wl.make_inputs(2, 8, 0)
        compiled = get_pipeline("tensorssa").compile(wl.model_fn, args)
        compiled(*args)
        loop, = compiled.graph.nodes_of("prim::Loop")
        group, = [n for n in loop.blocks[0].nodes
                  if n.op == "prim::FusionGroup"]
        kernel = group.attrs["kernel"]
        assert compiled.graph._memplan.liveness.donated[id(group)] == donated
        assert kernel.__donated__ == donated and kernel.__outs__ == outs
        # the carried [T, B, H] output, written in place every step
        (i,) = set(donated) - {arg for _, arg in outs}
        assert group.input(i).param_block is loop.blocks[0]
        assert "aten::clone" not in kernel.__source__

    def test_fresh_carried_init_is_donated(self):
        text = _CARRIED.replace("INIT", "%a")
        graph, plan, group = _donation_case(text)
        assert plan.liveness.donated[id(group)] == (0,)
        assert id(group) not in plan.liveness.kept
        _runs_like_the_interpreter(graph, plan, self.X(), self.S(),
                                   parse_graph(text))
        assert group.attrs["kernel"].__donated__ == (0,)
        assert group.attrs["kernel"].__copies__ == ()

    def test_carried_init_that_is_a_graph_input_keeps_the_copy(self):
        text = _CARRIED.replace("INIT", "%x")
        graph, plan, group = _donation_case(text)
        assert id(group) not in plan.liveness.donated
        assert plan.liveness.kept[id(group)] == {
            0: "caller's buffer: %x is a graph input"}
        _runs_like_the_interpreter(graph, plan, self.X(), self.S(),
                                   parse_graph(text))
        assert group.attrs["kernel"].__copies__ == (0,)

    def test_carried_init_that_is_a_captured_constant_keeps_the_copy(self):
        weights = self.X()
        pristine = weights.numpy()

        def build():
            graph = parse_graph(_CARRIED.replace("INIT", "%a"))
            const = graph.constant(weights, "k")
            graph.block.insert(0, const)
            loop, = graph.nodes_of("prim::Loop")
            loop.set_input(2, const.output())
            return graph

        graph = build()
        plan = get_or_build_plan(graph)
        group, = graph.nodes_of("prim::FusionGroup")
        assert plan.liveness.kept[id(group)][0].startswith(
            "caller's buffer: %k")
        # a second call would read the constant the first one wrote
        _runs_like_the_interpreter(graph, plan, self.X(), self.S(), build())
        assert rt.bit_exact(weights, pristine)

    def test_view_read_after_the_launch_keeps_the_copy(self):
        text = _GROUP.replace("BASE", "%a").replace("READ", "%v")
        graph, plan, group = _donation_case(text)
        assert plan.liveness.kept[id(group)] == {
            0: "live alias: %a is read after the launch"}
        _runs_like_the_interpreter(graph, plan, self.X(), self.S(),
                                   parse_graph(text))
        # without the late reader the same group takes the buffer
        graph, plan, group = _donation_case(
            _GROUP.replace("BASE", "%a").replace("READ", "%s"))
        assert plan.liveness.donated[id(group)] == (0,)

    def test_zero_trip_interpreted_loop_keeps_the_copy(self):
        text = _GROUP.replace("BASE", "%y").replace("READ", "%s")
        graph, plan, group = _donation_case(text)
        assert plan.liveness.kept[id(group)] == {
            0: "interpreted zero-trip pass-through: caller's buffer: "
               "%x is a graph input"}
        # 0 trips: the loop output is %x itself, which the group copies
        _runs_like_the_interpreter(graph, plan, self.X(), self.S(),
                                   parse_graph(text))

    def test_donated_output_is_the_input_tensor(self):
        from repro.backend.fusion_runtime import execute_group
        graph, plan, group = _donation_case(_CARRIED.replace("INIT", "%a"))
        buffer = self.X()
        out, = execute_group(group, [buffer, self.S(), 2])
        assert out is buffer  # same Storage: no new pool charge
        assert rt.bit_exact(out.select(0, 2), self.S())


#: a group whose add may run into BASE's buffer
_OUT = """graph g(%x : Tensor, %s : Tensor, %n : Int):
  %one = prim::Constant[value=1.0]()
  %a = aten::mul(%x, %one)
  %b = aten::select(%s, %n, %n)
  %r = prim::FusionGroup(BASE, %b)
    block0(%q : Tensor, %src : Tensor):
      %w = aten::add(%q, %src)
      %m = aten::tanh(%w)
      -> (%m)
  return (%r)"""

#: the same group in an interpreted loop, its carried slot the target
_OUT_LOOP = """graph g(%x : Tensor, %s : Tensor, %n : Int):
  %one = prim::Constant[value=1.0]()
  %t = prim::Constant[value=True]()
  %a = aten::mul(%x, %one)
  %y = prim::Loop(%n, %t, %a)
    block0(%i : Int, %p : Tensor):
      %r = prim::FusionGroup(%p, %s)
        block0(%q : Tensor, %src : Tensor):
          %w = aten::add(%q, %src)
          -> (%w)
      -> (%t, %r)
  return (%y, READ)"""


class TestOutDonation:
    """``out=``: the planner donates a group input an out= member may
    overwrite only when the stored-into inputs' refusal test passes — the
    buffer dies at the launch and no other name reaches it."""

    X = staticmethod(lambda: rt.rand((3, 4), seed=2))
    S = staticmethod(lambda: rt.rand((3, 4), seed=3))

    def _runs(self, text, n, donated):
        graph, plan, group = _donation_case(text)
        assert plan.liveness.donated.get(id(group), ()) == donated
        x, s = self.X(), self.S()
        kept = [x.numpy(), s.numpy()]
        want = run_graph(parse_graph(text), [x.clone(), s.clone(), n])
        for _ in range(2):
            assert rt.bit_exact(run_graph(graph, [x, s, n], plan=plan), want)
        for tensor, before in zip((x, s), kept):
            assert tensor.version == 0 and rt.bit_exact(tensor, before)
        kernel = group.attrs["kernel"]
        assert kernel.__donated__ == donated and kernel.__copies__ == ()
        assert kernel.__outs__ == ((("aten::add", 0),) if donated else ())
        return plan, group

    def test_fresh_dying_input_is_the_result_buffer(self):
        self._runs(_OUT.replace("BASE", "%a"), 0, (0,))

    def test_graph_input_keeps_allocating(self):
        plan, group = self._runs(_OUT.replace("BASE", "%x"), 0, ())
        # an out= refusal is no copy: nothing is listed as kept
        assert id(group) not in plan.liveness.kept

    def test_captured_constant_keeps_allocating(self):
        weights = self.X()
        pristine = weights.numpy()
        graph = parse_graph(_OUT.replace("BASE", "%a"))
        const = graph.constant(weights, "k")
        graph.block.insert(0, const)
        group, = graph.nodes_of("prim::FusionGroup")
        group.set_input(0, const.output())
        plan = get_or_build_plan(graph)
        assert id(group) not in plan.liveness.donated
        for _ in range(2):
            run_graph(graph, [self.X(), self.S(), 0], plan=plan)
        assert rt.bit_exact(weights, pristine)

    def test_loop_carried_slot_is_the_result_buffer(self):
        self._runs(_OUT_LOOP.replace("READ", "%x"), 3, (0,))

    def test_shared_loop_init_keeps_allocating(self):
        # the init is read again after the loop: a zero-trip run hands
        # it through, so the slot's buffer is not the group's to write
        self._runs(_OUT_LOOP.replace("READ", "%a"), 3, ())

    def test_horizontal_loop_body_keeps_allocating(self):
        graph = parse_graph(_OUT_LOOP.replace("READ", "%x"))
        loop, = graph.nodes_of("prim::Loop")
        body = loop.blocks[0]
        group, = [n for n in body.nodes if n.op == "prim::FusionGroup"]
        # the loop body as raw ops, run as one horizontal launch
        add, = group.blocks[0].nodes
        w = body.insert_before(group, graph.create(
            "aten::add", [body.params[1], graph.inputs[1]], ["w"],
            [add.output().type]))
        group.output().replace_all_uses_with(w.output())
        group.destroy()
        loop.attrs["horizontal"] = True
        plan = get_or_build_plan(graph)
        assert id(loop) not in plan.liveness.donated
        want = run_graph(parse_graph(_OUT_LOOP.replace("READ", "%x")),
                         [self.X(), self.S(), 3])
        assert rt.bit_exact(run_graph(graph, [self.X(), self.S(), 3],
                                      plan=plan), want)
        assert loop.attrs["kernel"].__outs__ == ()

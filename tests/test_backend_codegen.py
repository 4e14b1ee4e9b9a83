"""Kernel codegen and the fusion runtime."""

import threading
import time

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend import CodegenError, compile_block, run_graph
from repro.backend.codegen import _const_literal, member_ops
from repro.backend.fusion_runtime import build_kernel, execute_group
from repro.backend.kernels import OP_IMPLS
from repro.frontend import script
from repro.ir import Graph, clone_graph, parse_graph
from repro.ir import types as T
from repro.models import get_workload
from repro.passes import FuserConfig, dce, fuse, parallelize_loops
from repro.pipelines import get_pipeline
from repro.tensorssa import convert_to_tensorssa


def _make_group(fn, config=None):
    g = clone_graph(script(fn).graph)
    fuse(g, config or FuserConfig(name="t", fuse_views=True))
    groups = g.nodes_of("prim::FusionGroup")
    assert groups, "no fusion group formed"
    return g, groups[0]


class TestCompileBlock:
    def test_elementwise_kernel(self):
        def f(x, y):
            return (x + y) * 2.0
        _, group = _make_group(f)
        kernel = compile_block(group.blocks[0])
        out, = kernel([np.ones(3, np.float32), np.ones(3, np.float32)])
        assert out.tolist() == [4.0, 4.0, 4.0]

    def test_generated_source_is_attached(self):
        def f(x):
            return x.sigmoid() + 1.0
        _, group = _make_group(f)
        kernel = compile_block(group.blocks[0])
        assert "def _kernel" in kernel.__source__
        assert "aten::sigmoid" in kernel.__source__

    def test_scalar_and_constant_inlining(self):
        def f(x, k: int):
            return x * float(k) + 0.5
        _, group = _make_group(f)
        kernel = compile_block(group.blocks[0])
        args = [3] if len(group.blocks[0].params) == 1 else None
        # params order mirrors group inputs; execute via the runtime
        # path to avoid caring about arity here
        assert kernel is not None

    def test_immut_assign_kernel(self):
        def f(x):
            y = x.clone()
            y[0] = y[1] * 3.0
            return y
        g = clone_graph(script(f).graph)
        convert_to_tensorssa(g)
        dce(g)
        fuse(g, FuserConfig(name="t", fuse_views=True))
        x = rt.tensor([1.0, 2.0])
        got = run_graph(g, [x.clone()])[0]
        expected = f(x.clone())
        np.testing.assert_allclose(got.numpy(), expected.numpy())

    def test_uncompilable_op_raises(self):
        g = Graph()
        node = g.create("aten::topk", [], [], [])
        block = node.add_block()
        inner = g.create("aten::matmul", [
            block.add_param("a", T.TensorType()),
            block.add_param("b", T.TensorType())], ["o"], [T.TensorType()])
        block.append(inner)
        block.add_return(inner.output())
        with pytest.raises(CodegenError):
            compile_block(block)

    def test_float32_preserved_in_kernels(self):
        def f(x):
            return x * 2.5 + 0.25
        g, group = _make_group(f)
        out = run_graph(g, [rt.rand((4,), seed=1)])[0]
        assert out.dtype is rt.float32


# -- codegen: recursive constant validation (the _const_literal fix) ----


class TestConstLiteral:
    @pytest.mark.parametrize("value", [
        3, 2.5, True, None, "s", (1, 2), (1,), [1, (2.0, None)], [],
    ])
    def test_literals_eval_back_equal(self, value):
        assert eval(_const_literal(value)) == value

    def test_singleton_tuple_stays_a_tuple(self):
        assert eval(_const_literal((7,))) == (7,)

    @pytest.mark.parametrize("value", [
        object(), np.float32, [object()], (1, object()),
        [1, [2, np.dtype("f4")]],
    ])
    def test_non_literals_rejected_recursively(self, value):
        # before the fix, containers were repr'd blind: [<object ...>]
        # compiled to a SyntaxError (or rebuilt the wrong object)
        with pytest.raises(CodegenError):
            _const_literal(value)

    def test_unliteralizable_const_captured_by_reference(self):
        # a fusion-group kernel whose constant cannot be inlined must
        # still compile (capture-by-reference) and compute correctly
        def f(x):
            return (x + 1.0) * 2.0
        g = clone_graph(script(f).graph)
        fuse(g, FuserConfig(name="t", fuse_views=True))
        group = g.nodes_of("prim::FusionGroup")[0]
        marker = object()
        for node in group.blocks[0].nodes:
            if node.op == "prim::Constant":
                node.attrs["value"] = marker
                node.output().type = None
                break
        else:
            pytest.skip("no constant in the fused body")
        kernel = compile_block(group.blocks[0], name="_k")
        assert "_c0" in kernel.__source__
        # the captured object is threaded through untouched: the add
        # receives it, so numpy raises a *type* error, not a NameError
        # from broken generated source
        with pytest.raises(TypeError):
            kernel([np.ones(2, np.float32)])


class TestExecuteGroup:
    def test_single_launch_and_fused_ops(self):
        def f(x):
            return (x + 1.0) * (x - 1.0)
        g, group = _make_group(f)
        x = rt.rand((8,), seed=2)
        with rt.profile() as prof:
            outs = execute_group(group, [x])
        assert prof.num_launches == 1
        # add, sub, mul: the constants are not billed
        assert prof.events[0].fused_ops == \
            group.attrs["kernel"].__member_ops__ == 3
        assert isinstance(outs[0], rt.Tensor)

    def test_kernel_cached_on_node(self):
        def f(x):
            return x + x
        def g2(x):
            return x + x + x
        g, group = _make_group(g2)
        execute_group(group, [rt.rand((4,), seed=3)])
        first = group.attrs["kernel"]
        execute_group(group, [rt.rand((4,), seed=4)])
        assert group.attrs["kernel"] is first

    def test_outputs_own_storage(self):
        def f(x):
            return x.select(0, 0) + 0.0
        g, group = _make_group(f)
        x = rt.ones((2, 3))
        outs = execute_group(group, [x])
        x.fill_(5.0)
        assert outs[0].numpy().tolist() == [1.0, 1.0, 1.0]


class TestHorizontalRuntime:
    def _prep(self, fn):
        g = clone_graph(script(fn).graph)
        convert_to_tensorssa(g)
        dce(g)
        n = parallelize_loops(g)
        return g, n

    def test_masking_loop_single_launch(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0
            return y
        g, n = self._prep(f)
        assert n == 1
        x = rt.rand((4, 2), seed=5)
        with rt.profile() as prof:
            got = run_graph(g, [x.clone(), 4])[0]
        expected = f(x.clone(), 4)
        np.testing.assert_allclose(got.numpy(), expected.numpy())
        loop_events = [e for e in prof.events if e.op == "parallel_loop"]
        assert len(loop_events) == 1

    def test_loop_bit_exact_at_every_trip_count(self):
        """Full, single and zero trips: one launch each, bit-exact
        against the reference interpreter and eager, and the body
        stores into the carried slot the runtime copied once."""
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0 + 1.0
            return y
        g, n = self._prep(f)
        assert n == 1
        x = rt.rand((5, 2), seed=9)
        for trips in (5, 1, 0):
            with rt.profile() as prof:
                got = run_graph(g, [x.clone(), trips])[0]
            reference = run_graph(clone_graph(g), [x.clone(), trips])[0]
            assert rt.bit_exact(got, reference)
            assert rt.bit_exact(got, f(x.clone(), trips))
            loop_events = [e for e in prof.events
                           if e.op == "parallel_loop"]
            assert len(loop_events) == 1
        loop, = g.nodes_of("prim::Loop")
        assert loop.attrs["kernel"].__stores_into__ == (0,)
        assert loop.attrs["kernel"].__assigns__["clones"] == []

    def test_sequential_dependency_still_correct(self):
        # carried-state loops execute sequentially inside one launch —
        # horizontal marking never changes values
        def f(x, n: int):
            acc = rt.zeros((3,))
            for i in range(n):
                acc = (acc + x) * 0.9
            return acc
        g, n = self._prep(f)
        x = rt.rand((3,), seed=6)
        got = run_graph(g, [x.clone(), 5])[0]
        expected = f(x.clone(), 5)
        np.testing.assert_allclose(got.numpy(), expected.numpy(),
                                   rtol=1e-5)

    def test_loop_with_matmul_not_horizontal(self):
        def f(x, w, n: int):
            y = x.clone()
            for i in range(n):
                y = y @ w
            return y
        g, n = self._prep(f)
        assert n == 0

    def test_carried_slot_fed_by_a_graph_input_is_copied_once(self):
        """The body stores into its carried slot; when that slot's
        initial value is the caller's tensor itself, the runtime's one
        copy before the first trip is all that protects it."""
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0
            return y
        g, n = self._prep(f)
        assert n == 1
        clone, = g.nodes_of("aten::clone")
        clone.output().replace_all_uses_with(g.inputs[0])
        clone.destroy()
        loop, = g.nodes_of("prim::Loop")
        x = rt.rand((4, 2), seed=7)
        kept = x.clone()
        for trips in (4, 0):
            got = run_graph(g, [x, trips])[0]
            assert rt.bit_exact(got, f(kept.clone(), trips))
            assert rt.bit_exact(x, kept)
        assert loop.attrs["kernel"].__stores_into__ == (0,)
        assert "immut::" not in loop.attrs["kernel"].__source__

    def test_donated_carried_init_threads_through_without_a_copy(self):
        from repro.backend.fusion_runtime import run_horizontal_loop
        from repro.memplan import get_or_build_plan

        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0
            return y
        g, n = self._prep(f)
        assert n == 1
        plan = get_or_build_plan(g)
        loop, = g.nodes_of("prim::Loop")
        assert plan.liveness.donated[id(loop)] == (1,)
        x = rt.rand((4, 2), seed=7)
        kept = x.clone()
        got = run_graph(g, [x, 4], plan=plan)[0]
        assert rt.bit_exact(got, f(kept.clone(), 4))
        assert rt.bit_exact(x, kept)
        assert loop.attrs["kernel"].__donated__ == (1,)
        buffer = x.clone()
        out, = run_horizontal_loop(loop, 4, True, [buffer], [True])
        assert out is buffer  # the init's own Tensor, written in place
        assert rt.bit_exact(out, f(kept.clone(), 4))

    def test_zero_trip_output_owns_fresh_storage(self):
        from repro.backend.fusion_runtime import run_horizontal_loop

        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0
            return y
        g, _ = self._prep(f)
        loop, = g.nodes_of("prim::Loop")
        x = rt.rand((4, 2), seed=8)
        # undonated: the output may be donated downstream, so it must
        # never be the caller's buffer under a second Storage
        out, = run_horizontal_loop(loop, 0, True, [x], [True])
        assert rt.bit_exact(out, x)
        assert not np.shares_memory(out._array, x._array)

    def _accumulating_loop(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y = y + 100.0
            return y
        g, n = self._prep(f)
        assert n == 1
        return g

    def test_zero_trip_horizontal(self):
        g = self._accumulating_loop()
        got = run_graph(g, [rt.ones((2,)), 0])[0]
        assert got.numpy().tolist() == [1.0, 1.0]

    def test_zero_trip_records_zero_fused_work(self):
        g = self._accumulating_loop()
        with rt.profile() as prof:
            out = run_graph(g, [rt.ones((2,)), 0])[0]
        assert out.numpy().tolist() == [1.0, 1.0]
        ev = [e for e in prof.events if e.op == "parallel_loop"]
        assert len(ev) == 1  # the launch itself still happened
        # a zero-trip loop is billed no fused ops and no flops
        assert ev[0].fused_ops == 0
        assert ev[0].flops == 0

    def test_trips_scale_fused_ops(self):
        g = self._accumulating_loop()
        with rt.profile() as prof:
            run_graph(g, [rt.ones((2,)), 4])
        ev = [e for e in prof.events if e.op == "parallel_loop"]
        assert len(ev) == 1
        assert ev[0].fused_ops > 0
        assert ev[0].fused_ops % 4 == 0  # n_ops * trips
        assert ev[0].flops > 0

    def test_data_dependent_condition_exits_early(self):
        """A loop whose body computes its own continue flag stops at the
        first trip that clears it, short of ``max_trip``; the cap still
        bounds a condition that never clears."""
        g = parse_graph("""
graph g(%x.0 : Tensor, %limit.0 : Float):
  %trip.0 = prim::Constant[value=10]()
  %go.0 = prim::Constant[value=True]()
  %y.0 = prim::Loop(%trip.0, %go.0, %x.0)
    block0(%i.0 : Int, %y.1 : Tensor):
      %two.0 = prim::Constant[value=2.0]()
      %v.0 = aten::mul(%y.1, %two.0)
      %zero.0 = prim::Constant[value=0]()
      %s.0 = aten::select(%v.0, %zero.0, %zero.0)
      %more.0 = aten::lt(%s.0, %limit.0)
      -> (%more.0, %v.0)
  return (%y.0)
""")
        assert parallelize_loops(g) == 1
        loop, = g.nodes_of("prim::Loop")
        n_ops = member_ops(loop.blocks[0].nodes)
        # y[0] is 2, 4, 8, 16, 32: the fifth trip clears ``< 20``
        for limit, trips in ((20.0, 5), (1.0, 1), (1e9, 10)):
            x = rt.ones((3,))
            with rt.profile() as prof:
                got, = run_graph(g, [x, limit])
            assert got.numpy().tolist() == [2.0 ** trips] * 3
            assert x.numpy().tolist() == [1.0] * 3
            ev, = [e for e in prof.events if e.op == "parallel_loop"]
            assert ev.fused_ops == n_ops * trips

    def test_body_kernel_compiles_once_under_concurrent_callers(
            self, monkeypatch):
        """Callers racing on an uncompiled loop build its kernel once,
        under ``_kernel_lock``, and all run that one kernel."""
        from repro.backend import fusion_runtime

        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0
            return y
        g, n = self._prep(f)
        assert n == 1
        loop, = g.nodes_of("prim::Loop")
        built = []
        real_build = fusion_runtime.build_kernel

        def slow_build(node):
            built.append(node)
            time.sleep(0.05)  # widen the race window
            return real_build(node)

        monkeypatch.setattr(fusion_runtime, "build_kernel", slow_build)
        x = rt.rand((4, 2), seed=9)
        callers = 4
        barrier = threading.Barrier(callers)
        outs = [None] * callers

        def call(k):
            barrier.wait()
            outs[k], = fusion_runtime.run_horizontal_loop(
                loop, 4, True, [x.clone()], [True])

        threads = [threading.Thread(target=call, args=(k,))
                   for k in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert built == [loop]
        expected = f(x.clone(), 4)
        assert all(rt.bit_exact(out, expected) for out in outs)


def _reference(block, args):
    """The block run node by node on each row's own kernel — every
    Assign a clone: the definition the generated source must match."""
    env = {id(p): a for p, a in zip(block.params, args)}
    for node in block.nodes:
        env[id(node.output())] = node.attrs["value"] \
            if node.op == "prim::Constant" \
            else OP_IMPLS[node.op](*(env[id(v)] for v in node.inputs))
    return [env[id(r)] for r in block.returns]


def _compile_ir(text):
    block = parse_graph(text).block
    return block, compile_block(block)


def _agrees(block, kernel, *args):
    """Same values as the reference, and no argument written."""
    kept = [np.array(a, copy=True) for a in args]
    got = kernel([np.array(a, copy=True) for a in kept])
    assert rt.bit_exact(list(got), _reference(block, kept))
    again = [np.array(a, copy=True) for a in kept]
    kernel(again)
    assert rt.bit_exact(again, kept)


_X = np.arange(24, dtype=np.float32).reshape(4, 6)
_S = np.full((2, 6), -1.0, np.float32)
_CONSTS = """
  %c0 = prim::Constant[value=0]()
  %c1 = prim::Constant[value=1]()
  %c2 = prim::Constant[value=2]()
  %c3 = prim::Constant[value=3]()
  %c4 = prim::Constant[value=4]()
  %one = prim::Constant[value=1.0]()"""


class TestAssignStores:
    """Functional in the IR, destructive in the kernel — and the clone
    wherever the proof fails, asserted on the generated source."""

    def test_owned_chain_is_one_window_store(self):
        block, kernel = _compile_ir(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %y = aten::zeros_like(%x)
  %w = aten::slice(%y, %c0, %c1, %c3, %c1)
  %u = aten::slice(%w, %c1, %c0, %c2, %c1)
  %a = immut::assign(%u, %one)
  %b = immut::slice_assign(%w, %a, %c1, %c0, %c2, %c1)
  %c = immut::slice_assign(%y, %b, %c0, %c1, %c3, %c1)
  %d = immut::slice_assign(%c, %s, %c0, %c0, %c2, %c1)
  return (%d)""")
        assert kernel.__assigns__ == {"stores": 2, "identities": 2,
                                      "clones": []}
        assert "immut::" not in kernel.__source__
        assert "t3 = _OPS['aten::slice'](t0, 0, 0, 2, 1)\n" \
               "    if getattr(v1, 'ndim', 0) > t3.ndim: _store(t3, v1)\n" \
               "    t3[...] = v1" in kernel.__source__
        _agrees(block, kernel, _X, _S)

    def test_kernel_input_root_is_copied_once(self):
        block, kernel = _compile_ir(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %a = immut::slice_assign(%x, %s, %c0, %c0, %c2, %c1)
  %b = immut::slice_assign(%a, %s, %c0, %c2, %c4, %c1)
  return (%b)""")
        assert kernel.__source__.count("aten::clone") == 1
        assert kernel.__assigns__["stores"] == 2
        _agrees(block, kernel, _X, _S)

    def test_donated_input_root_is_written_in_place(self):
        block = parse_graph(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %a = immut::slice_assign(%x, %s, %c0, %c0, %c2, %c1)
  %b = immut::slice_assign(%a, %s, %c0, %c2, %c4, %c1)
  return (%b)""").block
        kernel = compile_block(block, donated=(0, 1))
        # %s is only read: the one stored-into param is the donation
        assert kernel.__donated__ == (0,) and kernel.__copies__ == ()
        assert "aten::clone" not in kernel.__source__
        x = _X.copy()
        got, = kernel([x, _S])
        assert got is x
        assert rt.bit_exact([got], _reference(block, [_X, _S]))
        undonated = compile_block(block)
        assert undonated.__donated__ == () and undonated.__copies__ == (0,)

    def test_overlapping_source_keeps_the_clone(self):
        def f(x):
            y = x.clone()
            y[1:4] = y[0:3]
            return y
        g = clone_graph(script(f).graph)
        convert_to_tensorssa(g)
        dce(g)
        fuse(g, FuserConfig(name="t", fuse_views=True))
        group, = g.nodes_of("prim::FusionGroup")
        kernel = compile_block(group.blocks[0])
        # the window is cloned with the overlapping source in it; that
        # fresh copy is then free to be stored into the owned base
        (op, why), = kernel.__assigns__["clones"]
        assert op == "immut::assign" and "the source" in why
        assert "_OPS['immut::assign']" in kernel.__source__
        assert kernel.__assigns__["stores"] == 1
        got = run_graph(g, [rt.from_numpy(_X)])[0]
        assert rt.bit_exact(got, f(rt.from_numpy(_X)))

    def test_old_view_read_after_the_write_keeps_the_clone(self):
        block, kernel = _compile_ir(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %y = aten::clone(%x)
  %v = immut::slice(%y, %c0, %c0, %c2, %c1)
  %a = immut::slice_assign(%y, %s, %c0, %c1, %c3, %c1)
  %r = aten::add(%v, %one)
  return (%a, %r)""")
        (op, why), = kernel.__assigns__["clones"]
        assert "%v" in why and "_OPS['immut::slice_assign']" \
            in kernel.__source__
        _agrees(block, kernel, _X, _S)

    def test_escaping_alias_keeps_the_clone(self):
        block, kernel = _compile_ir(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %y = aten::clone(%x)
  %v = aten::slice(%y, %c0, %c0, %c2, %c1)
  %a = immut::slice_assign(%y, %s, %c0, %c1, %c3, %c1)
  return (%a, %v)""")
        assert kernel.__assigns__["stores"] == 0
        assert "_OPS['immut::slice_assign']" in kernel.__source__
        _agrees(block, kernel, _X, _S)

    def test_input_with_a_later_reader_keeps_the_clone(self):
        block, kernel = _compile_ir(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %a = immut::slice_assign(%x, %s, %c0, %c1, %c3, %c1)
  %r = aten::add(%x, %one)
  return (%a, %r)""")
        assert kernel.__assigns__["stores"] == 0
        assert "aten::clone" not in kernel.__source__
        _agrees(block, kernel, _X, _S)

    def test_differing_chain_parameters_keep_the_clone(self):
        block, kernel = _compile_ir(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %y = aten::clone(%x)
  %w = aten::slice(%y, %c0, %c0, %c2, %c1)
  %a = immut::assign(%w, %one)
  %b = immut::slice_assign(%y, %a, %c0, %c1, %c3, %c1)
  return (%b)""")
        assert kernel.__assigns__["identities"] == 0
        assert "_OPS['immut::" in kernel.__source__
        _agrees(block, kernel, _X, _S)

    def test_analysis_follows_the_emission_order(self):
        """``%r`` reads the old window before the chain writes it, in
        the order the body is emitted, so the write may store in place."""
        text = f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %y = aten::clone(%x)
  %v = aten::slice(%y, %c0, %c0, %c2, %c1)
  %r = aten::add(%v, %one)
  %a = immut::slice_assign(%y, %s, %c0, %c1, %c3, %c1)
  return (%a, %r)"""
        block, program = _compile_ir(text)
        assert program.__assigns__["stores"] == 1
        _agrees(block, program, _X, _S)

    def test_zero_d_root_is_an_array_before_it_is_stored_into(self):
        """A 0-d ufunc result is a numpy scalar; a view of one is a
        copy, so the store would be lost without ``_nd``."""
        block, kernel = _compile_ir("""graph g(%x : Tensor, %s : Tensor):
  %two = prim::Constant[value=2.0]()
  %y = aten::mul(%x, %two)
  %a = immut::assign(%y, %s)
  return (%a)""")
        assert kernel.__assigns__["stores"] == 1
        _agrees(block, kernel, np.float32(3.0).reshape(()),
                np.float32(7.0).reshape(()))

    def test_ssd_box_decode_group_has_no_immut_call(self):
        wl = get_workload("ssd")
        args = wl.make_inputs(batch_size=1, seq_len=32)
        compiled = get_pipeline("tensorssa").compile(
            wl.model_fn, example_args=args)
        group = compiled.graph.nodes_of("prim::FusionGroup")[0]
        kernel = build_kernel(group)
        assert "immut::" not in kernel.__source__
        assert kernel.__assigns__ == {"stores": 4, "identities": 12,
                                      "clones": []}


class TestOutMembers:
    """A binary member writes its result into a donated operand's buffer
    (``out=``) only when nothing in the kernel reads that operand later;
    every other case keeps allocating, asserted on the generated source."""

    def test_dying_operand_is_the_result_buffer(self):
        block = parse_graph(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  %r = aten::add(%x, %s)
  %m = aten::mul(%r, %one)
  return (%r, %m)""").block
        kernel = compile_block(block, donated=(0,))
        assert kernel.__donated__ == (0,)
        assert kernel.__outs__ == (("aten::add", 0),)
        assert "_INTO['aten::add', 0](v0, v1)" in kernel.__source__
        x, s = _X.copy(), _X[::-1].copy()
        r, m = kernel([x, s])
        assert r is x
        assert rt.bit_exact([r, m], _reference(block, [_X, s]))
        # no donation, no out=: the row's allocating call
        assert compile_block(block).__outs__ == ()

    def test_fallback_leaves_the_operand_untouched(self):
        """A broadcast operand: the row runs, into a fresh array."""
        block = parse_graph("""graph g(%x : Tensor, %s : Tensor):
  %r = aten::sub(%x, %s)
  return (%r)""").block
        kernel = compile_block(block, donated=(0,))
        assert kernel.__outs__ == (("aten::sub", 0),)
        x = _X.copy()
        got, = kernel([x, _S[0]])
        assert got is not x and rt.bit_exact(x, _X)
        assert rt.bit_exact([got], _reference(block, [_X, _S[0]]))

    @pytest.mark.parametrize("body", [
        # read later through a view taken before the write
        """%v = aten::select(%x, %c0, %c0)
  %r = aten::add(%x, %s)
  %w = aten::mul(%v, %one)
  return (%r, %w)""",
        # read later directly, and returned as itself
        """%r = aten::add(%x, %s)
  %w = aten::tanh(%x)
  return (%r, %w)""",
        """%r = aten::add(%x, %s)
  return (%r, %x)""",
        # both operands
        """%r = aten::add(%x, %x)
  return (%r)""",
        # an Assign stores into it: the store path owns that buffer
        """%r = aten::add(%x, %s)
  %v = aten::select(%s, %c0, %c0)
  %b = immut::select_assign(%x, %v, %c0, %c1)
  return (%r, %b)"""], ids=["earlier-view", "later-reader", "returned",
                            "both-operands", "assign-stores"])
    def test_operand_read_again_keeps_allocating(self, body):
        block = parse_graph(f"""graph g(%x : Tensor, %s : Tensor):{_CONSTS}
  {body}""").block
        kernel = compile_block(block, donated=(0,))
        assert kernel.__outs__ == () and "_INTO" not in kernel.__source__
        _agrees(block, compile_block(block), _X, _X[::-1].copy())

    def test_loop_body_member_keeps_allocating(self):
        """Out of scope: a horizontal-loop body never writes out=."""
        block = parse_graph("""graph g(%i : Int, %p : Tensor, %s : Tensor):
  %t = prim::Constant[value=True]()
  %r = aten::add(%p, %s)
  return (%t, %r)""").block
        kernel = compile_block(block, carried=True, donated=(1,))
        assert kernel.__outs__ == () and "_INTO" not in kernel.__source__

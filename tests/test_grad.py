"""Reverse-mode autodiff over functional TensorSSA (``repro.grad``).

Covers the VJP registry metadata contract, per-op adjoint rules
(elementwise, matmul, reductions, softmax, views/indexing, cat/stack),
control-flow adjoints (``prim::If`` both arms, ``prim::Loop`` incl.
zero-trip and data-dependent while loops), gradient flow through
functionalized mutations (grad-of-view aliasing), end-to-end grad-checks
of the lstm/attention workloads against the 1e-4 acceptance gate,
bit-exactness of the optimized backward vs the interpreted one, the
harness/serve integration (``grad=True`` caching, obs
spans), and the typed :class:`~repro.errors.GradError` taxonomy.

Every analytic gradient is validated against central finite differences
at float64 through :func:`repro.grad.check.gradcheck`.
"""

import functools
import time

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend.interpreter import run_graph
from repro.errors import GradError
from repro.eval.cache import CompileCache, clone_args, fetch
from repro.eval.harness import run_workload
from repro.grad import build_backward, grad
from repro.grad.check import (GradCheckConfig, check_workload_grad,
                              gradcheck)
from repro.memplan.planner import plans_built
from repro.models import get_workload
from repro.obs import coverage_fraction, tracing
from repro.ops import registry as op_registry
from repro.ops.schema import OpKind
from repro.pipelines.registry import get_pipeline
from repro.runtime.creation import promoting_f32_to
from repro.runtime.dtype import float64


def _randn(*shape, seed=0):
    """Deterministic float64 test tensor (well away from kinks)."""
    rng = np.random.default_rng(seed)
    return rt.from_numpy(rng.uniform(-1.5, 1.5, size=shape))


def _grads(fn, *args, wrt=None, out=None):
    """Build the backward graph and interpret it at float64."""
    _, bwd = build_backward(fn, wrt=wrt, out=out)
    with promoting_f32_to(float64):
        g = run_graph(bwd, args)
    return tuple(g) if isinstance(g, (tuple, list)) else (g,)


def _fd_check(fn, args, grads, wrt=None, samples=8, seed=0):
    """Grad-check ``grads`` of ``fn``'s summed outputs via central FD."""
    def loss(*a):
        cloned = [x.clone() if isinstance(x, rt.Tensor) else x for x in a]
        with promoting_f32_to(float64):
            outs = fn(*cloned)
        outs = outs if isinstance(outs, tuple) else (outs,)
        return sum(float(o.sum()) for o in outs if isinstance(o, rt.Tensor))

    result = gradcheck(loss, args, list(grads), wrt=wrt,
                       config=GradCheckConfig(samples_per_input=samples,
                                              seed=seed))
    assert result.ok, "\n".join(result.failures)
    assert result.checked > 0, "grad-check skipped every sampled element"
    return result


def _assert_grad_matches_fd(fn, *args, wrt=None, samples=8):
    """End-to-end: analytic gradients of ``fn`` agree with central FD."""
    grads = _grads(fn, *args)
    tensor_idx = [i for i, a in enumerate(args) if isinstance(a, rt.Tensor)]
    _fd_check(fn, args, grads, wrt=wrt if wrt is not None else tensor_idx,
              samples=samples)


# -- VJP registry metadata ---------------------------------------------------

class TestVJPRegistry:
    """The three-valued ``differentiable`` contract on OpSchema."""

    def test_differentiable_ops_all_have_vjps(self):
        missing = [s.name for s in op_registry.all_ops()
                   if s.differentiable is True and s.vjp is None]
        assert not missing, f"differentiable=True without a VJP: {missing}"

    def test_vjp_implies_differentiable_true(self):
        wrong = [s.name for s in op_registry.all_ops()
                 if s.vjp is not None and s.differentiable is not True]
        assert not wrong, f"VJP attached but not marked True: {wrong}"

    def test_mutating_ops_are_never_differentiable(self):
        bad = [s.name for s in op_registry.all_ops()
               if s.kind is OpKind.MUTATING and s.differentiable is not False]
        assert not bad, f"mutating ops must be differentiable=False: {bad}"

    def test_core_training_ops_are_covered(self):
        for name in ("aten::add", "aten::mul", "aten::div", "aten::matmul",
                     "aten::bmm", "aten::linear", "aten::sum", "aten::mean",
                     "aten::softmax", "aten::sigmoid", "aten::tanh",
                     "aten::relu", "aten::reshape", "aten::transpose",
                     "aten::select", "aten::slice", "aten::cat",
                     "aten::stack", "aten::where", "aten::expand"):
            schema = op_registry.get(name)
            assert schema.differentiable is True, f"{name} lacks a VJP"
            assert schema.vjp is not None

    def test_intentionally_nondiff_raises_typed_error(self):
        def predicate(x):
            return x > 0.0

        with pytest.raises(GradError, match="not differentiable"):
            build_backward(predicate)

    def test_unclassified_op_raises_no_vjp_registered(self, monkeypatch):
        schema = op_registry.get("aten::tanh")
        monkeypatch.setattr(schema, "differentiable", None)
        monkeypatch.setattr(schema, "vjp", None)

        def uses_tanh(x):
            return x.tanh().sum()

        with pytest.raises(GradError, match="no VJP registered"):
            build_backward(uses_tanh)

    def test_graderror_is_a_typed_compile_error(self):
        from repro.errors import CompileError
        assert issubclass(GradError, CompileError)
        assert GradError.retryable is False

    def test_eager_pipeline_refuses_grad(self):
        def f(x):
            return x.tanh().sum()

        with pytest.raises(GradError, match="tensorssa"):
            get_pipeline("eager").compile_grad(f)

    @pytest.mark.parametrize("op, text", [
        ("prim::FusionGroup", """
graph g(%x.0 : Tensor):
  %o.0 = prim::FusionGroup(%x.0)
    block0(%px.0 : Tensor):
      %z.0 = aten::tanh(%px.0)
      -> (%z.0)
  return (%o.0)
"""),
        ("prim::Loop", """
graph g(%n.0 : Int, %x.0 : Tensor):
  %t.0 = prim::Constant[value=True]()
  %o.0 = prim::Loop[horizontal=True](%n.0, %t.0, %x.0)
    block0(%i.0 : Int, %c.0 : Tensor):
      %z.0 = aten::tanh(%c.0)
      -> (%t.0, %z.0)
  return (%o.0)
""")], ids=["fusion_group", "horizontal_loop"])
    def test_kernel_regions_refuse_grad(self, op, text):
        """Both forms that run as one compiled kernel — a fusion group
        and a horizontal loop — are refused: grad() runs before fusion
        and parallelization."""
        from repro.ir import parse_graph
        with pytest.raises(GradError, match=f"through {op}"):
            grad(parse_graph(text))


# -- per-op adjoint rules ----------------------------------------------------

class TestElementwiseVJPs:
    """Numeric checks of the arithmetic/activation adjoint rules."""

    def test_broadcast_arithmetic(self):
        def f(x, y):
            return (x * y + x / (y.abs() + 2.0) - y).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=1), _randn(4, seed=2))

    def test_unary_chain(self):
        def f(x):
            return ((x.exp() + 1.0).log().sqrt().sigmoid().tanh()).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=3))

    def test_pow_with_scalar_exponent(self):
        def f(x):
            return ((x.abs() + 0.5) ** 3).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=4))

    def test_relu_and_where_masks(self):
        def f(x, y):
            z = rt.where(x > 0.0, x * y, y.exp())
            return (z.relu() + rt.maximum(x, y)).sum()

        # relu/maximum kinks at ties are skipped by design; inputs from
        # different seeds make exact ties measure-zero
        _assert_grad_matches_fd(f, _randn(3, 4, seed=5), _randn(3, 4, seed=6))

    def test_reductions(self):
        def f(x):
            return x.sum(1).tanh().sum() + x.mean(0).exp().sum() + x.max()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=7))

    def test_softmax_and_log_softmax(self):
        def f(x):
            return (rt.softmax(x, 1) * rt.log_softmax(x, 1)).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=8))

    def test_matmul_and_bmm(self):
        def f(x, y, z):
            return ((x @ y).tanh() @ z).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=9),
                                _randn(4, 5, seed=10), _randn(5, 2, seed=11))

    def test_wrt_and_out_selection(self):
        def f(x, y):
            return (x * y).sum(), (x + y).sum()

        x, y = _randn(3, seed=12), _randn(3, seed=13)
        (gx,) = _grads(f, x, y, wrt=[0], out=0)
        np.testing.assert_allclose(gx.numpy(), y.numpy(), rtol=1e-12)


class TestViewAliasing:
    """Gradients through views, indexing, and functionalized writes."""

    def test_select_and_slice_reads(self):
        def f(x):
            return (x[0] * x[2:4].sum(0)).sum() + x[1].tanh().sum()

        _assert_grad_matches_fd(f, _randn(5, 4, seed=20))

    def test_write_through_view_aliases_source(self):
        def f(x):
            y = x.clone()
            y[0] = x[1] * 2.0
            y[2:4] *= 0.5
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(5, 4, seed=21))

    def test_cat_and_stack_route_grads_per_element(self):
        def f(x, y):
            z = rt.cat([x * 2.0, y.tanh()], 0)
            w = rt.stack([x.sum(0), y.sum(0)], 0)
            return (z * z).sum() + w.exp().sum()

        _assert_grad_matches_fd(f, _randn(2, 3, seed=22), _randn(4, 3, seed=23))

    def test_reshape_transpose_expand(self):
        def f(x, y):
            a = x.reshape((4, 3)).transpose(0, 1)
            return (a * y.expand((3, 4))).sum()

        _assert_grad_matches_fd(f, _randn(2, 6, seed=24), _randn(1, 4, seed=25))

    def test_view_grad_does_not_leak_across_alias(self):
        """After ``y[0] = c``, the overwritten window of x's clone gets
        zero gradient — the write severs the adjoint path."""
        def f(x):
            y = x.clone()
            y[0] = 0.0
            return (y * y).sum()

        x = _randn(3, 4, seed=26)
        (gx,) = _grads(f, x)
        expect = 2.0 * x.numpy()
        expect[0] = 0.0
        np.testing.assert_allclose(gx.numpy(), expect, rtol=1e-12)


# -- control-flow adjoints ---------------------------------------------------

class TestIfAdjoint:
    """Differentiating both arms of ``prim::If``."""

    @pytest.mark.parametrize("flag", [True, False])
    def test_both_arms_match_fd(self, flag):
        def f(x, flag: bool):
            y = x.clone()
            if flag:
                y = y * x.sigmoid()
            else:
                y = y + x.exp()
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=30), flag, wrt=[0])

    @pytest.mark.parametrize("flag", [True, False])
    def test_multi_output_branches(self, flag):
        def f(x, flag: bool):
            if flag:
                a = x.tanh()
                b = x * 2.0
            else:
                a = x.exp()
                b = x - 1.0
            return (a * b).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=31), flag, wrt=[0])

    @pytest.mark.parametrize("flag", [True, False])
    def test_branch_with_window_writes(self, flag):
        def f(x, flag: bool):
            y = x.clone()
            z = x.tanh()
            if flag:
                y[0] = z[1] * 2.0
            else:
                y[1:3] *= z[0:2]
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(4, 4, seed=32), flag, wrt=[0])

    def test_untouched_capture_gets_zero_grad(self):
        def f(x, y, flag: bool):
            if flag:
                z = x * 2.0
            else:
                z = y * 3.0
            return (z * z).sum()

        x, y = _randn(3, seed=33), _randn(3, seed=34)
        gx, gy = _grads(f, x, y, True)
        np.testing.assert_allclose(gx.numpy(), 8.0 * x.numpy(), rtol=1e-12)
        np.testing.assert_allclose(gy.numpy(), np.zeros(3), atol=0.0)


def _top_loops(graph):
    return [n for n in graph.block.nodes if n.op == "prim::Loop"]


class TestLoopAdjoint:
    """The tape-free scan over prim::Loop: a ``for`` loop stashes its
    entering state from the forward loop itself (forward-with-stash,
    then reverse); a ``while`` loop counts its trips in the forward loop
    and replays them to fill the stash (forward, replay, reverse)."""

    def test_for_loop_matches_fd(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y = y * x.sigmoid() + y.tanh()
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=40), 3, wrt=[0])

    def test_zero_trip_loop_passes_seed_through(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y = y * 0.5
            return (y * y).sum()

        x = _randn(3, 4, seed=41)
        (gx,) = _grads(f, x, 0)
        np.testing.assert_allclose(gx.numpy(), 2.0 * x.numpy(), rtol=1e-12)
        _assert_grad_matches_fd(f, x, 0, wrt=[0])

    def test_negative_trip_count_passes_seed_through(self):
        """``range(n - 2)`` at n in {0, 1} has a negative ``max_trip``;
        the stash is sized ``max(max_trip, 0)``, so no step runs."""
        def f(x, n: int):
            y = x.clone()
            for t in range(n - 2):
                y = y * 0.5
            return (y * y).sum()

        x = _randn(3, 4, seed=47)
        compiled = get_pipeline("tensorssa").compile_grad(f)
        for n in (0, 1):
            (gx,) = _grads(f, x, n)
            np.testing.assert_allclose(gx.numpy(), 2.0 * x.numpy(),
                                       rtol=1e-12)
            got = rt.as_tuple(compiled(x.clone(), n))
            want = rt.as_tuple(compiled.stats["grad_reference"](x, n))
            assert rt.bit_exact(got, want)
        _assert_grad_matches_fd(f, x, 3, wrt=[0])

    def test_for_loop_backward_is_forward_with_stash_and_reverse(self):
        """The forward loop fills the stash the reverse loop reads: no
        count loop, no replay loop."""
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y = y * x.sigmoid() + y.tanh()
            return (y * y).sum()

        _, bwd = build_backward(f)
        forward, reverse = _top_loops(bwd)
        stashes = [v for v in forward.inputs
                   if v.node is not None and v.node.op == "grad::stash_init"]
        assert len(stashes) == 1
        assert any(u.user.owning_block.owning_node is reverse
                   for u in forward.outputs[-1].uses)

    @pytest.mark.parametrize("workload", ["lstm", "attention"])
    def test_compiled_workload_backward_runs_two_loops(self, workload):
        wl = get_workload(workload)
        args = wl.make_inputs(batch_size=2, seq_len=6, seed=0)
        compiled = get_pipeline("tensorssa").compile_grad(
            wl.model_fn, example_args=args)
        assert len(_top_loops(compiled.graph)) == 2

    def test_while_loop_backward_counts_in_the_forward_loop(self):
        """A while loop cannot size its stash up front: the forward loop
        carries a trip counter, a replay loop fills the stash, and the
        reverse loop reads it.  None of the three is a count loop (one
        whose only used result is the trip count)."""
        def f(x, n: int):
            y = x.clone()
            s = y.sum()
            while bool(s < float(n)):
                y = y + y.sigmoid()
                s = y.sum()
            return (y * y,)

        _, bwd = build_backward(f)
        loops = _top_loops(bwd)
        assert len(loops) == 3
        for loop in loops:
            assert any(o.type.is_tensor and o.uses for o in loop.outputs)
        trip_n = loops[0].outputs[-1]
        assert not trip_n.type.is_tensor
        assert {u.user for u in trip_n.uses} >= set(loops[1:])

    def test_capture_adjoints_accumulate_across_iterations(self):
        """x enters the loop body every iteration; its adjoint is the
        sum of all per-iteration contributions."""
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y = y + x.exp() * float(i + 1)
            return y.sum()

        x = _randn(3, seed=42)
        (gx,) = _grads(f, x, 4)
        expect = 1.0 + (1 + 2 + 3 + 4) * np.exp(x.numpy())
        np.testing.assert_allclose(gx.numpy(), expect, rtol=1e-10)

    def test_while_loop_with_datadep_trip_count(self):
        def f(x, n: int):
            y = x.clone()
            s = y.sum()
            while bool(s < float(n)):
                y = y + y.sigmoid()
                s = y.sum()
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=43), 5, wrt=[0])

    def test_loop_with_mutation_in_body(self):
        """A local clone mutated inside the body functionalizes, so its
        adjoint flows through select_assign like straight-line code."""
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                z = y.clone()
                z[0] = x[1] * 2.0
                y = z * x.sigmoid()
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=44), 2, wrt=[0])

    def test_carried_mutation_refused_with_typed_error(self):
        """Writes to a loop-carried tensor are skipped by the converter
        (residual ``aten::copy_``); grad() must refuse with a typed
        GradError rather than differentiate imperative state."""
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[0] = x[1] * 2.0
                y = y * x.sigmoid()
            return (y * y).sum()

        with pytest.raises(GradError, match="mutation"):
            build_backward(f)

    def test_nested_loop_and_branch(self):
        def f(x, flag: bool, n: int):
            y = x.clone()
            for i in range(n):
                if flag:
                    y = y * x.sigmoid()
                else:
                    y = y + x.tanh()
            return (y * y).sum()

        _assert_grad_matches_fd(f, _randn(3, 4, seed=45), True, 2, wrt=[0])
        _assert_grad_matches_fd(f, _randn(3, 4, seed=46), False, 2, wrt=[0])


class TestLeanReverseLoop:
    """What a differentiated ``for`` loop stores: each GEMM result the
    reverse body reads, never a carried value it reads only for its
    shape; everything else is recomputed.  The outputs do not move."""

    @staticmethod
    def _compiled(name, batch=4, seq=32):
        wl = get_workload(name)
        args = wl.make_inputs(batch_size=batch, seq_len=seq, seed=0)
        return get_pipeline("tensorssa").compile_grad(
            wl.model_fn, example_args=args), args

    def test_attention_backward_stashes_nothing(self):
        """attention's reverse body reads its carried ``scores`` only
        for their shape, and the mask writes keep that shape."""
        compiled, _ = self._compiled("attention")
        _, raw = build_backward(get_workload("attention").model_fn)
        assert not raw.nodes_of("grad::stash_init")
        assert not compiled.graph.nodes_of("grad::stash_init")

    def test_lstm_reverse_loop_reads_the_input_gemm(self):
        """The forward loop stashes the input GEMM ``linear(x[t], wx,
        bias)`` (and ``c``, ``h``), not ``out``; the reverse loop reads
        its row.  ``linear(h, wh)`` is recomputed: nothing proves ``h``
        keeps one shape (an ``h0`` of batch 1 broadcasts to batch B on
        trip 0)."""
        compiled, _ = self._compiled("lstm")
        forward, reverse = _top_loops(compiled.graph)
        assert len([n for n in forward.walk() if n.op == "aten::linear"]) == 2
        again = [n for n in reverse.walk() if n.op == "aten::linear"]
        assert len(again) == 1
        stashes = [v for v in forward.inputs if v.node is not None
                   and v.node.op == "grad::stash_init"]
        assert len(stashes) == 3

    def test_lstm_backward_peak_bytes(self):
        """At ``grad_rnn``'s shape the (T, T, B, H) stash of ``out`` is
        gone and one (T, B, 4H) GEMM stash is new: ``peak_bytes`` was
        12,656,640 with the stash of ``out`` and reads 8,888,320."""
        compiled, args = self._compiled("lstm")
        compiled(*clone_args(args))
        with rt.profile() as prof:
            compiled(*clone_args(args))
        assert prof.peak_bytes <= 12_656_640 - 3_000_000

    def test_gemm_stash_sized_from_trip_zero(self):
        """A GEMM inside the body has no pre-loop template: its stash is
        sized from trip 0's value, under an ``If`` that zero trips skip
        (``range(n - 1)`` at n = 0 has a negative trip count)."""
        def f(x, w, n: int):
            y = x[0].clone()
            for i in range(n - 1):
                y = (x[i] @ w).tanh() * y + y
            return (y * y).sum()

        x, w = _randn(5, 3, 4, seed=48), _randn(4, 4, seed=49) * 0.3
        compiled = get_pipeline("tensorssa").compile_grad(f)
        forward, reverse = _top_loops(compiled.graph)
        stashes = [v for v in forward.inputs if v.node is not None
                   and v.node.op == "grad::stash_init"]
        assert len(stashes) == 2  # y, and x[i] @ w
        w_in = compiled.graph.inputs[1]
        assert not [n for n in reverse.walk() if n.op == "aten::matmul"
                    and n.input(1) is w_in]
        for n in (0, 1, 2, 4):
            got = rt.as_tuple(compiled(x.clone(), w.clone(), n))
            want = rt.as_tuple(compiled.stats["grad_reference"](x, w, n))
            assert rt.bit_exact(got, want)
        _assert_grad_matches_fd(f, x, w, 4, wrt=[0, 1])

    @staticmethod
    def _growing(x, w, n: int):
        acc = x[0] * 0.0
        for i in range(n):
            acc = acc + (x[:i + 1] @ w).tanh().sum(0)
        return acc.sum()

    @staticmethod
    def _shrinking(x, w, n: int):
        acc = x[0:1] * 0.0
        for i in range(n):
            acc = acc + (x[i:] @ w).tanh()[0:1]
        return acc.sum()

    @staticmethod
    def _carried(x, w, n: int):
        y = x[0:1].clone()
        for i in range(n):
            y = (y @ w).tanh() + x[i]
        return y.sum()

    @pytest.mark.parametrize("fn", ["_growing", "_shrinking", "_carried"])
    def test_gemm_whose_shape_may_change_is_recomputed(self, fn):
        """A GEMM over a window that grows or shrinks with the trip
        index may change shape from trip to trip, and so may one over a
        carried value that is not an Assign chain of itself: it gets no
        stash (sized from trip 0, a row would refuse or broadcast later
        trips), and the reverse loop runs it again."""
        f = getattr(self, fn)
        x, w = _randn(3, 4, seed=50), _randn(4, 4, seed=51) * 0.3
        compiled = get_pipeline("tensorssa").compile_grad(f)
        forward, reverse = _top_loops(compiled.graph)
        w_in = compiled.graph.inputs[1]
        assert [n for n in reverse.walk() if n.op == "aten::matmul"
                and n.input(1) is w_in]
        for n in (0, 1, 3):
            got = rt.as_tuple(compiled(x.clone(), w.clone(), n))
            want = rt.as_tuple(compiled.stats["grad_reference"](x, w, n))
            assert rt.bit_exact(got, want)
        _assert_grad_matches_fd(f, x, w, 3, wrt=[0, 1])

    @pytest.mark.parametrize("seq", [1, 64, 256])
    def test_window_read_capture_accumulates_into_its_window(
            self, seq, monkeypatch):
        """lstm reads ``x[t]`` each trip: its adjoint slot adds g into
        row t alone, with the bits of the zero-padded full-size add."""
        from repro.grad import builder

        wl = get_workload("lstm")
        args = wl.make_inputs(batch_size=2, seq_len=seq, seed=0)
        pipe = get_pipeline("tensorssa")
        lean = pipe.compile_grad(wl.model_fn, example_args=args)
        monkeypatch.setattr(builder, "_accumulate", lambda b, acc, g, f: (
            acc if g is None else b.e1("aten::add", acc, g)))
        full = pipe.compile_grad(wl.model_fn, example_args=args)
        monkeypatch.undo()
        assert rt.bit_exact(rt.as_tuple(lean(*clone_args(args))),
                            rt.as_tuple(full(*clone_args(args))))
        _, raw = build_backward(wl.model_fn)
        body = _top_loops(raw)[1].block(0)
        slots = body.params[4:]  # after r and the three g_c: x, wx, ...
        stores = [r.node for r in body.returns if r.node is not None
                  and r.node.op == "immut::select_assign"
                  and r.node.input(0) in slots]
        assert [s.input(0) for s in stores] == slots[:1]


@functools.lru_cache(maxsize=None)
def _warm_backward(name):
    """``name``'s backward at ``grad_rnn``'s shape (4, 32), called once
    so its kernels are compiled, and the launches of a second call."""
    wl = get_workload(name)
    args = wl.make_inputs(batch_size=4, seq_len=32, seed=0)
    compiled = get_pipeline("tensorssa").compile_grad(
        wl.model_fn, example_args=args)
    compiled(*clone_args(args))
    with rt.profile() as prof:
        compiled(*clone_args(args))
    return compiled, prof.num_launches


class TestCarriedStores:
    """A loop-carried Assign goes in place one way: a fusion kernel
    stores into the carried buffer the memory plan donated to it.  No
    pass turns the backward's stash writes into ``copy_``, so view
    fusion stays on in the forward-with-stash loop, and a stash write
    with nothing to fuse with still gets a kernel of its own."""

    @pytest.mark.parametrize("name", ["lstm", "nasrnn"])
    def test_backward_has_no_copy_and_few_launches(self, name):
        """717 (lstm) and 810 (nasrnn) launches per call when the stash
        writes were ``copy_``s; 461 and 458 now."""
        compiled, launches = _warm_backward(name)
        assert not compiled.graph.nodes_of("aten::copy_")
        assert launches <= 470

    def test_lstm_stash_writes_are_donated_kernel_stores(self):
        from repro.tools.inspect import kernel_assigns

        compiled, _ = _warm_backward("lstm")
        forward = _top_loops(compiled.graph)[0]
        body = forward.blocks[0]
        stashes = [body.params[k - 1]
                   for k, v in enumerate(forward.inputs)
                   if k >= 2 and v.node is not None
                   and v.node.op == "grad::stash_init"]
        assert len(stashes) == 3
        index = {id(n): i for i, n in enumerate(compiled.graph.walk())}
        rows = {r["node"]: r for r in kernel_assigns(compiled.graph)}
        for stash in stashes:
            [use] = stash.uses
            group = use.user
            assert group.op == "prim::FusionGroup"
            row = rows[index[id(group)]]
            assert use.index in row["donated"]
            assert row["copies"] == []

    @staticmethod
    def _for(x, w, n: int):
        h = x[0].clone()
        for i in range(n):
            h = (h @ w).tanh() + x[i]
        return h.sum()

    @staticmethod
    def _while(x, w, n: int):
        h = x[0].clone()
        i = 0
        while i < n:
            h = (h @ w).tanh() + x[i]
            i += 1
        return h.sum()

    @pytest.mark.parametrize("fn, peak", [("_for", 1_368_068),
                                          ("_while", 1_376_660)])
    def test_lone_stash_write_stores_in_place(self, fn, peak):
        """The stash write of ``h`` has nothing to fuse with.  As a
        lone eager ``immut::select_assign`` it would clone the whole
        (48, 8, 256) stash every trip (the ``for`` loop's peak read
        1,499,140 B so); as a kernel of its own it stores in place.
        The ``copy_`` stash writes read 1,368,068 and 1,377,044 B."""
        rng = np.random.default_rng(52)
        x = rt.from_numpy(rng.standard_normal((48, 8, 256))
                          .astype(np.float32))
        w = rt.from_numpy((rng.standard_normal((256, 256)) * 0.05)
                          .astype(np.float32))
        compiled = get_pipeline("tensorssa").compile_grad(getattr(self, fn))
        for n in (0, 1, 48):
            got = rt.as_tuple(compiled(x.clone(), w.clone(), n))
            want = rt.as_tuple(compiled.stats["grad_reference"](x, w, n))
            assert rt.bit_exact(got, want)
        args = (x.clone(), w.clone(), 48)
        with rt.profile() as prof:
            compiled(*args)
        assert prof.peak_bytes == peak


# -- end-to-end: workloads, optimization, harness ----------------------------

class TestEndToEnd:
    """The acceptance gates: real models, optimized backward, caching."""

    @pytest.mark.parametrize("workload", ["lstm", "attention"])
    def test_workload_gradcheck_within_gate(self, workload):
        result = check_workload_grad(workload, batch_size=1, seq_len=4,
                                     samples_per_input=4)
        assert result.ok, "\n".join(result.failures)
        assert result.max_rel_err < 1e-4
        assert result.checked > 0

    @pytest.mark.parametrize("workload", ["lstm", "attention"])
    def test_optimized_backward_bit_exact_vs_interpreted(self, workload):
        wl = get_workload(workload)
        args = wl.make_inputs(batch_size=2, seq_len=6, seed=0)
        compiled = get_pipeline("tensorssa").compile_grad(wl.model_fn)
        fused = compiled(*args)
        ref = compiled.stats["grad_reference"](*args)
        fused = fused if isinstance(fused, tuple) else (fused,)
        ref = ref if isinstance(ref, tuple) else (ref,)
        assert len(fused) == len(ref)
        for a, b in zip(fused, ref):
            assert np.array_equal(a.numpy(), b.numpy()), \
                "optimized backward is not bit-exact"

    def test_backward_graph_is_fused(self):
        wl = get_workload("lstm")
        compiled = get_pipeline("tensorssa").compile_grad(wl.model_fn)
        assert compiled.stats.get("fusion_groups", 0) > 0

    def test_run_workload_grad_checks_against_interpreted(self):
        result = run_workload("lstm", "tensorssa", batch_size=2, seq_len=6,
                              grad=True, check=True, cache=CompileCache())
        assert result.latency_us > 0

    def test_grad_compile_is_cached_and_keyed_separately(self):
        wl = get_workload("attention")
        pipe = get_pipeline("tensorssa")
        args = wl.make_inputs(batch_size=2, seq_len=6, seed=0)
        cache = CompileCache()
        hit1 = fetch(pipe, wl, args, cache=cache, grad=True).hit
        hit2 = fetch(pipe, wl, args, cache=cache, grad=True).hit
        hit_fwd = fetch(pipe, wl, args, cache=cache).hit
        assert (hit1, hit2) == (False, True)
        assert hit_fwd is False, "forward must not reuse the backward key"

    def test_double_compile_through_cache_is_idempotent(self):
        wl = get_workload("attention")
        pipe = get_pipeline("tensorssa")
        cache = CompileCache()
        a1 = wl.make_inputs(batch_size=2, seq_len=6, seed=0)
        c1, hit1 = fetch(pipe, wl, a1, cache=cache, grad=True)
        c1(*clone_args(a1))
        a2 = wl.make_inputs(batch_size=3, seq_len=6, seed=1)
        plans_before = plans_built()
        c2, hit2 = fetch(pipe, wl, a2, cache=cache, grad=True)
        assert (hit1, hit2) == (False, True)
        assert c1 is c2, "one program, one backward artifact"
        assert cache.snapshot().misses == 1
        g2 = c2(*clone_args(a2))  # another batch size, same artifact
        assert plans_built() == plans_before
        assert rt.as_tuple(g2)[0].shape[0] == 3
        assert rt.bit_exact(rt.as_tuple(g2), rt.as_tuple(
            c2.stats["grad_reference"](*clone_args(a2))))


class TestObsIntegration:
    """The backward path is visible to the tracing layer."""

    def test_grad_spans_and_coverage(self):
        with tracing(seed=0) as tr:
            t0 = time.perf_counter()
            run_workload("lstm", "tensorssa", batch_size=2, seq_len=6,
                         grad=True, cache=CompileCache())
            t1 = time.perf_counter()
        names = {s.name for s in tr.spans}
        assert "pass:grad" in names
        assert "harness:backward" in names
        assert "harness:compile" in names
        assert coverage_fraction(tr, (t0, t1)) >= 0.95

    def test_backward_span_nests_inside_execute(self):
        with tracing(seed=0) as tr:
            run_workload("attention", "tensorssa", batch_size=2, seq_len=6,
                         grad=True, cache=CompileCache())
        bwd = [s for s in tr.spans if s.name == "harness:backward"]
        assert bwd, "no harness:backward span emitted"
        execs = [s for s in tr.spans if s.name == "harness:execute"]
        assert any(e.start_s <= b.start_s and b.end_s <= e.end_s
                   for b in bwd for e in execs), \
            "harness:backward must nest inside harness:execute"


class TestGradCheckHarness:
    """The FD harness itself: kink skipping and failure reporting."""

    def test_kinks_are_skipped_not_failed(self):
        x = rt.from_numpy(np.array([0.0, 1.0, -1.0]))

        def loss(t):
            return float(t.abs().sum())

        analytic = rt.from_numpy(np.array([0.0, 1.0, -1.0]))
        result = gradcheck(loss, (x,), [analytic],
                           config=GradCheckConfig(samples_per_input=3))
        assert result.ok
        assert result.skipped >= 1, "|x| at 0 must be detected as a kink"
        assert result.checked == 3 - result.skipped

    def test_wrong_gradient_is_reported(self):
        x = rt.from_numpy(np.array([0.5, -0.75, 1.25]))

        def loss(t):
            return float((t * t).sum())

        wrong = rt.from_numpy(np.zeros(3))
        result = gradcheck(loss, (x,), [wrong],
                           config=GradCheckConfig(samples_per_input=3))
        assert not result.ok
        assert result.failures and result.max_rel_err > 0.1

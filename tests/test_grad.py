"""Reverse-mode autodiff over functional TensorSSA (``repro.grad``).

Covers the VJP registry metadata contract, per-op adjoint rules
(elementwise, matmul, reductions, softmax, views/indexing, cat/stack),
control-flow adjoints (``prim::If`` both arms, ``prim::Loop`` incl.
zero-trip and data-dependent while loops), gradient flow through
functionalized mutations (grad-of-view aliasing), end-to-end grad-checks
of the lstm/attention workloads against the 1e-4 acceptance gate,
bit-exactness of the optimized backward vs the interpreted one, the
harness/serve integration (``grad=True`` caching, family keying, obs
spans), and the typed :class:`~repro.errors.GradError` taxonomy.

Every analytic gradient is validated against central finite differences
at float64 through :func:`repro.grad.check.gradcheck`.
"""

import time

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend.interpreter import run_graph
from repro.errors import GradError
from repro.eval.cache import CompileCache, fetch
from repro.eval.harness import run_workload
from repro.grad import build_backward, grad
from repro.grad.check import (GradCheckConfig, check_workload_grad,
                              gradcheck)
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

    def test_double_compile_through_family_cache_is_idempotent(self):
        wl = get_workload("attention")
        pipe = get_pipeline("tensorssa")
        cache = CompileCache()
        a1 = wl.make_inputs(batch_size=2, seq_len=6, seed=0)
        c1, hit1, fam1, out1 = fetch(pipe, wl, a1, cache=cache,
                                     dynamic_shapes=True, grad=True)
        a2 = wl.make_inputs(batch_size=3, seq_len=6, seed=1)
        c2, hit2, fam2, out2 = fetch(pipe, wl, a2, cache=cache,
                                     dynamic_shapes=True, grad=True)
        assert (hit1, out1) == (False, "new")
        assert (hit2, out2) == (True, "hit")
        assert fam1.family_id == fam2.family_id
        assert c1 is c2, "one family, one backward artifact"
        g1 = c1(*a1)
        g2 = c2(*a2)  # different batch size through the same artifact
        g1 = g1 if isinstance(g1, tuple) else (g1,)
        g2 = g2 if isinstance(g2, tuple) else (g2,)
        assert g1[0].shape[0] == 2 and g2[0].shape[0] == 3


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

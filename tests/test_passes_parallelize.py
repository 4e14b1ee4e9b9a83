"""Loop batching (``passes/parallelize.py``): what each pure loop becomes
— lowered to one whole-window store, fissioned with its carried-independent
slice run once over a trip axis, or kept per trip — and that every
form is the per-trip program bit for bit, errors included."""

import numpy as np
import pytest

import repro.runtime as rt
from repro.eval.harness import clone_args
from repro.frontend import script
from repro.ir import clone_graph, print_graph
from repro.models import get_workload
from repro.passes import cse, dce, parallelize_loops
from repro.passes.parallelize import CHUNK
from repro.pipelines import TensorSSAPipeline
from repro.runtime.kernels import BATCH, KERNELS
from repro.tensorssa import convert_to_tensorssa


def _prepared(fn):
    g = clone_graph(script(fn).graph)
    convert_to_tensorssa(g)
    dce(g)
    cse(g)
    return g


def _outcomes(fn):
    g = _prepared(fn)
    parallelize_loops(g)
    return g, [(o.outcome, o.hoisted) for o in g.loop_outcomes]


def _horizontal(g):
    return [n for n in g.walk() if n.attrs.get("horizontal")]


def _same(fn, *args):
    want = fn(*clone_args(args))
    got = TensorSSAPipeline().compile(fn)(*clone_args(args))
    assert rt.bit_exact(got, want)


def _x(rows=4, cols=6, seed=0):
    rng = np.random.RandomState(seed)
    return rt.from_numpy(rng.uniform(-1, 1, (rows, cols)).astype(np.float32))


def column_map(x, n: int):
    y = x.clone()
    for i in range(n):
        y[:, i + 2] = (x[:, i + 2] * 0.5).maximum(x[:, 0])
    return y


def affine_fill(x, n: int):
    y = x.clone()
    for i in range(n):
        y[i, i + 1:] = -0.25
    return y


def half_independent(x, n: int):
    y = x.clone()
    for i in range(n):
        t = (x[:, i] * 1.5).clamp(-0.5, 0.75)
        y[:, i + 1:] = y[:, i + 1:].maximum(t.unsqueeze(1))
    return y


def entry_ranks_differ(a, b, n: int):
    """Per trip ``(1, C) + (C,)``: each trip's sum keeps its size-1 dim."""
    y = a.clone()
    for i in range(n):
        y[i] = a[i] + b[i]
    return y


def unsqueezed_product(a, b, n: int):
    y = a.clone()
    for i in range(n):
        y[i] = b[i].unsqueeze(0) * b[i]
    return y


def running_sum(x, n: int):
    """Half-independent, and every trip's hoisted value shows in the
    result: a chunk that read another chunk's windows would differ."""
    y = x.clone()
    for i in range(n):
        t = x[:, i] * 0.5 + 0.25
        y[:, i + 1:] = y[:, i + 1:] + t.unsqueeze(1)
    return y


def transcendental(x, n: int):
    y = x.clone()
    for i in range(n):
        y[i] = x[i].tanh()
    return y


def copy_rows(x, n: int):
    y = x.clone()
    for i in range(n):
        y[i + 1] = x[i + 1]
    return y


def carried_read(x, n: int):
    y = x.clone()
    for i in range(n):
        y[i + 1] = y[i] * 0.5
    return y


class TestOutcomes:
    def test_map_loop_lowered(self):
        g, outcomes = _outcomes(column_map)
        assert [o for o, _ in outcomes] == ["lowered"]
        assert not g.nodes_of("prim::Loop")
        assert g.nodes_of("batch::select_assign")

    def test_copy_loop_is_one_window_store(self):
        g, outcomes = _outcomes(copy_rows)
        assert outcomes == [("lowered", 0)]
        assert len(g.nodes_of("batch::select_assign")) == 1

    def test_affine_fill_keeps_its_trips(self):
        """``y[i, i + 1:] = c`` writes a window whose start moves with
        ``i`` inside the row ``i`` selects: no rule stores it at once."""
        g, outcomes = _outcomes(affine_fill)
        assert outcomes == [("per trip", 0)]
        (loop,) = g.nodes_of("prim::Loop")
        assert loop.attrs["horizontal"]

    @pytest.mark.parametrize("fn", [entry_ranks_differ, unsqueezed_product])
    def test_ranks_that_differ_per_trip_are_lowered(self, fn):
        g, outcomes = _outcomes(fn)
        assert [o for o, _ in outcomes] == ["lowered"]

    def test_half_independent_body_fissioned(self):
        g, outcomes = _outcomes(half_independent)
        (loop,) = _horizontal(g)
        # x[:, i] (a slice and a select), mul, clamp, unsqueeze
        assert outcomes == [("fissioned", 5)]
        body_ops = {n.op for n in loop.blocks[0].nodes}
        assert "aten::clamp" not in body_ops and "aten::mul" not in body_ops
        assert loop.attrs["horizontal"]

    def test_fissioned_loop_runs_in_chunks(self):
        """The hoisted slice runs ``CHUNK`` trips at a time, inside an
        outer loop over the chunks: what it holds is bounded by
        ``CHUNK`` trips' values whatever the trip count."""
        g, _ = _outcomes(half_independent)
        outer = [n for n in g.nodes_of("prim::Loop")
                 if not n.attrs.get("horizontal")]
        assert len(outer) == 1
        inner = outer[0].blocks[0].nodes
        assert [n.op for n in inner].count("batch::select") == 1
        assert _horizontal(g)[0].owning_block is outer[0].blocks[0]

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 3])
    def test_chunks_bit_exact_with_eager(self, n):
        assert [o for o, _ in _outcomes(running_sum)[1]] == ["fissioned"]
        _same(running_sum, _x(rows=3, cols=2 * CHUNK + 5, seed=n), n)

    @pytest.mark.parametrize("fn", [transcendental, carried_read])
    def test_no_rule_leaves_the_loop_exactly_as_it_is(self, fn):
        """``tanh`` has no batching rule (another layout may take
        another SIMD path); a trip that reads the previous trip's row
        depends on it.  Either way the body is untouched: the loop only
        gains its ``horizontal`` mark."""
        g = _prepared(fn)
        before = print_graph(g)
        parallelize_loops(g)
        assert print_graph(g) == before.replace(
            "prim::Loop(", "prim::Loop[horizontal=True](")
        assert [o.outcome for o in g.loop_outcomes] == ["per trip"]

    @pytest.mark.parametrize("fn", [column_map, copy_rows, affine_fill,
                                    half_independent, transcendental,
                                    carried_read])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_bit_exact_with_eager(self, fn, n):
        _same(fn, _x(), n)

    @pytest.mark.parametrize("fn", [entry_ranks_differ, unsqueezed_product])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_map_operands_broadcast_as_one_trip(self, fn, n):
        """A ``(T, 1, C)`` stack against a ``(T, C)`` one is ``(T, 1, C)``
        — never ``(T, T, C)``: a map row's operands only gain dims."""
        rng = np.random.RandomState(n)
        a = rt.from_numpy(rng.uniform(-1, 1, (4, 1, 6)).astype(np.float32))
        b = rt.from_numpy(rng.uniform(-1, 1, (4, 6)).astype(np.float32))
        _same(fn, a, b, n)


class TestErrors:
    """A window past the dimension raises the first failing trip's
    ``IndexError``, word for word, compiled as eagerly."""

    @staticmethod
    def _raises(fn, *args):
        with pytest.raises(IndexError) as eager:
            fn(*clone_args(args))
        compiled = TensorSSAPipeline().compile(fn)
        with pytest.raises(IndexError) as got:
            compiled(*clone_args(args))
        assert str(got.value) == str(eager.value)
        return str(eager.value)

    def test_select_window_past_the_dim(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[:, i + 4] = x[:, i + 4] * 2.0
            return y
        assert not TensorSSAPipeline().compile(f).graph.nodes_of("prim::Loop")
        assert self._raises(f, _x(), 3) == \
            "select index 6 out of range for size 6"
        _same(f, _x(), 2)

    def test_per_trip_fill_rows_past_the_dim(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i + 3, i:] = 1.0
            return y
        assert self._raises(f, _x(), 3) == \
            "select index 4 out of range for size 4"
        _same(f, _x(), 1)

    def test_hoisted_window_past_the_dim(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                t = x[:, i + 3] * 2.0
                y[:, i + 1:] = y[:, i + 1:] + t.unsqueeze(1)
            return y
        assert self._raises(f, _x(), 4) == \
            "select index 6 out of range for size 6"

    def test_store_of_an_entry_with_an_extra_dim(self):
        """Per trip a ``(1, C)`` sum stored into a ``(C,)`` row: eager's
        ``copy_`` does not drop the size-1 dim, and neither does the one
        store of the whole window."""
        def f(a, b, n: int):
            y = b.clone()
            for i in range(n):
                y[i] = a[i] + b[i]
            return y
        a = rt.from_numpy(np.ones((4, 1, 6), np.float32))
        b = rt.from_numpy(np.ones((4, 6), np.float32))
        compiled = TensorSSAPipeline().compile(f)
        assert [o.outcome for o in compiled.graph.loop_outcomes] \
            == ["lowered"]
        with pytest.raises(ValueError):
            f(*clone_args((a, b)), 3)
        with pytest.raises(ValueError):
            compiled(*clone_args((a, b)), 3)
        _same(f, a, b, 0)

    def test_zero_trips_check_nothing(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[:, i + 9] = x[:, i + 9] * 2.0
            return y
        _same(f, _x(), 0)

    def test_zero_trips_run_no_hoisted_slice(self):
        """A body no trip could run — its window is past the dim and its
        operands do not broadcast — returns at zero trips, compiled as
        eagerly: the hoisted slice runs only when there are trips."""
        def f(x, z, n: int):
            y = x.clone()
            for i in range(n):
                t = x[:, i + 9] + z[:, i]
                y[:, i + 1:] = y[:, i + 1:] + t.unsqueeze(1)
            return y
        compiled = TensorSSAPipeline().compile(f)
        assert [o.outcome for o in compiled.graph.loop_outcomes] \
            == ["fissioned"]
        z = _x(rows=3)
        _same(f, _x(), z, 0)
        with pytest.raises(IndexError):
            f(_x(), z, 2)
        with pytest.raises(IndexError):
            compiled(_x(), z, 2)


class TestWorkloads:
    def test_ssd_forward_keeps_no_loop(self):
        graph = TensorSSAPipeline().compile(get_workload("ssd").model_fn).graph
        assert not graph.nodes_of("prim::Loop")
        assert [o.outcome for o in graph.loop_outcomes] == ["lowered"]

    def test_attention_mask_keeps_its_trips(self):
        """The causal mask's window starts at ``t + 1`` inside row
        ``t``: it stays one horizontal loop, as before loop batching."""
        fn = get_workload("attention").model_fn
        on = TensorSSAPipeline().compile(fn).graph
        off = TensorSSAPipeline(horizontal=False).compile(fn).graph
        assert [o.outcome for o in on.loop_outcomes] == ["per trip"]
        assert len(on.nodes_of("prim::Loop")) \
            == len(off.nodes_of("prim::Loop")) == 1

    @pytest.mark.parametrize("workload", ["yolov3", "fcos"])
    def test_nms_body_keeps_no_iou(self, workload):
        """The IoU against box ``i`` reads no carried value: it runs
        once for every ``i`` and the loop keeps the suppression update."""
        graph = TensorSSAPipeline().compile(
            get_workload(workload).model_fn).graph
        (loop,) = _horizontal(graph)
        body = {n.op for n in loop.blocks[0].walk()}
        assert not body & {"aten::div", "aten::clamp"}
        assert [o.outcome for o in graph.loop_outcomes] == ["fissioned"]

    @pytest.mark.parametrize("workload", ["yolact", "lstm", "nasrnn",
                                          "seq2seq"])
    def test_graph_unchanged_without_a_batchable_loop(self, workload):
        fn = get_workload(workload).model_fn
        on = TensorSSAPipeline().compile(fn).graph
        off = TensorSSAPipeline(horizontal=False).compile(fn).graph
        assert print_graph(on) == print_graph(off)

    def test_attention_seq_len_one_is_zero_trips(self):
        wl = get_workload("attention")
        args = wl.make_inputs(batch_size=2, seq_len=1, seed=0)
        want = wl.model_fn(*clone_args(args))
        got = TensorSSAPipeline().compile(wl.model_fn)(*clone_args(args))
        assert rt.bit_exact(got, want)


class TestBatchTable:
    def test_every_rule_names_a_row(self):
        assert set(BATCH) <= set(KERNELS)

    def test_no_rule_for_rows_that_round_differently(self):
        for name in ("aten::exp", "aten::log", "aten::tanh", "aten::sigmoid",
                     "aten::pow", "aten::matmul", "aten::sum"):
            assert name not in BATCH

    def test_trip_align_pads_after_the_trip_axis(self):
        stack = np.arange(6.0).reshape(3, 2)       # 3 trips of (2,)
        like = np.zeros((4, 2))                    # one trip's (4, 2)
        align = KERNELS["batch::align"].kernel
        assert align(stack, like, False).shape == (3, 1, 2)
        assert align(stack, np.zeros((3, 4, 2)), True).shape == (3, 1, 2)
        # a map row's operand never loses a dim
        lifted = np.zeros((3, 1, 2))
        assert align(lifted, stack, True).shape == (3, 1, 2)

    def test_trip_fit_pads_and_zero_trips_store_nothing(self):
        fit = KERNELS["batch::fit"].kernel
        window = np.zeros((3, 4, 2))               # 3 trips' (4, 2)
        assert fit(np.zeros((3, 2)), window).shape == (3, 1, 2)
        # zero trips store nothing, whatever the stack
        empty = KERNELS["batch::select"].kernel(window, 5, 9, 0)
        assert fit(np.zeros((7, 7)), empty).shape == (0,)

"""DCE, CSE, and constant folding."""

import numpy as np
import pytest

import repro.runtime as rt
from conftest import corpus_functions
from repro.backend import run_graph
from repro.frontend import script
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import materialize
from repro.grad import build_backward
from repro.ir import Graph, clone_graph, parse_graph, print_graph, verify
from repro.ir import types as T
from repro.models import get_workload, workload_names
from repro.passes import constant_fold, cse, dce
from repro.passes.dce import _sweep_block
from repro.pipelines import get_pipeline
from repro.tensorssa import convert_to_tensorssa


class TestDCE:
    def test_removes_unused_pure_node(self):
        g = Graph()
        x = g.add_input("x", T.TensorType())
        dead = g.create("aten::neg", [x], ["d"], [T.TensorType()])
        g.block.append(dead)
        live = g.create("aten::exp", [x], ["l"], [T.TensorType()])
        g.block.append(live)
        g.add_output(live.output())
        assert dce(g)
        assert [n.op for n in g.block.nodes] == ["aten::exp"]
        verify(g)

    def test_removes_dead_chains(self):
        g = Graph()
        x = g.add_input("x", T.TensorType())
        a = g.create("aten::neg", [x], ["a"], [T.TensorType()])
        g.block.append(a)
        b = g.create("aten::exp", [a.output()], ["b"], [T.TensorType()])
        g.block.append(b)
        g.add_output(x)
        dce(g)
        assert not g.block.nodes
        verify(g)

    def test_keeps_mutating_nodes(self):
        def f(x):
            x[0] = 1.0  # result unused, but effect visible to caller
            return 0
        g = clone_graph(script(f).graph)
        dce(g)
        assert any(n.schema.is_mutating for n in g.walk())

    def test_prunes_dead_loop_carry(self):
        def f(x, n: int):
            unused = x * 1.0
            keep = x * 2.0
            for i in range(n):
                unused = unused + 1.0
                keep = keep + 1.0
            return keep
        g = clone_graph(script(f).graph)
        loop = g.nodes_of("prim::Loop")[0]
        carried_before = len(loop.inputs) - 2
        dce(g)
        loop = g.nodes_of("prim::Loop")[0]
        assert len(loop.inputs) - 2 < carried_before
        verify(g)
        out = run_graph(g, [rt.tensor([1.0]), 3])[0]
        assert out.item() == 5.0

    def test_prunes_dead_if_output(self):
        def f(x, flag: bool):
            if flag:
                a, b = x + 1.0, x + 2.0
            else:
                a, b = x - 1.0, x - 2.0
            return a
        g = clone_graph(script(f).graph)
        dce(g)
        branch = g.nodes_of("prim::If")[0]
        assert len(branch.outputs) == 1
        verify(g)
        assert run_graph(g, [rt.tensor([1.0]), True])[0].item() == 2.0


def _converted(fn):
    """A freshly functionalized graph: the re-access chains DCE exists to
    clean (paper §4.1.3), not yet touched by any cleanup pass."""
    g = clone_graph(script(fn).graph)
    convert_to_tensorssa(g)
    return g


def _fixed_point_cases():
    fns = [(m, get_workload(m).model_fn) for m in workload_names()]
    fns += corpus_functions()
    for name, fn in fns:
        yield pytest.param(lambda fn=fn: _converted(fn),
                           id=f"{name}-converted")
        yield pytest.param(
            lambda fn=fn: get_pipeline("tensorssa").compile(fn).graph,
            id=f"{name}-compiled")
    for name in ("lstm", "attention"):
        fn = get_workload(name).model_fn
        yield pytest.param(lambda fn=fn: build_backward(fn)[1],
                           id=f"{name}-backward")


class TestDCEFixedPoint:
    """``dce`` stops at a real fixed point: a second run removes
    nothing, so it may stop sweeping once its prunes find nothing."""

    def test_dead_if_takes_its_operands_in_one_sweep(self):
        g = parse_graph("""
graph g(%c.0 : Bool, %x.0 : Tensor):
  %v.0 = aten::neg(%x.0)
  %o.0 = prim::If(%c.0)
    block0():
      %p.0 = aten::exp(%v.0)
      -> (%p.0)
    block1():
      %q.0 = aten::neg(%x.0)
      -> (%q.0)
  return (%x.0)
""")
        # %v.0's only reader sits inside the dead If: it dies in the
        # same sweep, not in a second one
        assert _sweep_block(g.block)
        assert g.block.nodes == []
        verify(g)

    def test_dead_if_takes_the_values_its_branches_return(self):
        g = parse_graph("""
graph g(%c.0 : Bool, %x.0 : Tensor):
  %v.0 = aten::neg(%x.0)
  %o.0 = prim::If(%c.0)
    block0():
      -> (%v.0)
    block1():
      -> (%x.0)
  return (%x.0)
""")
        # %v.0's only use is a return of the dead If's branch: it dies in
        # the same sweep, and no branch leaves a use record on %x.0
        assert _sweep_block(g.block)
        assert g.block.nodes == []
        assert [(u.user, u.index) for u in g.inputs[1].uses] == \
            [(g.block, 0)]
        verify(g)

    @staticmethod
    def _assert_idempotent(g):
        text = print_graph(g)
        assert dce(g) is False
        assert print_graph(g) == text

    @pytest.mark.parametrize("make", list(_fixed_point_cases()))
    def test_second_dce_finds_nothing(self, make):
        g = make()
        dce(g)
        self._assert_idempotent(g)

    def test_second_dce_finds_nothing_on_fuzz_programs(self):
        for seed in range(100):
            program = generate_program(seed)
            g = _converted(materialize(program.source, program.name))
            dce(g)
            self._assert_idempotent(g)


class TestCSE:
    def test_dedupes_identical_pure_ops(self):
        def f(x):
            a = x * 2.0
            b = x * 2.0
            return a + b
        g = clone_graph(script(f).graph)
        before = len(g.nodes_of("aten::mul"))
        cse(g)
        assert len(g.nodes_of("aten::mul")) < before
        verify(g)
        assert run_graph(g, [rt.tensor([3.0])])[0].item() == 12.0

    def test_dedupes_constants(self):
        g = Graph()
        x = g.add_input("x", T.TensorType())
        c1, c2 = g.constant(5), g.constant(5)
        g.block.append(c1)
        g.block.append(c2)
        a = g.create("aten::add", [x, c1.output()], ["a"], [T.TensorType()])
        g.block.append(a)
        b = g.create("aten::add", [x, c2.output()], ["b"], [T.TensorType()])
        g.block.append(b)
        g.add_output(a.output())
        g.add_output(b.output())
        cse(g)
        dce(g)
        consts = g.nodes_of("prim::Constant")
        assert len(consts) == 1
        verify(g)

    def test_does_not_merge_across_payload_types(self):
        g = Graph()
        c1, c2 = g.constant(1), g.constant(True)
        g.block.append(c1)
        g.block.append(c2)
        lst = g.create("prim::ListConstruct",
                       [c1.output(), c2.output()], ["l"], [T.ListType()])
        g.block.append(lst)
        g.add_output(lst.output())
        cse(g)
        assert len(g.nodes_of("prim::Constant")) == 2

    def test_never_dedupes_mutating_ops(self):
        def f(x):
            x.add_(1.0)
            x.add_(1.0)
            return x
        g = clone_graph(script(f).graph)
        cse(g)
        assert len(g.nodes_of("aten::add_")) == 2


class TestConstantFold:
    def test_folds_scalar_arithmetic(self):
        def f(x):
            k = 3 * 4 + 2
            return x * float(k)
        g = clone_graph(script(f).graph)
        constant_fold(g)
        dce(g)
        assert not g.nodes_of("prim::mul", "prim::add")
        assert run_graph(g, [rt.tensor([1.0])])[0].item() == 14.0

    def test_folds_comparisons(self):
        def f(x, n: int):
            if 3 > 2:
                y = x + 1.0
            else:
                y = x - 1.0
            return y
        g = clone_graph(script(f).graph)
        folded = constant_fold(g)
        assert folded
        verify(g)

    def test_leaves_dynamic_ops(self):
        def f(x, n: int):
            return x * float(n + 1)
        g = clone_graph(script(f).graph)
        constant_fold(g)
        assert g.nodes_of("prim::add")  # n is dynamic

    def test_fold_division_by_zero_is_left_alone(self):
        g = Graph()
        c0 = g.constant(0)
        c1 = g.constant(1)
        g.block.append(c0)
        g.block.append(c1)
        div = g.create("prim::floordiv", [c1.output(), c0.output()],
                       ["d"], [T.IntType()])
        g.block.append(div)
        g.add_output(div.output())
        constant_fold(g)  # must not raise
        assert g.nodes_of("prim::floordiv")


class TestCSESoundness:
    def test_no_merge_across_mutation(self):
        """Regression (found by hypothesis): identical reads straddling
        a mutation of their storage must stay distinct."""
        def f(x):
            y = x.clone()
            a = y * 1.0      # reads pre-mutation data
            y[0] = 0.0
            b = y * 1.0      # reads post-mutation data
            return a, b
        g = clone_graph(script(f).graph)
        cse(g)
        x = rt.tensor([5.0, 6.0])
        a, b = run_graph(g, [x])
        assert a.numpy()[0] == 5.0
        assert b.numpy()[0] == 0.0

    def test_view_dedup_across_mutation_is_fine(self):
        def f(x):
            y = x.clone()
            v1 = y.select(0, 0)
            y.add_(1.0)
            v2 = y.select(0, 0)  # aliases the same storage: mergeable
            return v1 + v2
        g = clone_graph(script(f).graph)
        cse(g)
        got = run_graph(g, [rt.tensor([1.0, 2.0])])[0]
        expected = f(rt.tensor([1.0, 2.0]))
        np.testing.assert_allclose(got.numpy(), expected.numpy())

    def test_scalar_entries_survive_mutation(self):
        def f(x, n: int):
            a = n * 2
            x.add_(1.0)
            b = n * 2
            return x * float(a + b)
        g = clone_graph(script(f).graph)
        cse(g)
        assert len(g.nodes_of("prim::mul")) == 1

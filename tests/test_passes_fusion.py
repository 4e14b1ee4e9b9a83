"""Vertical fusion: group formation rules and execution equivalence."""

import numpy as np

import repro.runtime as rt
from repro.backend import run_graph
from repro.backend.codegen import member_ops
from repro.frontend import script
from repro.ir import clone_graph, verify
from repro.passes import FuserConfig, FuserConfig as FC, fuse
from repro.tensorssa import convert_to_tensorssa
from repro.passes import dce


def scripted(fn):
    return clone_graph(script(fn).graph)


def elementwise_chain(x):
    return ((x * 2.0 + 1.0).sigmoid() - 0.5).relu()


def chain_with_matmul(x, w):
    a = x * 2.0 + 1.0
    b = a @ w
    return (b - 0.5).relu()


def mutation_between(x):
    a = x * 2.0
    x.add_(1.0)       # barrier: x's storage changes
    b = x * 3.0       # must NOT fuse with `a`'s group
    return a + b


def views_in_chain(x):
    return x.select(0, 0) * 2.0 + x.select(0, 1)


class TestGroupFormation:
    def test_elementwise_chain_fuses_to_one_group(self):
        g = scripted(elementwise_chain)
        n = fuse(g, FuserConfig(name="t"))
        assert n == 1
        group = g.nodes_of("prim::FusionGroup")[0]
        assert member_ops(group.blocks[0].nodes) == 5
        verify(g)

    def test_matmul_splits_groups(self):
        g = scripted(chain_with_matmul)
        fuse(g, FuserConfig(name="t"))
        groups = g.nodes_of("prim::FusionGroup")
        assert len(groups) == 2
        assert not g.nodes_of("aten::matmul")[0].op == "prim::FusionGroup"

    def test_mutation_is_barrier(self):
        g = scripted(mutation_between)
        fuse(g, FuserConfig(name="t"))
        for group in g.nodes_of("prim::FusionGroup"):
            member_ops = [n.op for n in group.blocks[0].nodes]
            # `a`'s chain and `b`'s chain stay apart
            assert not ("aten::mul" in member_ops
                        and member_ops.count("aten::mul") > 1)

    def test_views_not_fused_without_flag(self):
        g = scripted(views_in_chain)
        fuse(g, FuserConfig(name="t", fuse_views=False))
        assert g.nodes_of("aten::select")  # still standalone

    def test_views_fused_with_flag_when_pure(self):
        g = scripted(views_in_chain)
        fuse(g, FuserConfig(name="t", fuse_views=True))
        top_selects = [n for n in g.block.nodes if n.op == "aten::select"]
        assert not top_selects  # absorbed into the group body

    def test_views_not_fused_in_mutating_block_even_with_flag(self):
        g = scripted(mutation_between)
        fuse(g, FuserConfig(name="t", fuse_views=True))
        # the block still mutates -> effective fuse_views must be off;
        # correctness double-checked by execution below
        x = rt.tensor([1.0, 2.0])
        expected = mutation_between(rt.tensor([1.0, 2.0]))
        got = run_graph(g, [x])[0]
        np.testing.assert_allclose(got.numpy(), expected.numpy())

    def test_min_group_size(self):
        def single(x):
            return x + 1.0
        g = scripted(single)
        assert fuse(g, FuserConfig(name="t")) == 0

    def test_max_group_size_splits(self):
        def long_chain(x):
            y = x
            y = y + 1.0
            y = y + 2.0
            y = y + 3.0
            y = y + 4.0
            y = y + 5.0
            y = y + 6.0
            return y
        g = scripted(long_chain)
        n = fuse(g, FuserConfig(name="t", max_group_size=2))
        assert n == 3

    def test_excluded_ops(self):
        g = scripted(elementwise_chain)
        fuse(g, FuserConfig(name="t", excluded_ops={"aten::sigmoid"}))
        assert g.nodes_of("aten::sigmoid")

    def test_group_of_only_views_not_materialized(self):
        def only_views(x):
            return x.select(0, 0).unsqueeze(0)
        g = scripted(only_views)
        assert fuse(g, FuserConfig(name="t", fuse_views=True)) == 0


class TestFusedExecution:
    def check(self, fn, *args, config=None):
        g = scripted(fn)
        fuse(g, config or FC(name="t"))
        verify(g)
        cloned = [a.clone() if isinstance(a, rt.Tensor) else a
                  for a in args]
        expected = fn(*cloned)
        got = run_graph(g, [a.clone() if isinstance(a, rt.Tensor) else a
                            for a in args])
        exp = list(expected) if isinstance(expected, tuple) else [expected]
        for gv, ev in zip(got, exp):
            np.testing.assert_allclose(gv.numpy(), ev.numpy(), rtol=1e-5)

    def test_chain(self):
        self.check(elementwise_chain, rt.randn((8,), seed=1))

    def test_with_matmul(self):
        self.check(chain_with_matmul, rt.randn((4, 4), seed=2),
                   rt.randn((4, 4), seed=3))

    def test_fused_group_is_single_launch(self):
        g = scripted(elementwise_chain)
        fuse(g, FC(name="t"))
        x = rt.randn((8,), seed=4)
        with rt.profile() as prof:
            run_graph(g, [x])
        assert prof.num_launches == 1
        assert prof.events[0].fused_ops == 5

    def test_post_conversion_fusion_handles_assigns(self):
        def f(x):
            y = x.clone()
            y[0] = y[1] * 2.0
            y[1] = y[0] + 1.0
            return y
        g = scripted(f)
        convert_to_tensorssa(g)
        dce(g)
        fuse(g, FC(name="t", fuse_views=True))
        verify(g)
        expected = f(rt.tensor([1.0, 2.0, 3.0]))
        got = run_graph(g, [rt.tensor([1.0, 2.0, 3.0])])[0]
        np.testing.assert_allclose(got.numpy(), expected.numpy())

    def test_group_output_does_not_alias_inputs(self):
        def f(x):
            return x.select(0, 0) * 1.0 + 0.0
        g = scripted(f)
        fuse(g, FC(name="t", fuse_views=True))
        x = rt.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = run_graph(g, [x])[0]
        x.fill_(0.0)
        assert out.numpy().tolist() == [1.0, 2.0]

"""Unit tests for the mutation-conventions verifier.

``verify_mutations`` is the post-pipeline check the fuzzing oracle runs
on every compiled graph; here each rule is exercised in isolation with
hand-built violating graphs.
"""

import pytest

from repro.ir import types as T
from repro.ir import verify_mutations
from repro.ir.graph import Graph, Node
from repro.ir.verifier import VerificationError
from repro.ops import registry as ops
from repro.ops.schema import OpKind, OpSchema


def _graph_with_input(name="x"):
    g = Graph("t")
    x = g.add_input(name, T.TensorType())
    return g, x


class TestAlwaysEnforced:
    def test_clean_graph_passes_both_modes(self):
        g, x = _graph_with_input()
        relu = g.create("aten::relu", [x], ["y"], [T.TensorType()])
        g.block.append(relu)
        g.add_output(relu.output())
        verify_mutations(g)
        verify_mutations(g, strict=True)

    def test_surviving_tssa_update_rejected(self):
        g, x = _graph_with_input()
        clone = g.create("aten::clone", [x], ["y"], [T.TensorType()])
        g.block.append(clone)
        upd = g.create("tssa::update", [clone.output(), x], [], [])
        g.block.append(upd)
        with pytest.raises(VerificationError, match="tssa::update"):
            verify_mutations(g)

    def test_unregistered_immut_op_rejected(self):
        g, x = _graph_with_input()
        # Graph.create validates against the registry, so a bogus op has
        # to be assembled by hand — exactly what a broken pass would do.
        node = Node("immut::bogus_access", g)
        node.add_input(x)
        node.add_output("y", T.TensorType())
        g.block.append(node)
        with pytest.raises(VerificationError, match="unregistered"):
            verify_mutations(g)

    def test_immut_op_with_aliasing_kind_rejected(self):
        name = "immut::bogus_assign"
        ops.register(OpSchema(name, OpKind.MUTATING, fn=lambda t: t))
        try:
            g, x = _graph_with_input()
            node = g.create(name, [x], ["y"], [T.TensorType()])
            g.block.append(node)
            with pytest.raises(VerificationError, match="must be pure"):
                verify_mutations(g)
        finally:
            del ops.REGISTRY[name]

    def test_mutation_of_constant_buffer_rejected(self):
        g, x = _graph_with_input()
        c = g.constant(1.0)
        g.block.append(c)
        store = g.create("aten::copy_", [c.output(), x], ["w"],
                         [T.TensorType()])
        g.block.append(store)
        with pytest.raises(VerificationError, match="constant"):
            verify_mutations(g)

    def test_mutation_through_view_of_constant_rejected(self):
        """The alias root is followed through VIEW producers."""
        g, x = _graph_with_input()
        c = g.constant(1.0)
        g.block.append(c)
        dim = g.constant(0, name="d")
        g.block.append(dim)
        view = g.create("aten::select",
                        [c.output(), dim.output(), dim.output()],
                        ["v"], [T.TensorType()])
        g.block.append(view)
        store = g.create("aten::copy_", [view.output(), x], ["w"],
                         [T.TensorType()])
        g.block.append(store)
        with pytest.raises(VerificationError, match="constant"):
            verify_mutations(g)


class TestStrictMode:
    def test_input_mutation_passes_lenient_fails_strict(self):
        g, x = _graph_with_input()
        y = g.add_input("y", T.TensorType())
        store = g.create("aten::copy_", [x, y], ["w"], [T.TensorType()])
        g.block.append(store)
        verify_mutations(g)  # lenient: partial functionalization is fine
        with pytest.raises(VerificationError, match="locally-owned"):
            verify_mutations(g, strict=True)

    def test_mutation_through_view_of_input_fails_strict(self):
        g, x = _graph_with_input()
        dim = g.constant(0, name="d")
        g.block.append(dim)
        view = g.create("aten::select", [x, dim.output(), dim.output()],
                        ["v"], [T.TensorType()])
        g.block.append(view)
        store = g.create("aten::copy_", [view.output(), x], ["w"],
                         [T.TensorType()])
        g.block.append(store)
        with pytest.raises(VerificationError, match="locally-owned"):
            verify_mutations(g, strict=True)

    def test_revert_style_mutation_passes_strict(self):
        """clone + copy_ in one block is the exact shape the revert pass
        introduces — strict mode must keep accepting it."""
        g, x = _graph_with_input()
        clone = g.create("aten::clone", [x], ["y"], [T.TensorType()])
        g.block.append(clone)
        store = g.create("aten::copy_", [clone.output(), x], ["w"],
                         [T.TensorType()])
        g.block.append(store)
        g.add_output(clone.output())
        verify_mutations(g, strict=True)

    def test_cross_block_mutation_fails_strict(self):
        """A nested block mutating a buffer owned by the enclosing block
        is not revert-style: the revert pass proves locality within one
        block only."""
        g, x = _graph_with_input()
        flag = g.add_input("flag", T.BoolType())
        clone = g.create("aten::clone", [x], ["y"], [T.TensorType()])
        g.block.append(clone)
        cond = g.create("prim::If", [flag], [], [])
        then_block = cond.add_block()
        cond.add_block()
        store = g.create("aten::copy_", [clone.output(), x], ["w"],
                         [T.TensorType()])
        then_block.append(store)
        g.block.append(cond)
        verify_mutations(g)  # lenient is satisfied
        with pytest.raises(VerificationError, match="locally-owned"):
            verify_mutations(g, strict=True)

    def test_in_place_write_of_carried_param_fails_strict(self):
        """A loop body that ``copy_``s into its carried param and hands
        the param itself to the next trip, seeded by a loop-local clone
        only the loop reads: a loop-carried write goes in place only as
        a fusion kernel's store into a donated buffer, never as an IR
        mutation."""
        g, x = _graph_with_input()
        n = g.add_input("n", T.IntType())
        true = g.constant(True)
        g.block.append(true)
        clone = g.create("aten::clone", [x], ["y"], [T.TensorType()])
        g.block.append(clone)
        loop = g.create("prim::Loop", [n, true.output(), clone.output()])
        g.block.append(loop)
        body = loop.add_block()
        body.add_param("i", T.IntType())
        carried = body.add_param("y", T.TensorType())
        store = g.create("aten::copy_", [carried, x], ["w"],
                         [T.TensorType()])
        body.append(store)
        body.add_return(true.output())
        body.add_return(carried)
        g.add_output(loop.add_output("y", T.TensorType()))
        verify_mutations(g)  # lenient is satisfied
        with pytest.raises(VerificationError, match="locally-owned"):
            verify_mutations(g, strict=True)


class TestPipelineIntegration:
    def test_fully_functionalized_graph_survives_strict(self):
        from repro.pipelines.registry import get_pipeline
        import repro.runtime as rt
        import numpy as np

        def f(x):
            y = x.clone()
            y.add_(1.0)
            y[0] = y[1] * 2.0
            return y

        pipe = get_pipeline("tensorssa")
        compiled = pipe.compile(
            f, example_args=(rt.from_numpy(
                np.ones((4, 6), dtype=np.float32)),))
        stats = getattr(compiled, "stats", {}) or {}
        strict = stats.get("skipped_mutations", 0) == 0
        verify_mutations(compiled.graph, strict=strict)

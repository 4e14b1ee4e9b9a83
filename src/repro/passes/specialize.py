"""Shape specialization (tracing-compiler behaviour).

TorchDynamo specializes each compiled graph on the example inputs'
shapes (guards re-check them per call).  This pass folds
``aten::size(input, dim)`` / ``aten::numel`` / ``aten::dim`` queries on
*graph inputs* into constants, which in turn makes loop trip counts
constant and unrollable.  Scripted pipelines (TorchScript, TensorSSA)
deliberately do **not** run it — they stay shape-generic, as in PyTorch.

A folded constant is only correct at the example shapes, which is why
the compile cache keys a specializing pipeline's artifact on the
inputs' shape signature (``Pipeline.needs_example_inputs``): another
shape is a miss that recompiles, never a wrong replay.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.graph import Graph
from ..runtime.tensor import Tensor


def specialize_shapes(graph: Graph, example_args: Sequence[object]) -> int:
    """Fold input shape queries given example arguments; returns the
    number of folded nodes."""
    shapes = {}
    for param, arg in zip(graph.inputs, example_args):
        if isinstance(arg, Tensor):
            shapes[id(param)] = arg.shape
        elif isinstance(arg, (int, bool)):
            shapes[id(param)] = arg  # scalar inputs specialize too
    folded = 0
    for node in list(graph.walk()):
        value = None
        if node.op == "aten::size" and node.inputs and \
                id(node.input(0)) in shapes:
            shape = shapes[id(node.input(0))]
            dim_v = node.input(1) if len(node.inputs) > 1 else None
            if dim_v is not None and dim_v.node is not None and \
                    dim_v.node.op == "prim::Constant" and \
                    isinstance(shape, tuple):
                value = shape[dim_v.node.attrs["value"]]
        elif node.op == "aten::numel" and id(node.input(0)) in shapes:
            shape = shapes[id(node.input(0))]
            if isinstance(shape, tuple):
                value = 1
                for s in shape:
                    value *= s
        elif node.op == "aten::dim" and id(node.input(0)) in shapes:
            shape = shapes[id(node.input(0))]
            if isinstance(shape, tuple):
                value = len(shape)
        if value is None:
            continue
        const = graph.constant(value)
        node.owning_block.insert_before(node, const)
        node.output().replace_all_uses_with(const.output())
        node.destroy()
        folded += 1
    # specialize *scalar* graph inputs (Dynamo guards on int args)
    for param, arg in zip(graph.inputs, example_args):
        if isinstance(arg, (int, bool)) and not isinstance(arg, Tensor) \
                and param.uses:
            const = graph.constant(arg)
            graph.block.insert(0, const)
            param.replace_all_uses_with(const.output())
            folded += 1
    return folded

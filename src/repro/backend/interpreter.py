"""Reference interpreter for graph-level IR.

Executes nodes against the imperative runtime, so an *unoptimized*
scripted graph performs exactly the kernel launches eager mode does —
which is the correct baseline semantics for TorchScript-style pipelines.
Fusion groups execute through their compiled kernel (one launch) when
the fuser attached one, else fall back to interpreting their body.

Host-side dispatch work is recorded per node via
``profiler.record_python`` so the analytical cost model can charge
interpreter overhead (and, for TorchDynamo-style pipelines, graph-break
overhead).

This walk is the *reference* semantics: the unplanned pipelines execute
it and the lowered program is tested against it.  Given a memory plan,
:func:`run_graph` runs :mod:`repro.backend.program`'s generated function.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..ir.graph import Block, Graph, Node, Value
from ..ops import registry
from ..runtime import profiler


class InterpreterError(RuntimeError):
    """Raised on malformed graphs or arity mismatches during interpretation."""


Env = Dict[int, object]


def _read(env: Env, value: Value):
    try:
        return env[id(value)]
    except KeyError:
        raise InterpreterError(
            f"value %{value.name} read before definition") from None


def run_block(block: Block, env: Env) -> List[object]:
    """Execute a block's nodes in ``env``; return its return values."""
    for node in block.nodes:
        run_node(node, env)
    return [_read(env, r) for r in block.returns]


def run_node(node: Node, env: Env) -> None:
    """Execute one node, writing its results into ``env``."""
    op = node.op

    if op == "prim::Constant":
        env[id(node.output())] = node.attrs["value"]
        return

    profiler.record_python("interp_op")

    if op == "prim::If":
        profiler.record_python("branch")
        cond = bool(_read(env, node.input(0)))
        branch = node.blocks[0] if cond else node.blocks[1]
        results = run_block(branch, env)
        for out, res in zip(node.outputs, results):
            env[id(out)] = res
        return

    if op == "prim::Loop":
        max_trip = int(_read(env, node.input(0)))
        cond = bool(_read(env, node.input(1)))
        carried = [_read(env, v) for v in node.inputs[2:]]
        if node.attrs.get("horizontal"):
            from ..ir.graph import free_values
            from .fusion_runtime import run_horizontal_loop
            captures = [_read(env, v) for v in free_values(node.blocks[0])]
            results = run_horizontal_loop(node, max_trip, cond, carried,
                                          captures)
            for out, val in zip(node.outputs, results):
                env[id(out)] = val
            return
        body = node.blocks[0]
        i = 0
        while cond and i < max_trip:
            profiler.record_python("loop_iter")
            env[id(body.params[0])] = i
            for p, val in zip(body.params[1:], carried):
                env[id(p)] = val
            results = run_block(body, env)
            cond = bool(results[0])
            carried = results[1:]
            i += 1
        for out, val in zip(node.outputs, carried):
            env[id(out)] = val
        return

    if op == "prim::FusionGroup":
        from .fusion_runtime import execute_group
        results = execute_group(node, [_read(env, v) for v in node.inputs])
        for out, res in zip(node.outputs, results):
            env[id(out)] = res
        return

    if op == "prim::ParallelMap":
        from .fusion_runtime import run_parallel_map
        results = run_parallel_map(node, [_read(env, v)
                                          for v in node.inputs])
        for out, res in zip(node.outputs, results):
            env[id(out)] = res
        return

    if op == "prim::TupleUnpack":
        packed = _read(env, node.input(0))
        if len(node.outputs) > len(packed):
            raise InterpreterError("TupleUnpack arity mismatch")
        for out, res in zip(node.outputs, packed):
            env[id(out)] = res
        return

    if op == "tssa::update":
        raise InterpreterError(
            "tssa::update reached the interpreter; run the rename step of "
            "the TensorSSA conversion before executing")

    schema = registry.get(op)
    if schema.fn is None:
        raise InterpreterError(f"op {op} has no runtime implementation")
    args = [_read(env, v) for v in node.inputs]
    result = schema.fn(*args)
    if schema.num_outputs == 1:
        env[id(node.output())] = result
    else:
        if not isinstance(result, (tuple, list)):
            raise InterpreterError(f"{op} expected {schema.num_outputs} "
                                   f"results")
        for out, res in zip(node.outputs, result):
            env[id(out)] = res


def run_graph(graph: Graph, args: Sequence[object],
              plan=None) -> List[object]:
    """Execute a graph on ``args``; returns its outputs as a list.

    With ``plan`` (a :class:`repro.memplan.MemoryPlan` for this graph),
    the run goes through the plan's lowered program
    (:func:`repro.backend.program.run_planned`): it allocates through a
    fresh :class:`MemoryPool` and releases buffers at the plan's death
    points, so the profiler's ``peak_bytes`` reflects the planned
    working set instead of the sum of all intermediates.
    """
    if len(args) != len(graph.inputs):
        raise InterpreterError(
            f"graph {graph.name} expects {len(graph.inputs)} args, "
            f"got {len(args)}")
    if plan is not None:
        from .program import run_planned
        return run_planned(graph, args, plan)
    env: Env = {}
    for p, a in zip(graph.inputs, args):
        env[id(p)] = a
    return run_block(graph.block, env)

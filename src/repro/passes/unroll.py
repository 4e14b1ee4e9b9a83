"""Loop unrolling for constant trip counts (tracing-compiler behaviour).

TorchDynamo executes Python loops at trace time, so a loop whose trip
count is a compile-time constant appears *unrolled* in the captured
graph.  This pass reproduces that: ``prim::Loop`` nodes with a constant
trip count up to ``max_trip`` and an always-true condition are expanded
in place.  Larger (or dynamic) loops are left intact — those are the
graph breaks the cost model charges Python-interpreter time for.
"""

from __future__ import annotations

from typing import Dict

from ..ir.clone import clone_region
from ..ir.graph import Block, Graph, Value, constant_value, is_for_loop

DEFAULT_MAX_TRIP = 64


def _unroll_block(block: Block, graph: Graph, max_trip: int) -> int:
    count = 0
    for node in list(block.nodes):
        for inner in node.blocks:
            count += _unroll_block(inner, graph, max_trip)
        if node.op != "prim::Loop" or not is_for_loop(node):
            continue
        trip = constant_value(node.input(0))
        if not isinstance(trip, int) or trip > max_trip:
            continue
        body = node.blocks[0]
        carried = list(node.inputs[2:])
        anchor = block.nodes.index(node)
        for i in range(trip):
            vmap: Dict[int, Value] = {}
            iter_const = graph.constant(i)
            block.insert(anchor, iter_const)
            anchor += 1
            vmap[id(body.params[0])] = iter_const.output()
            for p, cur in zip(body.params[1:], carried):
                vmap[id(p)] = cur
            rets, cloned = clone_region(body, block, graph, vmap, at=anchor)
            anchor += len(cloned)
            carried = rets[1:]
        for out, final in zip(node.outputs, carried):
            out.replace_all_uses_with(final)
        node.destroy()
        count += 1
    return count


def unroll_loops(graph: Graph, max_trip: int = DEFAULT_MAX_TRIP) -> int:
    """Unroll static-trip loops; returns how many were expanded."""
    return _unroll_block(graph.block, graph, max_trip)

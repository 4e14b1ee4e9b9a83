"""Deep-cloning of graphs and blocks (pipelines transform private copies)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import Block, Graph, Node, Value, free_values

__all__ = ["clone_graph", "clone_region"]


def _clone_node(node: Node, graph: Graph, vmap: Dict[int, Value]) -> Node:
    """A detached deep copy of ``node`` (the caller places it)."""
    new = Node(node.op, graph)
    new.attrs = dict(node.attrs)
    for v in node.inputs:
        new.add_input(vmap[id(v)])
    for out in node.outputs:
        new_out = new.add_output(out.name.split(".")[0], out.type)
        vmap[id(out)] = new_out
    for block in node.blocks:
        new_block = new.add_block()
        _clone_block_contents(block, new_block, graph, vmap)
    return new


def _clone_block_contents(src: Block, dst: Block, graph: Graph,
                          vmap: Dict[int, Value]) -> None:
    for p in src.params:
        vmap[id(p)] = dst.add_param(p.name.split(".")[0], p.type)
    for node in src.nodes:
        dst.append(_clone_node(node, graph, vmap))
    for r in src.returns:
        dst.add_return(vmap[id(r)])


def clone_region(src: Block, dst: Block, graph: Graph,
                 vmap: Dict[int, Value], at: Optional[int] = None
                 ) -> Tuple[List[Value], List[Node]]:
    """Clone ``src``'s *nodes* into ``dst`` without touching params or
    returns — the primitive the gradient pass uses to re-materialize a
    forward region inside an adjoint block, and loop unrolling to
    splice one trip in place of the loop.

    ``vmap`` must map ``src``'s params to replacement values in the
    destination scope; every other value the region references but
    does not define (a capture) maps to itself unless ``vmap`` already
    maps it.  The clone is appended to ``dst``, or inserted from index
    ``at``.  Returns the values ``src``'s returns map to plus the
    top-level cloned nodes, so the caller can seed return adjoints and
    sweep the clone in reverse.
    """
    for v in free_values(src, deep=True):
        vmap.setdefault(id(v), v)
    cloned = [_clone_node(node, graph, vmap) for node in src.nodes]
    at = len(dst.nodes) if at is None else at
    for k, node in enumerate(cloned):
        dst.insert(at + k, node)
    return [vmap[id(r)] for r in src.returns], cloned


def clone_graph(graph: Graph,
                name: Optional[str] = None) -> Graph:
    """A structurally identical deep copy with fresh Values."""
    new = Graph(name or graph.name)
    vmap: Dict[int, Value] = {}
    _clone_block_contents(graph.block, new.block, new, vmap)
    return new

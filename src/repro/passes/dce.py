"""Dead code elimination.

Removes pure nodes whose outputs are unused, bottom-up, to a fixed
point.  Runs after TensorSSA conversion (the paper applies DCE to clean
the re-access chains, §4.1.3) and after fusion.

One reverse sweep is its own fixed point: inner blocks are swept before
their owner is judged, and a node judged dead takes every node and block
nested in it along, so each input or block-return use that dies with it
is already counted dead when earlier nodes are judged.  Only the
loop-carry and If-output prunes can expose new dead code, so
:func:`dce` sweeps again only after one of them changed something.
"""

from __future__ import annotations

from ..ir.graph import Block, Graph, Node, bulk_destroy
from ..ops.schema import OpKind

#: ops that must never be removed even when their outputs are unused
_ALWAYS_KEEP = set()


def has_side_effects(node: Node) -> bool:
    """Does this node (or anything nested in it) mutate state?"""
    if node.kind is OpKind.MUTATING:
        return True
    if node.op in _ALWAYS_KEEP:
        return True
    for block in node.blocks:
        for inner in block.nodes:
            if has_side_effects(inner):
                return True
    return False


def _sweep_block(block: Block) -> bool:
    changed = False
    dead = []
    # ids of dead nodes and of every node and block nested in one: an
    # input use or a block-return use by any of them dies with it
    dead_ids = set()

    for node in reversed(block.nodes):
        for inner in node.blocks:
            changed |= _sweep_block(inner)
        if has_side_effects(node):
            continue
        if all(id(u.user) in dead_ids for out in node.outputs
               for u in out.uses):
            dead.append(node)
            for n in node.walk():
                dead_ids.add(id(n))
                dead_ids.update(id(b) for b in n.blocks)
    if dead:
        bulk_destroy(dead)
        changed = True
    return changed


def _live_values_in_loop(node) -> set:
    """Backward liveness over a loop body: values reachable from the
    continue-condition, from carried slots whose outputs are used, and
    from side-effecting nodes.  Dead return slots are exactly those not
    in this set."""
    body = node.blocks[0]
    live = set()
    stack = []

    def mark(v) -> None:
        if id(v) not in live:
            live.add(id(v))
            stack.append(v)

    mark(body.returns[0])
    for k, out in enumerate(node.outputs):
        if out.uses:
            mark(body.returns[1 + k])
    for inner in body.walk():
        if inner.schema.kind is OpKind.MUTATING:
            for v in inner.inputs:
                mark(v)
    while stack:
        v = stack.pop()
        producer = v.node
        if producer is None:
            # a loop body param (of this loop or a nested one): the
            # matching carried return feeds it next iteration
            pb = v.param_block
            owner = pb.owning_node if pb is not None else None
            if owner is not None and owner.op == "prim::Loop" and \
                    v in pb.params[1:]:
                k = pb.params.index(v) - 1
                mark(pb.returns[1 + k])
                mark(owner.inputs[2 + k])
            continue
        for inp in producer.inputs:
            mark(inp)
        for b in producer.blocks:
            for r in b.returns:
                mark(r)
    return live


def _drop_return(block: Block, k: int) -> None:
    """Delete return slot ``k`` and re-index the later slots' use
    records — once per value, however many slots return it."""
    ret = block.returns[k]
    for use in ret.uses:
        if use.user is block and use.index == k:
            ret.uses.remove(use)
            break
    del block.returns[k]
    for r in {id(r): r for r in block.returns[k:]}.values():
        for use in r.uses:
            if use.user is block and use.index > k:
                use.index -= 1


def _prune_loop_carries(block: Block) -> bool:
    """Drop loop-carried slots whose body param and node output are both
    unused (dead accumulation left by functionalization)."""
    changed = False
    for node in list(block.nodes):
        for inner in node.blocks:
            changed |= _prune_loop_carries(inner)
        if node.op != "prim::Loop":
            continue
        body = node.blocks[0]
        n_carried = len(node.inputs) - 2
        # Phase A: a slot is dead when its loop output is unused AND
        # nothing live in the body transitively reads its return value
        # (the return feeds the next iteration's param, so a body that
        # consumes the param for *live* work keeps the slot alive).
        live = _live_values_in_loop(node)
        for k in range(n_carried):
            out = node.outputs[k]
            param = body.params[1 + k]
            ret = body.returns[1 + k]
            if not out.uses and ret is not param and id(ret) not in live:
                body.set_return(1 + k, param)
                changed = True
        # Phase B: drop slots that are pure identity plumbing.
        for k in reversed(range(n_carried)):
            param = body.params[1 + k]
            out = node.outputs[k]
            ret = body.returns[1 + k]
            param_busy = any(
                not (isinstance(u.user, Block) and u.user is body
                     and u.index == 1 + k)
                for u in param.uses)
            if param_busy or out.uses:
                continue
            # the return slot's only consumer is the loop plumbing itself
            _drop_return(body, 1 + k)
            node.remove_input(2 + k)
            body.params.remove(param)
            node.outputs.remove(out)
            changed = True
    return changed


def _prune_if_outputs(block: Block) -> bool:
    """Drop prim::If outputs nobody reads (and their return slots)."""
    changed = False
    for node in list(block.nodes):
        for inner in node.blocks:
            changed |= _prune_if_outputs(inner)
        if node.op != "prim::If":
            continue
        for k in reversed(range(len(node.outputs))):
            out = node.outputs[k]
            if out.uses:
                continue
            for b in node.blocks:
                _drop_return(b, k)
            node.outputs.remove(out)
            changed = True
    return changed


def dce(graph: Graph) -> bool:
    """Run to fixed point; returns True when anything was removed."""
    any_change = _sweep_block(graph.block)
    while _prune_loop_carries(graph.block) | \
            _prune_if_outputs(graph.block):
        any_change = True
        _sweep_block(graph.block)
    return any_change

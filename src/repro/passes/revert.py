"""Revert unfused Assign operators back to mutable form (paper §3.2).

"The greatest strength of TensorSSA lies in its flexibility, as the
operators can either be fused and compiled or be converted back to the
original mutable operators."

An ``immut::*_assign`` that fusion did not absorb executes as a full
clone-and-write kernel.  When its base value has no other consumer, the
clone is wasted: we can steal the base's buffer and write in place —
``view + copy_`` — exactly the mutable code the conversion started
from, but now *proven* local (single consumer, same block, no captured
references), so the side effect cannot escape.

Runs after fusion in the TensorSSA pipeline; the reintroduced mutation
is invisible to any later pass because none run after it except DCE.
The Assigns fusion *did* absorb get the same treatment from the same
analysis (:mod:`repro.analysis.ownership`) when ``backend/codegen.py``
generates their kernel — there without touching the IR.
"""

from __future__ import annotations

from ..analysis.ownership import (ASSIGN_TO_VIEW, buffer_owner, eager_alias,
                                  later_reader, view_root)
from ..ir import types as T
from ..ir.graph import Graph, Node, Value


def _protected_values(graph: Graph) -> set:
    """Values horizontal loops capture from their bodies' free values:
    their producers must stay alive under their original identity."""
    from ..ir.graph import free_values
    protected = set()
    for node in graph.walk():
        if not node.attrs.get("horizontal") or not node.blocks:
            continue
        for v in free_values(node.blocks[0]):
            protected.add(id(v))
    return protected


def _revertible_nodes(block):
    """Walk nodes outside compiled regions: fusion-group bodies and
    horizontal loop bodies execute as kernels and must stay pure."""
    for node in block.nodes:
        if node.op == "prim::FusionGroup":
            continue
        if node.op == "prim::Loop" and node.attrs.get("horizontal"):
            continue
        yield node
        for inner in node.blocks:
            yield from _revertible_nodes(inner)


def _owned_init(init: Value, loop: Node) -> bool:
    """May the loop steal ``init``'s buffer?  Yes iff the loop is its
    only reader and a pure node in the loop's own block produced it."""
    if len(init.uses) != 1 or init.uses[0].user is not loop:
        return False
    if buffer_owner(init) is None:
        return False
    return init.defining_block() is loop.owning_block


def _assign_chain(param: Value, ret: Value):
    """The unique top-level chain ``param -> A1 -> ... -> An`` of Assign
    nodes whose final output is ``ret``, every link single-use (so no
    other reader ever sees a pre-write generation), or None."""
    chain = []
    cur = param
    while True:
        if len(cur.uses) != 1:
            return None
        use = cur.uses[0]
        user = use.user
        if not isinstance(user, Node):
            # the block return: a complete chain ends exactly here
            return chain if (chain and cur is ret) else None
        if ASSIGN_TO_VIEW.get(user.op, "missing") == "missing" \
                or use.index != 0:
            return None
        if user.owning_block is not param.defining_block():
            return None  # nested inside an If: re-execution unproven
        chain.append(user)
        cur = user.output()


def revert_carried_assigns(graph: Graph) -> int:
    """Rewrite loop-carried Assign chains into in-place mutation — the
    revert discipline (paper §3.2) applied across the back edge.

    A carried slot whose body flow is ``param -> assign(s) -> return``,
    each link single-use and seeded by a loop-local buffer nobody else
    reads, re-clones the *entire* carried tensor every iteration just
    to write one window — O(trip × size) memory traffic for O(trip ×
    window) useful work.  The single-use chain proves the buffer is
    uniquely owned along the whole carried orbit, so the body may write
    in place (``view + copy_``) and return the param itself; the
    interpreter then threads one buffer through every iteration.  Runs
    *before* fusion so the fuser sees the mutation as a barrier instead
    of absorbing the clone into a kernel; returns the number of Assigns
    reverted."""
    protected = _protected_values(graph)
    count = 0
    for loop in list(_revertible_nodes(graph.block)):
        if loop.op != "prim::Loop" or loop.attrs.get("horizontal"):
            continue
        body = loop.blocks[0]
        for k in range(len(loop.outputs)):
            init = loop.input(2 + k)
            param = body.params[1 + k]
            ret = body.returns[1 + k]
            if id(init) in protected or id(param) in protected:
                continue
            if not _owned_init(init, loop):
                continue
            chain = _assign_chain(param, ret)
            if chain is None:
                continue
            forbidden = {id(param), id(init)}
            forbidden.update(id(a.output()) for a in chain)
            if any(id(view_root(a.input(1), eager_alias)) in forbidden
                   for a in chain):
                continue  # the written window would read itself
            for a in chain:
                base = a.input(0)
                view_op = ASSIGN_TO_VIEW[a.op]
                if view_op is None:
                    target = base
                else:
                    view = graph.create(view_op,
                                        [base] + list(a.inputs[2:]),
                                        ["rv"], [T.TensorType()])
                    body.insert_before(a, view)
                    target = view.output()
                store = graph.create("aten::copy_", [target, a.input(1)],
                                     [base.name.split(".")[0]],
                                     [T.TensorType()])
                body.insert_before(a, store)
                a.output().replace_all_uses_with(base)
                a.destroy()
                count += 1
    return count


def revert_unfused_assigns(graph: Graph) -> int:
    """Rewrite single-consumer Assigns into in-place mutation; returns
    how many were reverted."""
    protected = _protected_values(graph)
    count = 0
    for node in list(_revertible_nodes(graph.block)):
        view_op = ASSIGN_TO_VIEW.get(node.op, "missing")
        if view_op == "missing":
            continue
        base, src = node.input(0), node.input(1)
        if id(node.output()) in protected or id(base) in protected:
            continue
        if buffer_owner(base) is None:
            continue
        if base.defining_block() is not node.owning_block:
            continue  # crossing a loop would accumulate the mutation
        block = node.owning_block
        order = {id(n): i for i, n in enumerate(block.nodes)}
        if later_reader(base, order[id(node)], order, {(id(node), 0)},
                        eager_alias) is not None:
            continue  # a later reader needs the pre-assign contents

        if view_op is None:
            target = base
        else:
            view = graph.create(view_op, [base] + list(node.inputs[2:]),
                                ["rv"], [T.TensorType()])
            block.insert_before(node, view)
            target = view.output()
        store = graph.create("aten::copy_", [target, src],
                             [base.name.split(".")[0]], [T.TensorType()])
        block.insert_before(node, store)
        node.output().replace_all_uses_with(base)
        node.destroy()
        count += 1
    return count

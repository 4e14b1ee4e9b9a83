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
                                  later_reader)
from ..ir import types as T
from ..ir.graph import Graph, kernel_captures, runs_as_kernel
from ..ops import registry


def _reverted_view(assign_op: str):
    """The eager view an Assign reverts through (None: the whole base),
    or ``"missing"``: not an Assign, or its window has no eager view to
    ``copy_`` into (a ``batch::`` trip window stays functional)."""
    view = ASSIGN_TO_VIEW.get(assign_op, "missing")
    if view not in (None, "missing") and not registry.get(view).is_view:
        return "missing"
    return view


def _revertible_nodes(block):
    """Walk nodes outside compiled regions: kernel bodies must stay
    pure."""
    for node in block.nodes:
        if runs_as_kernel(node):
            continue
        yield node
        for inner in node.blocks:
            yield from _revertible_nodes(inner)


def revert_carried_assigns(graph: Graph) -> int:
    """No-op, kept only because the benchmark's hand-staged compile
    (``bench/layers.py``) imports it by name to time its
    ``passes.revert_carried_ms`` layer; delete it when that layer is
    retired.  A loop-carried Assign now reaches the in-place store the
    one other way every Assign does: fusion gives it a kernel, and the
    memory plan donates the carried buffer to that kernel's store."""
    return 0


def revert_unfused_assigns(graph: Graph) -> int:
    """Rewrite single-consumer Assigns into in-place mutation; returns
    how many were reverted."""
    # a kernel's captures must stay alive under their original identity
    protected = {id(v) for node in graph.walk()
                 for v in kernel_captures(node)}
    count = 0
    for node in list(_revertible_nodes(graph.block)):
        view_op = _reverted_view(node.op)
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

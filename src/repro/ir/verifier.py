"""IR structural verifier.

Run after every pass (``PassManager.verify_each``): catches dangling
values, scope violations, use-list corruption, and malformed
control-flow conventions long before they surface as wrong numerics.

One walk, linear in values plus uses: each value's use list is scanned
once, where the value is defined, and the ``(user, slot)`` pairs it
records answer every later "does this input / return have its use
record" question by set lookup.  The scope is one shared set that a
block extends on entry and trims on exit, so sibling blocks still
cannot see each other's values.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..ops import registry as ops
from ..ops.schema import OpKind
from .graph import Block, Graph, Node, Value


class VerificationError(AssertionError):
    """Raised by :func:`verify` on structural IR violations."""
    pass


def _fail(msg: str) -> None:
    raise VerificationError(msg)


def _define(value: Value, scope: Set[int], added: List[int],
            recorded: Set[Tuple[int, int]]) -> None:
    """Check every use record of ``value``, add each ``(id(user),
    index)`` to ``recorded`` (proof that the slot holds ``value``: a slot
    holds one value), then put ``value`` in scope."""
    for use in value.uses:
        user = use.user
        if isinstance(user, Block):
            if use.index >= len(user.returns) or \
                    user.returns[use.index] is not value:
                _fail(f"use-list of %{value.name} names a block return "
                      f"slot that does not reference it")
        elif use.index >= len(user._inputs) or \
                user._inputs[use.index] is not value:
            _fail(f"use-list of %{value.name} names input "
                  f"{use.index} of {user.op}, which holds something else")
        recorded.add((id(user), use.index))
    if id(value) not in scope:
        scope.add(id(value))
        added.append(id(value))


def _verify_block(block: Block, scope: Set[int],
                  recorded: Set[Tuple[int, int]]) -> None:
    added: List[int] = []  # ids this block put in scope, trimmed on exit
    for p in block.params:
        if p.param_block is not block:
            _fail(f"param %{p.name} does not point back to its block")
        _define(p, scope, added, recorded)
    for node in block.nodes:
        if node.owning_block is not block:
            _fail(f"node {node.op} owning_block backref is wrong")
        for i, v in enumerate(node._inputs):
            if id(v) not in scope:
                _fail(f"node {node.op} input {i} (%{v.name}) is not in "
                      f"scope (defined later, or in a sibling block)")
            if (id(node), i) not in recorded:
                _fail(f"%{v.name} lacks a use record for {node.op} "
                      f"input {i}")
        _verify_conventions(node)
        for inner in node.blocks:
            if inner.owning_node is not node:
                _fail(f"block of {node.op} has wrong owning_node")
            _verify_block(inner, scope, recorded)
        for out in node.outputs:
            if out.node is not node:
                _fail(f"output %{out.name} does not point back to {node.op}")
            _define(out, scope, added, recorded)
    for i, r in enumerate(block.returns):
        if id(r) not in scope:
            _fail(f"block return {i} (%{r.name}) is not in scope")
        if (id(block), i) not in recorded:
            _fail(f"%{r.name} lacks a use record for block return {i}")
    scope.difference_update(added)


def _verify_conventions(node: Node) -> None:
    if node.op == "prim::Loop":
        if len(node.blocks) != 1:
            _fail("prim::Loop must own exactly one block")
        body = node.blocks[0]
        n_carried = len(node.inputs) - 2
        if n_carried < 0:
            _fail("prim::Loop needs (max_trip, init_cond, *carried) inputs")
        if len(body.params) != n_carried + 1:
            _fail(f"prim::Loop body must have 1+{n_carried} params, "
                  f"has {len(body.params)}")
        if len(body.returns) != n_carried + 1:
            _fail(f"prim::Loop body must return 1+{n_carried} values, "
                  f"returns {len(body.returns)}")
        if len(node.outputs) != n_carried:
            _fail("prim::Loop outputs must match carried values")
    elif node.op == "prim::If":
        if len(node.blocks) != 2:
            _fail("prim::If must own exactly two blocks")
        if len(node.inputs) != 1:
            _fail("prim::If takes exactly one input (the condition)")
        for b in node.blocks:
            if b.params:
                _fail("prim::If blocks take no params")
            if len(b.returns) != len(node.outputs):
                _fail(f"prim::If block returns {len(b.returns)} values, "
                      f"node has {len(node.outputs)} outputs")
    elif node.op == "prim::FusionGroup":
        if len(node.blocks) != 1:
            _fail("prim::FusionGroup must own exactly one block")
        body = node.blocks[0]
        if len(body.params) != len(node.inputs):
            _fail("FusionGroup params must mirror node inputs")
        if len(body.returns) != len(node.outputs):
            _fail("FusionGroup returns must mirror node outputs")
    elif node.op == "prim::ParallelMap":
        if len(node.blocks) != 1:
            _fail("prim::ParallelMap must own exactly one block")
        body = node.blocks[0]
        if len(body.params) != len(node.inputs):
            # (index, *captures) vs (trip_count, *captures)
            _fail("ParallelMap params must be (i, *captures) matching "
                  "(trip_count, *captures) inputs")
        if len(body.returns) != len(node.outputs):
            _fail("ParallelMap returns must mirror node outputs")
    elif node.op == "prim::Constant":
        if "value" not in node.attrs:
            _fail("prim::Constant without a value attribute")
    elif node.op == "tssa::update":
        if len(node.inputs) != 2 or node.outputs:
            _fail("tssa::update must be update(new, old) with no outputs")


def verify(graph: Graph) -> Graph:
    """Check structural invariants; returns the graph for chaining."""
    _verify_block(graph.block, set(), set())
    return graph


# -- mutation conventions --------------------------------------------------

def _alias_root(value: Value) -> Value:
    """Storage owner of ``value``: input 0 followed through VIEW and
    MUTATING producers (both alias their first operand)."""
    seen = set()
    while value.node is not None and id(value) not in seen:
        seen.add(id(value))
        node = value.node
        if not ops.has(node.op):
            break
        if node.kind in (OpKind.VIEW, OpKind.MUTATING) and node.inputs:
            value = node.input(0)
        else:
            break
    return value


def _locally_owned(root: Value, mutation: Node) -> bool:
    """Revert discipline (passes/revert.py): a reintroduced mutation may
    only write a buffer owned by a PURE node (or a FusionGroup) in the
    mutation's own block — storage whose every other reader was proven
    to run earlier, so the side effect cannot escape.

    One structured exception, the loop-carried in-place discipline
    (``revert_carried_assigns``): the root may be a ``prim::Loop``
    body's carried param when the slot flows through unchanged (the
    body returns the param itself — the signature of a reverted carried
    chain) and the slot's init value is itself a locally-owned buffer
    whose only reader is the loop."""
    node = root.node
    if node is None:
        if root.is_param:
            return _carried_in_place(root, mutation)
        return False
    if node.op == "prim::Constant":
        return False
    if node.kind is OpKind.CONTROL and node.op != "prim::FusionGroup":
        return False  # If/Loop outputs alias values we have not analyzed
    if node.kind not in (OpKind.PURE, OpKind.CONTROL):
        return False
    return root.defining_block() is mutation.owning_block


def _carried_in_place(root: Value, mutation: Node) -> bool:
    """Is ``root`` a carried Loop param mutated under the in-place
    carried-slot convention (see :func:`_locally_owned`)?"""
    body = root.param_block
    loop = body.owning_node if body is not None else None
    if loop is None or loop.op != "prim::Loop":
        return False
    if mutation.owning_block is not body:
        return False
    try:
        k = body.params.index(root) - 1  # params are (i, *carried)
    except ValueError:
        return False
    if k < 0 or k >= len(loop.outputs):
        return False
    if body.returns[1 + k] is not root:
        return False  # slot does not flow through unchanged
    init = loop.input(2 + k)
    if len(init.uses) != 1 or init.uses[0].user is not loop:
        return False
    return _locally_owned(init, loop)


def verify_mutations(graph: Graph, strict: bool = False) -> Graph:
    """Check the TensorSSA mutation conventions on an executable graph.

    Always enforced:

    * ``tssa::update`` annotations must not survive to execution — the
      interpreter has no semantics for them;
    * no ``immut::`` op may alias or write its input: the whole point
      of the Access/Assign operator sets (paper §3.2) is that they are
      pure, so a registry/pass regression demoting one to VIEW or
      MUTATING is a conventions break;
    * a MUTATING op must never write through to a ``prim::Constant``
      buffer (folded constants are shared across the graph).

    With ``strict=True`` — appropriate once a pipeline reports full
    functionalization (``skipped_mutations == 0``) — every surviving
    MUTATING op must be one the revert pass could have introduced: its
    alias root is a locally-owned buffer (see :func:`_locally_owned`).
    Mutations of graph inputs, block params, loop-carried values, or
    buffers from an enclosing block have no business in a graph that
    claims to be fully functionalized.
    """
    for node in graph.walk():
        if node.op == "tssa::update":
            _fail("tssa::update survived to an executable graph; run the "
                  "rename/cleanup step of the TensorSSA conversion")
        if node.op.startswith("immut::"):
            if not ops.has(node.op):
                _fail(f"unregistered immut:: op {node.op}")
            if node.kind in (OpKind.VIEW, OpKind.MUTATING):
                _fail(f"{node.op} is registered as {node.kind.value}: "
                      f"immut:: ops must be pure (no aliasing, no writes)")
        if ops.has(node.op) and node.kind is OpKind.MUTATING:
            if not node.inputs:
                _fail(f"mutating op {node.op} with no write target")
            root = _alias_root(node.input(0))
            if root.node is not None and root.node.op == "prim::Constant":
                _fail(f"{node.op} writes through %{node.input(0).name} "
                      f"into constant %{root.name}")
            if strict and not _locally_owned(root, node):
                _fail(f"{node.op} on %{node.input(0).name} mutates "
                      f"%{root.name}, which is not a locally-owned "
                      f"buffer: a fully functionalized graph may only "
                      f"keep revert-style mutations of single-consumer "
                      f"pure outputs in the same block")
    return graph

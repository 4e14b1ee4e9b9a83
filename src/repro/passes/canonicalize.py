"""Canonicalization: algebraic identities and control-flow folding.

Two families of rewrites:

* **control-flow folding** — always safe: ``prim::If`` on a constant
  condition splices the taken branch inline; ``prim::Loop`` with a
  constant zero trip count forwards its initial values.
* **algebraic identities** — ``x + 0 -> x``, ``x * 1 -> x``,
  ``neg(neg(x)) -> x``, nested ``clamp`` merging, etc.  These replace a
  *fresh tensor* with an existing value, which changes aliasing; they
  are therefore applied only when the graph is free of (non-epilogue)
  mutation — i.e. after TensorSSA conversion — where aliasing is
  unobservable.
"""

from __future__ import annotations

from typing import Optional

from ..ir.graph import (NOT_CONSTANT, Block, Graph, Node, Value,
                        constant_value)
from ..ops.schema import OpKind
from .fusion import is_epilogue_copy


def _is_scalar_const(v: Value, value) -> bool:
    payload = constant_value(v)
    return isinstance(payload, (int, float)) and not isinstance(
        payload, bool) and payload == value


def _graph_is_pure(graph: Graph) -> bool:
    for node in graph.walk():
        if node.schema.kind is OpKind.MUTATING and \
                not is_epilogue_copy(node):
            return False
    return True


# ---------------------------------------------------------------------------
# control-flow folding
# ---------------------------------------------------------------------------

def _splice_block(node: Node, taken: Block) -> None:
    """Inline ``taken``'s nodes in place of ``node`` and forward its
    returns to the node's outputs."""
    block = node.owning_block
    anchor = block.nodes.index(node)
    for inner in list(taken.nodes):
        taken.remove(inner)
        block.insert(anchor, inner)
        anchor += 1
    for out, ret in zip(node.outputs, list(taken.returns)):
        out.replace_all_uses_with(ret)
    node.destroy()


def _fold_constant_if(node: Node) -> bool:
    cond = constant_value(node.input(0))
    if cond is NOT_CONSTANT or not isinstance(cond, bool):
        return False
    _splice_block(node, node.blocks[0] if cond else node.blocks[1])
    return True


def _fold_dead_loop(node: Node) -> bool:
    trip = constant_value(node.input(0))
    init_cond = constant_value(node.input(1))
    if trip == 0 or init_cond is False:
        for out, init in zip(node.outputs, node.inputs[2:]):
            out.replace_all_uses_with(init)
        node.destroy()
        return True
    return False


# ---------------------------------------------------------------------------
# algebraic identities (pure graphs only)
# ---------------------------------------------------------------------------

def _identity_operand(node: Node) -> Optional[Value]:
    """The input this node is equivalent to, if any."""
    op = node.op
    if op == "aten::add":
        if _is_scalar_const(node.input(1), 0):
            return node.input(0)
        if _is_scalar_const(node.input(0), 0):
            return node.input(1)
    elif op == "aten::sub" and _is_scalar_const(node.input(1), 0):
        return node.input(0)
    elif op == "aten::mul":
        if _is_scalar_const(node.input(1), 1):
            return node.input(0)
        if _is_scalar_const(node.input(0), 1):
            return node.input(1)
    elif op == "aten::div" and _is_scalar_const(node.input(1), 1):
        return node.input(0)
    elif op == "aten::neg":
        inner = node.input(0).node
        if inner is not None and inner.op == "aten::neg":
            return inner.input(0)
    elif op == "aten::relu":
        inner = node.input(0).node
        if inner is not None and inner.op in ("aten::relu",
                                              "aten::sigmoid",
                                              "aten::exp"):
            # already non-negative
            return node.input(0)
    elif op == "aten::transpose":
        inner = node.input(0).node
        if inner is not None and inner.op == "aten::transpose" and \
                constant_value(node.input(1)) == constant_value(
                    inner.input(1)) and \
                constant_value(node.input(2)) == constant_value(
                    inner.input(2)) and \
                constant_value(node.input(1)) is not NOT_CONSTANT:
            return inner.input(0)
    return None


def _merge_clamp(node: Node, graph: Graph) -> bool:
    if node.op != "aten::clamp":
        return False
    inner = node.input(0).node
    if inner is None or inner.op != "aten::clamp":
        return False
    bounds = []
    for n in (inner, node):
        lo, hi = constant_value(n.input(1)), constant_value(n.input(2))
        if lo is NOT_CONSTANT or hi is NOT_CONSTANT:
            return False
        bounds.append((lo, hi))
    (lo1, hi1), (lo2, hi2) = bounds

    def pick(a, b, fn):
        if a is None:
            return b
        if b is None:
            return a
        return fn(a, b)

    lo = pick(lo1, lo2, max)
    hi = pick(hi1, hi2, min)
    lo_c, hi_c = graph.constant(lo), graph.constant(hi)
    block = node.owning_block
    block.insert_before(node, lo_c)
    block.insert_before(node, hi_c)
    node.set_input(0, inner.input(0))
    node.set_input(1, lo_c.output())
    node.set_input(2, hi_c.output())
    return True


def _canon_block(block: Block, graph: Graph, pure: bool) -> bool:
    changed = False
    for node in list(block.nodes):
        if node.owning_block is not block:
            continue  # spliced away by an earlier fold
        for inner in node.blocks:
            changed |= _canon_block(inner, graph, pure)
        if node.op == "prim::If":
            changed |= _fold_constant_if(node)
            continue
        if node.op == "prim::Loop" and not node.attrs.get("horizontal"):
            changed |= _fold_dead_loop(node)
            continue
        if not pure:
            continue
        replacement = _identity_operand(node)
        if replacement is not None:
            node.output().replace_all_uses_with(replacement)
            node.destroy()
            changed = True
            continue
        changed |= _merge_clamp(node, graph)
    return changed


def canonicalize(graph: Graph) -> bool:
    """Run folds to a fixed point; returns True when anything changed."""
    pure = _graph_is_pure(graph)
    any_change = False
    while _canon_block(graph.block, graph, pure):
        any_change = True
        pure = _graph_is_pure(graph)
    return any_change

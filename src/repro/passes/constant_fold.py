"""Constant folding for scalar ``prim::*`` arithmetic.

Folds pure scalar ops whose operands are all constants; leaves tensor
ops alone (materializing tensor constants would hide memory traffic the
benchmarks need to observe)."""

from __future__ import annotations

from ..errors import ReproError, classify
from ..faults import SITE_PASS, maybe_inject
from ..ir.graph import NOT_CONSTANT, Block, Graph, constant_value
from ..ops import registry

_FOLDABLE_PREFIXES = ("prim::add", "prim::sub", "prim::mul",
                      "prim::truediv", "prim::floordiv", "prim::mod",
                      "prim::pow", "prim::neg", "prim::gt", "prim::lt",
                      "prim::ge", "prim::le", "prim::eq", "prim::ne",
                      "prim::and", "prim::or", "prim::not", "prim::min",
                      "prim::max")


def _fold_block(block: Block, graph: Graph) -> bool:
    changed = False
    for node in list(block.nodes):
        for inner in node.blocks:
            changed |= _fold_block(inner, graph)
        if node.op not in _FOLDABLE_PREFIXES:
            continue
        payloads = [constant_value(v) for v in node.inputs]
        if any(p is NOT_CONSTANT for p in payloads):
            continue
        try:
            # per-fold fault checkpoint: infra failures during folding
            # (injected by the chaos harness) must surface as typed
            # errors, not silently leave the op unfolded
            maybe_inject(SITE_PASS, f"constant_fold:{node.op}")
            result = registry.get(node.op).fn(*payloads)
        except ReproError:
            # injected faults and typed infrastructure errors: masking
            # them as "leave unfolded" hides real failures from the
            # degradation ladder and the chaos availability gate
            raise
        except MemoryError as exc:
            raise classify(exc) from exc  # fatal: typed OOMError
        except (ArithmeticError, ValueError, TypeError):
            # expected evaluation failure (div by zero, domain error,
            # bad operand type): constant folding legitimately skips
            # the op and leaves it for runtime
            continue
        const = graph.constant(result)
        block.insert_before(node, const)
        node.output().replace_all_uses_with(const.output())
        node.destroy()
        changed = True
    return changed


def constant_fold(graph: Graph) -> bool:
    """Fold pure scalar prim:: ops over constant operands, to a fixed point."""
    changed = False
    while _fold_block(graph.block, graph):
        changed = True
    return changed

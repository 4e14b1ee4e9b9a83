"""Program order and dominance on block-structured IR.

Because the IR is structured (no arbitrary CFG), dominance reduces to:
``A`` dominates ``B`` iff ``A`` contains ``B``, or ``A``'s owning block
is ``B``'s block or an ancestor of it and ``A`` precedes (in its own
block) the node of that block which (transitively) contains ``B``.

:class:`ProgramOrder` is the one snapshot every analysis asks: the
pre-order numbering, each node's enclosing loops, dominance and value
availability.  The TensorSSA pass-down step re-accesses a view at a
mutation only if the view *dominates* the mutation (Algorithm 1 line
4); the alias analysis judges escapes by the same positions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ..ir.graph import Block, Graph, Node, Value


def enclosing_node_in_block(node: Optional[Node],
                            block: Block) -> Optional[Node]:
    """The ancestor of ``node`` (possibly itself) that sits directly in
    ``block``, or None when ``node`` is not nested inside ``block``.
    Structural: it reads the live graph, not a snapshot."""
    current = node
    while current is not None:
        owner = current.owning_block
        if owner is block:
            return current
        current = owner.owning_node if owner is not None else None
    return None


class ProgramOrder:
    """A program-order snapshot of one graph.

    ``entry[id(n)]`` is ``n``'s pre-order index and ``exit[id(n)]`` the
    last index of its subtree, so ``n`` contains ``m`` iff
    ``entry[n] <= entry[m] <= exit[n]``.  A node inserted after the
    snapshot was taken has no position (``entry.get`` is None): the
    TensorSSA rewrite relies on that to tell its own insertions from
    the program it is rewriting.
    """

    def __init__(self, graph: Graph) -> None:
        self.entry: Dict[int, int] = {}
        self.exit: Dict[int, int] = {}
        #: id(node) -> ids of the ``prim::Loop`` nodes enclosing it
        self._loops: Dict[int, FrozenSet[int]] = {}
        counter = 0

        def visit(node: Node, loops: FrozenSet[int]) -> None:
            nonlocal counter
            self.entry[id(node)] = counter
            self._loops[id(node)] = loops
            counter += 1
            if node.blocks:
                inner = loops | {id(node)} if node.op == "prim::Loop" \
                    else loops
                for block in node.blocks:
                    for child in block.nodes:
                        visit(child, inner)
            self.exit[id(node)] = counter - 1

        for top in graph.block.nodes:
            visit(top, frozenset())

    def loops(self, node: Node) -> FrozenSet[int]:
        """Ids of the ``prim::Loop`` nodes strictly enclosing ``node``."""
        return self._loops[id(node)]

    def dominates(self, a: Node, b: Node) -> bool:
        """Does statement ``a`` dominate statement ``b``?  A node
        dominates itself and every node it contains (its body runs as
        part of it)."""
        ea, eb = self.entry[id(a)], self.entry[id(b)]
        if ea <= eb <= self.exit[id(a)]:
            return True  # a contains b
        if eb < ea:
            return False
        return enclosing_node_in_block(b, a.owning_block) is not None

    def available(self, value: Value, node: Node) -> bool:
        """Is ``value`` available (defined) at statement ``node``?  A
        block param is, anywhere inside its block; a node output is,
        after its node has run — not at the node, nor inside its body."""
        if value.is_param:
            return enclosing_node_in_block(node, value.param_block) \
                is not None
        assert value.node is not None
        return self.entry[id(node)] > self.exit[id(value.node)] and \
            self.dominates(value.node, node)

"""Graph-level IR: ``Graph`` / ``Block`` / ``Node`` / ``Value``.

The structure mirrors TorchScript IR (paper §2.2): a graph owns one top
block; control flow is expressed by ``prim::If`` / ``prim::Loop`` nodes
that own nested blocks, with dependent values passed as *block
parameters* and *block returns* (functional SSA — equivalent to phi
nodes).

Conventions
-----------
``prim::Loop``       inputs ``(max_trip, init_cond, *carried)``;
                     one block with params ``(i, *carried)`` and returns
                     ``(next_cond, *carried)``; node outputs ``(*carried)``.
``prim::If``         inputs ``(cond,)``; two param-less blocks whose
                     returns match the node outputs.
``prim::FusionGroup``/``prim::ParallelMap``
                     inputs are the captured values; one block whose
                     params mirror the inputs and whose returns mirror
                     the node outputs (ParallelMap adds a leading index
                     param and a leading trip-count input).
``prim::Constant``   payload stored in ``node.attrs["value"]`` — the
                     only attribute-carrying op.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

from ..ops import registry
from ..ops.schema import OpKind, OpSchema
from . import types as T

__all__ = ["Graph", "Block", "Node", "Value", "Use", "bulk_destroy",
           "free_values", "constant_value", "NOT_CONSTANT", "is_for_loop"]


class Use:
    """One use of a Value: by a node input, or by a block's returns."""

    __slots__ = ("user", "index")

    def __init__(self, user: Union["Node", "Block"], index: int) -> None:
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        kind = "ret" if isinstance(self.user, Block) else "in"
        return f"Use({kind}[{self.index}])"


class Value:
    """An SSA value: produced by a node, or a block/graph parameter."""

    __slots__ = ("name", "type", "node", "param_block", "uses")

    def __init__(self, name: str, typ: T.Type,
                 node: Optional["Node"] = None,
                 param_block: Optional["Block"] = None) -> None:
        self.name = name
        self.type = typ
        self.node = node              # producing node, if any
        self.param_block = param_block  # owning block, if a parameter
        self.uses: List[Use] = []

    @property
    def is_param(self) -> bool:
        return self.param_block is not None

    def defining_block(self) -> "Block":
        """The block in which this value becomes available."""
        if self.is_param:
            return self.param_block
        assert self.node is not None, f"dangling value {self.name}"
        return self.node.owning_block

    def replace_all_uses_with(self, other: "Value") -> None:
        for use in list(self.uses):
            if isinstance(use.user, Block):
                use.user.set_return(use.index, other)
            else:
                use.user.set_input(use.index, other)

    def __repr__(self) -> str:
        return f"%{self.name}"


class Node:
    """One operation.  Create via :meth:`Graph.create`; insert via Block."""

    def __init__(self, op: str, graph: "Graph") -> None:
        self.op = op
        self.graph = graph
        self._inputs: List[Value] = []
        self.outputs: List[Value] = []
        self.blocks: List["Block"] = []
        self.owning_block: Optional["Block"] = None
        self.attrs: Dict[str, object] = {}

    # -- schema -----------------------------------------------------------

    @property
    def schema(self) -> OpSchema:
        return registry.get(self.op)

    @property
    def kind(self) -> OpKind:
        return self.schema.kind

    # -- inputs -----------------------------------------------------------

    @property
    def inputs(self) -> Sequence[Value]:
        return tuple(self._inputs)

    def input(self, i: int) -> Value:
        return self._inputs[i]

    def add_input(self, value: Value) -> None:
        value.uses.append(Use(self, len(self._inputs)))
        self._inputs.append(value)

    def set_input(self, i: int, value: Value) -> None:
        old = self._inputs[i]
        for use in old.uses:
            if use.user is self and use.index == i:
                old.uses.remove(use)
                break
        self._inputs[i] = value
        value.uses.append(Use(self, i))

    def remove_input(self, i: int) -> None:
        old = self._inputs[i]
        for use in list(old.uses):
            if use.user is self and use.index == i:
                old.uses.remove(use)
                break
        del self._inputs[i]
        # Shift the indices of this node's remaining use records.  Each
        # Use object corresponds to exactly one input position, so a
        # plain decrement of every index past ``i`` is exact even when
        # the same value feeds several positions.
        seen = set()
        for v in self._inputs:
            if id(v) in seen:
                continue
            seen.add(id(v))
            for use in v.uses:
                if use.user is self and use.index > i:
                    use.index -= 1

    def clear_inputs(self) -> None:
        for i, v in enumerate(self._inputs):
            for use in list(v.uses):
                if use.user is self:
                    v.uses.remove(use)
        self._inputs.clear()

    # -- outputs ----------------------------------------------------------

    def add_output(self, name: str, typ: T.Type) -> Value:
        value = Value(self.graph.fresh_name(name), typ, node=self)
        self.outputs.append(value)
        return value

    def output(self, i: int = 0) -> Value:
        return self.outputs[i]

    # -- blocks -----------------------------------------------------------

    def add_block(self) -> "Block":
        block = Block(self.graph, owning_node=self)
        self.blocks.append(block)
        return block

    def block(self, i: int = 0) -> "Block":
        return self.blocks[i]

    # -- placement --------------------------------------------------------

    def destroy(self) -> None:
        """Remove this node; all outputs must be unused."""
        for out in self.outputs:
            if out.uses:
                raise RuntimeError(
                    f"destroying node {self.op} with used output {out}")
        self.clear_inputs()
        for block in self.blocks:
            block._destroy_contents()
        if self.owning_block is not None:
            self.owning_block.nodes.remove(self)
            self.owning_block = None

    def is_before(self, other: "Node") -> bool:
        """Program-order comparison within the same block."""
        assert self.owning_block is other.owning_block
        nodes = self.owning_block.nodes
        return nodes.index(self) < nodes.index(other)

    # -- iteration --------------------------------------------------------

    def walk(self) -> Iterator["Node"]:
        """This node and every node in nested blocks, pre-order."""
        yield self
        for block in self.blocks:
            for node in block.walk():
                yield node

    def __repr__(self) -> str:
        outs = ", ".join(f"%{o.name}" for o in self.outputs)
        ins = ", ".join(f"%{v.name}" for v in self._inputs)
        head = f"{outs} = " if outs else ""
        return f"{head}{self.op}({ins})"


class Block:
    """A sequence of nodes with parameters and returns."""

    def __init__(self, graph: "Graph",
                 owning_node: Optional[Node] = None) -> None:
        self.graph = graph
        self.owning_node = owning_node
        self.params: List[Value] = []
        self.nodes: List[Node] = []
        self.returns: List[Value] = []

    # -- params / returns ---------------------------------------------------

    def add_param(self, name: str, typ: T.Type) -> Value:
        value = Value(self.graph.fresh_name(name), typ, param_block=self)
        self.params.append(value)
        return value

    def add_return(self, value: Value) -> None:
        value.uses.append(Use(self, len(self.returns)))
        self.returns.append(value)

    def set_return(self, i: int, value: Value) -> None:
        old = self.returns[i]
        for use in old.uses:
            if use.user is self and use.index == i:
                old.uses.remove(use)
                break
        self.returns[i] = value
        value.uses.append(Use(self, i))

    def clear_returns(self) -> None:
        """Drop every return (and its use records), leaving the block's
        nodes intact — the gradient pass repurposes a cloned forward
        graph by swapping its returns for adjoint outputs."""
        for i, r in enumerate(self.returns):
            for use in list(r.uses):
                if use.user is self and use.index == i:
                    r.uses.remove(use)
        self.returns.clear()

    # -- node placement -------------------------------------------------

    def append(self, node: Node) -> Node:
        assert node.owning_block is None, "node already placed"
        node.owning_block = self
        self.nodes.append(node)
        return node

    def insert(self, index: int, node: Node) -> Node:
        assert node.owning_block is None, "node already placed"
        node.owning_block = self
        self.nodes.insert(index, node)
        return node

    def insert_before(self, anchor: Node, node: Node) -> Node:
        return self.insert(self.nodes.index(anchor), node)

    def insert_after(self, anchor: Node, node: Node) -> Node:
        return self.insert(self.nodes.index(anchor) + 1, node)

    def remove(self, node: Node) -> None:
        """Detach (without destroying) a node from this block."""
        self.nodes.remove(node)
        node.owning_block = None

    def _destroy_contents(self) -> None:
        # Drop the return-slot use records first: returns may reference
        # values defined in *outer* scopes (an untaken If branch
        # returning a parent value), and those outlive this block.
        for i, r in enumerate(self.returns):
            for use in list(r.uses):
                if use.user is self and use.index == i:
                    r.uses.remove(use)
        self.returns.clear()
        for node in list(reversed(self.nodes)):
            for out in node.outputs:
                out.uses.clear()
            node.clear_inputs()
            for b in node.blocks:
                b._destroy_contents()
        self.nodes.clear()

    # -- navigation -------------------------------------------------------

    def walk(self) -> Iterator[Node]:
        """All nodes in this block and nested blocks, pre-order."""
        for node in self.nodes:
            for n in node.walk():
                yield n

    def ancestors(self) -> Iterator["Block"]:
        """This block, then each enclosing block up to the graph top."""
        block: Optional[Block] = self
        while block is not None:
            yield block
            node = block.owning_node
            block = node.owning_block if node is not None else None

    def contains(self, other: "Block") -> bool:
        return any(b is self for b in other.ancestors())

    def __repr__(self) -> str:
        return (f"Block(params={[p.name for p in self.params]}, "
                f"nodes={len(self.nodes)}, "
                f"returns={[r.name for r in self.returns]})")


def free_values(block: "Block", deep: bool = False) -> List["Value"]:
    """Values the block references but does not define, in first-use
    order.  Derived on demand wherever horizontal-loop captures are
    needed (compilation, interpretation, liveness, revert protection):
    a snapshot stored in ``attrs`` would go stale as soon as a later
    pass rewrote a captured value (fusion, CSE) or the graph was cloned.

    Shallow by default: a nested block's captures stay free *inside*
    that block.  ``deep`` counts the references of nested blocks too
    (a nested block's own definitions are local), in the order a
    pre-order walk meets them — every capture of a control-flow region,
    as the gradient pass and loop unrolling need it.
    """
    local: Set[int] = set()
    free: List[Value] = []
    seen: Set[int] = set()

    def define(b: "Block") -> None:
        local.update(id(p) for p in b.params)
        for node in b.nodes:
            local.update(id(out) for out in node.outputs)
            if deep:
                for inner in node.blocks:
                    define(inner)

    def visit(v: Value) -> None:
        if id(v) in local or id(v) in seen:
            return
        seen.add(id(v))
        free.append(v)

    def scan(b: "Block") -> None:
        for node in b.nodes:
            for v in node.inputs:
                visit(v)
            if deep:
                for inner in node.blocks:
                    scan(inner)
        for r in b.returns:
            visit(r)

    define(block)
    scan(block)
    return free


#: what :func:`constant_value` returns for a value no ``prim::Constant``
#: defines (a constant's payload may itself be ``None``)
NOT_CONSTANT = object()


def constant_value(value: Value):
    """The payload of the ``prim::Constant`` defining ``value``, else
    :data:`NOT_CONSTANT`."""
    node = value.node
    if node is not None and node.op == "prim::Constant":
        return node.attrs["value"]
    return NOT_CONSTANT


def is_for_loop(loop: Node) -> bool:
    """Is ``prim::Loop`` ``loop`` in ``for`` form: its condition the
    constant True on entry and after every trip, so it runs exactly
    ``max_trip`` trips?"""
    return constant_value(loop.input(1)) is True and \
        constant_value(loop.blocks[0].returns[0]) is True


def bulk_destroy(nodes: Sequence["Node"]) -> None:
    """Destroy many (use-free) nodes at once.

    Equivalent to calling :meth:`Node.destroy` on each, but O(total)
    instead of O(total x block size): use-lists are filtered once per
    touched value and block node lists are rebuilt once per block.
    Every use record whose user dies goes with it: node inputs, and
    the returns of nested blocks, which may name values of an outer
    scope (an ``If`` branch returning a parent value).
    """
    # ids of every destroyed node and nested block: a use by any of them
    # is not a live use
    removed: Set[int] = set()
    touched: Dict[int, Value] = {}
    for node in nodes:
        for inner in node.walk():
            removed.add(id(inner))
            for v in inner._inputs:
                touched[id(v)] = v
            for b in inner.blocks:
                removed.add(id(b))
                for v in b.returns:
                    touched[id(v)] = v
    blocks: Dict[int, Block] = {}
    for node in nodes:
        for out in node.outputs:
            if any(id(u.user) not in removed for u in out.uses):
                raise RuntimeError(
                    f"bulk_destroy: node {node.op} output %{out.name} "
                    f"still has live uses")
        if node.owning_block is not None:
            blocks[id(node.owning_block)] = node.owning_block
    for v in touched.values():
        v.uses = [u for u in v.uses if id(u.user) not in removed]
    for node in nodes:
        node._inputs.clear()
        node.owning_block = None
    for block in blocks.values():
        block.nodes = [n for n in block.nodes if id(n) not in removed]


class Graph:
    """A function: a top-level block plus value-name bookkeeping."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.block = Block(self, owning_node=None)
        self._name_counts: Dict[str, itertools.count] = {}

    # -- naming -----------------------------------------------------------

    def fresh_name(self, base: str) -> str:
        base = base.split(".")[0] or "v"
        counter = self._name_counts.setdefault(base, itertools.count())
        return f"{base}.{next(counter)}"

    # -- parameters / returns ---------------------------------------------

    @property
    def inputs(self) -> Sequence[Value]:
        return tuple(self.block.params)

    @property
    def outputs(self) -> Sequence[Value]:
        return tuple(self.block.returns)

    def add_input(self, name: str, typ: T.Type) -> Value:
        return self.block.add_param(name, typ)

    def add_output(self, value: Value) -> None:
        self.block.add_return(value)

    # -- node construction --------------------------------------------------

    def create(self, op: str, inputs: Sequence[Value] = (),
               output_names: Sequence[str] = (),
               output_types: Sequence[T.Type] = ()) -> Node:
        """Create a detached node (caller inserts it into a block)."""
        registry.get(op)  # validate op exists
        node = Node(op, self)
        for v in inputs:
            node.add_input(v)
        for name, typ in zip(output_names, output_types):
            node.add_output(name, typ)
        return node

    def constant(self, value, name: str = "c") -> Node:
        """Create a detached ``prim::Constant`` carrying ``value``."""
        node = Node("prim::Constant", self)
        node.attrs["value"] = value
        node.add_output(name, T.type_of_constant(value))
        return node

    # -- iteration ----------------------------------------------------------

    def walk(self) -> Iterator[Node]:
        return self.block.walk()

    def nodes_of(self, *ops: str) -> List[Node]:
        return [n for n in self.walk() if n.op in ops]

    # -- debugging ------------------------------------------------------

    def __repr__(self) -> str:
        from .printer import print_graph
        return print_graph(self)

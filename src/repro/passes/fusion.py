"""Vertical fusion (paper §4.2.1): group fusable ops into
``prim::FusionGroup`` kernels.

The fuser is parameterized so one implementation serves every pipeline:

* baselines (TorchScript+NNC / +nvFuser styles) fuse only pure
  elementwise ops and treat every mutating op and every control-flow
  node as a **hard barrier** — mutation may write through any alias, so
  no computation may be hoisted across it.  This is precisely the
  limitation the paper attributes to existing compilers (§1, §2.2).
* the TensorSSA pipeline runs after functionalization: no mutations
  remain inside blocks, so view ops and ``immut::*`` Access/Assign ops
  join groups, and barriers all but disappear — the fusion scope crosses
  what used to be mutation points.

Groups are placed at the position of their *first* member; joining
requires every external input to be defined before that point, which
keeps the move sound for pure members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..analysis.ownership import is_window_assign
from ..ir.graph import (Block, Graph, Node, Value, constant_value,
                        runs_as_kernel)
from ..ops import registry
from ..ops.schema import OpKind

#: constants with these payload types are copied into group bodies
_INLINABLE_CONST_TYPES = (int, float, bool, str, type(None), list, tuple)


@dataclass
class FuserConfig:
    """Fusion policy knobs, one instance per compiler pipeline."""

    name: str = "nnc"
    #: fuse view ops / immut Access-Assign ops (safe only after
    #: functionalization)
    fuse_views: bool = False
    #: ops (by name) excluded even if their schema says fusable —
    #: models weaker fusers like nvFuser's narrower coverage
    excluded_ops: Set[str] = field(default_factory=set)
    #: kernel-size budget: real fusers cap how many ops one generated
    #: kernel may contain (None = unlimited, TensorSSA's NNC backend)
    max_group_size: int = None


#: a group of one op launches a kernel for what the op would have done
#: alone: groups smaller than this are not formed -- except a lone
#: window Assign into a carried param of a ``prim::Loop`` body
#: (:func:`_stores_into_carried`): the eager op clones the whole
#: carried buffer every trip, where its kernel stores in place into the
#: buffer the memory plan donates
MIN_GROUP_SIZE = 2


@dataclass
class _Group:
    start: int                     # index of first member in block
    members: List[Node] = field(default_factory=list)
    member_ids: Set[int] = field(default_factory=set)

    def add(self, node: Node) -> None:
        self.members.append(node)
        self.member_ids.add(id(node))


def is_fusable(node: Node, config: FuserConfig) -> bool:
    """May this node join a fusion group under ``config``?"""
    if node.op in config.excluded_ops:
        return False
    if node.blocks or len(node.outputs) != 1:
        return False
    schema = node.schema
    if schema.kind is OpKind.VIEW:
        return config.fuse_views
    if schema.kind is OpKind.PURE and schema.fusable:
        if node.op.startswith("immut::") and not config.fuse_views:
            return False
        return True
    return False


def is_barrier(node: Node) -> bool:
    """Nodes no computation may be reordered across."""
    return node.schema.kind in (OpKind.MUTATING, OpKind.CONTROL)


def _can_join(node: Node, group: _Group, block: Block,
              positions: dict) -> bool:
    for v in node.inputs:
        producer = v.node
        if producer is None or producer.owning_block is not block:
            continue  # param or outer-scope value: always available
        if producer.op == "prim::Constant":
            continue  # constants are freely movable
        if id(producer) in group.member_ids:
            continue
        pos = positions.get(id(producer))
        if pos is None or pos >= group.start:
            return False  # produced inside the block after the group
    return True


def _is_substantial(node: Node) -> bool:
    """Does fusing this op actually save a kernel launch?  View ops and
    scalar arithmetic are free outside a group (metadata / host work),
    so a group made only of those would *add* a launch."""
    if node.schema.kind is OpKind.VIEW:
        return False
    if node.op.startswith("prim::"):
        return False
    return True


def _stores_into_carried(node: Node, block: Block) -> bool:
    """Is ``node`` a window Assign whose base is a carried param of the
    ``prim::Loop`` body ``block``?"""
    loop = block.owning_node
    return (loop is not None and loop.op == "prim::Loop"
            and is_window_assign(node)
            and any(node.input(0) is p for p in block.params[1:]))


def _collect_groups(block: Block, config: FuserConfig) -> List[_Group]:
    groups: List[_Group] = []
    open_groups: List[_Group] = []
    positions = {id(n): i for i, n in enumerate(block.nodes)}
    for idx, node in enumerate(block.nodes):
        if is_barrier(node):
            open_groups.clear()
            continue
        if not is_fusable(node, config):
            continue
        joined: Optional[_Group] = None
        for group in reversed(open_groups):
            if config.max_group_size is not None and \
                    len(group.members) >= config.max_group_size:
                continue
            if _can_join(node, group, block, positions):
                joined = group
                break
        if joined is None:
            joined = _Group(start=idx)
            open_groups.append(joined)
            groups.append(joined)
        joined.add(node)
    return [g for g in groups
            if (len(g.members) >= MIN_GROUP_SIZE
                or _stores_into_carried(g.members[0], block))
            and any(_is_substantial(n) for n in g.members)]


def _materialize(block: Block, group: _Group, graph: Graph) -> Node:
    from ..ir import types as T

    members = group.members
    member_ids = group.member_ids

    # classify the values flowing across the group boundary
    external: List[Value] = []
    inline_consts: dict = {}
    for node in members:
        for v in node.inputs:
            producer = v.node
            if producer is not None and id(producer) in member_ids:
                continue
            payload = constant_value(v)
            if isinstance(payload, _INLINABLE_CONST_TYPES):
                inline_consts[id(v)] = payload
                continue
            if all(e is not v for e in external):
                external.append(v)
    outputs: List[Value] = []
    for node in members:
        out = node.output()
        if any(not (isinstance(u.user, Node)
                    and id(u.user) in member_ids) for u in out.uses):
            outputs.append(out)

    fg = graph.create("prim::FusionGroup", external)
    body = fg.add_block()
    vmap = {}
    for v in external:
        vmap[id(v)] = body.add_param(v.name.split(".")[0], v.type)
    for node in members:
        clone = Node(node.op, graph)
        clone.attrs = dict(node.attrs)
        for v in node.inputs:
            if id(v) in vmap:
                clone.add_input(vmap[id(v)])
            elif id(v) in inline_consts:
                const = graph.constant(inline_consts[id(v)])
                body.append(const)
                vmap[id(v)] = const.output()
                clone.add_input(const.output())
            else:
                raise AssertionError(
                    f"fusion: unmapped input %{v.name} of {node.op}")
        new_out = clone.add_output(node.output().name.split(".")[0],
                                   node.output().type)
        vmap[id(node.output())] = new_out
        body.append(clone)
    for out in outputs:
        body.add_return(vmap[id(out)])
        fg_out = fg.add_output(out.name.split(".")[0], out.type)
        out.replace_all_uses_with(fg_out)

    block.insert(group.start, fg)
    # Non-inlinable constants (tensors, dtypes) captured as group inputs
    # may sit after the insertion point — constants are movable, so hoist.
    for v in external:
        producer = v.node
        if producer is not None and producer.op == "prim::Constant" \
                and producer.owning_block is block:
            idx = block.nodes.index(producer)
            if idx > block.nodes.index(fg):
                block.remove(producer)
                block.insert(block.nodes.index(fg), producer)
    for node in reversed(members):
        node.destroy()
    _ = T
    return fg


def is_epilogue_copy(node: Node) -> bool:
    """The input-mutation sink TensorSSA appends at graph end."""
    return (node.op == "aten::copy_" and node.inputs
            and node.input(0).is_param
            and node.input(0).param_block.owning_node is None)


def _effective_config(block: Block, config: FuserConfig) -> FuserConfig:
    """Views may only be fused (materialized as copies) in blocks whose
    storage is never mutated — a view fused before a mutation would
    capture stale data for uses after it."""
    if not config.fuse_views:
        return config
    for node in block.nodes:
        if node.schema.kind is OpKind.MUTATING and \
                not is_epilogue_copy(node):
            from dataclasses import replace
            return replace(config, fuse_views=False)
    return config


def _fuse_block(block: Block, config: FuserConfig, graph: Graph) -> int:
    count = 0
    for node in list(block.nodes):
        if runs_as_kernel(node):
            continue  # already one kernel
        for inner in node.blocks:
            count += _fuse_block(inner, config, graph)
    for group in reversed(_collect_groups(block,
                                          _effective_config(block, config))):
        _materialize(block, group, graph)
        count += 1
    return count


def fuse(graph: Graph, config: Optional[FuserConfig] = None) -> int:
    """Run the fuser; returns the number of fusion groups created."""
    registry.get("prim::FusionGroup")  # sanity: op registered
    return _fuse_block(graph.block, config or FuserConfig(), graph)

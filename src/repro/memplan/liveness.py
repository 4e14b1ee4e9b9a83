"""Interval liveness for functionalized graphs.

Computes, for every interpreter-visible tensor value, the program range
over which its buffer must stay resident — the substrate of the static
memory planner.  Three structural facts drive the analysis:

* **Lifetime classes.** View-aliased values share storage, so they
  share a lifetime: classes are the connected components of the alias
  graph's memory edges (``analysis.alias.AliasGraph.view_base``), and a
  class dies only when its *last* member's last use has executed.

* **Control flow.** A value defined in block ``B`` but used inside a
  nested ``prim::If``/``prim::Loop`` body must survive the *entire*
  control node (a loop body may re-execute), so nested uses project to
  the enclosing control node at ``B``'s level.  ``prim::FusionGroup`` /
  ``prim::ParallelMap`` bodies are kernel-internal: their values never
  reach the interpreter environment and are skipped entirely.

* **Loop back-edges.** A value produced inside a loop body and threaded
  to the next iteration through a carried slot is written fresh every
  iteration; the *previous* generation dies at the rebinding.  Such
  slots are marked *rotating* so the executor can recycle them
  per-iteration — the dominant reclamation on RNN-style workloads,
  where functionalization otherwise materializes one full output
  version per timestep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.alias import AliasGraph
from ..ir import types as T
from ..ir.graph import Block, Graph, Node, Value
from ..ops.schema import OpKind

__all__ = ["LifetimeClass", "Liveness", "compute_liveness"]

#: control ops whose bodies the interpreter executes node-by-node
_INTERPRETED_BLOCKS = ("prim::If", "prim::Loop")
#: ops whose outputs are freshly-allocated storages at runtime
_FRESH_KERNEL_OPS = ("prim::FusionGroup", "prim::ParallelMap")


def _is_tensor(value: Value) -> bool:
    return isinstance(value.type, (T.TensorType, T.AnyType))


@dataclass
class LifetimeClass:
    """One storage lifetime: an origin tensor plus its view aliases.

    ``interval`` is (def, last-use) in the home block's local node
    indices; ``plannable`` classes may be released at ``release_node``
    (before it for donation-style reuse, after it for control nodes);
    the rest carry a human-readable ``reason`` for the inspect view.
    """

    origin: Value
    members: List[Value] = field(default_factory=list)
    home: Optional[Block] = None
    interval: Tuple[int, int] = (0, 0)
    plannable: bool = False
    reason: str = ""
    release_node: Optional[Node] = None
    #: release accounting before the node (buffer donation) vs. after
    release_before: bool = False
    slot: Optional[int] = None

    @property
    def values(self) -> List[Value]:
        """Origin followed by every aliasing member."""
        return [self.origin] + self.members

    def __repr__(self) -> str:
        return (f"LifetimeClass(%{self.origin.name}, "
                f"+{len(self.members)} views, interval={self.interval}, "
                f"plannable={self.plannable})")


@dataclass
class Liveness:
    """Result of :func:`compute_liveness` over one graph."""

    graph: Graph
    classes: List[LifetimeClass] = field(default_factory=list)
    #: id(value) -> its lifetime class (interpreter-visible tensors only)
    class_of: Dict[int, LifetimeClass] = field(default_factory=dict)
    #: id(node) -> classes to release before executing it (donation)
    release_before: Dict[int, List[LifetimeClass]] = field(
        default_factory=dict)
    #: id(node) -> classes to release after it completes
    release_after: Dict[int, List[LifetimeClass]] = field(
        default_factory=dict)
    #: id(loop node) -> carried-slot indices safe to recycle per iteration
    rotating_slots: Dict[int, List[int]] = field(default_factory=dict)


def _interpreted_values(graph: Graph) -> List[Value]:
    """Every tensor value the interpreter may bind: graph inputs, block
    params, and node outputs — excluding kernel-internal bodies."""
    out: List[Value] = []

    def visit(block: Block) -> None:
        for p in block.params:
            if _is_tensor(p):
                out.append(p)
        for node in block.nodes:
            for o in node.outputs:
                if _is_tensor(o):
                    out.append(o)
            if node.op in _INTERPRETED_BLOCKS:
                for b in node.blocks:
                    visit(b)

    for p in graph.inputs:
        if _is_tensor(p):
            out.append(p)
    visit(graph.block)
    return out


def _ancestor_at(block_or_node, home: Block) -> Optional[Node]:
    """The ancestor node of a use site whose owning block is ``home``."""
    node = block_or_node.owning_node if isinstance(block_or_node, Block) \
        else block_or_node
    while node is not None and node.owning_block is not home:
        owner_block = node.owning_block
        node = owner_block.owning_node if owner_block is not None else None
    return node


def _capture_uses(graph: Graph) -> Dict[int, List[Node]]:
    """id(value) -> horizontal loop nodes reading it as a body capture
    (those reads happen outside the use lists)."""
    from ..ir.graph import free_values
    out: Dict[int, List[Node]] = {}
    for node in graph.walk():
        if not node.attrs.get("horizontal") or not node.blocks:
            continue
        for v in free_values(node.blocks[0]):
            out.setdefault(id(v), []).append(node)
    return out


def compute_liveness(graph: Graph,
                     alias: Optional[AliasGraph] = None) -> Liveness:
    """Build lifetime classes, release schedules, and rotating slots."""
    alias = alias if alias is not None else AliasGraph(graph)
    live = Liveness(graph)
    values = _interpreted_values(graph)
    captures = _capture_uses(graph)

    # -- 1. classes: union by view root (memory-edge components) --------
    by_root: Dict[int, LifetimeClass] = {}
    for v in values:
        root = alias.view_root(v)
        cls = by_root.get(id(root))
        if cls is None:
            cls = LifetimeClass(origin=root)
            by_root[id(root)] = cls
            live.classes.append(cls)
        if v is not root:
            cls.members.append(v)
        live.class_of[id(v)] = cls

    # -- 2. judge plannability and compute intervals --------------------
    positions: Dict[int, Dict[int, int]] = {}
    for cls in live.classes:
        _judge_and_schedule(cls, live, captures, positions)

    # -- 3. release schedule indices ------------------------------------
    for cls in live.classes:
        if not cls.plannable or cls.release_node is None:
            continue
        table = live.release_before if cls.release_before \
            else live.release_after
        table.setdefault(id(cls.release_node), []).append(cls)

    # -- 4. rotating loop-carried slots ---------------------------------
    for node in graph.walk():
        if node.op != "prim::Loop" or node.attrs.get("horizontal"):
            continue
        slots = _rotating_slots(node, live)
        if slots:
            live.rotating_slots[id(node)] = slots
    return live


def _fresh_storage_origin(origin: Value) -> bool:
    """Does the origin's producer allocate a fresh buffer at runtime?"""
    if origin.is_param or origin.node is None:
        return False
    node = origin.node
    if node.op in _FRESH_KERNEL_OPS:
        return True  # fusion/map outputs are materialized copies
    if node.op == "prim::Loop" and node.attrs.get("horizontal"):
        # the horizontal executor wraps its final state into fresh
        # storages even on zero trips, unlike the interpreted loop
        # whose outputs pass carried-in storage through
        return True
    return node.kind is OpKind.PURE


def _block_positions(home: Block,
                     cache: Dict[int, Dict[int, int]]) -> Dict[int, int]:
    table = cache.get(id(home))
    if table is None:
        table = {id(n): i for i, n in enumerate(home.nodes)}
        cache[id(home)] = table
    return table


def _judge_and_schedule(cls: LifetimeClass, live: Liveness,
                        captures: Dict[int, List[Node]],
                        positions: Dict[int, Dict[int, int]]) -> None:
    """Decide whether a class is releasable and where it dies."""
    origin = cls.origin

    def fail(reason: str) -> None:
        cls.plannable = False
        cls.reason = reason

    if not _fresh_storage_origin(origin):
        if origin.is_param:
            return fail("graph input or block parameter")
        if origin.node is not None and origin.node.kind is OpKind.CONSTANT:
            return fail("constant (weights stay resident)")
        return fail("origin does not own fresh storage "
                    f"({origin.node.op if origin.node else '?'})")

    home = origin.defining_block()
    if home.owning_node is not None and \
            home.owning_node.op not in _INTERPRETED_BLOCKS:
        return fail("kernel-internal (fusion/parallel-map body)")

    pos_of = _block_positions(home, positions)
    def_pos = pos_of.get(id(origin.node))
    if def_pos is None:
        return fail("origin detached from its block")

    last_pos = def_pos
    last_node: Node = origin.node
    # may the class's bytes be donated to the last user's own outputs?
    # True only when the final use is a direct operand of a node that
    # reads its inputs exactly once (simple op or fused kernel).
    donation_ok = False
    for v in cls.values:
        for use in v.uses:
            user = use.user
            if isinstance(user, Block) and user is home:
                if home.owning_node is None:
                    return fail("escapes as a graph output")
                return fail("escapes through the home block's return")
            anchor = _ancestor_at(user, home)
            if anchor is None:
                return fail(f"use of %{v.name} outside the home block "
                            f"subtree")
            pos = pos_of[id(anchor)]
            direct = anchor is user
            # a horizontal loop reads carried-in state once (iteration 0;
            # later iterations thread kernel-produced arrays), so it can
            # accept donations like a fused kernel; an interpreted loop
            # cannot — a zero-trip run passes carried storage through to
            # its outputs, which a pre-release could not protect
            reads_once = direct and (
                not anchor.blocks or anchor.op in _FRESH_KERNEL_OPS or
                (anchor.op == "prim::Loop" and
                 bool(anchor.attrs.get("horizontal"))))
            if pos > last_pos:
                last_pos, last_node = pos, anchor
                donation_ok = reads_once
            elif pos == last_pos and not reads_once:
                donation_ok = False
        for cap_node in captures.get(id(v), ()):
            anchor = _ancestor_at(cap_node, home)
            if anchor is None:
                return fail("captured by a loop outside the home block")
            pos = pos_of[id(anchor)]
            if pos >= last_pos:
                last_pos, last_node = pos, anchor
                donation_ok = False

    cls.home = home
    cls.interval = (def_pos, last_pos)
    cls.plannable = True
    cls.release_node = last_node
    cls.release_before = donation_ok and last_node is not origin.node


def _rotating_slots(loop: Node, live: Liveness) -> List[int]:
    """Carried slots whose previous generation dies at each rebinding.

    Slot ``k`` rotates when the body's returned value for it is a
    freshly-allocated tensor defined inside the loop body whose aliases
    all stay inside the body — then the value bound to the param at
    iteration ``i`` is unreachable once iteration ``i+1`` begins.
    """
    body = loop.blocks[0]
    slots: List[int] = []
    for k, ret in enumerate(body.returns[1:]):
        if not _is_tensor(ret):
            continue
        cls = live.class_of.get(id(ret))
        if cls is None or not _fresh_storage_origin(cls.origin):
            continue
        if not any(b is body for b in cls.origin.defining_block()
                   .ancestors()):
            continue  # passthrough of an outer value
        # every alias must also live inside the body: an escape into an
        # outer scope or container would outlive the iteration
        inside = True
        for v in cls.values:
            if not any(b is body for b in v.defining_block().ancestors()):
                inside = False
                break
            for use in v.uses:
                user = use.user
                user_block = user if isinstance(user, Block) \
                    else user.owning_block
                if user_block is not None and \
                        not any(b is body for b in user_block.ancestors()):
                    inside = False
                    break
                if isinstance(user, Node) and \
                        user.op in ("prim::ListConstruct",
                                    "prim::TupleConstruct", "aten::append"):
                    inside = False
                    break
            if not inside:
                break
        if inside:
            slots.append(k)
    return slots

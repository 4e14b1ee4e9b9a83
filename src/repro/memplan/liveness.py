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
  the enclosing control node at ``B``'s level.  The bodies of nodes
  that run as one kernel (``ir.graph.runs_as_kernel``: a fusion group
  or a horizontal loop) are kernel-internal: their values never reach
  the interpreter environment, get no class and are never released;
  a horizontal loop's body captures count as reads by the loop.

* **Loop back-edges.** A value produced inside a loop body and threaded
  to the next iteration through a carried slot is written fresh every
  iteration; the *previous* generation dies at the rebinding.  Such
  slots are marked *rotating* so the executor can recycle them
  per-iteration — the dominant reclamation on RNN-style workloads,
  where functionalization otherwise materializes one full output
  version per timestep.

* **Donation.** A kernel input that the kernel stores into, or that a
  fused group's binary member may overwrite (``out=``), whose class
  dies at that launch and whose buffer no other name can reach, is
  *donated*: the kernel writes it in place instead of copying it or
  allocating beside it (:class:`_Donations`), and an output that is
  that buffer inherits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..analysis.alias import AliasGraph
from ..analysis.dominance import enclosing_node_in_block
from ..analysis.ownership import plan_outs, plan_stores, returned_params
from ..ir import types as T
from ..ir.graph import (Block, Graph, Node, Use, Value, kernel_captures,
                        runs_as_kernel)
from ..ops.schema import OpKind

__all__ = ["LifetimeClass", "Liveness", "compute_liveness", "kernel_input"]

#: ops that put a tensor into a container (an alias no class follows)
_CONTAINER_PUTS = ("prim::ListConstruct", "prim::TupleConstruct",
                   "aten::append")


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
    #: id(kernel node) -> kernel argument positions whose dying buffer
    #: the kernel writes in place (no copy; an output that *is* it
    #: inherits it) — see :func:`kernel_input`
    donated: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: id(kernel node) -> {argument position: why the kernel still
    #: copies a buffer it stores into}
    kept: Dict[int, Dict[int, str]] = field(default_factory=dict)


def _interpreted_values(graph: Graph) -> List[Value]:
    """Every tensor value the interpreter may bind: graph inputs, block
    params, and node outputs — excluding kernel-internal bodies."""
    out = [p for p in graph.inputs if _is_tensor(p)]
    for node in _interpreted_nodes(graph.block):
        out.extend(o for o in node.outputs if _is_tensor(o))
        if not runs_as_kernel(node):
            out.extend(p for b in node.blocks for p in b.params
                       if _is_tensor(p))
    return out


def _interpreted_nodes(block: Block):
    """Nodes the interpreter executes, nested ``If``/``Loop`` bodies
    included (kernel bodies are not)."""
    for node in block.nodes:
        yield node
        if not runs_as_kernel(node):
            for b in node.blocks:
                yield from _interpreted_nodes(b)


def _capture_uses(graph: Graph) -> Dict[int, List[Node]]:
    """id(value) -> horizontal loop nodes reading it as a body capture
    (those reads happen outside the use lists)."""
    out: Dict[int, List[Node]] = {}
    for node in _interpreted_nodes(graph.block):
        for v in kernel_captures(node):
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

    # -- 3. donations: dying inputs a kernel writes in place ------------
    donations = _Donations(live, captures, positions)
    for node in _interpreted_nodes(graph.block):
        if runs_as_kernel(node):
            donations.plan(node)

    # -- 4. release schedule indices ------------------------------------
    for cls in live.classes:
        if not cls.plannable or cls.release_node is None:
            continue
        table = live.release_before if cls.release_before \
            else live.release_after
        table.setdefault(id(cls.release_node), []).append(cls)

    # -- 5. rotating loop-carried slots ---------------------------------
    for node in _interpreted_nodes(graph.block):
        if not _is_interpreted_loop(node):
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
    if runs_as_kernel(node):
        # a kernel's outputs are materialized copies: the horizontal
        # executor wraps its final state into fresh storages even on
        # zero trips, unlike the interpreted loop whose outputs pass
        # carried-in storage through
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
    pos_of = _block_positions(home, positions)
    def_pos = pos_of.get(id(origin.node))
    if def_pos is None:
        return fail("origin detached from its block")

    last = _last_use(cls.values, home, pos_of, captures, def_pos,
                     origin.node)
    if isinstance(last, str):
        return fail(last)
    last_pos, last_node, donation_ok = last
    cls.home = home
    cls.interval = (def_pos, last_pos)
    cls.plannable = True
    cls.release_node = last_node
    cls.release_before = donation_ok and last_node is not origin.node


def _last_use(values: List[Value], home: Block, pos_of: Dict[int, int],
              captures: Dict[int, List[Node]], last_pos: int,
              last_node: Optional[Node]
              ) -> Union[str, Tuple[int, Optional[Node], bool]]:
    """``(position, node, donation_ok)`` of the last use, in ``home``,
    of any of ``values`` — or why there is none to plan around (an
    escape).  ``donation_ok``: the final use is a direct operand of a
    node that reads its inputs exactly once (simple op or kernel), so
    the class's bytes may serve that node's outputs."""
    donation_ok = False
    for v in values:
        for use in v.uses:
            user = use.user
            if isinstance(user, Block) and user is home:
                if home.owning_node is None:
                    return "escapes as a graph output"
                return "escapes through the home block's return"
            anchor = enclosing_node_in_block(
                user.owning_node if isinstance(user, Block) else user, home)
            if anchor is None:
                return f"use of %{v.name} outside the home block subtree"
            pos = pos_of[id(anchor)]
            direct = anchor is user
            # a horizontal loop reads carried-in state once (iteration 0;
            # later iterations thread kernel-produced arrays), so it can
            # accept donations like a fused kernel; an interpreted loop
            # cannot — a zero-trip run passes carried storage through to
            # its outputs, which a pre-release could not protect
            reads_once = direct and (
                not anchor.blocks or runs_as_kernel(anchor))
            if pos > last_pos:
                last_pos, last_node = pos, anchor
                donation_ok = reads_once
            elif pos == last_pos and not reads_once:
                donation_ok = False
        for cap_node in captures.get(id(v), ()):
            anchor = enclosing_node_in_block(cap_node, home)
            if anchor is None:
                return "captured by a loop outside the home block"
            pos = pos_of[id(anchor)]
            if pos >= last_pos:
                last_pos, last_node = pos, anchor
                donation_ok = False
    return last_pos, last_node, donation_ok


def kernel_input(node: Node, arg: int) -> Value:
    """The input of kernel ``node`` bound to kernel argument ``arg``: a
    horizontal loop's carried inputs follow its trip count and
    condition, its body's params follow the index."""
    return node.input(arg + 1 if node.op == "prim::Loop" else arg)


def _is_interpreted_loop(node) -> bool:
    return isinstance(node, Node) and node.op == "prim::Loop" \
        and not runs_as_kernel(node)


def _flows(value: Value) -> List[Use]:
    """Uses that hand ``value``'s buffer on to another name without a
    copy: a block return (an ``If``/``Loop`` output or the next trip's
    carried param), an interpreted loop's carried init, or a container
    put.  Lifetime classes follow views, not these."""
    return [use for use in value.uses
            if isinstance(use.user, Block)
            or (_is_interpreted_loop(use.user) and use.index >= 2)
            or use.user.op in _CONTAINER_PUTS]


class _Donations:
    """Which kernel inputs may be written in place
    (:func:`compute_liveness` step 3): those the body stores into, and a
    fused group's ``out=`` targets (``ownership.plan_outs``).

    An input is *donated* when (1) its class dies at the kernel: the
    kernel is the last use, as a direct operand passed once, and no
    member hands the buffer on (:func:`_flows`) — so nothing reads the
    old contents afterwards; and (2) no other name can reach its buffer
    (:meth:`owned`): it is fresh storage, or an interpreted loop's
    carried value whose every source is.  Each refusal names the copy's
    reason: the caller's buffer, a live alias, or an interpreted
    zero-trip pass-through.
    """

    def __init__(self, live: Liveness, captures: Dict[int, List[Node]],
                 positions: Dict[int, Dict[int, int]]) -> None:
        self.live = live
        self.captures = captures
        self.positions = positions

    def plan(self, node: Node) -> None:
        body = node.blocks[0]
        donated: List[int] = []
        kept: Dict[int, str] = {}
        carried = node.op == "prim::Loop"
        stores = plan_stores(list(body.nodes), body, carried)
        outs = {} if carried else plan_outs(list(body.nodes), body, stores)
        returned = returned_params(stores, body, outs)
        for arg in sorted((*stores.stored, *outs)):
            why = self.refusal(node, kernel_input(node, arg))
            if why:
                if arg in stores.stored:
                    kept[arg] = why  # an out= member just allocates
                continue
            donated.append(arg)
            if arg in returned:
                # the buffer lives on as the output that *is* it: release
                # it after the launch, where that output keeps it
                cls = self.live.class_of[id(kernel_input(node, arg))]
                cls.release_before = False
        if donated:
            self.live.donated[id(node)] = tuple(donated)
        if kept:
            self.live.kept[id(node)] = kept

    def refusal(self, node: Node, v: Value) -> str:
        cls = self.live.class_of.get(id(v))
        if cls is None:
            return f"caller's buffer: %{v.name} is not an interpreter value"
        if cls.origin is not v:
            return f"live alias: %{v.name} is a view of %{cls.origin.name}"
        if sum(self.live.class_of.get(id(x)) is cls
               for x in node.inputs) > 1:
            return f"live alias: %{v.name} reaches the launch twice"
        for x in cls.values:
            if _flows(x):
                return (f"live alias: %{x.name} is handed on "
                        "(returned, loop-carried or put in a container)")
        home = v.defining_block()
        last = _last_use(cls.values, home,
                         _block_positions(home, self.positions),
                         self.captures, -1, None)
        if isinstance(last, str):
            return f"live alias: %{v.name} {last}"
        _, last_node, reads_once = last
        if last_node is not node or not reads_once:
            return f"live alias: %{v.name} is read after the launch"
        return self.owned(v, set())

    def owned(self, v: Value, active: Set[Tuple[int, int]]) -> str:
        """Why some other name may reach ``v``'s buffer ("" when none
        can): its sources, followed back through loop-carried slots."""
        if v.is_param:
            loop = v.param_block.owning_node
            if loop is None:
                return f"caller's buffer: %{v.name} is a graph input"
            if not _is_interpreted_loop(loop) or \
                    v is v.param_block.params[0]:
                return (f"caller's buffer: %{v.name} is a {loop.op} "
                        "parameter")
            return self.carried(loop, v.param_block.params.index(v) - 1,
                                active)
        node = v.node
        if node.kind is OpKind.CONSTANT:
            return f"caller's buffer: %{v.name} is a captured constant"
        if _fresh_storage_origin(v):
            return ""
        if _is_interpreted_loop(node):
            return self.carried(node, node.outputs.index(v), active,
                                output=True)
        return f"live alias: %{v.name} ({node.op}) may share a buffer"

    def carried(self, loop: Node, k: int, active: Set[Tuple[int, int]],
                output: bool = False) -> str:
        """Why carried slot ``k`` of an interpreted loop may share its
        buffer ("" when it cannot): the buffer enters from an init the
        loop alone reads, or from a back edge that hands on nothing but
        its return, and the param hands it on only through its own slot
        or wholly into an inner loop."""
        key = (id(loop), k)
        if key in active:
            return ""  # the buffer only circulates through this slot
        active = active | {key}
        body = loop.blocks[0]
        param, init = body.params[1 + k], loop.input(2 + k)
        ret = body.returns[1 + k]
        for x in self._members(param):
            for use in _flows(x):
                moves = (use.user is body and use.index == 1 + k) or (
                    _is_interpreted_loop(use.user)
                    and sum(len(m.uses) for m in self._members(param)) == 1)
                if not moves:
                    return (f"live alias: %{x.name} is handed on besides "
                            f"carried slot {k}")
        why = self.owned(init, active) or self._sole_reader(init, loop)
        if why:
            return f"interpreted zero-trip pass-through: {why}" \
                if output else why
        if ret is param:
            return ""
        rcls = self.live.class_of.get(id(ret))
        if rcls is None or rcls.origin is not ret \
                or not body.contains(ret.defining_block()):
            return (f"live alias: %{ret.name} is not a buffer the loop "
                    "body allocates")
        flows = [use for x in rcls.values for use in _flows(x)]
        if len(flows) != 1:
            return (f"live alias: %{ret.name} is handed on besides "
                    f"carried slot {k}")
        return self.owned(ret, active)

    def _members(self, v: Value) -> List[Value]:
        cls = self.live.class_of.get(id(v))
        return cls.values if cls is not None else [v]

    def _sole_reader(self, init: Value, loop: Node) -> str:
        cls = self.live.class_of.get(id(init))
        uses = [use for x in self._members(init) for use in x.uses]
        if cls is None or cls.origin is not init or len(uses) != 1 \
                or any(self.captures.get(id(x)) for x in cls.values):
            return f"live alias: %{init.name} is read besides the loop"
        return ""


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
        if not body.contains(cls.origin.defining_block()):
            continue  # passthrough of an outer value
        # every alias must also live inside the body: an escape into an
        # outer scope or container would outlive the iteration
        inside = True
        for v in cls.values:
            if not body.contains(v.defining_block()):
                inside = False
                break
            for use in v.uses:
                user = use.user
                user_block = user if isinstance(user, Block) \
                    else user.owning_block
                if user_block is not None and \
                        not body.contains(user_block):
                    inside = False
                    break
                if isinstance(user, Node) and user.op in _CONTAINER_PUTS:
                    inside = False
                    break
            if not inside:
                break
        if inside:
            slots.append(k)
    return slots

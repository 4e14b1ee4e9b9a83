"""Buffer ownership: may an Assign overwrite its base instead of cloning it?

TensorSSA's Assign is pure — "a new version of ``base`` with one window
replaced" (paper Def. 3.4) — and paper §3.2 licenses running it as the
mutation it came from wherever that cannot be observed.  Two callers ask
the same question with the same three pieces:

* ``passes/revert.py``, for Assigns fusion did *not* absorb: the graph
  rewrite back to ``view + copy_``, where a buffer is a ``Tensor``'s
  storage and only VIEW / MUTATING ops alias (:func:`eager_alias`);
* ``backend/codegen.py``, for Assigns *inside* a compiled kernel
  (:func:`plan_stores`): the generated source stores through the view
  into the existing numpy array, where every view-kernel row — the
  ``immut::`` Access forms included — returns an aliasing array
  (:func:`kernel_alias`, the row's ``aliases``).

The pieces: :data:`ASSIGN_TO_VIEW` (which window an Assign writes),
:func:`view_root` (whose buffer that is) and :func:`later_reader` (does
anything still expect the old contents).  Whatever they cannot prove
keeps the clone, so the ``KERNELS`` row stays the definition and the
store is a derived execution of it.  :func:`later_reader` also says
which kernel inputs a binary member may overwrite with its result
(:func:`plan_outs`, the ``out=`` form).
"""

from __future__ import annotations

from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from ..ir.graph import Block, Node, Value
from ..ops import registry
from ..ops.schema import OpKind
from ..runtime.kernels import INTO

#: assign op -> the view op whose window it writes (None = whole
#: tensor): the inverse of the registry's ``assign_op`` links, the first
#: registered view winning (``aten::reshape`` over ``aten::view``)
ASSIGN_TO_VIEW: Dict[str, Optional[str]] = {}
for _schema in registry.all_ops():
    if _schema.assign_op:
        ASSIGN_TO_VIEW.setdefault(_schema.assign_op, _schema.name)
ASSIGN_TO_VIEW["immut::assign"] = None

#: ``node -> the operand whose buffer its output shares, or None``
AliasRule = Callable[[Node], Optional[int]]


def eager_alias(node: Node) -> Optional[int]:
    """Aliasing between Tensors: views and mutating ops return (a view
    of) their first operand; every other op owns its result."""
    return 0 if node.kind in (OpKind.VIEW, OpKind.MUTATING) \
        and node.inputs else None


def kernel_alias(node: Node) -> Optional[int]:
    """Aliasing between the numpy arrays of a compiled kernel: what the
    op's ``KERNELS`` row says (a view kernel returns a numpy view under
    its ``immut::`` Access name too; a reshape-family Assign returns its
    source re-shaped)."""
    return node.schema.aliases


def view_root(value: Value, alias: AliasRule) -> Value:
    """``value`` followed up through aliasing producers to the value
    whose buffer it lives in."""
    seen = set()
    while value.node is not None and id(value) not in seen:
        seen.add(id(value))
        index = alias(value.node)
        if index is None:
            break
        value = value.node.input(index)
    return value


def later_reader(root: Value, pos: int, order: Dict[int, int],
                 exempt: Set[Tuple[int, int]],
                 alias: AliasRule) -> Optional[Value]:
    """Who still needs the buffer's old contents if it is overwritten
    at position ``pos``?  None when nobody does.

    Walks every consumer of ``root`` and, transitively, of every alias
    of it: each must be a node *earlier* in ``order`` (node id ->
    position; it already ran and read the pre-store data).  A later
    use, a block return, or a user outside ``order`` (a nested block a
    loop re-executes) makes the value it reads the answer.  ``exempt``
    lists ``(id(user), input index)`` uses known to be the store
    itself."""
    stack = [root]
    seen = {id(root)}
    while stack:
        value = stack.pop()
        for use in value.uses:
            user = use.user
            if (id(user), use.index) in exempt:
                continue
            if not isinstance(user, Node):
                return value  # a return reads the old value at the end
            at = order.get(id(user))
            if at is None or at >= pos:
                return value
            if alias(user) == use.index:
                out = user.output()
                if id(out) not in seen:
                    seen.add(id(out))
                    stack.append(out)
    return None


def buffer_owner(base: Value) -> Optional[Node]:
    """The node whose output Tensor owns ``base``'s storage, or None
    when ``base`` does not own it (graph input, constant, block param,
    or a view/alias — mutating those would write through to storage
    with uses we have not analyzed)."""
    node = base.node
    if node is None or node.op == "prim::Constant":
        return None
    if node.kind not in (OpKind.PURE, OpKind.CONTROL):
        return None
    if node.kind is OpKind.CONTROL and node.op != "prim::FusionGroup":
        return None  # If/Loop outputs are control-flow aliases
    return node


# -- inside a compiled kernel ----------------------------------------------

def _is_window_assign(node: Node) -> bool:
    """An Assign that replaces a strided window of its base (not the
    reshape family, whose result is the source re-shaped)."""
    return node.op in ASSIGN_TO_VIEW and node.schema.aliases is None


#: view names (either namespace) that always return a writable numpy
#: window of their operand: the ones a window Assign is the twin of
_WINDOW_VIEWS = {"alias"} | {
    view.split("::")[1] for assign, view in ASSIGN_TO_VIEW.items()
    if view is not None and registry.get(assign).aliases is None}


def _is_window_view(node: Node) -> bool:
    return kernel_alias(node) == 0 \
        and node.op.split("::")[1] in _WINDOW_VIEWS


def _alias_given(lowering: Dict[int, str]) -> AliasRule:
    """The kernel's alias rule once the Assigns in ``lowering`` return
    their base's own array."""
    return lambda node: 0 if id(node) in lowering else kernel_alias(node)


def _writes_back(assign: Node, view: Node) -> bool:
    """Is ``assign`` the Assign twin of the ``view`` node — same base,
    the same parameter Values (CSE has merged equal constants)?"""
    if not _is_window_assign(assign):
        return False
    name = ASSIGN_TO_VIEW[assign.op]
    return (name is not None
            and name.split("::")[1] == view.op.split("::")[1]
            and assign.input(0) is view.input(0)
            and len(assign.inputs) - 1 == len(view.inputs)
            and all(a is b for a, b in
                    zip(assign.inputs[2:], view.inputs[1:])))


class StorePlan(NamedTuple):
    """How one kernel body executes its Assigns (:func:`plan_stores`)."""

    #: id(Assign node) -> ``"store"`` (write the window into the base's
    #: own array) or ``"identity"`` (an outer link of a write-through
    #: chain: the window it would write already *is* the source)
    lowering: Dict[int, str]
    #: the Assigns that keep the row's clone, each with the reason
    clones: List[Tuple[Node, str]]
    #: positions in ``block.params`` whose buffer the body stores into:
    #: copied per launch unless the planner donated it, or (a carried
    #: slot) handed in by the caller as a buffer it owns
    stored: Tuple[int, ...]
    #: id(node) of in-kernel producers whose result is stored into
    roots: Set[int]


def plan_stores(nodes: Sequence[Node], block: Block,
                carried: bool = False) -> StorePlan:
    """Decide, for ``block``'s body emitted in the order ``nodes``,
    which window Assigns may store into their base's array.

    An Assign stores in place when (1) its base lives — through window
    views and earlier in-place Assigns — in a buffer the kernel owns: an
    array some member op allocated, or a block parameter (copied once,
    by the body before its first use or, for a ``carried`` slot of a
    loop body, by the caller before the first trip — unless the memory
    planner donated its dying buffer); and (2) no alias
    of that buffer is read, returned or used as the source at or after
    the store (:func:`later_reader`).  The write-through chain TensorSSA emits
    around it — ``X_assign(b, s, p)`` where ``s`` is the in-place result
    on ``X(b, p)`` with the same parameters — then has nothing left to
    write: each outer link is the identity on ``b``.

    With ``carried`` the block follows the ``prim::Loop`` convention
    (params ``(i, *carried)``, returns ``(cond, *carried)``) and a slot
    qualifies only if its buffer comes back in that slot alone, so one
    exclusively owned buffer threads through every trip.
    """
    order = {id(n): i for i, n in enumerate(nodes)}
    params = block.params
    ownable = {id(p) for p in (params[1:] if carried else params)}
    while True:
        plan = _plan_once(nodes, order, ownable, params)
        if not carried:
            return plan
        alias = _alias_given(plan.lowering)
        shared = {id(params[i]) for i in plan.stored
                  if any((view_root(ret, alias) is params[i]) != (j == i)
                         for j, ret in enumerate(block.returns))}
        if not shared:
            return plan
        ownable -= shared


#: the binary rows a kernel may run into a dying operand's buffer
OUT_OPS = frozenset(name for name, _ in INTO)

#: ``block.params`` position -> (the member that may write its result
#: into that param's buffer, which of the member's operands it is)
Outs = Dict[int, Tuple[Node, int]]


def plan_outs(nodes: Sequence[Node], block: Block, plan: StorePlan) -> Outs:
    """Which block parameters an ``out=`` member may overwrite: a direct
    operand of an :data:`OUT_OPS` member that nothing at or after it
    reads, through any alias (:func:`later_reader`), and that no Assign
    stores into.  Whether the caller's buffer may be written at all is
    the memory planner's question (``memplan/liveness.py``)."""
    order = {id(n): i for i, n in enumerate(nodes)}
    index = {id(p): i for i, p in enumerate(block.params)}
    alias = _alias_given(plan.lowering)
    outs: Outs = {}
    for pos, node in enumerate(nodes):
        if node.op not in OUT_OPS:
            continue
        for k, v in enumerate(node.inputs):
            arg = index.get(id(v))
            if arg is not None and arg not in plan.stored and \
                    later_reader(v, pos, order, {(id(node), k)},
                                 alias) is None:
                outs[arg] = (node, k)
                break
    return outs


def returned_params(plan: StorePlan, block: Block,
                    outs: Optional[Outs] = None) -> Set[int]:
    """Positions of ``block.params`` the kernel returns as the very array
    it was handed: a return reached from the param through in-place
    stores, chain identities and ``out=`` members alone."""
    index = {id(p): i for i, p in enumerate(block.params)}
    into = {id(node): k for node, k in (outs or {}).values()}
    out: Set[int] = set()
    for ret in block.returns:
        while ret.node is not None:
            if id(ret.node) in plan.lowering:
                ret = ret.node.input(0)
            elif id(ret.node) in into:
                ret = ret.node.input(into[id(ret.node)])
            else:
                break
        if id(ret) in index:
            out.add(index[id(ret)])
    return out


def _plan_once(nodes: Sequence[Node], order: Dict[int, int],
               ownable: Set[int], params: Sequence[Value]) -> StorePlan:
    lowering: Dict[int, str] = {}
    clones: List[Tuple[Node, str]] = []
    stored: Set[int] = set()
    roots: Set[int] = set()
    alias = _alias_given(lowering)

    def window(node: Node) -> Optional[int]:
        # upwards, only through what is certainly a writable window
        return 0 if id(node) in lowering or _is_window_view(node) else None

    for pos, node in enumerate(nodes):
        if node.op not in ASSIGN_TO_VIEW or id(node) in lowering:
            continue
        if not _is_window_assign(node):
            clones.append((node, "reshape-family Assign: its result is "
                           "the source re-shaped, not a window store"))
            continue
        root = view_root(node.input(0), window)
        why = _not_owned(root, order, ownable)
        if why:
            clones.append((node, why))
            continue
        links = _identity_links(node, order)
        reader = later_reader(
            root, pos, order,
            {(id(node), 0)} | {(id(link), 0) for link in links}, alias)
        if reader is not None:
            clones.append((node, f"%{reader.name} shares the buffer and is "
                           "read, returned or the source at or after the "
                           "store"))
            continue
        lowering[id(node)] = "store"
        for link in links:
            lowering[id(link)] = "identity"
        if root.node is None:
            stored.add(id(root))
        else:
            roots.add(id(root.node))

    return StorePlan(lowering, clones,
                     tuple(i for i, p in enumerate(params) if id(p) in stored),
                     roots)


def _not_owned(root: Value, order: Dict[int, int],
               ownable: Set[int]) -> str:
    """Why the kernel may not write the buffer behind ``root`` ("" when
    it may: the kernel allocated it, or copies it before writing)."""
    node = root.node
    if node is None or id(node) not in order:
        if id(root) in ownable:
            return ""
        return (f"%{root.name} is the caller's buffer (a capture, or a "
                "carried slot other values share)")
    if node.op.startswith("prim::"):
        return f"%{root.name} is a constant or a host scalar"
    if kernel_alias(node) is not None:
        return (f"%{root.name} ({node.op}) may or may not share its "
                "operand's buffer")
    return ""


def _identity_links(head: Node, order: Dict[int, int]) -> List[Node]:
    """The outer links of the write-through chain around ``head``:
    while the current link's base is ``X(b, p)``, the consumer that is
    ``X_assign(b, <current result>, p)``."""
    links: List[Node] = []
    cur = head
    while True:
        view = cur.input(0).node
        if view is None or id(view) not in order \
                or not _is_window_view(view):
            return links
        nxt = next((use.user for use in cur.output().uses
                    if use.index == 1 and isinstance(use.user, Node)
                    and _writes_back(use.user, view)), None)
        if nxt is None:
            return links
        links.append(nxt)
        cur = nxt

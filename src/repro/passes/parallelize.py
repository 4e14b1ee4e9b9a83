"""Horizontal parallelization (paper §4.2.2): decide what each pure loop
becomes.

Once TensorSSA functionalization has made a loop body pure, and that
body consists entirely of kernel-compilable ops, its trips are values,
and the part of a trip that does not read a carried value does not
depend on any earlier trip.  For a ``for``-form loop this pass runs
that part once for all trips, on a leading trip axis, with the
batching rules of :data:`repro.runtime.kernels.BATCH` (the
per-iteration -> batched derivation of Tensor Comprehensions and
TensorIR's block isolation):

* **Fission.**  The body splits into the slice reachable from the
  carried block params and the slice that is not.  The independent
  slice reads only captures and the induction variable ``i``; each of
  its nodes whose row has a rule is emitted once in the parent block,
  batched over ``range(trips)``, and the loop reads entry ``i`` back
  with ``select(H, 0, i)``.  ``select(x, d, i + b)`` of a capture is
  the trip window ``batch::select(x, d, b, trips)``; a map row
  broadcasts over the trip axis (``batch::align`` first gives an entry
  the size-1 dims a trip's broadcast would: ranks are not static); a
  view shifts its dims past it.  A node whose row has no rule stays in
  the loop, with everything that reads it; a loop with nothing to
  compute once is left exactly as it is.  A loop that keeps trips runs
  ``CHUNK`` of them at a time inside an outer loop over the chunks, so
  the hoisted slice holds at most ``CHUNK`` trips' values, and zero
  trips run none of it.
* **Collapse.**  If what remains only writes the carried tensor at a
  window that is disjoint across trips — ``select(V, d, i + b)`` of
  ``V``, the tensor or whole-dim slices of it, read nowhere else — the
  loop is replaced by one store of the whole window
  (``batch::select_assign``).

Every rule reproduces the per-trip bits (DESIGN.md §19); a loop that
keeps trips is marked ``horizontal`` and runs its body kernel once per
trip (``backend/fusion_runtime.py``), captures derived from the body on
demand (:func:`repro.ir.graph.kernel_captures`).  What happened to each
loop is recorded on ``graph.loop_outcomes`` for ``tools/inspect``.

Must run *after* TensorSSA conversion (a body containing mutation is
never eligible) and *before* vertical fusion (so the loop body is still
raw ops, not an opaque group).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..backend.kernels import OP_IMPLS
from ..ir import types as T
from ..ir.graph import (Block, Graph, Node, Value, bulk_destroy,
                        constant_value, is_for_loop, runs_as_kernel)
from ..runtime.kernels import BATCH


class LoopOutcome(NamedTuple):
    """What the pass made of one loop (named by its first output)."""

    loop: str
    #: ``"lowered"`` (no loop left), ``"fissioned"`` or ``"per trip"``
    outcome: str
    #: nodes hoisted out of the body and run once, batched
    hoisted: int = 0


def _is_compilable_body(body: Block) -> bool:
    if not body.nodes:
        return False
    for node in body.nodes:
        if node.blocks:
            return False
        if node.op == "prim::Constant":
            continue
        if node.op not in OP_IMPLS or len(node.outputs) != 1:
            return False
    return True


def _offset(v: Value, i: Value) -> Optional[int]:
    """``b`` when ``v`` is ``i + b`` for a constant int ``b >= 0``."""
    if v is i:
        return 0
    node = v.node
    if node is None or node.op != "prim::add":
        return None
    for a, c in (node.inputs, node.inputs[::-1]):
        base, b = _offset(a, i), constant_value(c)
        if base is not None and type(b) is int and b >= 0:
            return base + b
    return None


def _trips(loop: Node) -> Optional[Value]:
    """The trip count of a ``for``-form loop (condition constant True
    on entry and after every trip), else None."""
    return loop.input(0) if is_for_loop(loop) else None


class _Emitter:
    """Builds the batched nodes in the parent block, before the loop."""

    def __init__(self, graph: Graph, loop: Node) -> None:
        self.graph, self.loop = graph, loop
        self.body = loop.blocks[0]
        self.map: Dict[int, Value] = {}
        self.nodes: List[Node] = []  # what it built, in order

    def put(self, node: Node) -> Value:
        self.loop.owning_block.insert_before(self.loop, node)
        self.nodes.append(node)
        return node.output()

    def const(self, value) -> Value:
        return self.put(self.graph.constant(value))

    def outer(self, v: Value) -> Value:
        """``v`` as the parent block sees it."""
        if id(v) in self.map:
            return self.map[id(v)]
        node = v.node
        if node is not None and node.op == "prim::Constant" \
                and node.owning_block is self.body:
            self.map[id(v)] = self.const(node.attrs.get("value"))
            return self.map[id(v)]
        return v

    def emit(self, op: str, inputs, like: Value,
             typ: Optional[T.Type] = None) -> Value:
        return self.put(self.graph.create(op, inputs, [self.graph.fresh_name(
            like.name)], [typ or T.TensorType()]))


def _classify(body: Block, i: Value) -> Dict[int, str]:
    """id(value) -> ``"loop"`` (reads a carried value, or has no rule),
    ``"i"`` (host scalar ``i + b``), ``"inv"`` (reads neither ``i``
    nor a carried value), ``"bat"`` (batchable) — absent: outside."""
    kind = {id(p): "loop" for p in body.params[1:]}
    kind[id(i)] = "i"
    for node in body.nodes:
        if node.op == "prim::Constant":
            continue
        ks = [kind.get(id(v), "inv") for v in node.inputs]
        out = id(node.output())
        if "loop" in ks:
            kind[out] = "loop"
        elif all(k == "inv" for k in ks):
            kind[out] = "inv"
        elif _offset(node.output(), i) is not None:
            kind[out] = "i"
        else:
            kind[out] = "bat" if _batchable(node, ks, i) else "loop"
    return kind


def _batchable(node: Node, ks: List[str], i: Value) -> bool:
    rule = BATCH.get(node.op)
    if rule is None:
        return False
    if rule.kind == "view" and node.op.endswith("::select") \
            and ks[:2] == ["inv", "inv"] and ks[2] == "i":
        return _offset(node.input(2), i) is not None  # the trip window
    if "i" in ks:
        return False
    if rule.kind == "map":
        return True
    return ks[0] == "bat" and all(k == "inv" for k in ks[1:]) and all(
        type(constant_value(node.input(p))) is int
        and constant_value(node.input(p)) >= 0 for p in rule.dims)


def _batched(em: _Emitter, node: Node, kind: Dict[int, str],
             i: Value, trips: Value) -> Value:
    """Emit ``node`` once for every trip; its value, trip axis first."""
    rule = BATCH[node.op]
    ins = list(node.inputs)
    out = node.output()
    if rule.kind == "view" and kind.get(id(ins[0]), "inv") != "bat":
        return em.emit("batch::select", [
            em.outer(ins[0]), em.outer(ins[1]),
            em.const(_offset(ins[2], i)), trips], like=out)
    if rule.kind == "view":
        return em.emit(node.op, [em.outer(ins[0])] + [
            em.const(constant_value(v) + 1) if p in rule.dims
            else em.outer(v)
            for p, v in enumerate(ins) if p], like=out)
    # an entry whose rank is below another operand's gets size-1 dims
    # after the trip axis, as a trip's broadcast would give it
    args = []
    for v in ins:
        a = em.outer(v)
        if kind.get(id(v)) == "bat":
            for o in ins:
                if o is not v and o.type.is_tensor:
                    a = em.emit("batch::align", [
                        a, em.outer(o),
                        em.const(kind.get(id(o)) == "bat")], like=v)
        args.append(a)
    return em.emit(node.op, args, like=out)


def _fission(graph: Graph, loop: Node, trips: Value
             ) -> Tuple[int, Dict[int, Value], List[Node]]:
    """Hoist the loop's batchable carried-independent slice.  Returns
    how many nodes left the body, ``id(readback) -> the batched value
    it reads entry i of``, and the nodes built before the loop."""
    body = loop.blocks[0]
    i = body.params[0]
    kind = _classify(body, i)
    # the batchable nodes and the invariant ones they read
    hoist = set()
    for node in reversed(body.nodes):
        k = kind.get(id(node.output())) if node.outputs else None
        if k == "bat" or (k == "inv" and any(
                id(u.user) in hoist for u in node.output().uses)):
            hoist.add(id(node))
    moved = [n for n in body.nodes if id(n) in hoist]
    if not any(BATCH[n.op].kind == "map" for n in moved
               if kind[id(n.output())] == "bat"):
        return 0, {}, []  # views alone: nothing to compute once
    em = _Emitter(graph, loop)
    for node in moved:
        out = node.output()
        if kind[id(out)] == "inv":
            em.map[id(out)] = em.emit(node.op, [em.outer(v)
                                                for v in node.inputs],
                                      like=out, typ=out.type)
        else:
            em.map[id(out)] = _batched(em, node, kind, i, trips)
    readbacks = {}
    zero = None
    for node in moved:
        v = node.output()
        if all(isinstance(u.user, Node) and id(u.user) in hoist
               for u in v.uses):
            continue
        new = em.map[id(v)]
        if kind[id(v)] == "bat":
            if zero is None:
                zero = graph.constant(0)
                body.insert(0, zero)
            rb = graph.create("aten::select", [new, zero.output(), i],
                              [graph.fresh_name(v.name)], [v.type])
            body.insert(1, rb)
            readbacks[id(rb.output())] = new
            new = rb.output()
        v.replace_all_uses_with(new)
    bulk_destroy(moved)
    return len(moved), readbacks, em.nodes


#: the most trips a fissioned loop's hoisted slice runs at once: what it
#: holds is bounded by this many trips' values, not by the trip count
#: (greedy NMS over k boxes keeps O(CHUNK * k), not O(k * k))
CHUNK = 64


def _strip_mine(graph: Graph, loop: Node, trips: Value,
                hoisted: List[Node], readbacks: Dict[int, Value]) -> None:
    """Run a fissioned ``loop`` ``CHUNK`` trips at a time: an outer loop
    whose trip ``c`` runs the ``hoisted`` nodes over trips ``[c * CHUNK,
    c * CHUNK + n)`` and then ``loop`` over those ``n``.  Zero trips
    make zero chunks, so the hoisted slice then runs, and checks,
    nothing — as no trip of the eager loop would."""
    block, body = loop.owning_block, loop.blocks[0]

    def scalar(op: str, *inputs: Value) -> Node:
        return graph.create(op, inputs, [graph.fresh_name("chunk")],
                            [T.IntType()])

    def before(node: Node) -> Value:
        return block.insert_before(loop, node).output()

    size = before(graph.constant(CHUNK))
    chunks = before(scalar("prim::floordiv", before(scalar(
        "prim::add", trips, before(graph.constant(CHUNK - 1)))), size))
    outer = block.insert_before(loop, graph.create(
        "prim::Loop", [chunks, loop.input(1), *loop.inputs[2:]]))
    ob = outer.add_block()
    c = ob.add_param("c", T.IntType())
    for k, p in enumerate(body.params[1:]):
        loop.set_input(2 + k, ob.add_param(p.name, p.type))
    for out in loop.outputs:
        out.replace_all_uses_with(outer.add_output(out.name, out.type))
    first = ob.append(scalar("prim::mul", c, size)).output()
    n = ob.append(scalar("prim::min", size, ob.append(
        scalar("prim::sub", trips, first)).output())).output()
    for node in hoisted:
        block.remove(node)
        ob.append(node)
        if node.op == "batch::select":  # (x, dim, b, trips) from `first`
            start = ob.insert(len(ob.nodes) - 1, scalar(
                "prim::add", first, node.input(2))).output()
            node.set_input(2, start)
            node.set_input(3, n)
    block.remove(loop)
    ob.append(loop)
    loop.set_input(0, n)
    ob.add_return(loop.input(1))
    for out in loop.outputs:
        ob.add_return(out)
    # trip j of the chunk is trip first + j of the loop; the readbacks
    # index the chunk's slice by j itself
    j = body.params[0]
    i = body.insert(0, scalar("prim::add", first, j)).output()
    for use in list(j.uses):
        user = use.user
        if user is not i.node and id(user.output()) not in readbacks:
            user.set_input(use.index, i)


_WINDOWS = {"immut::select_assign": "select", "immut::slice_assign": "slice"}
_FILLS = {"aten::full_like": None, "aten::zeros_like": 0,
          "aten::ones_like": 1}


def _window(v: Value, kind: Dict[int, str], i: Value) -> bool:
    """Is ``v`` ``select(x, d, i + b)`` of an ``x`` the loop captures?"""
    node = v.node
    return node is not None and node.op.endswith("::select") \
        and node.op in BATCH and kind.get(id(node.input(0)), "inv") == "inv" \
        and kind.get(id(node.input(1)), "inv") == "inv" \
        and _offset(node.input(2), i) is not None


def _twin(assign: Node, base: Value) -> Optional[Node]:
    """The view node reading the window ``assign`` writes into ``base``."""
    name = _WINDOWS[assign.op]
    for use in base.uses:
        view = use.user
        if isinstance(view, Node) and use.index == 0 \
                and view.op in (f"aten::{name}", f"immut::{name}") \
                and len(view.inputs) == len(assign.inputs) - 1 \
                and all(a is b for a, b in zip(view.inputs[1:],
                                                assign.inputs[2:])):
            return view
    return None


def _collapse(graph: Graph, loop: Node, trips: Value,
              readbacks: Dict[int, Value]) -> bool:
    """Replace a loop whose trips write disjoint windows of its one
    carried tensor by one store; False (loop untouched) otherwise."""
    body = loop.blocks[0]
    if len(body.params) != 2:
        return False
    i, p = body.params
    levels: List[Tuple[Node, Node]] = []  # (view, its Assign twin)
    base, a = p, body.returns[1].node
    while a is not None and a.op in _WINDOWS and a.input(0) is base:
        view = _twin(a, base)
        if view is None:
            return False
        levels.append((view, a))
        base, a = view.output(), a.input(1).node
    if not levels or a is None or a.op != "immut::assign" \
            or a.input(0) is not base:
        return False
    src = a.input(1)
    kind = _classify(body, i)
    slot = next((k for k, (view, _) in enumerate(levels)
                 if any(kind.get(id(v)) in ("i", "loop")
                        for v in view.inputs[1:])), None)
    if slot != len(levels) - 1 or levels[slot][0].op.split("::")[1] \
            != "select" or _offset(levels[slot][0].input(2), i) is None:
        return False
    # every view above the window is a slice of a whole dim at or before
    # the window's: that tensor itself, and its Assign the whole tensor
    # (the window's select checks that dim's range) — nothing left to
    # read from the init, so zero trips read nothing
    dim = constant_value(levels[slot][0].input(1))
    if type(dim) is not int or dim < 0 or not all(
            view.op.split("::")[1] == "slice"
            and type(constant_value(view.input(1))) is int
            and 0 <= constant_value(view.input(1)) <= dim
            and constant_value(view.input(2)) in (0, None)
            and constant_value(view.input(3)) is None
            and constant_value(view.input(4)) == 1
            for view, _ in levels[:slot]):
        return False
    allowed = {id(n) for pair in levels for n in pair} | {id(a)}
    fill = src.node  # a constant fill of the innermost window?
    if fill is None or fill.op not in _FILLS or fill.input(0) is not base \
            or any(kind.get(id(v), "inv") != "inv" for v in fill.inputs[1:]):
        fill = None
    else:
        allowed.add(id(fill))
    if id(src) in readbacks or _window(src, kind, i):
        allowed.add(id(src.node))
    elif fill is None and src.defining_block() is body:
        return False
    for node in body.nodes:
        if id(node) not in allowed and node.op != "prim::Constant" \
                and kind[id(node.output())] != "i":
            return False
    # the carried value and each view of it are read only by the chain
    readers = [{id(view), id(assign)} for view, assign in levels]
    readers.append({id(a), id(fill)})
    for v, users in zip([p] + [view.output() for view, _ in levels],
                        readers):
        if any(not isinstance(u.user, Node) or id(u.user) not in users
               for u in v.uses):
            return False

    em = _Emitter(graph, loop)
    cur = loop.input(2)
    dim = em.const(dim)
    start = em.const(_offset(levels[slot][0].input(2), i))
    value = None if fill is None else em.outer(fill.input(1)) \
        if _FILLS[fill.op] is None else em.const(_FILLS[fill.op])
    if fill is not None:
        new = em.emit("batch::select_assign",
                      [cur, value, dim, start, trips], like=cur)
    else:
        if id(src) in readbacks:
            stack = readbacks[id(src)]
        elif _window(src, kind, i):
            read = src.node
            stack = em.emit("batch::select", [
                em.outer(read.input(0)), em.outer(read.input(1)),
                em.const(_offset(read.input(2), i)), trips], like=src)
        else:
            stack = em.emit("aten::unsqueeze", [src, em.const(0)], like=src)
        window = em.emit("batch::select", [cur, dim, start, trips],
                         like=base)
        stack = em.emit("batch::fit", [stack, window], like=src)
        new = em.emit("batch::select_assign",
                      [cur, stack, dim, start, trips], like=cur)
    loop.output(0).replace_all_uses_with(new)
    loop.destroy()
    return True


def _parallelize_block(graph: Graph, block: Block,
                       outcomes: List[LoopOutcome]) -> int:
    count = 0
    for node in list(block.nodes):
        for inner in node.blocks:
            count += _parallelize_block(graph, inner, outcomes)
        if node.op != "prim::Loop" or runs_as_kernel(node) \
                or not _is_compilable_body(node.blocks[0]):
            continue
        name = node.outputs[0].name if node.outputs else "loop"
        trips = _trips(node)
        hoisted, readbacks, built = (0, {}, []) if trips is None \
            else _fission(graph, node, trips)
        count += 1
        if trips is not None and _collapse(graph, node, trips, readbacks):
            outcomes.append(LoopOutcome(name, "lowered", hoisted))
            continue
        if built:
            _strip_mine(graph, node, trips, built, readbacks)
        # captures are NOT snapshotted here: every consumer derives
        # them from the body via ir.graph.kernel_captures, so later
        # passes may freely rewrite captured values without
        # desynchronizing; the one place that reads the mark is
        # ir.graph.runs_as_kernel
        node.attrs["horizontal"] = True
        outcomes.append(LoopOutcome(
            name, "fissioned" if hoisted else "per trip", hoisted))
    return count


def parallelize_loops(graph: Graph) -> int:
    """Batch, lower or mark every eligible loop; returns how many.
    ``graph.loop_outcomes`` lists what each became."""
    outcomes: List[LoopOutcome] = []
    count = _parallelize_block(graph, graph.block, outcomes)
    graph.loop_outcomes = outcomes
    return count

"""Reverse-mode adjoint construction over functional TensorSSA graphs.

The gradient transform (:func:`grad`) is a *graph-to-graph* pass: it
clones the forward graph, seeds the loss outputs with ``ones_like``
adjoints, sweeps the clone in reverse program order dispatching each
node to the VJP rule on its :class:`~repro.ops.schema.OpSchema`, and
returns a plain TensorSSA graph whose outputs are the input gradients.
Because functionalization (paper §3-4) already removed every mutation,
the sweep needs no aliasing analysis and no tape: each SSA value has
exactly one defining node, so the adjoint of a value is just the sum of
the VJP contributions of its uses.

Control flow differentiates structurally:

* ``prim::If`` — both branches are re-cloned into a new adjoint ``If``
  on the same condition; each adjoint branch seeds its forward returns
  with the demanded output adjoints, back-propagates, and returns one
  adjoint per *captured tensor* (the union over both branches, zeros
  where a branch does not touch a capture).
* ``prim::Loop`` — a tape-free scan: the forward loop stashes each
  iteration's *entering* carried state into ``grad::stash_init``
  buffers (a ``while`` loop, whose trip count ``N`` exists only at
  runtime, counts its trips and a replay loop fills the stash), and a
  reverse loop runs ``N`` iterations backwards, re-cloning the body at
  iteration ``j = N-1-r`` from the stashed state and sweeping it.
  Carried adjoints thread through the reverse loop; captured-tensor
  adjoints accumulate in extra carried slots.

What a loop stores and what it recomputes is one rule, AOTAutograd's
default partition: *stash library-op results, stash nothing read only
for its shape, recompute the rest.*

* A ``for`` loop stashes each GEMM result (``aten::linear`` /
  ``matmul`` / ``bmm``) the reverse body reads for its values, when
  the GEMM provably has one shape on every trip (:func:`_fixed_shape`);
  the reverse body reads the row instead of running the GEMM again.
  The row holds the bits the forward computed, so nothing changes.
* A carried value the reverse body reads only for its shape and dtype
  (``zeros_like``, ``unbroadcast``'s template, an Assign feeding only
  those) gets no stash when its shape cannot change from trip to trip;
  the loop's result stands in for it.
* Everything else — the pointwise ops between the GEMMs, the gate
  slices, the window reads — is recomputed, and the pass pipeline
  (CSE, fusion, parallelization) fuses the recomputation like any
  other code.  The forward graph is pure, so re-running it is always
  legal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import GradError
from ..ir import types as T
from ..ir.clone import clone_graph, clone_region
from ..ir.graph import (NOT_CONSTANT, Block, Graph, Node, Value,
                        constant_value, free_values, is_for_loop,
                        runs_as_kernel)
from ..ops import registry
from ..ops.schema import OpKind

__all__ = ["GradBuilder", "grad", "const_value"]

#: ops the reverse sweep handles structurally (no OpSchema VJP)
_STRUCTURAL = {"prim::Constant", "prim::ListConstruct",
               "prim::TupleConstruct", "prim::TupleUnpack", "prim::If",
               "prim::Loop", "tssa::update"}

def const_value(v: Value, what: str):
    """The compile-time Python value behind ``v``.

    VJP rules use this to read structural operands (reduction dims,
    permutations) that must be static for the adjoint to be
    constructible; a non-constant operand raises :class:`GradError`.
    """
    payload = constant_value(v)
    if payload is not NOT_CONSTANT:
        return payload
    if v.node is not None and v.node.op == "prim::ListConstruct":
        return [const_value(x, what) for x in v.node.inputs]
    raise GradError(f"{what} must be a compile-time constant to "
                    f"differentiate, got runtime value %{v.name}")


class GradBuilder:
    """Node-emission helper threaded through every VJP rule.

    Keeps a *current block* (adjoint emission retargets it into If
    branches and Loop bodies) and types emitted nodes from their
    schema's ``result_types`` templates, mirroring the frontend
    lowerer.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.block: Block = graph.block

    # -- emission -------------------------------------------------------

    def const(self, value, name: str = "c") -> Value:
        """Emit a ``prim::Constant`` in the current block."""
        node = self.graph.constant(value, name=name)
        self.block.append(node)
        return node.output()

    def emit(self, op: str, inputs: Sequence[Value],
             name: str = "g") -> Node:
        """Emit ``op`` over ``inputs`` in the current block, typing the
        outputs from the schema's result templates."""
        types_ = registry.get(op).output_types([v.type for v in inputs])
        node = self.graph.create(op, inputs,
                                 output_names=[name] * len(types_),
                                 output_types=types_)
        self.block.append(node)
        return node

    def e1(self, op: str, *inputs: Value, name: str = "g") -> Value:
        """Emit a single-output op; returns the output Value."""
        return self.emit(op, list(inputs), name=name).output()

    def zeros_like(self, v: Value) -> Value:
        """A fresh zero adjoint shaped like ``v``."""
        return self.e1("aten::zeros_like", v, name="gz")

    def ones_like(self, v: Value) -> Value:
        """The seed adjoint for a loss output."""
        return self.e1("aten::ones_like", v, name="seed")

    # -- adjoint bookkeeping -------------------------------------------

    def accumulate(self, adjoints: Dict[int, Value], value: Value,
                   g: Optional[Value]) -> None:
        """Add contribution ``g`` to ``value``'s adjoint (sum of uses).

        Non-tensor values never carry adjoints (host scalars are
        treated as non-differentiable wiring), and ``None``
        contributions are dropped — both make VJP rules shorter.
        """
        if g is None or not value.type.is_tensor:
            return
        prev = adjoints.get(id(value))
        adjoints[id(value)] = (g if prev is None
                               else self.e1("aten::add", prev, g, name="gacc"))


# ---------------------------------------------------------------------------
# free-value analysis
# ---------------------------------------------------------------------------

def _free_tensors(blocks: Sequence[Block]) -> List[Value]:
    """Ordered union of the deep free *tensor* values of ``blocks`` —
    every captured tensor is a differentiation path out of the region."""
    out: List[Value] = []
    seen = set()
    for b in blocks:
        for v in free_values(b, deep=True):
            if v.type.is_tensor and id(v) not in seen:
                seen.add(id(v))
                out.append(v)
    return out


# ---------------------------------------------------------------------------
# the reverse sweep
# ---------------------------------------------------------------------------

def _backprop(builder: GradBuilder, nodes: Sequence[Node],
              adjoints: Dict[int, Value]) -> None:
    """Sweep ``nodes`` in reverse, dispatching VJPs and accumulating
    input adjoints into ``adjoints`` (keyed by ``id(Value)``)."""
    for node in reversed(list(nodes)):
        op = node.op
        if op == "prim::If":
            _if_adjoint(builder, node, adjoints)
            continue
        if op == "prim::Loop":
            _loop_adjoint(builder, node, adjoints)
            continue
        if op == "prim::TupleUnpack":
            _tuple_unpack_adjoint(builder, node, adjoints)
            continue
        if op in _STRUCTURAL:
            continue
        grads = [adjoints.get(id(o)) for o in node.outputs]
        if not any(g is not None for g in grads):
            continue  # nothing downstream demanded this node
        schema = node.schema
        if schema.differentiable is False:
            raise GradError(
                f"op {op} is not differentiable, but an adjoint of "
                f"%{node.output(0).name} is demanded by the loss")
        if schema.vjp is None:
            raise GradError(
                f"op {op} has no VJP registered "
                "(OpSchema.differentiable is unclassified)")
        in_grads = schema.vjp(builder, node, grads)
        if len(in_grads) != len(node.inputs):
            raise GradError(f"VJP for {op} returned {len(in_grads)} "
                            f"gradients for {len(node.inputs)} inputs")
        for v, g in zip(node.inputs, in_grads):
            if g is None:
                continue
            if isinstance(g, (list, tuple)):
                # a list-slot adjoint (cat/stack): distribute onto the
                # elements of the feeding ListConstruct
                src = v.node
                if src is None or src.op != "prim::ListConstruct":
                    raise GradError(
                        f"list adjoint of {op} needs a prim::ListConstruct "
                        f"operand, got %{v.name}")
                for elem, ge in zip(src.inputs, g):
                    builder.accumulate(adjoints, elem, ge)
                continue
            builder.accumulate(adjoints, v, g)


def _tuple_unpack_adjoint(builder: GradBuilder, node: Node,
                          adjoints: Dict[int, Value]) -> None:
    """Route unpack-output adjoints back onto the packed elements."""
    src = node.input(0).node
    if src is None or src.op != "prim::TupleConstruct":
        raise GradError("cannot differentiate prim::TupleUnpack of an "
                        "opaque tuple value")
    for elem, out in zip(src.inputs, node.outputs):
        builder.accumulate(adjoints, elem, adjoints.get(id(out)))


# ---------------------------------------------------------------------------
# prim::If adjoint
# ---------------------------------------------------------------------------

def _if_adjoint(builder: GradBuilder, node: Node,
                adjoints: Dict[int, Value]) -> None:
    """Differentiate an ``If`` by re-cloning each branch inside a new
    adjoint ``If`` on the same condition.

    Gradient flows out of a branch only through its *captured* tensors
    (branch blocks have no params), so the adjoint ``If`` returns one
    adjoint per captured tensor — the ordered union over both branches,
    ``zeros_like`` where a branch does not reference a capture.
    """
    grads = [adjoints.get(id(o)) for o in node.outputs]
    if not any(g is not None for g in grads):
        return
    captures = _free_tensors(node.blocks)
    gnode = builder.graph.create("prim::If", [node.input(0)])
    for branch in node.blocks:
        gb = gnode.add_block()
        saved = builder.block
        builder.block = gb
        try:
            rets, cloned = clone_region(branch, gb, builder.graph, {})
            local: Dict[int, Value] = {}
            for r, g in zip(rets, grads):
                builder.accumulate(local, r, g)
            _backprop(builder, cloned, local)
            for f in captures:
                gf = local.get(id(f))
                gb.add_return(gf if gf is not None
                              else builder.zeros_like(f))
        finally:
            builder.block = saved
    outs = [gnode.add_output(f"gif_{f.name.split('.')[0]}", T.TensorType())
            for f in captures]
    builder.block.append(gnode)
    for f, o in zip(captures, outs):
        builder.accumulate(adjoints, f, o)


# ---------------------------------------------------------------------------
# prim::Loop adjoint (tape-free scan)
# ---------------------------------------------------------------------------

def _clone_body(body: Block, dst: Block, graph: Graph, trip: Value,
                carried: Sequence[Value]) -> Tuple[List[Value], List[Node]]:
    """Re-clone a loop body into ``dst`` with the trip variable and
    carried params substituted; outer captures map to themselves."""
    vmap = {id(body.params[0]): trip}
    for p, v in zip(body.params[1:], carried):
        vmap[id(p)] = v
    return clone_region(body, dst, graph, vmap)


#: the scalar a 0-d stash row converts back to, by carried type
#: (``_loop_adjoint`` refuses every other non-tensor carried type)
_FROM_ROW = {T.IntType: "aten::Int", T.FloatType: "aten::Float",
             T.BoolType: "aten::Bool"}

#: library ops whose results a ``for`` loop stashes: the reverse loop
#: reads them instead of running the GEMM a second time
_STORED = {"aten::linear", "aten::matmul", "aten::bmm"}

#: each window read and the Assign that writes the same window (§3.2)
WINDOWS = {f"{ns}::{w}": f"immut::{w}_assign"
           for w in ("select", "slice", "narrow") for ns in ("aten", "immut")}
_ASSIGNS = {*WINDOWS.values(), "immut::assign"}

#: (op, operand) pairs that read only the operand's shape and dtype
_TEMPLATES = {("aten::zeros_like", 0), ("aten::ones_like", 0),
              ("aten::full_like", 0), ("grad::unbroadcast", 1),
              ("grad::reshape_like", 1)}


def _shape_only(v: Value, memo: Dict[int, bool]) -> bool:
    """Is ``v`` read only for its shape and dtype?  Every use must be a
    template operand, or an operand of a window read (the base) or an
    Assign (base or source) whose result is itself read only so: such
    a result's shape follows from its operands' shapes alone."""
    if id(v) not in memo:
        memo[id(v)] = False  # no cycles in SSA; a guard all the same
        memo[id(v)] = all(
            isinstance(u.user, Node) and (
                (u.user.op, u.index) in _TEMPLATES
                or ((u.user.op in WINDOWS and u.index == 0
                     or u.user.op in _ASSIGNS and u.index < 2)
                    and _shape_only(u.user.output(), memo)))
            for u in v.uses)
    return memo[id(v)]


def _assign_rooted(ret: Value, param: Value) -> bool:
    """Does ``ret`` come from ``param`` through Assigns alone?  Then the
    carried value has its init's shape and dtype on every trip."""
    while ret is not param:
        if ret.node is None or ret.node.op not in _ASSIGNS:
            return False
        ret = ret.node.input(0)
    return True


#: the window operand that may move from trip to trip without resizing
#: the window: select's index, narrow's start
_MOVES = {f"{ns}::{w}": 2 for w in ("select", "narrow")
          for ns in ("aten", "immut")}


def _fixed_shape(v: Value, body: Block) -> bool:
    """Does ``v`` provably have one shape and dtype on every trip of
    ``body``?  A value from outside the body does; a carried param does
    when its return keeps it (:func:`_assign_rooted`); an Assign has
    its base's; a window has when its base has and every operand that
    sizes it is a constant or comes from outside the body."""
    if v.defining_block() is not body or constant_value(v) is not NOT_CONSTANT:
        return True
    if v.is_param:
        k = body.params.index(v)
        return k > 0 and _assign_rooted(body.returns[k], v)
    n = v.node
    if n.op in _ASSIGNS:
        return _fixed_shape(n.input(0), body)
    return n.op in WINDOWS and all(
        _fixed_shape(a, body) for i, a in enumerate(n.inputs)
        if i != _MOVES.get(n.op))


def _unstash(builder: GradBuilder, stash: Value, j: Value,
             typ: T.Type) -> Value:
    """Read iteration ``j``'s stashed row back as its original type."""
    row = builder.e1("immut::select", stash, builder.const(0), j,
                     name="row")
    if typ.is_tensor:
        return row
    return builder.e1(_FROM_ROW[type(typ)], row, name="row_s")


def _thread(builder: GradBuilder, loop: Node, inits: Sequence[Value],
            step, first: bool = True) -> None:
    """Thread extra carried slots through ``loop`` (whose outputs the
    caller added): ``inits`` enter them, and ``step(params, slots)``
    emits their next values first in the body (last if not ``first``)."""
    body = loop.block(0)
    params = list(body.params)
    slots = [body.add_param(v.name.split(".")[0], v.type) for v in inits]
    saved, builder.block, mark = builder.block, body, len(body.nodes)
    try:
        nexts = step(params, slots)
    finally:
        builder.block = saved
    if first:
        body.nodes[:] = body.nodes[mark:] + body.nodes[:mark]
    for v, nxt in zip(inits, nexts):
        loop.add_input(v)
        body.add_return(nxt)


def _before(builder: GradBuilder, anchor: Node, emit):
    """Run ``emit()`` with the nodes it appends placed before ``anchor``."""
    block, mark = builder.block, len(builder.block.nodes)
    out = emit()
    at = block.nodes.index(anchor)
    block.nodes[at:] = block.nodes[mark:] + block.nodes[at:mark]
    return out


def _first_trip(builder: GradBuilder, loop: Node, values: Sequence[Value],
                trip_n: Value, zero: Value, spare: Value) -> List[Value]:
    """Body ``values`` as trip 0 computes them, for sizing their stashes:
    an ``If`` on ``trip_n > 0`` runs the slice of the body they need,
    and at zero trips passes ``spare`` instead (a zero-row stash is
    never read)."""
    graph, body = builder.graph, loop.block(0)
    cond = builder.e1("prim::gt", trip_n, zero, name="ran")
    node = graph.create("prim::If", [cond])
    then = node.add_block()
    _, cloned = _clone_body(body, then, graph, zero,
                            list(loop.inputs)[2:])
    for v in values:
        then.add_return(then.nodes[body.nodes.index(v.node)].output())
    for n in reversed(cloned):
        if not any(o.uses for o in n.outputs):
            n.destroy()
    other = node.add_block()
    for _ in values:
        other.add_return(spare)
    builder.block.append(node)
    return [node.add_output("first", T.TensorType()) for _ in values]


def _accumulate(builder: GradBuilder, acc: Value, g: Optional[Value],
                f: Value) -> Value:
    """Capture ``f``'s adjoint slot after one reverse trip: ``acc + g``.

    A window read's adjoint (``g`` written into a ``zeros_like(f)``)
    adds into that window of ``acc`` alone: its other elements would
    gain +0.0, the identity on an accumulator that starts at +0.0 (a
    sum can reach -0.0 only from two -0.0 terms).  The window's
    ``immut::assign`` casts and broadcasts the row exactly as the
    Assign into zeros did.  A ``grad::unbroadcast`` moves next to its
    add, so fusion puts both in the accumulating kernel."""
    if g is None:
        return acc
    src = g.node
    if (src is not None and src.op in WINDOWS.values()
            and src.input(0).node is not None
            and src.input(0).node.op == "aten::zeros_like"
            and src.input(0).node.input(0) is f):
        rest = list(src.inputs)[2:]
        win = builder.e1(src.op[:-len("_assign")], acc, *rest, name="win")
        row = builder.e1("immut::assign", win, src.input(1), name="g")
        return builder.e1(src.op, acc, builder.e1("aten::add", win, row),
                          *rest, name="g_f")
    if (src is not None and src.op == "grad::unbroadcast"
            and src.owning_block is builder.block and not g.uses):
        builder.block.remove(src)
        builder.block.append(src)
    return builder.e1("aten::add", acc, g, name="g_f")


def _loop_adjoint(builder: GradBuilder, node: Node,
                  adjoints: Dict[int, Value]) -> None:
    """Differentiate a ``Loop`` with a tape-free scan.

    1. *Stash*: row ``i`` of a ``grad::stash_init`` buffer per carried
       value is the state entering iteration ``i`` (scalars as 0-d
       rows).  A ``for`` loop (entry condition and continue-return both
       constant ``True``) runs ``N = max(max_trip, 0)`` iterations, so
       its stash is sized up front and the forward loop fills it
       through extra carried slots.  A ``while`` loop learns ``N`` only
       by running: its forward loop carries a counter, and a *replay*
       loop re-runs the ``N`` iterations to fill the stash.
    2. *Reverse*: run ``N`` iterations with ``j = N-1-r``, re-clone the
       body at the unstashed state for iteration ``j``, sweep it, and
       thread carried-output adjoints to carried-input adjoints.
       Captured-tensor adjoints accumulate in extra carried slots.
    3. *Trim the stash* by what the reverse body reads (the module
       docstring's rule): a ``for`` loop stashes each top-level
       ``_STORED`` result read for its values whose operands keep one
       shape (:func:`_fixed_shape`), sized by :func:`_first_trip`; a
       carried slot read only for its shape
       (:func:`_shape_only`) that keeps it (:func:`_assign_rooted`) has
       no stash — the loop's result stands in, leaving the init the
       loop's alone, and an Assign read only for its shape reads as its
       base, so no kernel stores into a copy of the stand-in.

    Both clone the body before the forward loop gains its slots.  A
    zero-trip loop runs zero reverse iterations, passing the output
    adjoints straight through to the carried inits.
    """
    grads = [adjoints.get(id(o)) for o in node.outputs]
    if not any(g is not None for g in grads):
        return
    graph, body, outer = builder.graph, node.block(0), builder.block
    carried_inits = [node.input(2 + k) for k in range(len(node.outputs))]
    n_car = len(carried_inits)
    for p in body.params[1:]:
        if not (p.type.is_tensor or p.type.is_scalar):
            raise GradError(f"loop carries non-differentiable value "
                            f"%{p.name} of type {p.type}")
    captures = _free_tensors([body])
    is_for = is_for_loop(node)

    # -- 1. the trip count, placed before the forward loop ---------------
    zero, one, true_c = _before(builder, node, lambda: [
        builder.const(v) for v in (0, 1, True)])
    if is_for:
        trip_n = _before(builder, node, lambda: builder.e1(
            "prim::max", node.input(0), zero, name="trip_n"))
    else:
        count = _before(builder, node, lambda: builder.const(0,
                                                             name="trip_n"))
        trip_n = node.add_output("trip_n", count.type)

    # the stash buffers, unplaced until step 3 knows which are read
    pending = Block(graph)
    builder.block = pending
    stashes = [builder.e1("grad::stash_init", init, trip_n, name="stash")
               for init in carried_inits]
    builder.block = outer

    # -- 2. reverse loop -------------------------------------------------
    tensor_idx = [k for k in range(n_car) if carried_inits[k].type.is_tensor]
    g_inits = [grads[k] if grads[k] is not None
               else builder.zeros_like(node.output(k))
               for k in tensor_idx]
    gf_inits = [builder.zeros_like(f) for f in captures]
    vnode = graph.create("prim::Loop",
                         [trip_n, true_c] + g_inits + gf_inits)
    vb = vnode.add_block()
    vi = vb.add_param("r", T.IntType())
    vg_car = [vb.add_param("g_c", T.TensorType()) for _ in tensor_idx]
    vg_free = [vb.add_param("g_f", T.TensorType()) for _ in captures]
    builder.block = vb
    try:
        n_m1 = builder.e1("prim::sub", trip_n, one, name="n1")
        j = builder.e1("prim::sub", n_m1, vi, name="j")
        entering = [_unstash(builder, stashes[k], j,
                             body.params[1 + k].type)
                    for k in range(n_car)]
        rets, cloned = _clone_body(body, vb, graph, j, entering)
        local: Dict[int, Value] = {}
        for pos, k in enumerate(tensor_idx):
            builder.accumulate(local, rets[1 + k], vg_car[pos])
        _backprop(builder, cloned, local)
        vb.add_return(true_c)
        for pos, k in enumerate(tensor_idx):
            g_ent = local.get(id(entering[k]))
            vb.add_return(g_ent if g_ent is not None
                          else builder.zeros_like(entering[k]))
        for acc, f in zip(vg_free, captures):
            vb.add_return(_accumulate(builder, acc, local.get(id(f)), f))

        # -- 3. trim the stash -------------------------------------------
        memo: Dict[int, bool] = {}
        stored = []
        spare = next((v for v in carried_inits + captures
                      if v.type.is_tensor), None)
        for fwd, again in zip(list(body.nodes) if is_for else [], cloned):
            if (fwd.op in _STORED and spare is not None
                    and all(_fixed_shape(v, body) for v in fwd.inputs)
                    and not _shape_only(again.output(), memo)):
                builder.block = pending
                stored.append(builder.e1("grad::stash_init", fwd.output(),
                                         trip_n, name="stash"))
                builder.block = vb
                row = builder.e1("immut::select", stored[-1], zero, j,
                                 name="row")
                vb.remove(row.node)
                vb.insert_before(again, row.node)
                again.output().replace_all_uses_with(row)
                again.destroy()
        memo.clear()
        for k in tensor_idx:
            if (_assign_rooted(body.returns[1 + k], body.params[1 + k])
                    and _shape_only(entering[k], memo)):
                entering[k].replace_all_uses_with(node.output(k))
                entering[k].node.destroy()
        for n in list(vb.nodes):
            if n.op in _ASSIGNS and _shape_only(n.output(), memo):
                n.output().replace_all_uses_with(n.input(0))
    finally:
        builder.block = outer

    kept = [k for k in range(n_car) if stashes[k].uses]
    for k in range(n_car):
        if k not in kept:
            stashes[k].node.destroy()
    inits = [stashes[k] for k in kept]

    def stash(params, slots, values):
        return [builder.e1("immut::select_assign", st, v, zero, params[0],
                           name="stash")
                for st, v in zip(slots, values)]

    def fill(loop, buffers):
        """Place ``buffers`` before ``loop``; the reverse rows read them
        as the loop leaves them."""
        for st in buffers:
            pending.remove(st.node)
            loop.owning_block.insert_before(loop, st.node)
        for st in buffers:
            st.replace_all_uses_with(loop.add_output("stash", st.type))

    if is_for:
        results = [st.node.input(0) for st in stored]
        if stored:
            firsts = _before(builder, node, lambda: _first_trip(
                builder, node, results, trip_n, zero, spare))
            for st, first in zip(stored, firsts):
                st.node.set_input(0, first)
        fill(node, inits + stored)
        _thread(builder, node, inits, lambda params, slots: stash(
            params, slots, [params[1 + k] for k in kept]))
        _thread(builder, node, stored, lambda params, slots: stash(
            params, slots, results), first=False)
    else:
        rnode = graph.create("prim::Loop", [trip_n, true_c] + carried_inits)
        rb = rnode.add_block()
        rp = [rb.add_param(p.name.split(".")[0], p.type) for p in body.params]
        rets, _ = _clone_body(body, rb, graph, rp[0], rp[1:])
        for r in [true_c] + rets[1:]:
            rb.add_return(r)
        for v in rp[1:]:
            rnode.add_output(v.name.split(".")[0], v.type)
        builder.block.append(rnode)
        fill(rnode, inits)
        _thread(builder, rnode, inits, lambda params, slots: stash(
            params, slots, [params[1 + k] for k in kept]))
        _thread(builder, node, [count], lambda params, slots: [
            builder.e1("prim::add", slots[0], one, name="trip_n")])
    builder.block.append(vnode)
    for pos, v in enumerate([carried_inits[k] for k in tensor_idx]
                            + captures):
        builder.accumulate(adjoints, v, vnode.add_output(
            "g_init" if pos < len(tensor_idx) else "g_cap", T.TensorType()))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _check_supported(graph: Graph) -> None:
    for node in graph.walk():
        if runs_as_kernel(node):
            raise GradError(f"cannot differentiate through {node.op}: "
                            "run grad() on the pre-fusion TensorSSA form")
        if node.kind is OpKind.MUTATING:
            raise GradError(
                f"graph still contains mutation {node.op}: grad() "
                "requires the functionalized (TensorSSA) form; "
                "residual mutations mean functionalization was skipped")


def grad(graph: Graph, wrt: Optional[Sequence[int]] = None,
         out: Optional[int] = None) -> Graph:
    """Build the reverse-mode gradient graph of ``graph``.

    The result is a fresh graph with the *same input signature* whose
    outputs are ``d(loss)/d(input)`` for each requested input, where
    the implicit loss is the sum of every element of the seeded
    output(s) — i.e. each tensor output is seeded with ``ones_like``.

    ``wrt``
        Input indices to differentiate with respect to (default: every
        tensor-typed graph input, in order).  Inputs the loss does not
        reach get ``zeros_like`` gradients.
    ``out``
        Index of the single output to seed (into the forward graph's
        flattened tuple return); default seeds *all* tensor outputs.

    Raises :class:`~repro.errors.GradError` for graphs with residual
    mutations, fused/parallelized regions, ops marked
    ``differentiable=False`` on a demanded path, or ops with no VJP.
    """
    _check_supported(graph)
    bwd = clone_graph(graph, name=f"{graph.name}_grad")
    builder = GradBuilder(bwd)
    forward_nodes = list(bwd.block.nodes)
    outputs = list(bwd.outputs)
    bwd.block.clear_returns()

    elements = outputs
    if (len(outputs) == 1 and outputs[0].node is not None
            and outputs[0].node.op == "prim::TupleConstruct"):
        elements = list(outputs[0].node.inputs)
    if out is None:
        seeds = [e for e in elements if e.type.is_tensor]
        if not seeds:
            raise GradError("graph has no tensor outputs to differentiate")
    else:
        if not -len(elements) <= out < len(elements):
            raise GradError(f"out={out} is out of range for a graph with "
                            f"{len(elements)} outputs")
        seed = elements[out]
        if not seed.type.is_tensor:
            raise GradError(f"output {out} is not a tensor; only tensor "
                            "outputs can seed the adjoint sweep")
        seeds = [seed]

    adjoints: Dict[int, Value] = {}
    for e in seeds:
        builder.accumulate(adjoints, e, builder.ones_like(e))
    _backprop(builder, forward_nodes, adjoints)

    params = list(bwd.inputs)
    if wrt is None:
        wrt_idx = [i for i, p in enumerate(params) if p.type.is_tensor]
        if not wrt_idx:
            raise GradError("graph has no tensor inputs to differentiate "
                            "with respect to")
    else:
        wrt_idx = list(wrt)
        for i in wrt_idx:
            if not 0 <= i < len(params):
                raise GradError(f"wrt index {i} out of range for "
                                f"{len(params)} graph inputs")
            if not params[i].type.is_tensor:
                raise GradError(f"wrt input {i} (%{params[i].name}) is "
                                "not a tensor")
    for i in wrt_idx:
        g = adjoints.get(id(params[i]))
        bwd.add_output(g if g is not None
                       else builder.zeros_like(params[i]))
    return bwd

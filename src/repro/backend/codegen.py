"""Kernel code generation: a block of fusable ops -> one Python callable.

This plays the role of PyTorch NNC in the paper's stack: a fusion
group's body is lowered to straight-line code over numpy arrays and
compiled once (``compile``/``exec``), so executing the group costs a
single host call — one "kernel launch".

Generated source for a two-op group looks like::

    def _kernel(_args):
        v0, v1 = _args
        t0 = _OPS['immut::select'](v0, 0, v1)
        t1 = _OPS['aten::add'](t0, 1)
        return (t1,)

Functional in the IR, destructive in the kernel: a window Assign whose
base lives in a buffer the kernel owns, with nothing left to read the
old contents (:func:`repro.analysis.ownership.plan_stores`), is emitted
as a store through the row's own view kernel, and the outer links of
its write-through chain as nothing at all.  ``y = zeros_like(x);
y[:, 0:2] = a`` — three Assign nodes in TensorSSA form — is::

    def _fusion(_args):
        v0, v1 = _args
        t0 = _nd(_OPS['aten::zeros_like'](v0))
        t1 = _OPS['aten::slice'](t0, 0, 0, None, 1)
        t2 = _OPS['aten::slice'](t1, 1, 0, 2, 1)
        t2[...] = v1                      # immut::assign(t2, v1)
        return (t0,)                      # the two slice_assigns: t1, t0

A chain rooted at a kernel *input* is one copy per launch: the body
runs ``t0 = _OPS['aten::clone'](v0)`` before the first statement that
uses ``v0``; a loop-carried slot is
copied by ``run_horizontal_loop`` before the first trip instead (the
kernel names those slots in ``__stores_into__``).  An Assign the
analysis cannot prove keeps the row's clone,
``_OPS['immut::slice_assign'](...)``; ``__assigns__`` counts the three
outcomes and says why each clone remains (``tools/inspect`` prints it).

The one schedule hook (:mod:`repro.tune`) is
:func:`compile_block_unrolled`: it emits a horizontal-loop body ``u``
times with carried state threaded through and an early exit between
iterations, so one kernel call executes up to ``u`` trips.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..analysis.ownership import ASSIGN_TO_VIEW, StorePlan, plan_stores
from ..ir.graph import Block, Value
from .kernels import OP_IMPLS


class CodegenError(RuntimeError):
    """Raised when a fusion-group body contains an op the kernel codegen cannot compile."""
    pass


def _const_literal(value) -> str:
    """Python source for an inlinable constant.

    Containers are validated *recursively*: a list or tuple is only
    inlinable when every element is, otherwise ``repr`` would emit
    source like ``[Tensor(...)]`` or ``[<dtype f32>]`` that either
    fails to compile or silently rebuilds the wrong object.  Callers
    catch :class:`CodegenError` and capture the value by reference
    instead.
    """
    if isinstance(value, (int, float, bool)) or value is None:
        return repr(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (list, tuple)):
        elems = [_const_literal(v) for v in value]
        if isinstance(value, tuple):
            inner = ", ".join(elems) + ("," if len(elems) == 1 else "")
            return f"({inner})"
        return "[" + ", ".join(elems) + "]"
    raise CodegenError(f"cannot inline constant {value!r}")


class _Emitter:
    """Shared statement emission across the plain and unrolled kernel
    shapes: one :class:`StorePlan` for the body, in the order it is
    emitted, however many times it is emitted."""

    def __init__(self, block: Block, carried: bool = False) -> None:
        self.nodes = list(block.nodes)
        self.plan: StorePlan = plan_stores(self.nodes, block, carried)
        self.lines: List[str] = []
        self.captured: Dict[str, object] = {}
        self._capture_ids: Dict[int, str] = {}
        self._tmp = 0

    def capture(self, value) -> str:
        cid = self._capture_ids.get(id(value))
        if cid is None:
            cid = f"_c{len(self.captured)}"
            self.captured[cid] = value
            self._capture_ids[id(value)] = cid
        return cid

    def _temp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp - 1}"

    def emit(self, names: Dict[int, str]) -> None:
        """Append the body's statements into ``names`` (mutated: node
        outputs gain their temp names)."""
        plan = self.plan
        # a stored-into parameter is copied right before its first use,
        # not at entry: the big buffer is then allocated after the
        # body's small temporaries, as the row's clone was, and glibc's
        # heap trimming is sensitive to exactly that order
        uncopied = {id(p): p for p in plan.param_copies}
        for node in self.nodes:
            for param in [uncopied.pop(id(v)) for v in node.inputs
                          if id(v) in uncopied]:
                out = self._temp()
                self.lines.append(f"    {out} = _OPS['aten::clone']"
                                  f"({_name_of(names, param)})")
                names[id(param)] = out
            if node.op == "prim::Constant":
                value = node.attrs["value"]
                try:
                    literal = _const_literal(value)
                except CodegenError:
                    literal = self.capture(value)
                names[id(node.output())] = literal
                continue
            if node.op not in OP_IMPLS:
                raise CodegenError(f"op {node.op} is not compilable")
            how = plan.lowering.get(id(node))
            if how is not None:
                # the base's own array is the result: a store through
                # the view kernel, or (chain identity) nothing to write
                base, src, *params = (_name_of(names, v)
                                      for v in node.inputs)
                names[id(node.output())] = base
                view = ASSIGN_TO_VIEW[node.op]
                if how == "store":
                    window = base if view is None else \
                        f"_OPS[{view!r}]({', '.join([base] + params)})"
                    self.lines.append(f"    {window}[...] = {src}")
                continue
            args = ", ".join(_name_of(names, v) for v in node.inputs)
            call = f"_OPS[{node.op!r}]({args})"
            if id(node) in plan.roots:
                # a 0-d ufunc result is a numpy scalar, which views
                # copy instead of aliasing: stored-into roots are arrays
                call = f"_nd({call})"
            out = self._temp()
            names[id(node.output())] = out
            self.lines.append(f"    {out} = {call}")

    def finish(self, name: str, header: str,
               source_lines: List[str]) -> Callable:
        source = header + "\n".join(source_lines) + "\n"
        scope = {"_OPS": OP_IMPLS, "_nd": np.asarray, **self.captured}
        code = compile(source, f"<fusion:{name}>", "exec")
        exec(code, scope)  # noqa: S102 - JIT compilation of our own source
        fn = scope[name]
        fn.__source__ = source
        plan = self.plan
        #: carried slots the caller must hand in as buffers it owns
        fn.__stores_into__ = plan.carried_slots
        ways = list(plan.lowering.values())
        fn.__assigns__ = {
            "stores": ways.count("store"),
            "identities": ways.count("identity"),
            "clones": [(node.op, why) for node, why in plan.clones]}
        return fn


def _bind_params(params: Sequence[Value],
                 names: Dict[int, str]) -> Optional[str]:
    for i, p in enumerate(params):
        names[id(p)] = f"v{i}"
    if not params:
        return None
    unpack = ", ".join(names[id(p)] for p in params)
    return (f"    {unpack}{',' if len(params) == 1 else ''}"
            f" = _args")


def compile_block(block: Block, name: str = "_kernel",
                  extra_inputs: Sequence[Value] = (),
                  carried: bool = False) -> Callable:
    """Compile a fusion-group body into ``fn(args) -> tuple``.

    ``args`` must follow ``block.params`` order, then ``extra_inputs``
    (free values captured from enclosing scopes — used by horizontal
    loops).  Non-inlinable constants (tensors, dtypes) are captured by
    object reference.

    The kernel never writes a buffer it was handed: a parameter it
    stores into is copied first.  The one exception is ``carried`` (the
    block is a ``prim::Loop`` body, params ``(i, *carried)``): the
    carried slots listed in ``fn.__stores_into__`` are stored into as
    they arrive and returned in the same slot, so the caller copies
    them once before the first trip and threads them through.
    """
    em = _Emitter(block, carried)
    names: Dict[int, str] = {}
    params = list(block.params) + list(extra_inputs)
    bind = _bind_params(params, names)
    if bind is not None:
        em.lines.append(bind)

    em.emit(names)

    rets = ", ".join(_name_of(names, r) for r in block.returns)
    em.lines.append(
        f"    return ({rets}{',' if len(block.returns) == 1 else ''})")

    return em.finish(name, f"def {name}(_args):\n", em.lines)


def compile_block_unrolled(block: Block, factor: int,
                           name: str = "_hloop_u",
                           extra_inputs: Sequence[Value] = ()) -> Callable:
    """Compile a horizontal-loop body unrolled ``factor`` times.

    The body's calling convention is ``(index, *carried, *captures) ->
    (continue, *carried)``; the unrolled kernel keeps the argument
    shape but returns ``(trips_done, continue, *carried)`` and
    early-exits between emitted iterations when the body's continue
    flag goes false — so a dynamic loop condition stays exact.  Callers
    must only invoke it when at least ``factor`` trips remain before
    ``max_trip`` (the remainder runs on the plain kernel).  Carried
    slots follow :func:`compile_block`'s ``carried`` contract.
    """
    if factor < 2:
        raise CodegenError("unroll factor must be >= 2")
    if not block.params:
        raise CodegenError("horizontal loop body must take the index")

    em = _Emitter(block, carried=True)
    names: Dict[int, str] = {}
    params = list(block.params) + list(extra_inputs)
    bind = _bind_params(params, names)
    if bind is not None:
        em.lines.append(bind)
    index_name = names[id(block.params[0])]
    carried_params = list(block.params[1:])
    n_carried = len(carried_params)

    # carried state names entering the current iteration
    state = [names[id(p)] for p in carried_params]
    cond_name = ""
    for k in range(factor):
        iter_names = dict(names)
        iter_names[id(block.params[0])] = index_name if k == 0 \
            else f"({index_name} + {k})"
        for p, live in zip(carried_params, state):
            iter_names[id(p)] = live
        em.emit(iter_names)
        cond_name = _name_of(iter_names, block.returns[0])
        state = [_name_of(iter_names, r) for r in block.returns[1:]]
        assert len(state) == n_carried
        tail = "".join(f", {s}" for s in state)
        if k < factor - 1:
            em.lines.append(f"    if not {cond_name}:")
            em.lines.append(f"        return ({k + 1}, {cond_name}{tail})")
    em.lines.append(f"    return ({factor}, {cond_name}{tail})")

    return em.finish(name, f"def {name}(_args):\n", em.lines)


def _name_of(names: Dict[int, str], v: Value) -> str:
    try:
        return names[id(v)]
    except KeyError:
        raise CodegenError(f"value %{v.name} not available inside the "
                           f"fusion group (not a param, member output, "
                           f"or constant)") from None


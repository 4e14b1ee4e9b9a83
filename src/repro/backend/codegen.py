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

A chain rooted at a kernel *input* writes that input's buffer in place
when the memory plan donated it — the buffer dies at this launch
(:mod:`repro.memplan.liveness`), and the fusion runtime hands an output
that *is* it back as the input's own Tensor.  An undonated input costs
one copy per launch: the body runs ``t0 = _OPS['aten::clone'](v0)``
before the first statement that uses ``v0``; an undonated loop-carried
slot is copied by ``run_horizontal_loop`` before the first trip instead
(the kernel names the slots it stores into in ``__stores_into__``).
``__donated__`` and ``__copies__`` list the argument positions written
in place and copied first.  A donated input may instead be the operand
of a binary member that nothing later reads
(:func:`repro.analysis.ownership.plan_outs`): that member runs as the
row's ``out=`` form, ``t0 = _INTO['aten::add', 0](v0, v1)``, which
writes into ``v0`` where that gives the row's own bits and allocates
otherwise (``runtime/kernels.py::INTO``); ``__outs__`` lists each such
member with the argument it writes.  An Assign the analysis cannot
prove keeps the row's clone, ``_OPS['immut::slice_assign'](...)``;
``__assigns__`` counts the three outcomes and says why each clone
remains (``tools/inspect`` prints it, and the plan's reason for each
copy).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..analysis.ownership import (ASSIGN_TO_VIEW, StorePlan, plan_outs,
                                  plan_stores)
from ..ir.graph import Block, Value
from ..runtime.kernels import INTO
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
    """One kernel's source under construction: the body's statements,
    emitted under one :class:`StorePlan`, and the objects they
    capture."""

    def __init__(self, block: Block, carried: bool = False,
                 donated: Sequence[int] = ()) -> None:
        self.nodes = list(block.nodes)
        self.plan: StorePlan = plan_stores(self.nodes, block, carried)
        self.carried = carried
        outs = {} if carried else plan_outs(self.nodes, block, self.plan)
        #: id(member) -> (its operand written, that operand's param
        #: position): ``out=`` members whose target buffer was donated
        self.outs = {id(node): (k, arg) for arg, (node, k) in outs.items()
                     if arg in donated}
        #: params written in place: their buffer was donated
        self.donated = tuple(sorted(
            [i for i in self.plan.stored if i in donated]
            + [arg for _, arg in self.outs.values()]))
        #: stored-into params copied first (by the caller, if carried)
        self.copies = tuple(i for i in self.plan.stored
                            if i not in self.donated)
        self.params = block.params
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
        uncopied = {} if self.carried else {
            id(self.params[i]): self.params[i] for i in self.copies}
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
            into = self.outs.get(id(node))
            call = f"_OPS[{node.op!r}]({args})" if into is None \
                else f"_INTO[{node.op!r}, {into[0]}]({args})"
            if id(node) in plan.roots:
                # a 0-d ufunc result is a numpy scalar, which views
                # copy instead of aliasing: stored-into roots are arrays
                call = f"_nd({call})"
            out = self._temp()
            names[id(node.output())] = out
            self.lines.append(f"    {out} = {call}")

    def finish(self, name: str) -> Callable:
        source = f"def {name}(_args):\n" + "\n".join(self.lines) + "\n"
        scope = {"_OPS": OP_IMPLS, "_INTO": INTO, "_nd": np.asarray,
                 **self.captured}
        code = compile(source, f"<fusion:{name}>", "exec")
        exec(code, scope)  # noqa: S102 - JIT compilation of our own source
        fn = scope[name]
        fn.__source__ = source
        plan = self.plan
        #: carried slots the caller must hand in as buffers it owns
        fn.__stores_into__ = tuple(i - 1 for i in plan.stored) \
            if self.carried else ()
        #: argument positions written in place: dying buffers the
        #: planner donated, an output that *is* one is that input
        fn.__donated__ = self.donated
        #: (member op, argument position) per ``out=`` member: the
        #: donated argument whose buffer that member's result is
        fn.__outs__ = tuple((node.op, self.outs[id(node)][1])
                            for node in self.nodes if id(node) in self.outs)
        #: argument positions copied before the first write
        fn.__copies__ = self.copies
        ways = list(plan.lowering.values())
        fn.__assigns__ = {
            "stores": ways.count("store"),
            "identities": ways.count("identity"),
            "clones": [(node.op, why) for node, why in plan.clones]}
        return fn


def compile_block(block: Block, name: str = "_kernel",
                  extra_inputs: Sequence[Value] = (),
                  carried: bool = False,
                  donated: Sequence[int] = ()) -> Callable:
    """Compile a fusion-group body into ``fn(args) -> tuple``.

    ``args`` must follow ``block.params`` order, then ``extra_inputs``
    (free values captured from enclosing scopes — used by horizontal
    loops).  Non-inlinable constants (tensors, dtypes) are captured by
    object reference.

    The kernel writes a buffer it was handed only when that parameter's
    position is in ``donated`` (the memory planner proved the buffer
    dies at this launch); any other parameter it stores into is copied
    first.  With ``carried`` (the block is a ``prim::Loop`` body, params
    ``(i, *carried)``) the carried slots listed in ``fn.__stores_into__``
    are stored into as they arrive and returned in the same slot, so
    the caller copies the undonated ones once before the first trip and
    threads them through.
    """
    em = _Emitter(block, carried, donated)
    params = list(block.params) + list(extra_inputs)
    names = {id(p): f"v{i}" for i, p in enumerate(params)}
    if params:
        unpack = ", ".join(names[id(p)] for p in params)
        em.lines.append(
            f"    {unpack}{',' if len(params) == 1 else ''} = _args")

    em.emit(names)

    rets = ", ".join(_name_of(names, r) for r in block.returns)
    em.lines.append(
        f"    return ({rets}{',' if len(block.returns) == 1 else ''})")

    return em.finish(name)


def _name_of(names: Dict[int, str], v: Value) -> str:
    try:
        return names[id(v)]
    except KeyError:
        raise CodegenError(f"value %{v.name} not available inside the "
                           f"fusion group (not a param, member output, "
                           f"or constant)") from None


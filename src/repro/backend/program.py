"""Whole-program lowering: a planned graph -> one generated Python function.

A functionalized, fused and planned graph leaves a warm call nothing to
decide, so it is lowered once to straight Python instead of being walked
node by node per call: ``prim::If`` / ``prim::Loop`` become ``if`` /
``while``, values become locals, and the plan's releases become
statements at exactly the nodes that have them.  DESIGN §9 shows the
generated lstm loop and lists the interpreter observables it keeps.
"""

from __future__ import annotations

import math
import re
import threading
from functools import partial
from typing import Callable, Dict, List, Sequence, Set

from ..errors import CompileError
from ..faults import SITE_FUSION_COMPILE, maybe_inject
from ..ir.graph import Block, Graph, Value, free_values
from ..obs import trace as obs_trace
from ..ops import registry
from ..runtime import profiler
from ..runtime.storage import MemoryPool, pool_scope
from ..runtime.tensor import Tensor
from . import fusion_runtime
from .interpreter import InterpreterError

#: one lowering per plan: compiled artifacts are shared by serving threads
_lower_lock = threading.Lock()
_KERNEL_ENTRY = {"prim::FusionGroup": "execute_group",
                 "prim::ParallelMap": "run_parallel_map"}


def _free(pool: MemoryPool, released: Set[int], keep: Sequence[object],
          dead: Sequence[object]) -> None:
    """Return the ``dead`` values' storage bytes to the pool: each storage
    once per run (views share one), and none also bound to a ``keep`` value
    (a zero-trip loop passes carried tensors through to its outputs)."""
    kept = [v.storage.id for v in keep if isinstance(v, Tensor)]
    for val in dead:
        if isinstance(val, Tensor):
            st = val.storage
            if st.id not in released and st.id not in kept:
                released.add(st.id)
                pool.release(st.nbytes)


def _unpack(result, n: int, what: str):
    if not isinstance(result, (tuple, list)) or len(result) < n:
        raise InterpreterError(f"{what} expected {n} results")
    return result[:n]


def _seq(names: Sequence[str]) -> str:
    """Call arguments, a tuple body or assignment targets alike."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


class _Lowering:
    """One pass over the graph in execution order, emitting source."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.lines: List[str] = []
        #: id(Value | captured object) -> its expression in the source
        self.names: Dict[int, str] = {}
        self.locals: Set[str] = set()
        self.scope: Dict[str, object] = {
            "_prof": profiler, "_fr": fusion_runtime, "_unpack": _unpack,
            "_Err": InterpreterError}

    def name(self, v: Value) -> str:
        name = self.names.get(id(v))
        if name is None:
            name = "v_" + re.sub(r"\W", "_", v.name)
            while name in self.locals:  # two IR names sanitizing alike
                name += "_"
            self.locals.add(name)
            self.names[id(v)] = name
        return name

    def capture(self, obj) -> str:
        name = self.names.setdefault(id(obj), f"_k{len(self.scope)}")
        self.scope[name] = obj
        return name

    def release(self, classes, keep: Sequence[str], block: Block,
                consumer, depth: int) -> str:
        """Emit ``_free`` over the classes' values; returns the ``del``
        evicting them (a later read is a liveness bug and must fail, not
        see recycled memory).  A value not surely bound here — defined in
        an untaken branch, a zero-trip body or by the ``consumer`` about
        to run — is bound to None first: it counts as absent."""
        values = [v for cls in classes for v in cls.values]
        dead = [self.name(v) for v in values]
        pad = "    " * depth
        for v, name in zip(values, dead):
            if v.node is consumer or not v.defining_block().contains(block):
                self.lines += [f"{pad}try: {name}",
                               f"{pad}except UnboundLocalError: {name} = None"]
        self.lines.append(f"{pad}_free(({_seq(keep)}), ({_seq(dead)}))")
        return "del " + ", ".join(dead)

    def block(self, block: Block, depth: int) -> None:
        def emit(line: str, extra: int = 0) -> None:
            self.lines.append("    " * (depth + extra) + line)
        def assign(targets: Sequence[str], expr: str, extra: int = 0):
            emit(f"{_seq(targets)} = {expr}" if targets else expr, extra)

        for node in block.nodes:
            op = node.op
            if op == "prim::Constant":
                value = node.attrs["value"]
                inline = type(value) in (int, bool, str, type(None)) or (
                    type(value) is float and math.isfinite(value))
                self.names[id(node.output())] = repr(value) if inline \
                    else self.capture(value)  # one object across calls
                continue
            before = self.plan.release_before.get(id(node))
            after = self.plan.release_after.get(id(node))
            if before:  # accounting first: the outputs may take the bytes
                evict = self.release(before, (), block, node, depth)
            emit('_py("interp_op")')
            ins = [self.name(v) for v in node.inputs]
            outs = [self.name(v) for v in node.outputs]
            if op == "prim::If":
                emit('_py("branch")')
                for head, branch in zip((f"if {ins[0]}:", "else:"),
                                        node.blocks):
                    emit(head)
                    self.block(branch, depth + 1)
                    assign(outs, _seq([self.name(r) for r in branch.returns])
                           or "pass", 1)
            elif op == "prim::Loop" and node.attrs.get("horizontal"):
                caps = [self.name(v) for v in free_values(node.blocks[0])]
                assign(outs, f"_fr.run_horizontal_loop({self.capture(node)}, "
                       f"int({ins[0]}), bool({ins[1]}), [{_seq(ins[2:])}], "
                       f"[{_seq(caps)}])")
            elif op == "prim::Loop":
                body = node.blocks[0]
                index, *carried = [self.name(p) for p in body.params]
                trip, cond = f"_n{len(self.lines)}", f"_c{len(self.lines)}"
                emit(f"{trip}, {cond} = int({ins[0]}), bool({ins[1]})")
                assign(carried + [index], _seq(ins[2:] + ["0"]))
                emit(f"while {cond} and {index} < {trip}:")
                emit('_py("loop_iter")', 1)
                self.block(body, depth + 1)
                nxt = [self.name(r) for r in body.returns]
                emit(f"{cond} = bool({nxt[0]})", 1)
                rotating = [carried[k] for k in self.plan.rotating_slots.get(
                    id(node), ()) if k < len(carried)]
                if rotating:
                    # generation i-1 dies here; 0 is the outer init's
                    emit(f"if {index}: _free(({_seq(nxt[1:])}), "
                         f"({_seq(rotating)}))", 1)
                assign(carried + [index], _seq(nxt[1:] + [f"{index} + 1"]), 1)
                assign(outs, _seq(carried) or "pass")
            elif op in _KERNEL_ENTRY:
                assign(outs, f"_fr.{_KERNEL_ENTRY[op]}({self.capture(node)},"
                       f" [{_seq(ins)}])")
            elif op == "prim::TupleUnpack":
                assign(outs, f"_unpack({ins[0]}, {len(outs)}, {op!r})")
            elif (schema := registry.get(op)).fn is None:
                emit(f"raise _Err('op {op} has no runtime implementation')")
            else:
                call = f"{self.capture(schema)}.fn({_seq(ins)})"
                if schema.num_outputs == 1:
                    emit(f"{outs[0]} = {call}")
                else:
                    assign(outs, f"_unpack({call}, {len(outs)}, {op!r})")
            if before:
                emit(evict)
            if after:
                emit(self.release(after, outs, block, None, depth))


def lower(graph: Graph, plan) -> Callable:
    """Generate and compile ``fn(free, *args) -> outputs`` (source on
    ``fn.__source__``); any failure is a typed ``CompileError``."""
    try:
        low = _Lowering(plan)
        params = ["_free"] + [low.name(v) for v in graph.inputs]
        low.lines += [f"def _program({', '.join(params)}):",
                      "    _py = _prof.record_python"]
        low.block(graph.block, 1)
        rets = [low.name(r) for r in graph.block.returns]
        source = "\n".join(low.lines + [f"    return [{_seq(rets)}]", ""])
        exec(compile(source, f"<program:{graph.name}>", "exec"),  # noqa: S102
             low.scope)
    except Exception as exc:
        raise CompileError(f"lowering graph {graph.name!r} failed: "
                           f"{type(exc).__name__}: {exc}") from exc
    fn = low.scope["_program"]
    fn.__source__ = source
    return fn


def run_planned(graph: Graph, args: Sequence[object], plan) -> List[object]:
    """Run ``graph`` through its plan's program, lowered on first use —
    once, under the lock.  A compile step: the ``fusion_compile`` fault
    checkpoint precedes any caching, so after a failed lowering the plan
    has no program and a later call (a retried rung) lowers cleanly."""
    fn = plan.program
    if fn is None:
        with _lower_lock:
            fn = plan.program
            if fn is None:
                with obs_trace.span("program:lower", cat="compile",
                                    graph=graph.name):
                    maybe_inject(SITE_FUSION_COMPILE, "program")
                    fn = plan.program = lower(graph, plan)
    pool = MemoryPool()
    with pool_scope(pool):
        try:
            return fn(partial(_free, pool, set()), *args)
        except UnboundLocalError as exc:
            raise InterpreterError(
                f"{exc}: value read before definition") from None

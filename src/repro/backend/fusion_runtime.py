"""Execution of fusion groups and horizontally-parallelized loops.

Each ``prim::FusionGroup`` executes as *one* kernel launch.  A loop
marked ``horizontal`` by the parallelization pass (paper §4.2.2) is what
that pass left with trips: its independent work was already hoisted and
batched (``passes/parallelize.py``), and what remains reads loop-carried
state, so its one body kernel is called once per trip in a host loop —
one launch is recorded, every trip is paid in wall clock.

Kernels compute on raw numpy arrays, so only the *materialized outputs*
(wrapped into Tensors by ``runtime.tensor.wrap``) allocate ``Storage``
— and those allocations route through the active :class:`~repro.
runtime.storage.MemoryPool` when the lowered program runs under a
memory plan, which is how fused kernels participate in buffer donation
(a dying operand's bytes, released just before the launch, serve the
outputs).  An input the plan *donates* (:func:`repro.memplan.
donated_args`) is written in place instead of copied, and an output
that is its array comes back as that input's Tensor: same Storage, no
new pool charge.

The nodes that run as a kernel are the two forms
``ir.graph.runs_as_kernel`` names; each has exactly one kernel,
:func:`build_kernel`'s, cached at ``attrs["kernel"]`` — the slot the
shard artifact codec describes and rebuilds with the same function.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Sequence

import numpy as np

from ..faults import SITE_FUSION_COMPILE, maybe_inject
from ..ir.graph import Node, kernel_captures, runs_as_kernel
from ..memplan import donated_args
from ..obs import trace as obs_trace
from ..runtime import profiler
from ..runtime.tensor import Tensor, wrap
from .codegen import compile_block
from .kernels import execute_kernel, pre_launch

#: Guards lazy per-node kernel compilation: compiled graphs are shared
#: by concurrent serving workers, and without the lock two threads that
#: both observe ``attrs["kernel"] is None`` would compile the block
#: twice (wasted work, and a torn read of partially-populated attrs).
_kernel_lock = threading.Lock()


def build_kernel(node: Node) -> Callable:
    """Compile the kernel of a kernel-bearing node — the one builder
    the runtime and the artifact codec share, so a restored graph
    regenerates byte-identical source."""
    if not runs_as_kernel(node):
        raise ValueError(f"{node.op} does not execute as a compiled kernel")
    if node.op == "prim::FusionGroup":
        return compile_block(node.blocks[0], name="_fusion",
                             donated=donated_args(node))
    return compile_block(node.blocks[0], name="_hloop",
                         extra_inputs=kernel_captures(node), carried=True,
                         donated=donated_args(node))


def _node_kernel(node: Node) -> Callable:
    """The node's cached kernel at ``attrs["kernel"]``, compiling once
    under the lock.

    Also the ``fusion_compile`` fault checkpoint: an injected
    :class:`~repro.errors.CompileError` raises before ``attrs`` is
    touched, so the node simply stays uncompiled — a later execution
    (e.g. on a retried rung) compiles it cleanly.
    """
    kernel = node.attrs.get("kernel")
    if kernel is None:
        with _kernel_lock:
            kernel = node.attrs.get("kernel")
            if kernel is None:
                with obs_trace.span("kernel:compile", cat="compile",
                                    op=node.op):
                    maybe_inject(SITE_FUSION_COMPILE, node.op)
                    kernel = build_kernel(node)
                    node.attrs["kernel"] = kernel
    return kernel


def _unwrap(x):
    return x._array if isinstance(x, Tensor) else x


def _outputs(results, inputs: Sequence[object],
             donated: Sequence[int]) -> List[object]:
    """A kernel's results as Tensors.  A result that *is* a donated
    input's array comes back as that input's Tensor (same Storage, no
    new pool charge); any other result that is an input's array — a
    zero-trip pass-through — is copied, so every other output owns
    fresh storage, as the planner assumes."""
    given = {id(x._array): x for x in inputs if isinstance(x, Tensor)}
    handed = {id(inputs[i]._array) for i in donated
              if isinstance(inputs[i], Tensor)}
    outputs = []
    for r in results:
        x = given.get(id(r))
        if x is None:
            outputs.append(wrap(r))
        elif id(r) in handed:
            handed.discard(id(r))
            outputs.append(x)
        else:
            outputs.append(wrap(np.array(r, copy=True)))
    return outputs


def _io_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, Tensor):
            total += v.nbytes
        elif isinstance(v, np.ndarray):
            total += v.nbytes
    return total


def execute_group(node: Node, inputs: Sequence[object]) -> List[object]:
    """Run a ``prim::FusionGroup``: compile-once, launch-once."""
    kernel = _node_kernel(node)
    n_ops = kernel.__member_ops__
    with obs_trace.span("kernel:fusion_group", cat="exec",
                        fused_ops=n_ops):
        raw = execute_kernel(kernel, [_unwrap(x) for x in inputs],
                             "fusion_group")
        outputs = _outputs(raw, inputs, kernel.__donated__)
        if profiler.listening():
            out_elems = sum(o.numel for o in outputs
                            if isinstance(o, Tensor))
            profiler.record_launch(
                "fusion_group", nbytes=_io_bytes(inputs) + _io_bytes(outputs),
                flops=out_elems * max(n_ops, 1), fused_ops=n_ops)
    return outputs


def run_horizontal_loop(node: Node, max_trip: int, cond: bool,
                        carried: List[object],
                        captures: List[object]) -> List[object]:
    """Execute a ``horizontal`` ``prim::Loop``: its one body kernel,
    called once per trip.

    The body was verified pure and compilable by the parallelization
    pass, which already ran whatever reads no carried value once for
    all trips; loop-carried state threads through the trips in order.
    The launch is recorded once, for the whole loop.

    A body kernel stores into the carried slots it names in
    ``__stores_into__`` and hands each back in its slot, so those are
    copied here, once, before the first trip — except a slot whose
    init the planner donated (``__donated__``): its dying buffer
    threads through every trip and comes back as the output.
    """
    kernel = _node_kernel(node)
    with obs_trace.span("kernel:parallel_loop", cat="exec",
                        max_trip=max_trip) as sp:
        state = [_unwrap(c) for c in carried]
        caps = [_unwrap(c) for c in captures]
        pre_launch("parallel_loop")  # one launch covers every iteration
        i = 0
        alive = bool(cond)
        if alive and max_trip > 0:
            owned = {p - 1 for p in kernel.__donated__}  # slots that are ours
            for k in kernel.__stores_into__:
                if k not in owned:
                    state[k] = np.array(state[k], copy=True)
        while alive and i < max_trip:
            results = kernel([i] + state + caps)
            alive = bool(results[0])
            state = list(results[1:])
            i += 1

        outputs = _outputs(state, list(carried) + list(captures),
                           [p - 1 for p in kernel.__donated__])
        n_ops = kernel.__member_ops__
        if sp is not None:
            sp.args["trips"] = i
        if profiler.listening():
            # a zero-trip loop did no fused work: 0 ops, 0 flops (the
            # launch itself still happened and is recorded)
            out_elems = sum(o.numel for o in outputs
                            if isinstance(o, Tensor))
            profiler.record_launch(
                "parallel_loop",
                nbytes=_io_bytes(carried) + _io_bytes(captures)
                + _io_bytes(outputs),
                flops=out_elems * max(n_ops, 1) * min(i, 1),
                fused_ops=n_ops * i)
    return outputs


def run_parallel_map(*args) -> None:
    """Not an executor: no node runs as a parallel map.  The name stays
    only because the benchmark's ``--trace`` pass (``bench/tracer.py``)
    patches it by name; delete it with that patch."""
    raise NotImplementedError("no node executes as a parallel map")

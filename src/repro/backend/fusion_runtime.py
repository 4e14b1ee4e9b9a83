"""Execution of fusion groups and horizontally-parallelized loops.

Each ``prim::FusionGroup`` executes as *one* kernel launch; a loop
marked ``horizontal`` by the parallelization pass (paper §4.2.2)
executes all of its iterations inside a single launch — the graph-level
equivalent of mapping the fused loop body across the iteration space on
device.

Kernels compute on raw numpy arrays, so only the *materialized outputs*
(wrapped into Tensors by ``runtime.tensor.wrap``) allocate ``Storage``
— and those allocations route through the active :class:`~repro.
runtime.storage.MemoryPool` when the lowered program runs under a
memory plan, which is how fused kernels participate in buffer donation
(a dying operand's bytes, released just before the launch, serve the
outputs).

Schedules: every launch consults :func:`repro.tune.schedule.
active_schedule` — statement order and the unroll factor select a
*kernel variant* (compiled lazily, cached per node alongside the
default kernel), ``tile_elems`` row-tiles elementwise-safe groups at
launch time.  The default kernel (:func:`build_kernel`) always lives at
``attrs["kernel"]`` (the shard artifact codec describes exactly that
slot and rebuilds it with the same function); variants live in
``attrs["kernel_variants"]`` and recompile on demand wherever the
artifact is restored.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..faults import SITE_FUSION_COMPILE, maybe_inject
from ..ir.graph import Node, free_values
from ..obs import trace as obs_trace
from ..runtime import profiler
from ..runtime.tensor import Tensor, wrap
from ..tune.schedule import Schedule, active_schedule
from .codegen import compile_block, compile_block_unrolled
from .kernels import execute_kernel, pre_launch

#: Guards lazy per-node kernel compilation: compiled graphs are shared
#: by concurrent serving workers, and without the lock two threads that
#: both observe ``attrs["kernel"] is None`` would compile the block
#: twice (wasted work, and a torn read of partially-populated attrs).
_kernel_lock = threading.Lock()


def build_kernel(node: Node) -> Callable:
    """Compile the default-schedule kernel of a kernel-bearing node —
    the one builder the runtime and the artifact codec share, so a
    restored graph regenerates byte-identical source."""
    body = node.blocks[0]
    if node.op == "prim::FusionGroup":
        return compile_block(body, name="_fusion")
    if node.op == "prim::Loop" and node.attrs.get("horizontal"):
        return compile_block(body, name="_hloop",
                             extra_inputs=free_values(body), carried=True)
    if node.op == "prim::ParallelMap":
        return compile_block(body, name="_pmap")
    raise ValueError(f"{node.op} does not execute as a compiled kernel")


def _node_kernel(node: Node, build: Optional[Callable[[], object]] = None,
                 variant: Optional[tuple] = None) -> object:
    """The node's cached kernel, compiling once under the lock.

    ``variant=None`` is the default-schedule kernel at
    ``attrs["kernel"]`` — :func:`build_kernel`'s, the slot the artifact
    codec round-trips.  Schedule variants (``build`` compiles one) key
    ``attrs["kernel_variants"]`` by their knob tuple and never touch
    the default slot.

    Also the ``fusion_compile`` fault checkpoint: an injected
    :class:`~repro.errors.CompileError` raises before ``attrs`` is
    touched, so the node simply stays uncompiled — a later execution
    (e.g. on a retried rung) compiles it cleanly.
    """
    if variant is None:
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
    variants = node.attrs.get("kernel_variants")
    kernel = variants.get(variant) if variants is not None else None
    if kernel is None:
        with _kernel_lock:
            variants = node.attrs.setdefault("kernel_variants", {})
            kernel = variants.get(variant)
            if kernel is None:
                with obs_trace.span("kernel:compile", cat="compile",
                                    op=node.op, variant=str(variant)):
                    maybe_inject(SITE_FUSION_COMPILE, node.op)
                    kernel = build()
                    variants[variant] = kernel
    return kernel


def _group_kernel(node: Node, sched: Schedule) -> object:
    """The fusion-group kernel for ``sched`` (loop order is the only
    group-level compile knob)."""
    order = sched.loop_order
    if order == "program":
        return _node_kernel(node)
    return _node_kernel(
        node,
        lambda: compile_block(node.blocks[0], name="_fusion",
                              loop_order=order),
        variant=("order", order))


def _unwrap(x):
    return x._array if isinstance(x, Tensor) else x


def _io_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, Tensor):
            total += v.nbytes
        elif isinstance(v, np.ndarray):
            total += v.nbytes
    return total


def _tiled_launch(kernel, raw: List[object], tile_elems: int,
                  n_returns: int) -> Optional[List[object]]:
    """Row-tiled launch of an elementwise-safe kernel; None when the
    inputs don't qualify (caller falls back to the whole launch).

    Splits every array argument into row blocks of ~``tile_elems``
    elements along axis 0 and concatenates the per-tile outputs.  Only
    sound when all array args share one shape (no broadcasting across
    the tiled axis) — checked here per launch, and double-checked on
    the first tile's output shapes, so a mis-tuned schedule can never
    change results, only skip the optimization.
    """
    arrays = [(i, a) for i, a in enumerate(raw)
              if isinstance(a, np.ndarray)]
    if not arrays:
        return None
    shape = arrays[0][1].shape
    if len(shape) < 2 or any(a.shape != shape for _, a in arrays[1:]):
        return None
    rows = shape[0]
    per_row = int(np.prod(shape[1:], dtype=np.int64))
    tile_rows = max(1, tile_elems // max(per_row, 1))
    if rows <= tile_rows:
        return None

    outs: Optional[List[List[np.ndarray]]] = None
    for start in range(0, rows, tile_rows):
        stop = min(start + tile_rows, rows)
        tile_args = list(raw)
        for i, a in arrays:
            tile_args[i] = a[start:stop]
        result = kernel(tile_args)
        if outs is None:
            # first tile validates the static analysis dynamically:
            # every output must be row-shaped or tiling is off
            if len(result) != n_returns or any(
                    not isinstance(r, np.ndarray) or r.ndim < 1
                    or r.shape[0] != stop - start for r in result):
                return None
            outs = [[r] for r in result]
        else:
            for k, r in enumerate(result):
                outs[k].append(r)
    return [np.concatenate(chunks, axis=0) for chunks in outs]


def execute_group(node: Node, inputs: Sequence[object]) -> List[object]:
    """Run a ``prim::FusionGroup``: compile-once, launch-once."""
    sched = active_schedule()
    kernel = _group_kernel(node, sched)
    n_ops = node.attrs.get("num_member_ops", len(node.blocks[0].nodes))
    with obs_trace.span("kernel:fusion_group", cat="exec",
                        fused_ops=n_ops) as sp:
        raw = None
        args = [_unwrap(x) for x in inputs]
        if sched.tile_elems > 0 \
                and getattr(kernel, "__elementwise_safe__", False):
            pre_launch("fusion_group")  # one launch covers every tile
            raw = _tiled_launch(kernel, args, sched.tile_elems,
                                len(node.blocks[0].returns))
            if raw is not None and sp is not None:
                sp.args["tiled"] = True
            if raw is None:
                raw = kernel(args)
        else:
            raw = execute_kernel(kernel, args, "fusion_group")
        outputs = [wrap(r) for r in raw]
        out_elems = sum(o.numel for o in outputs if isinstance(o, Tensor))
        profiler.record_launch("fusion_group",
                               nbytes=_io_bytes(inputs) + _io_bytes(outputs),
                               flops=out_elems * max(n_ops, 1),
                               fused_ops=n_ops)
    return outputs


def run_horizontal_loop(node: Node, max_trip: int, cond: bool,
                        carried: List[object],
                        captures: List[object]) -> List[object]:
    """Execute a ``horizontal`` ``prim::Loop`` as one mapped kernel.

    The body was verified pure and fusable by the parallelization pass;
    iterations run inside one launch.  Loop-carried state threads
    through sequentially (correct for any pure body; on real hardware
    the independent-slot case runs in parallel, which only changes time,
    not values).

    Under a schedule with ``hloop_unroll > 1``, blocks of that many
    iterations run through an unrolled kernel variant (which early-exits
    if the loop condition goes false mid-block); the remainder — and
    any trip within ``unroll`` of the cap — runs the plain body kernel,
    so trip counts and dynamic conditions stay exact.

    A body kernel stores into the carried slots it names in
    ``__stores_into__`` and hands each back in its slot, so those are
    copied here, once, before the first call that wants them: the
    caller's tensors are never written and one buffer threads through
    every trip.
    """
    body = node.blocks[0]
    sched = active_schedule()
    kernel = _node_kernel(node)
    unroll = sched.hloop_unroll
    kernel_u = None
    if unroll > 1 and max_trip >= unroll:
        kernel_u = _node_kernel(
            node,
            lambda: compile_block_unrolled(body, unroll, name="_hloop_u",
                                           extra_inputs=free_values(body),
                                           loop_order=sched.loop_order),
            variant=("unroll", unroll, sched.loop_order))

    with obs_trace.span("kernel:parallel_loop", cat="exec",
                        max_trip=max_trip) as sp:
        state = [_unwrap(c) for c in carried]
        caps = [_unwrap(c) for c in captures]
        pre_launch("parallel_loop")  # one launch covers every iteration
        i = 0
        alive = bool(cond)
        owned = ()  # slots the last kernel run vouches are ours alone
        while alive and i < max_trip:
            step = kernel_u if kernel_u is not None \
                and max_trip - i >= unroll else kernel
            if step.__stores_into__ is not owned:
                for k in step.__stores_into__:
                    if k not in owned:
                        state[k] = np.array(state[k], copy=True)
                owned = step.__stores_into__
            results = step([i] + state + caps)
            if step is kernel:
                alive = bool(results[0])
                state = list(results[1:])
                i += 1
            else:
                i += int(results[0])
                alive = bool(results[1])
                state = list(results[2:])

        outputs = [wrap(s) for s in state]
        n_ops = node.attrs.get("num_member_ops", len(body.nodes))
        if sp is not None:
            sp.args["trips"] = i
        # a zero-trip loop did no fused work: 0 ops, 0 flops (the
        # launch itself still happened and is recorded)
        out_elems = sum(o.numel for o in outputs if isinstance(o, Tensor))
        profiler.record_launch(
            "parallel_loop",
            nbytes=_io_bytes(carried) + _io_bytes(captures)
            + _io_bytes(outputs),
            flops=out_elems * max(n_ops, 1) * min(i, 1),
            fused_ops=n_ops * i)
    return outputs


def run_parallel_map(node: Node, inputs: List[object]) -> List[object]:
    """Execute a standalone ``prim::ParallelMap`` (trip, *captures):
    the body kernel once per iteration, results stacked along a new
    leading axis."""
    body = node.blocks[0]
    kernel = _node_kernel(node)
    trip = int(inputs[0])
    caps = [_unwrap(c) for c in inputs[1:]]
    with obs_trace.span("kernel:parallel_map", cat="exec", trip=trip):
        pre_launch("parallel_map")  # one launch covers the whole map
        per_iter = [kernel([i] + caps) for i in range(trip)]
        outputs = [wrap(np.stack([r[k] for r in per_iter]))
                   for k in range(len(body.returns))]
        profiler.record_launch(
            "parallel_map",
            nbytes=_io_bytes(inputs) + _io_bytes(outputs),
            flops=sum(o.numel for o in outputs if isinstance(o, Tensor)),
            fused_ops=max(len(body.nodes), 1) * max(trip, 1))
    return outputs

"""The compiled-kernel side of the operator table, and its launch site.

Inside a fusion group an op runs as its registry row's ``kernel`` — the
same numpy function the eager, in-place and immut forms are derived
from (:mod:`repro.runtime.kernels`) — with no Tensor wrapping and no
launch recording: the whole group is one launch.  :data:`OP_IMPLS` is
that lookup, ``{name: schema.kernel}``.

:func:`pre_launch` is the device-handoff fault checkpoint for compiled
kernels: it runs once per launch, *before* any member op computes, so
an injected :class:`~repro.errors.KernelError` models the launch
itself failing (no partial group output exists).  Eager/interpreted
launches check the same site in ``runtime/profiler.record_launch``.
"""

from __future__ import annotations

from ..faults import SITE_KERNEL_LAUNCH, maybe_inject
from ..ops.registry import all_ops

#: op name -> numpy-level implementation: every compilable operator
OP_IMPLS = {schema.name: schema.kernel for schema in all_ops()
            if schema.kernel is not None}


def pre_launch(op: str) -> None:
    """``kernel_launch`` fault checkpoint at the moment a compiled
    kernel is handed to the (simulated) device."""
    maybe_inject(SITE_KERNEL_LAUNCH, op)


def execute_kernel(kernel, args, op: str):
    """Run one compiled kernel as one device launch, through the fault
    layer (failure raises before compute; latency sleeps before it)."""
    pre_launch(op)
    return kernel(args)

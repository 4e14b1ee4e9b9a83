"""Symbolic shape families: compile once per shape *family*, not per
concrete shape.

The subsystem has four parts, layered bottom-up:

:mod:`~repro.symshape.symbols`
    ``SymInt`` leaves (a symbol or a constant) plus the duck-shaping
    ``SizeVarAllocator`` (same extent -> same symbol; extents 0/1
    always specialize).
:mod:`~repro.symshape.guards`
    ``Guard``/``GuardSet`` predicates (``s0 == 16``, ``s0 >= 2``,
    ``s0 % 8 == 0``) delimiting the shapes an artifact is valid for.
:mod:`~repro.symshape.family`
    ``ShapeFamily``/``FamilyTable`` — the guard-checked registry the
    compile cache keys on, with ``hit`` / ``new`` /
    ``guard_miss`` outcomes and the ``compiling_family`` recording
    scope used by shape-specializing passes.
:mod:`~repro.symshape.bucketing`
    power-of-two padding for the serve batcher.

Nothing here sizes memory: a family's artifact plans its buffers from
the graph alone, and the runtime pool sizes them by actual bytes.

Enable it per lookup with ``dynamic_shapes=True`` on
:func:`repro.eval.harness.run_workload` /
:func:`repro.eval.cache.fetch`, or fleet-wide with
``ServePolicy(dynamic_shapes=True)``.
"""

from .bucketing import (PAD_SPECS, PadSpec, bucket_extent, get_pad_spec,
                        pad_args, request_extent, unpad_outputs)
from .family import (FamilyStats, FamilyTable, ShapeFamily, active_family,
                     compiling_family, record_specialization_guard,
                     symbolize_signature)
from .guards import Guard, GuardSet, guard_eq, guard_ge, guard_mod
from .symbols import DEGENERATE_EXTENTS, SizeVarAllocator, SymInt

__all__ = [
    "SymInt", "SizeVarAllocator", "DEGENERATE_EXTENTS",
    "Guard", "GuardSet", "guard_eq", "guard_ge", "guard_mod",
    "ShapeFamily", "FamilyTable", "FamilyStats", "symbolize_signature",
    "compiling_family", "active_family", "record_specialization_guard",
    "PadSpec", "PAD_SPECS", "get_pad_spec", "bucket_extent", "pad_args",
    "unpad_outputs", "request_extent",
]

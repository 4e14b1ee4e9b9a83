"""Symbolic shape families: compile once per shape *family*, not per
concrete shape.

The subsystem has four parts, layered bottom-up:

:mod:`~repro.symshape.symbols`
    ``SymInt`` expression algebra plus the duck-shaping
    ``SizeVarAllocator`` (same extent -> same symbol; extents 0/1
    always specialize).
:mod:`~repro.symshape.guards`
    ``Guard``/``GuardSet`` predicates (``s0 == 16``, ``s0 >= 2``,
    ``s0 % 8 == 0``) delimiting the shapes an artifact is valid for.
:mod:`~repro.symshape.family`
    ``ShapeFamily``/``FamilyTable`` — the guard-checked registry the
    compile cache and memory planner key on, with ``hit`` / ``new`` /
    ``guard_miss`` outcomes and the ``compiling_family`` recording
    scope used by shape-specializing passes.
:mod:`~repro.symshape.bucketing` / :mod:`~repro.symshape.propagate`
    power-of-two padding for the serve batcher, and best-effort
    symbolic shape propagation feeding the memory planner's size
    hints.

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
from .propagate import (annotate_symbolic_shapes, symbolic_nbytes,
                        symbolic_shape_of)
from .symbols import (DEGENERATE_EXTENTS, SizeVarAllocator, SymInt,
                      as_dim, evaluate_dim, sym_max)

__all__ = [
    "SymInt", "SizeVarAllocator", "DEGENERATE_EXTENTS", "as_dim",
    "evaluate_dim", "sym_max",
    "Guard", "GuardSet", "guard_eq", "guard_ge", "guard_mod",
    "ShapeFamily", "FamilyTable", "FamilyStats", "symbolize_signature",
    "compiling_family", "active_family", "record_specialization_guard",
    "PadSpec", "PAD_SPECS", "get_pad_spec", "bucket_extent", "pad_args",
    "unpad_outputs", "request_extent",
    "annotate_symbolic_shapes", "symbolic_shape_of", "symbolic_nbytes",
]

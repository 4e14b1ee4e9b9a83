"""Kernel-launch accounting for the simulated device.

The paper's Figure 6 counts *kernel launches*; its cost model intuition
is that every device op pays a fixed launch overhead plus memory/compute
time.  This module records one ``KernelEvent`` per launch.  View ops are
metadata-only and record nothing (as on a real GPU); fused groups record
a single event that aggregates the bytes/flops of their member ops.

Usage::

    with profile() as prof:
        run_model()
    prof.num_launches, prof.total_bytes, prof.total_flops

Profiling state is **context-local** (:mod:`contextvars`): each thread
(and each ``contextvars.Context``) owns an independent profile stack,
so two ``run_workload`` calls on different threads never interleave
each other's launch/alloc events or corrupt ``peak_bytes``.  Within one
context the behavior is unchanged — profiles nest, and every active
profile on the stack records every event.

Recording is all this module does: the ``kernel_launch`` fault
checkpoint sits at the launch sites (``runtime/tensor.record_op``,
``backend/kernels.pre_launch``), so nothing here needs to know which
launch kinds are compiled kernels.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..faults import plan_active
from ..obs import trace as obs_trace


@dataclass
class KernelEvent:
    """One device kernel launch."""

    op: str
    bytes: int = 0
    flops: int = 0
    fused_ops: int = 1  # how many logical ops this launch covers


@dataclass
class PythonEvent:
    """One host-side interpreter step that a compiled pipeline could not
    remove (e.g. a TorchDynamo graph break, eager dispatch overhead)."""

    kind: str
    count: int = 1


@dataclass
class AllocEvent:
    """One device-buffer lifecycle event.

    ``kind`` is ``"alloc"`` (arena had to grow by ``nbytes``),
    ``"reuse"`` (request served from a memory pool's free list — the
    arena did not grow), or ``"free"`` (a buffer returned to a free
    list).  The accounting models a no-shrink caching allocator, as on
    a real GPU: ``peak_bytes`` is the arena high-water mark, which only
    fresh allocations raise.
    """

    kind: str
    nbytes: int = 0


@dataclass
class Profile:
    """Accumulated events for one profiled region."""

    events: List[KernelEvent] = field(default_factory=list)
    python_events: List[PythonEvent] = field(default_factory=list)
    alloc_events: List[AllocEvent] = field(default_factory=list)
    enabled: bool = True

    @property
    def num_launches(self) -> int:
        return len(self.events)

    @property
    def total_bytes(self) -> int:
        return sum(e.bytes for e in self.events)

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.events)

    @property
    def num_python_steps(self) -> int:
        return sum(e.count for e in self.python_events)

    # -- allocation accounting (memory planner observability) ----------

    @property
    def bytes_allocated(self) -> int:
        """Fresh arena growth: bytes no free-list block could serve."""
        return sum(e.nbytes for e in self.alloc_events if e.kind == "alloc")

    @property
    def bytes_reused(self) -> int:
        """Bytes served from a pool free list instead of fresh arena."""
        return sum(e.nbytes for e in self.alloc_events if e.kind == "reuse")

    @property
    def bytes_freed(self) -> int:
        """Bytes returned to a pool free list (reclaimable, not shrunk)."""
        return sum(e.nbytes for e in self.alloc_events if e.kind == "free")

    @property
    def peak_bytes(self) -> int:
        """Arena high-water mark: a no-shrink caching allocator grows
        only on fresh allocations, so the peak equals total fresh
        bytes; reused requests never raise it."""
        return self.bytes_allocated

    @property
    def num_allocs(self) -> int:
        return sum(1 for e in self.alloc_events if e.kind == "alloc")

    @property
    def num_reuses(self) -> int:
        return sum(1 for e in self.alloc_events if e.kind == "reuse")

    def clear(self) -> None:
        self.events.clear()
        self.python_events.clear()
        self.alloc_events.clear()


#: The active profile stack of the *current* context.  New threads see
#: the default (empty) stack, which is the isolation guarantee.
_stack_var: ContextVar[Tuple[Profile, ...]] = ContextVar(
    "repro_profile_stack", default=())


def active_profiles() -> Tuple[Profile, ...]:
    """The context's profile stack, outermost first (read-only view)."""
    return _stack_var.get()


def current_profile() -> Optional[Profile]:
    """The innermost active profile, or None when not profiling."""
    stack = _stack_var.get()
    return stack[-1] if stack else None


def listening() -> bool:
    """Whether anything observes this context's execution: a profile on
    its stack, a trace sink or a fault plan (context-local or global).
    When nothing does, launch sites skip their byte / flop accounting
    and a planned call runs without its accounting pool — the event
    sequence nobody records, not the computation, is what is skipped."""
    return bool(_stack_var.get()) or obs_trace.tracing_active() \
        or plan_active()


def push_profile(prof: Profile) -> None:
    """Explicit-stack API: make ``prof`` the innermost active profile
    of this context (pair with :func:`pop_profile`)."""
    _stack_var.set(_stack_var.get() + (prof,))


def pop_profile() -> Profile:
    """Explicit-stack API: deactivate and return the innermost profile."""
    stack = _stack_var.get()
    if not stack:
        raise RuntimeError("pop_profile: no active profile in this context")
    _stack_var.set(stack[:-1])
    return stack[-1]


@contextmanager
def profile() -> Iterator[Profile]:
    """Collect kernel launches executed inside the ``with`` body."""
    prof = Profile()
    token = _stack_var.set(_stack_var.get() + (prof,))
    try:
        yield prof
    finally:
        _stack_var.reset(token)


def record_launch(op: str, nbytes: int = 0, flops: int = 0,
                  fused_ops: int = 1) -> None:
    """Record one kernel launch on every active profile.  Only
    records: each launch path passes the ``kernel_launch`` fault
    checkpoint itself (``runtime/tensor.record_op`` for eager ops,
    ``backend/kernels.pre_launch`` for compiled kernels)."""
    for prof in _stack_var.get():
        prof.events.append(KernelEvent(op, int(nbytes), int(flops), fused_ops))
    if obs_trace.tracing_active():
        # bridge the KernelEvent into the active span timeline
        obs_trace.add_instant("kernel:" + op, bytes=int(nbytes),
                              flops=int(flops), fused_ops=fused_ops)


def record_python(kind: str, count: int = 1) -> None:
    """Record host-side interpreter work (dispatch / graph-break cost)."""
    for prof in _stack_var.get():
        prof.python_events.append(PythonEvent(kind, count))


def record_alloc(nbytes: int, reused: bool = False) -> None:
    """Record one buffer allocation on every active profile.

    ``reused=True`` means a memory pool served the request from its
    free list, so the arena (and thus ``peak_bytes``) did not grow.
    """
    kind = "reuse" if reused else "alloc"
    for prof in _stack_var.get():
        prof.alloc_events.append(AllocEvent(kind, int(nbytes)))
    if obs_trace.tracing_active():
        obs_trace.add_instant("alloc:" + kind, nbytes=int(nbytes))


def record_free(nbytes: int) -> None:
    """Record one buffer release into a pool free list."""
    for prof in _stack_var.get():
        prof.alloc_events.append(AllocEvent("free", int(nbytes)))
    if obs_trace.tracing_active():
        obs_trace.add_instant("alloc:free", nbytes=int(nbytes))

"""The schedule record and its knob space.

A :class:`Schedule` pins every choice the backend makes when it builds
and launches a kernel that the default lowering leaves implicit:

``loop_order``
    Statement order inside a generated kernel body.  ``"program"``
    emits nodes as the fusion pass left them; ``"consumer"`` emits a
    depth-first producer->consumer order (each value is computed as
    late as possible, immediately before its first use), shortening
    live ranges.  Pure reordering of independent statements — bit-exact
    by construction.

``tile_elems``
    Runtime row-tiling of *elementwise-safe* fusion groups: the group
    kernel is applied to blocks of ~``tile_elems`` elements along axis
    0 and the per-tile outputs concatenated, trading Python call
    overhead for cache locality.  ``0`` disables tiling.  Groups that
    are not elementwise-safe (views, matmuls, reductions, captured
    array constants, mismatched operand shapes) ignore the knob — the
    guard is checked per launch, so the knob can never change results.

``hloop_unroll``
    How many iterations of a ``horizontal`` ``prim::Loop`` one compiled
    kernel call executes (the body is emitted ``u`` times with carried
    state threaded through, early-exiting when the loop condition goes
    false).  Cuts per-iteration Python dispatch on real wall-clock.

Schedules are *values*: hashable, normalizable, with a stable
``schedule_id`` used as the kernel-variant cache key and the tuning-DB
record id.  This module is a leaf — it must not import the backend,
the harness, or anything else that could cycle back into kernel code.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "Schedule", "DEFAULT_SCHEDULE", "SCHEDULE_SPACE",
    "active_schedule", "schedule_scope",
    "random_schedule", "mutate_schedule", "validate_schedule",
]

#: the legal value set of every knob (the search space)
SCHEDULE_SPACE: Dict[str, Tuple] = {
    "loop_order": ("program", "consumer"),
    "tile_elems": (0, 4096, 16384, 65536, 262144),
    "hloop_unroll": (1, 2, 4, 8),
}


@dataclass(frozen=True)
class Schedule:
    """One point in the schedule space (all knobs at defaults = the
    fixed lowering every compile used before tuning existed)."""

    loop_order: str = "program"
    tile_elems: int = 0
    hloop_unroll: int = 1

    @property
    def schedule_id(self) -> str:
        """Stable, human-readable identity ("default" for the default
        schedule; knob-derived otherwise)."""
        if self == DEFAULT_SCHEDULE:
            return "default"
        return (f"o{self.loop_order[0]}-t{self.tile_elems}"
                f"-u{self.hloop_unroll}")

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_SCHEDULE

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(spec: dict) -> "Schedule":
        """Rebuild from a JSON dict; raises ``ValueError`` on unknown
        keys or out-of-space values (the DB's stale-entry guard)."""
        extra = set(spec) - set(SCHEDULE_SPACE)
        if extra:
            raise ValueError(f"unknown schedule knobs: {sorted(extra)}")
        sched = Schedule(**spec)
        validate_schedule(sched)
        return sched


DEFAULT_SCHEDULE = Schedule()


def validate_schedule(sched: Schedule) -> None:
    """Raise ``ValueError`` unless every knob is inside the space."""
    for knob, allowed in SCHEDULE_SPACE.items():
        value = getattr(sched, knob)
        if value not in allowed:
            raise ValueError(
                f"schedule knob {knob}={value!r} outside the space "
                f"{allowed}")


def random_schedule(rng: random.Random) -> Schedule:
    """A uniformly random point of the space."""
    return Schedule(**{knob: rng.choice(allowed)
                       for knob, allowed in SCHEDULE_SPACE.items()})


def mutate_schedule(sched: Schedule, rng: random.Random) -> Schedule:
    """Greedy-mutation move: re-draw exactly one knob (to a different
    value when the knob has any alternative)."""
    knob = rng.choice(sorted(SCHEDULE_SPACE))
    allowed = [v for v in SCHEDULE_SPACE[knob] if v != getattr(sched, knob)]
    if not allowed:
        return sched
    return replace(sched, **{knob: rng.choice(allowed)})


#: The ambient schedule consulted by the fusion runtime at kernel-build
#: and launch time.  Context-local for the same reason the profiler
#: stack is: concurrent serving workers may execute the same compiled
#: graph under different schedules.
_active: ContextVar[Schedule] = ContextVar("repro_active_schedule",
                                           default=DEFAULT_SCHEDULE)


def active_schedule() -> Schedule:
    """The schedule the current context executes kernels under."""
    return _active.get()


@contextmanager
def schedule_scope(sched: Optional[Schedule]) -> Iterator[Schedule]:
    """Run the body under ``sched`` (None = leave the ambient schedule
    untouched — callers can pass a DB lookup result straight in)."""
    if sched is None:
        yield _active.get()
        return
    token = _active.set(sched)
    try:
        yield sched
    finally:
        _active.reset(token)

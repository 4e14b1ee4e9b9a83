"""Autotuned kernel schedules (AutoTVM-style, over the numpy backend).

The pipeline lowers every fusion group one fixed way; this package adds
the missing degree of freedom — a :class:`~repro.tune.schedule.Schedule`
describing *how* the lowered kernels execute (statement order, runtime
tiling of elementwise groups, horizontal-loop unrolling) — plus an
offline seeded search (:func:`~repro.tune.search.tune_workload`) that
ranks candidates by measured wall clock, re-measures the survivors
best-of-n, proves each one bit-exact against the default schedule, and
persists the winner in a :class:`~repro.tune.db.TuningDB` keyed by
``(workload, shape key)``.

The serve hot path only ever *reads* the database
(``CompileCache.tuning_db``): a warm request costs one per-key file
lookup (cached in memory), never a search.

Import discipline: this ``__init__`` must import nothing that reaches
back into :mod:`repro.backend` (``schedule``/``db`` are leaf modules) —
the backend consults :func:`active_schedule` at kernel-build time, so a
cycle here would break interpreter import.  :mod:`repro.tune.search`
(which imports the harness) is re-exported lazily.
"""

from .db import TuningDB, tuning_key, shape_key_text
from .schedule import (DEFAULT_SCHEDULE, SCHEDULE_SPACE, Schedule,
                       active_schedule, mutate_schedule, random_schedule,
                       schedule_scope, validate_schedule)

__all__ = [
    "Schedule", "DEFAULT_SCHEDULE", "SCHEDULE_SPACE",
    "active_schedule", "schedule_scope",
    "random_schedule", "mutate_schedule", "validate_schedule",
    "TuningDB", "tuning_key", "shape_key_text",
    "tune_workload", "TuneResult",
]


def __getattr__(name):  # lazy: search imports the harness (heavy, cyclic)
    if name in ("tune_workload", "TuneResult", "Candidate"):
        from . import search
        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Schedule search over exactly the points a compiled graph can read.

The space (:data:`~repro.tune.schedule.SCHEDULE_SPACE`) is small enough
to measure whole, and almost none of it matters on most graphs: the one
knob, ``hloop_unroll``, is read only by a ``horizontal`` ``prim::Loop``.
So :func:`tune_workload` compiles the graph once and derives the
candidates from it — every unroll factor when it has a horizontal loop,
the default alone when it has none (recorded without measuring
anything: every schedule runs the same program there).  Each candidate
is measured best-of-``n`` and checked *bit-exact* against the default
schedule's outputs — a divergent candidate is disqualified on the spot
(and counted), so a tuning bug can cost speed but never correctness.
The fastest exact candidate wins.

The winner (or the default schedule, when nothing beat it — recording
the default too is what lets warm serve traffic *hit* instead of miss)
is persisted in the :class:`~repro.tune.db.TuningDB` under
``(workload, shape key)``.  ``db.searches`` is bumped here and only
here: a serving process whose DB snapshot shows ``searches == 0``
provably spent zero time tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import repro.runtime as rt
from ..eval import run_workload
from ..eval.cache import CompileCache, fetch
from ..models import get_workload
from ..obs import trace as obs_trace
from ..pipelines import get_pipeline
from .db import TuningDB, serving_key
from .schedule import (DEFAULT_SCHEDULE, SCHEDULE_SPACE, Schedule,
                       schedule_scope)

__all__ = ["Candidate", "TuneResult", "candidate_schedules",
           "tune_workload"]


@dataclass
class Candidate:
    """One point of the schedule space the graph can read."""

    schedule: Schedule
    #: bit-exact against the default schedule's outputs
    exact: bool = True
    #: best-of-n wall-clock (None when nothing was measured)
    best_wall_us: Optional[float] = None

    @property
    def schedule_id(self) -> str:
        return self.schedule.schedule_id

    def to_dict(self) -> dict:
        return {"schedule_id": self.schedule_id,
                "schedule": self.schedule.to_dict(),
                "exact": self.exact,
                "best_wall_us": self.best_wall_us}


@dataclass
class TuneResult:
    """Outcome of one :func:`tune_workload` call."""

    workload: str
    pipeline: str
    batch_size: int
    seq_len: int
    shape_key: str
    key: tuple
    #: None when the graph left nothing to measure
    default_wall_us: Optional[float]
    best_schedule: Schedule
    best_wall_us: Optional[float]
    #: default best-of-n wall divided by winner best-of-n wall
    speedup: float
    #: True when a non-default schedule beat the default
    improved: bool
    #: measured candidates whose outputs diverged from the default
    #: (must be 0 — any divergence is a correctness bug)
    divergences: int
    candidates: List[Candidate] = field(default_factory=list)
    db_path: str = ""

    @property
    def best_schedule_id(self) -> str:
        return self.best_schedule.schedule_id

    def to_dict(self) -> dict:
        return {"workload": self.workload, "pipeline": self.pipeline,
                "batch_size": self.batch_size, "seq_len": self.seq_len,
                "shape_key": self.shape_key, "key": list(self.key),
                "default_wall_us": self.default_wall_us,
                "best_schedule_id": self.best_schedule_id,
                "best_schedule": self.best_schedule.to_dict(),
                "best_wall_us": self.best_wall_us,
                "speedup": self.speedup, "improved": self.improved,
                "divergences": self.divergences,
                "candidates": [c.to_dict() for c in self.candidates],
                "db_path": self.db_path}


def candidate_schedules(graph) -> Tuple[Schedule, ...]:
    """The schedules ``graph`` can tell apart: every space point when it
    has a horizontal loop (the only reader of ``hloop_unroll``), else
    the default alone."""
    if graph is None or not any(
            n.op == "prim::Loop" and n.attrs.get("horizontal")
            for n in graph.walk()):
        return (DEFAULT_SCHEDULE,)
    return tuple(Schedule(hloop_unroll=u)
                 for u in SCHEDULE_SPACE["hloop_unroll"])


def tune_workload(workload: str, pipeline: str = "tensorssa",
                  batch_size: int = 4, seq_len: int = 64, seed: int = 0,
                  best_of: int = 3, db: Optional[TuningDB] = None,
                  dynamic_shapes: bool = False) -> TuneResult:
    """Measure every schedule the compiled graph of one (workload,
    shapes) can read and keep the fastest bit-exact one.

    Each candidate (:func:`candidate_schedules`, the default first) is
    measured best-of-``best_of``, one ``tune:measure`` span per sample,
    in ``best_of`` rounds that each sample every candidate once;
    ``seed`` drives the inputs.  The result is recorded into ``db`` (when given)
    whether or not a candidate beat the default — serve lookups should
    always hit.
    """
    wl = get_workload(workload)
    args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len,
                          seed=seed)
    # every run below uses a private cache with NO tuning DB attached:
    # the candidate under test must be the only schedule in play (a DB
    # hit would silently override the default baseline)
    cache = CompileCache()
    # the key is derived from what the cache resolves for these inputs —
    # the same fetch and the same key function every served run uses —
    # so the schedule is stored under exactly the key it is read under
    fetched = fetch(get_pipeline(pipeline), wl, args, cache=cache,
                    dynamic_shapes=dynamic_shapes)
    key = serving_key(workload, fetched.signature, fetched.family)
    candidates = [Candidate(s)
                  for s in candidate_schedules(fetched.compiled.graph)]

    if db is not None:
        db.record_search()

    divergences = 0
    base_outputs = None
    # rounds, not per-candidate blocks: a process's wall clock drifts
    # (warm-up, heap layout), and each round samples every candidate
    rounds = best_of if len(candidates) > 1 else 0
    for round_ in range(rounds):
        for cand in candidates:
            if not cand.exact:
                continue
            with obs_trace.span("tune:measure", cat="tune",
                                workload=workload,
                                schedule=cand.schedule_id, round=round_), \
                    schedule_scope(cand.schedule):
                run = run_workload(
                    workload, pipeline, batch_size=batch_size,
                    seq_len=seq_len, seed=seed, measure_wallclock=True,
                    repeats=1, cache=cache,
                    dynamic_shapes=dynamic_shapes)
            if base_outputs is None:
                base_outputs = run.outputs  # the default runs first
            elif not rt.bit_exact(run.outputs, base_outputs):
                divergences += 1
                cand.exact = False
                cand.best_wall_us = None
                continue
            wall_us = run.wallclock_s * 1e6
            cand.best_wall_us = wall_us if cand.best_wall_us is None \
                else min(cand.best_wall_us, wall_us)

    default_cand = candidates[0]
    best = min((c for c in candidates if c.best_wall_us is not None),
               key=lambda c: c.best_wall_us, default=default_cand)
    improved = not best.schedule.is_default
    speedup = default_cand.best_wall_us / best.best_wall_us \
        if improved else 1.0

    result = TuneResult(
        workload=workload, pipeline=pipeline,
        batch_size=batch_size, seq_len=seq_len,
        shape_key=key[1], key=key,
        default_wall_us=default_cand.best_wall_us,
        best_schedule=best.schedule,
        best_wall_us=best.best_wall_us,
        speedup=speedup, improved=improved, divergences=divergences,
        candidates=candidates)
    if db is not None:
        result.db_path = db.put(key, best.schedule, meta={
            "workload": workload, "pipeline": pipeline,
            "default_wall_us": default_cand.best_wall_us,
            "best_wall_us": best.best_wall_us,
            "speedup": speedup,
            "divergences": divergences})
    return result

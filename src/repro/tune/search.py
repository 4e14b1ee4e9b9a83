"""Seeded schedule search: random exploration + greedy mutation.

AutoTVM-shaped, scaled to this stack: candidates are points of
:data:`~repro.tune.schedule.SCHEDULE_SPACE`, ranked in stage one by a
single wall-clock sample, then the survivors are re-measured
best-of-``n`` in stage two.  The analytical cost model has no say: the
profile it prices is the same for every schedule (tiling and unrolling
each still record one launch with the same bytes and FLOPs), so it
cannot rank them.  Every candidate that gets measured is also checked
*bit-exact* against the default schedule's outputs — a divergent
candidate is disqualified on the spot (and counted), so a tuning bug
can cost speed but never correctness.

The winner (or the default schedule, when nothing beat it — recording
the default too is what lets warm serve traffic *hit* instead of miss)
is persisted in the :class:`~repro.tune.db.TuningDB` under
``(workload, shape key)``.  ``db.searches`` is bumped here and only
here: a serving process whose DB snapshot shows ``searches == 0``
provably spent zero time tuning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

import repro.runtime as rt
from ..eval import run_workload
from ..eval.cache import CompileCache, fetch
from ..models import get_workload
from ..obs import trace as obs_trace
from ..pipelines import get_pipeline
from .db import TuningDB, serving_key
from .schedule import (DEFAULT_SCHEDULE, Schedule, mutate_schedule,
                       random_schedule, schedule_scope)

__all__ = ["Candidate", "TuneResult", "tune_workload"]


@dataclass
class Candidate:
    """One measured point of the schedule space."""

    schedule: Schedule
    #: stage-one single-sample wall-clock (the stage-one rank)
    wall_us: float
    #: bit-exact against the default schedule's outputs
    exact: bool
    #: best-of-n wall-clock from stage two (NaN if not a finalist)
    best_wall_us: float = float("nan")
    measured: bool = False

    @property
    def schedule_id(self) -> str:
        return self.schedule.schedule_id

    def to_dict(self) -> dict:
        return {"schedule_id": self.schedule_id,
                "schedule": self.schedule.to_dict(),
                "wall_us": self.wall_us,
                "exact": self.exact,
                "measured": self.measured,
                "best_wall_us": None if self.best_wall_us
                != self.best_wall_us else self.best_wall_us}


@dataclass
class TuneResult:
    """Outcome of one :func:`tune_workload` call."""

    workload: str
    pipeline: str
    batch_size: int
    seq_len: int
    shape_key: str
    key: tuple
    default_wall_us: float
    best_schedule: Schedule
    best_wall_us: float
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


def tune_workload(workload: str, pipeline: str = "tensorssa",
                  batch_size: int = 4, seq_len: int = 64, seed: int = 0,
                  n_random: int = 8, n_mutation: int = 6,
                  top_k: int = 3, best_of: int = 3,
                  db: Optional[TuningDB] = None,
                  dynamic_shapes: bool = False) -> TuneResult:
    """Search the schedule space for one (workload, shapes).

    Stage one (``tune:search`` span): the default schedule plus
    ``n_random`` random points plus ``n_mutation`` greedy mutations of
    the fastest-so-far each run once, ranked by that one wall-clock
    sample and oracle-checked bit-exact against the default outputs.
    Stage two (``tune:measure`` spans): the ``top_k`` exact survivors
    and the default re-measure best-of-``best_of``; lowest wall-clock
    wins.

    The result is recorded into ``db`` (when given) whether or not the
    search improved on the default — serve lookups should always hit.
    """
    rng = random.Random(seed)
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

    def measure(sched: Schedule, repeats: int):
        with schedule_scope(sched):
            return run_workload(
                workload, pipeline, batch_size=batch_size,
                seq_len=seq_len, seed=seed, measure_wallclock=True,
                repeats=repeats, cache=cache,
                dynamic_shapes=dynamic_shapes)

    if db is not None:
        db.record_search()

    divergences = 0
    candidates: List[Candidate] = []
    seen = {DEFAULT_SCHEDULE}
    with obs_trace.span("tune:search", cat="tune", workload=workload,
                        seed=seed):
        base = measure(DEFAULT_SCHEDULE, repeats=1)
        default_cand = Candidate(DEFAULT_SCHEDULE, base.wallclock_s * 1e6,
                                 exact=True)
        candidates.append(default_cand)

        def evaluate(sched: Schedule) -> Optional[Candidate]:
            nonlocal divergences
            if sched in seen:
                return None
            seen.add(sched)
            run = measure(sched, repeats=1)
            exact = rt.bit_exact(run.outputs, base.outputs)
            if not exact:
                divergences += 1
            cand = Candidate(sched, run.wallclock_s * 1e6, exact=exact)
            candidates.append(cand)
            return cand

        for _ in range(n_random * 4):  # bounded draw for n uniques
            if len(candidates) > n_random:
                break
            evaluate(random_schedule(rng))
        for _ in range(n_mutation):
            exact_cands = [c for c in candidates if c.exact]
            parent = min(exact_cands, key=lambda c: c.wall_us)
            mutant = mutate_schedule(parent.schedule, rng)
            for _ in range(8):  # re-draw around already-seen points
                if mutant not in seen:
                    break
                mutant = mutate_schedule(parent.schedule, rng)
            evaluate(mutant)

    finalists = sorted((c for c in candidates if c.exact
                        and not c.schedule.is_default),
                       key=lambda c: c.wall_us)[:top_k]
    for cand in [default_cand] + finalists:
        with obs_trace.span("tune:measure", cat="tune",
                            workload=workload,
                            schedule=cand.schedule_id, n=best_of):
            run = measure(cand.schedule, repeats=best_of)
            if not cand.schedule.is_default \
                    and not rt.bit_exact(run.outputs, base.outputs):
                divergences += 1
                cand.exact = False
                continue
            cand.best_wall_us = run.wallclock_s * 1e6
            cand.measured = True

    measured = [c for c in finalists if c.measured]
    winner = min(measured, key=lambda c: c.best_wall_us,
                 default=default_cand)
    improved = winner.measured and not winner.schedule.is_default \
        and winner.best_wall_us < default_cand.best_wall_us
    best = winner if improved else default_cand

    result = TuneResult(
        workload=workload, pipeline=pipeline,
        batch_size=batch_size, seq_len=seq_len,
        shape_key=key[1], key=key,
        default_wall_us=default_cand.best_wall_us,
        best_schedule=best.schedule,
        best_wall_us=best.best_wall_us,
        speedup=default_cand.best_wall_us / max(best.best_wall_us, 1e-9),
        improved=improved, divergences=divergences,
        candidates=candidates)
    if db is not None:
        result.db_path = db.put(key, best.schedule, meta={
            "workload": workload, "pipeline": pipeline,
            "default_wall_us": default_cand.best_wall_us,
            "best_wall_us": best.best_wall_us,
            "speedup": result.speedup,
            "divergences": divergences})
    return result

"""Measurement harness: compile, execute under the profiler, and price
the run on a platform's cost model.

``run_workload`` is the single entry point the figures, the serving
layer, and the pytest-benchmark suites share.  Compilation is cached per
(pipeline, workload, input shapes) with LRU eviction — shapes are part
of the key because compiled artifacts carry shape-derived state (traced
graphs, cached memory plans, specialized kernels) — and runs verify
numerical equivalence against eager on demand.

Concurrency contract
--------------------

:class:`CompileCache` is safe to share across threads: every counter
and entry update happens under one lock, a miss registers an *in-flight*
slot so concurrent requests for the same key wait for one compilation
instead of duplicating it, and each ``get_or_compile`` call reports its
own hit/miss status (callers must never infer it by diffing the global
counters — that was racy, see tests/test_concurrency.py).

Counter lifecycle
-----------------

Hit/miss counters are **per-epoch**: ``clear()`` drops the entries,
zeroes the counters, and increments ``epoch``.  Anything that snapshots
the counters (``RunResult``, ``tools/inspect``, ``repro.serve``
metrics) records the epoch alongside them, so two snapshots are only
comparable when their epochs match.  ``snapshot()`` returns all of it
atomically.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

import repro.runtime as rt
from ..models import Workload, get_workload
from ..obs import trace as obs_trace
from ..pipelines import Pipeline, get_pipeline
from ..pipelines.base import Compiled
from ..symshape.family import FamilyTable, ShapeFamily, compiling_family
from ..tune.db import shape_key_text, tuning_key
from ..tune.schedule import active_schedule, schedule_scope
from .platforms import Platform, get_platform


@dataclass(frozen=True)
class CacheStats:
    """Atomic snapshot of a cache's per-epoch counters."""

    epoch: int
    hits: int
    misses: int
    size: int
    capacity: int
    #: recompiles forced by a shape-family guard flip — kept distinct
    #: from plain misses so stats can tell "never saw this program"
    #: from "saw it, but the artifact was specialized too narrowly"
    guard_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.guard_misses
        return self.hits / total if total else 0.0


class _InFlight:
    """One compilation in progress; waiters block on the event."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class CompileCache:
    """Thread-safe LRU map of (pipeline, workload, shape signature) ->
    Compiled.

    Bounded so shape sweeps (Figures 7/8 scan batch sizes and sequence
    lengths) cannot grow compilation state without limit; hit/miss
    counters are surfaced on :class:`RunResult` so benchmarks can tell
    recompilations from cache replays.  All mutation happens under one
    lock; concurrent misses on the same key are deduplicated so exactly
    one thread compiles while the rest wait for its result.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Compiled]" = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: dict = {}
        self.hits = 0
        self.misses = 0
        self.guard_misses = 0
        self.epoch = 0
        #: shape families for dynamic-shape lookups; cleared with the
        #: entries on every epoch boundary
        self.families = FamilyTable()
        #: optional :class:`repro.tune.db.TuningDB` — when set, every
        #: run looks up the best-known schedule for its (workload,
        #: shape key, platform) and executes under it; a persistent
        #: store, it deliberately survives ``clear()`` epochs
        self.tuning_db = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def lookup(self, key: tuple) -> Tuple[Optional[Compiled], bool]:
        """Fetch and mark recently used; returns ``(entry, hit)``.

        The per-call ``hit`` flag is the only correct way to learn the
        outcome under concurrency — other threads move the global
        counters between any two reads.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, False
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, True

    def get(self, key: tuple) -> Optional[Compiled]:
        """Fetch and mark recently used; counts a hit or a miss."""
        return self.lookup(key)[0]

    def put(self, key: tuple, compiled: Compiled) -> None:
        """Insert, evicting the least recently used beyond capacity."""
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def entries(self) -> List[Tuple[tuple, "Compiled"]]:
        """Snapshot of ``(key, compiled)`` pairs, LRU order (oldest
        first) — how shard workers discover what to publish into the
        artifact store without holding the cache lock while
        serializing."""
        with self._lock:
            return list(self._entries.items())

    def get_or_compile(self, key: tuple,
                       factory: Callable[[], Compiled],
                       guard_flip: bool = False
                       ) -> Tuple[Compiled, bool]:
        """Return ``(compiled, hit)``, invoking ``factory`` on a miss.

        Concurrent misses on the same key coalesce: one caller owns the
        compilation, the others wait on its in-flight slot and then
        re-check the cache (re-counting as a hit on success).  If the
        owner's factory raises, waiters retry the compilation
        themselves rather than inheriting the owner's exception.

        ``guard_flip`` marks this lookup as a shape-family guard miss:
        if it does compile, the event counts in ``guard_misses``
        instead of ``misses`` (the artifact for this program existed,
        it was just guarded too narrowly).
        """
        with obs_trace.span("cache:lookup", cat="cache",
                            key=str(key)) as lookup_sp:
            while True:
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        self.hits += 1
                        if lookup_sp is not None:
                            lookup_sp.args["hit"] = True
                        return entry, True
                    flight = self._inflight.get(key)
                    if flight is None:
                        flight = _InFlight()
                        self._inflight[key] = flight
                        if guard_flip:
                            self.guard_misses += 1
                        else:
                            self.misses += 1
                        owner = True
                    else:
                        owner = False
                if not owner:
                    flight.event.wait()
                    continue  # re-check: hit on success, own miss on error
                if lookup_sp is not None:
                    lookup_sp.args["hit"] = False
                # The in-flight slot is released and its event set on EVERY
                # exit path (including put() failing), or waiters would
                # block forever on an event that never fires — the torn
                # state the StateAuditor checks for.
                try:
                    with obs_trace.span("cache:compile", cat="cache",
                                        key=str(key)):
                        compiled = factory()
                    self.put(key, compiled)
                finally:
                    with self._lock:
                        self._inflight.pop(key, None)
                    flight.event.set()
                return compiled, False

    def inflight_count(self) -> int:
        """Compilations currently owned by some thread.  Zero at
        quiescence — a nonzero count with no compile running means a
        leaked slot (the StateAuditor asserts on this)."""
        with self._lock:
            return len(self._inflight)

    def snapshot(self) -> CacheStats:
        """All counters plus the epoch, read atomically."""
        with self._lock:
            return CacheStats(epoch=self.epoch, hits=self.hits,
                              misses=self.misses,
                              guard_misses=self.guard_misses,
                              size=len(self._entries),
                              capacity=self.capacity)

    def clear(self) -> None:
        """Drop entries and shape families, reset the counters, and
        start a new epoch."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.guard_misses = 0
            self.epoch += 1
            self.families.clear()


_compile_cache = CompileCache()


@dataclass
class RunResult:
    workload: str
    pipeline: str
    platform: str
    batch_size: int
    seq_len: int
    latency_us: float
    device_us: float
    host_us: float
    kernel_launches: int
    fused_ops: int
    #: memory-planner observability (arena high-water and reuse traffic)
    peak_bytes: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0
    #: compile-cache state at the end of this run; ``cache_hits`` /
    #: ``cache_misses`` are per-epoch cumulative counters, only
    #: comparable between results with the same ``cache_epoch``
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit: bool = False
    cache_epoch: int = 0
    #: guard-flip recompiles (family keying; see ``dynamic_shapes``)
    cache_guard_misses: int = 0
    #: shape-family observability when the run used ``dynamic_shapes``:
    #: which family served it and the table verdict (hit/new/guard_miss)
    family_id: str = ""
    family_outcome: str = ""
    #: kernel-schedule observability: the schedule this run executed
    #: under, and whether it came from a tuning-DB hit (``tuned``) as
    #: opposed to the default or an explicit ``schedule_scope``
    tuned: bool = False
    schedule_id: str = "default"
    wallclock_s: Optional[float] = None
    #: degradation-ladder observability (``run_workload_resilient``):
    #: which rung actually served the run, how far down the chain it
    #: sat, and how many executions were attempted in total
    served_by: str = ""
    fallback_depth: int = 0
    degraded: bool = False
    attempts: int = 1
    outputs: tuple = field(default=(), repr=False)

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0


def clone_args(args) -> tuple:
    """Deep-copy tensor arguments so runs never share mutable inputs."""
    return tuple(a.clone() if isinstance(a, rt.Tensor) else a for a in args)


def _shape_signature(example_args) -> tuple:
    """The batch/seq shape signature of a run's example inputs."""
    if example_args is None:
        return ()
    return tuple(
        tuple(a.shape) if isinstance(a, rt.Tensor) else a
        for a in example_args)


def compile_key(pipeline: Pipeline, workload: Workload,
                example_args=None, grad: bool = False) -> tuple:
    """The cache key a (pipeline, workload, inputs) triple compiles
    under — shared with ``repro.serve`` so batcher grouping and cache
    specialization agree.  Backward artifacts (``grad=True``) key
    separately from forward ones: same program, different graph."""
    key = (pipeline.name, workload.name, _shape_signature(example_args))
    return key + ("grad",) if grad else key


def family_key(pipeline: Pipeline, workload: Workload,
               family: ShapeFamily, grad: bool = False) -> tuple:
    """The cache key a shape family's artifact lives under."""
    key = (pipeline.name, workload.name, "family", family.family_id)
    return key + ("grad",) if grad else key


def compile_cached_family(pipeline: Pipeline, workload: Workload,
                          example_args=None,
                          cache: Optional[CompileCache] = None,
                          mod_hints=(), grad: bool = False
                          ) -> Tuple[Compiled, bool, ShapeFamily, str]:
    """Family-keyed compile: ``(compiled, hit, family, outcome)``.

    The example shapes resolve to a :class:`ShapeFamily` (minting one
    on a structural miss or a guard flip), the cache is keyed on the
    family id instead of the concrete signature, and the compile — if
    one happens — runs inside :func:`repro.symshape.family.
    compiling_family` so shape-specializing passes can record guards.
    ``outcome`` is the family-table verdict: ``hit`` / ``new`` /
    ``guard_miss``; a ``guard_miss`` compile counts in the cache's
    ``guard_misses`` counter, not ``misses``.  ``mod_hints`` are
    ``(arg_index, dim_index, divisor)`` divisibility facts forwarded
    to :meth:`repro.symshape.family.FamilyTable.resolve`.
    """
    cache = cache if cache is not None else _compile_cache
    prefix = (pipeline.name, workload.name, "grad") if grad \
        else (pipeline.name, workload.name)
    signature = _shape_signature(example_args)
    family, outcome = cache.families.resolve(prefix, signature,
                                             mod_hints=mod_hints)

    def factory() -> Compiled:
        with compiling_family(family):
            if grad:
                return pipeline.compile_grad(workload.model_fn,
                                             example_args=example_args)
            return pipeline.compile(workload.model_fn,
                                    example_args=example_args)

    try:
        compiled, hit = cache.get_or_compile(
            family_key(pipeline, workload, family, grad=grad), factory,
            guard_flip=(outcome == "guard_miss"))
    finally:
        # guards are complete once the compile owner returns (waiters
        # only get here after the owner's in-flight event fires), so
        # the family may now admit other members; seal() is idempotent
        family.seal()
    return compiled, hit, family, outcome


def compile_cached_status(pipeline: Pipeline, workload: Workload,
                          example_args=None,
                          cache: Optional[CompileCache] = None,
                          dynamic_shapes: bool = False,
                          grad: bool = False
                          ) -> Tuple[Compiled, bool]:
    """Compile (or fetch) and report this call's own hit/miss status.

    ``cache`` defaults to the process-wide cache; the serving layer
    injects its own instance so server metrics are isolated from
    figure sweeps running in the same process.  ``dynamic_shapes``
    switches the lookup from concrete-shape keying to family keying
    (see :func:`compile_cached_family`); ``grad=True`` compiles the
    backward graph instead of the forward one.
    """
    cache = cache if cache is not None else _compile_cache
    if dynamic_shapes:
        compiled, hit, _, _ = compile_cached_family(
            pipeline, workload, example_args, cache=cache, grad=grad)
        return compiled, hit
    key = compile_key(pipeline, workload, example_args, grad=grad)
    if grad:
        return cache.get_or_compile(
            key, lambda: pipeline.compile_grad(workload.model_fn,
                                               example_args=example_args))
    return cache.get_or_compile(
        key, lambda: pipeline.compile(workload.model_fn,
                                      example_args=example_args))


def compile_cached(pipeline: Pipeline, workload: Workload,
                   example_args=None,
                   cache: Optional[CompileCache] = None) -> Compiled:
    """Compile (or fetch) a pipeline/workload pair, keyed on the input
    shape signature so sweeps never replay state specialized for a
    different batch size or sequence length."""
    return compile_cached_status(pipeline, workload, example_args,
                                 cache=cache)[0]


def run_workload(workload: str, pipeline: str, platform: str = "datacenter",
                 batch_size: int = 1, seq_len: int = 64, seed: int = 0,
                 check: bool = False, measure_wallclock: bool = False,
                 repeats: int = 3,
                 cache: Optional[CompileCache] = None,
                 dynamic_shapes: bool = False,
                 grad: bool = False) -> RunResult:
    """Execute one (workload, pipeline) pair and price it.

    ``dynamic_shapes`` keys the compile cache on the shape *family* of
    the inputs instead of their concrete signature, so new batch sizes
    or sequence lengths inside an existing family replay the cached
    artifact (0 compiles) instead of recompiling.

    ``grad=True`` compiles and executes the *backward* graph (input
    gradients of the sum-of-outputs loss) instead of the forward one;
    the execution is additionally timed under a ``harness:backward``
    span, and ``check=True`` validates the optimized backward against
    the raw interpreted backward graph (``stats["grad_reference"]``)
    rather than against the eager forward.
    """
    with obs_trace.span("harness:run_workload", cat="harness",
                        workload=workload, pipeline=pipeline,
                        batch_size=batch_size, seq_len=seq_len,
                        grad=grad):
        return _run_workload_traced(
            workload, pipeline, platform, batch_size, seq_len, seed,
            check, measure_wallclock, repeats, cache, dynamic_shapes,
            grad)


def _run_workload_traced(workload, pipeline, platform, batch_size,
                         seq_len, seed, check, measure_wallclock,
                         repeats, cache, dynamic_shapes=False,
                         grad=False) -> RunResult:
    wl = get_workload(workload)
    pipe = get_pipeline(pipeline)
    plat: Platform = get_platform(platform)
    cache = cache if cache is not None else _compile_cache
    args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len, seed=seed)
    family_id = ""
    family_outcome = ""
    family = None
    with obs_trace.span("harness:compile", cat="compile",
                        pipeline=pipeline, workload=workload):
        if dynamic_shapes:
            compiled, was_hit, family, family_outcome = \
                compile_cached_family(pipe, wl, example_args=args,
                                      cache=cache, grad=grad)
            family_id = family.family_id
        else:
            compiled, was_hit = compile_cached_status(pipe, wl,
                                                      example_args=args,
                                                      cache=cache,
                                                      grad=grad)

    # resolve the kernel schedule: an explicit schedule_scope wins;
    # otherwise a tuning-DB hit for (workload, shape key, platform)
    # upgrades the run from the default lowering
    sched = None
    tuned = False
    if cache.tuning_db is not None and active_schedule().is_default:
        shape_key = shape_key_text(
            family.shape_key() if family is not None
            else _shape_signature(args))
        sched = cache.tuning_db.best(
            tuning_key(workload, shape_key, platform))
        tuned = sched is not None and not sched.is_default
    schedule_id = (sched if sched is not None
                   else active_schedule()).schedule_id

    run_args = clone_args(args)  # outside the profile: input prep is
    with schedule_scope(sched), \
            obs_trace.span("harness:execute", cat="exec",
                           pipeline=pipeline, workload=workload):
        with rt.profile() as prof:  # not part of the measured run
            if grad:
                with obs_trace.span("harness:backward", cat="exec",
                                    pipeline=pipeline, workload=workload):
                    outputs = compiled(*run_args)
            else:
                outputs = compiled(*run_args)

    if check:
        with obs_trace.span("harness:check", cat="verify"):
            if grad:
                # the correctness oracle for an optimized backward is
                # the raw (pre-optimization) backward graph, interpreted
                expected = compiled.stats["grad_reference"](
                    *clone_args(args))
            else:
                expected = wl.model_fn(*clone_args(args))
            _assert_equal(outputs, expected, workload, pipeline)

    wallclock = None
    if measure_wallclock:
        best = float("inf")
        with schedule_scope(sched), \
                obs_trace.span("harness:wallclock", cat="exec",
                               repeats=repeats):
            for _ in range(repeats):
                run_args = clone_args(args)
                start = time.perf_counter()
                compiled(*run_args)
                best = min(best, time.perf_counter() - start)
        wallclock = best

    snap = cache.snapshot()
    return RunResult(
        workload=workload, pipeline=pipeline, platform=platform,
        batch_size=batch_size, seq_len=seq_len,
        latency_us=plat.latency_us(prof, pipe.host_profile,
                                   pipe.device_penalty),
        device_us=plat.device_time_us(prof, pipe.device_penalty),
        host_us=plat.host_time_us(prof, pipe.host_profile),
        kernel_launches=prof.num_launches,
        fused_ops=sum(e.fused_ops for e in prof.events),
        peak_bytes=prof.peak_bytes,
        bytes_allocated=prof.bytes_allocated,
        bytes_reused=prof.bytes_reused,
        cache_hits=snap.hits,
        cache_misses=snap.misses,
        cache_hit=was_hit,
        cache_epoch=snap.epoch,
        cache_guard_misses=snap.guard_misses,
        family_id=family_id,
        family_outcome=family_outcome,
        tuned=tuned,
        schedule_id=schedule_id,
        wallclock_s=wallclock,
        served_by=pipeline,
        outputs=outputs if isinstance(outputs, tuple) else (outputs,),
    )


def run_workload_resilient(workload: str, pipeline: str = "tensorssa",
                           platform: str = "datacenter",
                           batch_size: int = 1, seq_len: int = 64,
                           seed: int = 0, check: bool = False,
                           cache: Optional[CompileCache] = None,
                           ladder: Optional[Tuple[str, ...]] = None,
                           breakers=None, retry=None,
                           retry_rng=None) -> RunResult:
    """``run_workload`` behind the graceful-degradation ladder.

    Walks the ordered fallback chain for ``pipeline`` (see
    :func:`repro.degrade.fallback_chain`): each rung is guarded by a
    per-(workload, rung) circuit breaker and gets bounded retries with
    jittered exponential backoff for *retryable* faults (kernel
    launches, OOM); non-retryable faults (compile errors) descend
    immediately.  The result reports ``served_by``, ``fallback_depth``
    and ``degraded`` so callers can see when they got the slow-but-safe
    answer.  With no faults the first rung serves at depth 0 and the
    result is bit-exact with a plain ``run_workload`` call.

    Raises the last (typed) error when every rung fails or is
    breaker-open.
    """
    from .. import degrade

    def attempt(rung: str, depth: int, retry_index: int) -> RunResult:
        return run_workload(workload, rung, platform=platform,
                            batch_size=batch_size, seq_len=seq_len,
                            seed=seed, check=check, cache=cache)

    result, rung, depth, attempts = degrade.run_ladder(
        degrade.fallback_chain(pipeline, ladder=ladder), workload, attempt,
        breakers=breakers if breakers is not None
        else degrade.default_breakers(),
        retry=retry if retry is not None else degrade.RetryPolicy(),
        rng=retry_rng if retry_rng is not None else random.Random(seed),
        scope="harness")
    result.served_by = rung
    result.fallback_depth = depth
    result.degraded = depth > 0
    result.attempts = attempts
    return result


def speedup_over_eager(workload: str, pipeline: str, **kwargs) -> float:
    """Eager latency divided by ``pipeline`` latency for one workload."""
    base = run_workload(workload, "eager", **kwargs)
    opt = run_workload(workload, pipeline, **kwargs)
    return base.latency_us / opt.latency_us


def _assert_equal(got, expected, workload: str, pipeline: str) -> None:
    got = got if isinstance(got, tuple) else (got,)
    expected = expected if isinstance(expected, tuple) else (expected,)
    assert len(got) == len(expected), \
        f"{workload}/{pipeline}: output arity mismatch"
    for i, (g, e) in enumerate(zip(got, expected)):
        ga = g.numpy() if isinstance(g, rt.Tensor) else np.asarray(g)
        ea = e.numpy() if isinstance(e, rt.Tensor) else np.asarray(e)
        np.testing.assert_allclose(
            ga.astype(np.float64), ea.astype(np.float64),
            rtol=1e-4, atol=1e-5,
            err_msg=f"{workload}/{pipeline}: output {i} diverges")


def clear_compile_cache() -> None:
    """Drop all cached compilations and advance the counter epoch
    (tests isolate through this)."""
    _compile_cache.clear()


def compile_cache_stats() -> CacheStats:
    """Snapshot of the process-wide cache (``tools/inspect`` and the
    serve metrics read counters through this, never raw attributes)."""
    return _compile_cache.snapshot()

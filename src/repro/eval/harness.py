"""Measurement harness: compile, execute under the profiler, and price
the run on a platform's cost model.

``run_workload`` is the single entry point the figures and the
figure-shape assertions in ``benchmarks/`` share;
``run_workload_resilient`` is the same run behind the degradation
ladder.  Compilation goes through :func:`repro.eval.cache.fetch` (the
compile cache lives there, not here), and the measured execution
through :func:`profiled_call` — the one "clone the inputs, run under
the profiler" sequence ``tools/inspect`` uses too; the serving executor
runs the same sequence unprofiled (:func:`timed_call`).  Runs verify
numerical equivalence against eager on demand.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import repro.runtime as rt
from ..models import get_workload
from ..obs import trace as obs_trace
from ..pipelines import get_pipeline
# compile_cached and compile_key are not used below: bench/ imports
# them (with CompileCache and clone_args) from this module
from .cache import (CompileCache, clone_args, compile_cached,  # noqa: F401
                    compile_key, fetch, process_cache)
from .platforms import get_platform


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
    flops: int = 0
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


def timed_call(compiled, args):
    """One execution of ``compiled`` (any callable) on a fresh clone of
    ``args``: ``(outputs as a tuple, wall seconds)``.  The wall clock
    covers the input clone."""
    start = time.perf_counter()
    outputs = compiled(*clone_args(args))
    return rt.as_tuple(outputs), time.perf_counter() - start


def profiled_call(compiled, args):
    """:func:`timed_call` with ``compiled`` run under ``rt.profile()``:
    ``(outputs as a tuple, the profile, wall seconds)``.  The profile
    does not cover the input clone (input prep is not part of the
    measured run)."""
    profiles = []

    def observed(*run_args):
        with rt.profile() as prof:
            profiles.append(prof)
            return compiled(*run_args)

    outputs, wall = timed_call(observed, args)
    return outputs, profiles[0], wall


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
        wl = get_workload(workload)
        pipe = get_pipeline(pipeline)
        plat = get_platform(platform)
        cache = cache if cache is not None else process_cache
        args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len,
                              seed=seed)
        with obs_trace.span("harness:compile", cat="compile",
                            pipeline=pipeline, workload=workload):
            compiled, was_hit, family, family_outcome = fetch(
                pipe, wl, args, cache=cache, dynamic_shapes=dynamic_shapes,
                grad=grad)

        with obs_trace.span("harness:execute", cat="exec",
                            pipeline=pipeline, workload=workload):
            if grad:
                with obs_trace.span("harness:backward", cat="exec",
                                    pipeline=pipeline, workload=workload):
                    outputs, prof, _ = profiled_call(compiled, args)
            else:
                outputs, prof, _ = profiled_call(compiled, args)

        if check:
            with obs_trace.span("harness:check", cat="verify"):
                # the correctness oracle for an optimized backward is the
                # raw (pre-optimization) backward graph, interpreted
                reference = compiled.stats["grad_reference"] if grad \
                    else wl.model_fn
                expected = rt.as_tuple(reference(*clone_args(args)))
                assert rt.all_close(outputs, expected), \
                    f"{workload}/{pipeline}: outputs diverge from the " \
                    f"reference (rtol 1e-4, atol 1e-5)"

        wallclock = None
        if measure_wallclock:
            best = float("inf")
            with obs_trace.span("harness:wallclock", cat="exec",
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
            flops=prof.total_flops,
            peak_bytes=prof.peak_bytes,
            bytes_allocated=prof.bytes_allocated,
            bytes_reused=prof.bytes_reused,
            cache_hits=snap.hits,
            cache_misses=snap.misses,
            cache_hit=was_hit,
            cache_epoch=snap.epoch,
            cache_guard_misses=snap.guard_misses,
            family_id=family.family_id if family is not None else "",
            family_outcome=family_outcome,
            wallclock_s=wallclock,
            served_by=pipeline,
            outputs=outputs,
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

"""Batch execution: compile-or-fetch, run, verify, scatter.

The executor is where a coalesced batch meets the existing pipelines:
it routes compilation through :func:`repro.eval.cache.fetch` into the
server's injectable :class:`~repro.eval.cache.CompileCache`
(one artifact per program, in-flight deduplicated), runs the compiled
callable with :func:`repro.eval.harness.timed_call` (unprofiled: a
batch pays for its kernels only, unless a trace or fault plan listens),
and scatters outputs back per request.

One failure path.  Every batch walks a fallback chain through
:func:`repro.degrade.run_ladder` — ``ServePolicy.fallback_chain``
verbatim when set, else :data:`~repro.degrade.DEFAULT_LADDER` from the
requested pipeline down — and fault-free traffic never leaves the first
rung (``served_by == pipeline``, depth 0):

1. deadline already expired at dequeue -> timeout response, no device
   time spent;
2. no cached artifact and the deadline is within ``DEADLINE_SLACK_S``
   -> serve eagerly (skip the cold compile);
3. compilation raises (a typed :class:`~repro.errors.CompileError`) or
   batch execution raises -> the walk retries a *retryable* fault on
   the same rung with bounded jittered backoff, then descends; each
   rung is guarded by a per-(workload, rung) circuit breaker;
4. the ``eager`` rung is the floor and is the same walk over the
   one-rung chain ``("eager",)``, once per request, so a poison request
   fails alone; :class:`~repro.errors.DeadlineExceeded` is never
   retried — it answers as a timeout immediately;
5. verification (optional): "batch" demands bit-exact agreement with
   eager on the identical coalesced inputs; "solo" compares each
   response to a solo eager run (allclose, since batching may change
   GEMM reduction order; bit-exact when the request ran unbatched).

Crash-consistency contract: every request handed to ``execute`` gets
its future resolved exactly once, whatever fails — the fault-injection
chaos harness (``repro.tools.chaos``) drives this with a
:class:`~repro.faults.StateAuditor` watching for torn state.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

import repro.runtime as rt
from ..degrade import RETRY, BreakerRegistry, fallback_chain, run_ladder
from ..errors import CompileError, DeadlineExceeded, classify
from ..eval import timed_call
from ..eval.cache import CompileCache, clone_args, fetch
from ..faults import SITE_BATCH_EXEC, maybe_inject
from ..obs import trace as obs_trace
from ..pipelines import Pipeline, get_pipeline
from .batching import BatchPlan, coalesce, scatter
from .policy import (DEADLINE_SLACK_S, VERIFY_BATCH, VERIFY_OFF,
                     VERIFY_SOLO, ServePolicy)
from .request import (Request, Response, STATUS_ERROR, STATUS_OK,
                      STATUS_TIMEOUT)
from .stats import ServerStats


class BatchExecutor:
    """Executes coalesced batches for one server."""

    def __init__(self, policy: ServePolicy, cache: CompileCache,
                 stats: ServerStats) -> None:
        self.policy = policy
        self.cache = cache
        self.stats = stats
        self._pipelines: Dict[str, Pipeline] = {}
        self.breakers = BreakerRegistry()
        #: the backoff's jitter RNG (seeded: deterministic in tests)
        self._rng = random.Random(0)

    # -- lookups (memoized: get_pipeline builds its table per call) ------

    def pipeline(self, name: str) -> Pipeline:
        pipe = self._pipelines.get(name)
        if pipe is None:
            pipe = get_pipeline(name)
            self._pipelines[name] = pipe
        return pipe

    # -- entry point ----------------------------------------------------

    def execute(self, requests: Sequence[Request]) -> None:
        """Serve a same-group batch: every request's future resolves."""
        live = self._drop_expired(requests)
        if not live:
            return
        self.stats.on_batch(len(live))
        self._execute_ladder(live)

    def _coalesce(self, requests: List[Request]) -> BatchPlan:
        """Coalesce under a ``serve:coalesce`` span, stamping each
        member's timeline with the batch it rode in."""
        with obs_trace.span("serve:coalesce", cat="serve",
                            requests=len(requests)):
            plan = coalesce(requests)
        for req in requests:
            req.mark("coalesce", batch_requests=len(requests),
                     batch_rows=plan.total_rows)
        return plan

    def _drop_expired(self, requests: Sequence[Request]) -> List[Request]:
        """Answer already-expired members with a timeout; return the rest."""
        now = time.monotonic()
        live = [r for r in requests if not r.expired(now)]
        if len(live) < len(requests):
            self._finish_timeout([r for r in requests if r.expired(now)],
                                 "deadline expired before execution")
        return live

    def _finish_timeout(self, requests: Sequence[Request],
                        error: str) -> None:
        now = time.monotonic()
        for req in requests:
            if not req.future.done():
                self._finish(req, req.answer(
                    STATUS_TIMEOUT, queue_wait_s=now - req.enqueued_at,
                    error=error))

    # -- graceful-degradation ladder ------------------------------------

    def _execute_ladder(self, requests: List[Request]) -> None:
        """Walk the fallback chain until some rung serves the batch.

        Rungs above ``eager`` serve the coalesced batch; ``eager`` is
        the per-request floor (:meth:`_serve_eager`) and ends the
        chain wherever it stands in it."""
        req0 = requests[0]
        chain = tuple(self.policy.fallback_chain) \
            if self.policy.fallback_chain is not None \
            else fallback_chain(req0.pipeline)
        floor = chain.index("eager") if "eager" in chain else len(chain)
        live = list(requests)

        def attempt(rung: str, depth: int, retry_index: int) -> None:
            nonlocal live
            live = self._drop_expired(live)
            if live:
                self._execute_plan(self._coalesce(live),
                                   pipeline_name=rung, depth=depth)

        def on_failure(rung: str, depth: int, retry_index: int,
                       err: BaseException) -> None:
            for req in live:
                req.mark("rung_failed", rung=rung, depth=depth,
                         attempt=retry_index, error=type(err).__name__)

        if floor:
            try:
                run_ladder(chain[:floor], req0.workload.name, attempt,
                           breakers=self.breakers, retry=RETRY,
                           rng=self._rng, scope="serve",
                           on_failure=on_failure)
                return
            except DeadlineExceeded as exc:
                self._finish_timeout(live, f"deadline exceeded: {exc}")
                return
            except Exception as exc:
                error = exc  # no rung served: on to the floor, if any
        live = self._drop_expired(live)
        if floor < len(chain):
            self._serve_eager(live, floor)
            return
        for req in live:
            self._finish(req, req.answer(
                STATUS_ERROR, fallback_depth=floor - 1, degraded=True,
                error=f"all ladder rungs {chain} failed: "
                      f"{type(error).__name__}: {error}"),
                fallback=True)

    def _serve_eager(self, requests: Sequence[Request], depth: int) -> None:
        """The ladder floor: each request walks the one-rung chain
        ``("eager",)`` on its own, so retries are per request and a
        poison request fails alone."""
        for req in requests:
            # both hooks run inside this iteration's run_ladder call,
            # so closing over the loop variable is safe
            def on_failure(rung: str, d: int, retry_index: int,
                           err: BaseException) -> None:
                req.mark("rung_failed", rung=rung, depth=d,
                         attempt=retry_index, error=type(err).__name__)

            try:
                run_ladder(
                    ("eager",), req.workload.name,
                    lambda rung, d, retry_index:
                        self._run_one_eager(req, retry_index, d),
                    breakers=self.breakers, retry=RETRY,
                    rng=self._rng, scope="serve", on_failure=on_failure,
                    first_depth=depth)
            except DeadlineExceeded as exc:
                self._finish_timeout([req], f"deadline exceeded: {exc}")
            except Exception as exc:
                self._finish(req, req.answer(
                    STATUS_ERROR, served_by="eager", fallback_depth=depth,
                    degraded=depth > 0, retries=RETRY.max_retries,
                    error=f"eager floor failed: "
                          f"{type(exc).__name__}: {exc}"),
                    fallback=True)

    # -- main path ------------------------------------------------------

    def _execute_plan(self, plan: BatchPlan, pipeline_name: str,
                      depth: int = 0) -> None:
        """One rung's attempt at one coalesced batch: raises (typed) on
        a compile or execution failure so the ladder can descend."""
        req0 = plan.requests[0]
        pipe = self.pipeline(pipeline_name)
        wl = req0.workload
        try:
            # near a deadline only an already-resident artifact will do:
            # don't start a cold compile the deadline cannot absorb
            fetched = fetch(pipe, wl, plan.args, cache=self.cache,
                            cold=not self._deadline_near(plan))
        except Exception as exc:
            err = classify(exc)
            if not isinstance(err, CompileError):
                err = CompileError(f"{pipe.name} compilation failed: {exc}")
                err.__cause__ = exc
                err.injected = getattr(exc, "injected", False)
            raise err from exc  # let the ladder descend a rung
        if fetched is None:
            self._serve_eager(plan.requests, depth + 1)
            return
        compiled, hit = fetched.compiled, fetched.hit

        # the "batch_exec" fault checkpoint: a scheduled batch-execution
        # failure raises here, after compilation but before device time
        maybe_inject(SITE_BATCH_EXEC, f"{wl.name}/{pipe.name}")

        for req in plan.requests:
            req.mark("execute", pipeline=pipe.name, cache_hit=hit)
        with obs_trace.span("serve:execute", cat="serve", pipeline=pipe.name,
                            requests=len(plan.requests),
                            rows=plan.total_rows, cache_hit=hit):
            outputs, wall = timed_call(compiled, plan.args)

        with obs_trace.span("serve:scatter", cat="serve",
                            requests=len(plan.requests)):
            per_request = scatter(outputs, plan)
        with obs_trace.span("serve:verify", cat="serve",
                            mode=self.policy.verify):
            expected_per_request = self._batch_expected(plan)

        done = time.monotonic()
        for i, (req, outs) in enumerate(zip(plan.requests, per_request)):
            verified = self._verdict(req, outs, i, expected_per_request,
                                     n_batch=len(plan.requests))
            req.mark("scatter", verified=verified)
            self._finish(req, req.answer(
                STATUS_OK, served_by=pipe.name, outputs=outs,
                fallback_depth=depth, degraded=depth > 0,
                batch_requests=len(plan.requests),
                batch_rows=plan.total_rows,
                queue_wait_s=done - req.enqueued_at - wall,
                exec_wall_s=wall, cache_hit=hit, verified=verified),
                fallback=depth > 0)

    def _deadline_near(self, plan: BatchPlan) -> bool:
        """Is any member's remaining budget inside the slack window?"""
        now = time.monotonic()
        return any(r.remaining(now) < DEADLINE_SLACK_S
                   for r in plan.requests)

    # -- oracles --------------------------------------------------------

    def _batch_expected(self, plan: BatchPlan) -> Optional[List[tuple]]:
        """Eager reference on the identical coalesced inputs, scattered
        per request (the bit-exactness oracle for batched serving)."""
        if self.policy.verify != VERIFY_BATCH:
            return None
        expected = plan.requests[0].workload.model_fn(
            *clone_args(plan.args))
        return scatter(expected, plan)

    def _verdict(self, req: Request, outs: tuple, idx: int,
                 expected_per_request: Optional[List[tuple]],
                 n_batch: int) -> Optional[bool]:
        """Oracle verdict for one served request (None = verify off)."""
        if self.policy.verify == VERIFY_OFF:
            return None
        if self.policy.verify == VERIFY_BATCH:
            return rt.bit_exact(outs, expected_per_request[idx])
        # VERIFY_SOLO: eager on this request's own inputs.  Bit-exact
        # when the request ran unbatched; allclose otherwise (batching
        # may legally change BLAS reduction order).
        expected = rt.as_tuple(req.workload.model_fn(*clone_args(req.args)))
        compare = rt.bit_exact if n_batch == 1 else rt.all_close
        return compare(outs, expected)

    # -- the eager floor -------------------------------------------------

    def _run_one_eager(self, req: Request, retries: int,
                       depth: int) -> None:
        req.mark("execute", pipeline="eager", depth=depth, retries=retries)
        with obs_trace.span("serve:eager", cat="serve",
                            workload=req.workload.name, depth=depth,
                            attempt=retries):
            outs, wall = timed_call(req.workload.model_fn, req.args)
        verified: Optional[bool] = None
        if self.policy.verify != VERIFY_OFF:
            verified = rt.bit_exact(outs, rt.as_tuple(
                req.workload.model_fn(*clone_args(req.args))))
        self._finish(req, req.answer(
            STATUS_OK, served_by="eager", outputs=outs,
            fallback_depth=depth, degraded=depth > 0,
            batch_requests=1, batch_rows=req.batch_rows,
            queue_wait_s=time.monotonic() - req.enqueued_at - wall,
            exec_wall_s=wall, verified=verified, retries=retries),
            fallback=depth > 0)

    # -- delivery -------------------------------------------------------

    def _finish(self, req: Request, resp: Response,
                fallback: bool = False) -> None:
        self.stats.on_response(
            status=resp.status,
            latency_s=max(0.0, time.monotonic() - req.enqueued_at),
            queue_wait_s=max(0.0, resp.queue_wait_s),
            cache_hit=resp.cache_hit, fallback=fallback,
            retries=resp.retries, verified=resp.verified,
            fallback_depth=resp.fallback_depth, degraded=resp.degraded,
            priority=req.priority)
        req.mark("finish", status=resp.status,
                 served_by=resp.served_by or resp.pipeline)
        if req.timeline:
            resp.timeline = tuple(req.timeline)
        if not req.future.done():
            req.future.set_result(resp)

"""The serving facade: bounded queues, one batching scheduler, workers.

``Server`` accepts concurrent inference requests (``submit`` /
``submit_many``), parks them in per-(workload, pipeline, platform,
shape, shared-state) group queues, and lets a pool of worker threads
drain them.  The group queue is the only place a request waits for
peers, and it lingers there only on evidence that peers are coming
(:func:`flush_reason` is the whole rule):

* a group is claimable when it holds ``max_batch_size`` requests, when
  it is past its wake point — ``min(oldest.enqueued_at + batch_wait_s,
  group-min-deadline − DEADLINE_SLACK_S)``, tracked per group, not just
  ``queue[0]``, so a tight-deadline member never starves behind a
  relaxed oldest one — or when the server is closing; an arrival
  before that simply appends to the group and rides its batch;
* short of that it is claimable *at once* unless a batch is executing
  right now (its clients come back together) or this group's previous
  flush coalesced more than one request: an idle server hands a lone
  request straight to a worker, a loaded or coalescing one keeps the
  wake point above, so ``batch_wait_s`` is the upper bound of the
  linger, not its price;
* among claimable groups the highest lane wins (highest
  ``Request.priority`` of any member), then the most urgent wake point;
* intake is gated by per-tenant token-bucket quotas and by the
  percentile-driven overload shedder (``serve:shed``) before the
  bounded-queue backpressure is ever consulted — reject-on-full is the
  last-resort backstop, not the only overload response.

Each flushed batch is coalesced along the workload's batch axis and
executed as one kernel-launch-profiled run (see ``executor.py``), so
the device cost of a request shrinks roughly with the batch size — the
horizontal-parallelization argument of the paper, applied across users
instead of across loop iterations.

Usage::

    with Server(ServePolicy(workers=4, max_batch_size=8)) as srv:
        futs = [srv.submit("lstm", args=a, pipeline="tensorssa",
                           priority=1, tenant="gold")
                for a in request_args]
        responses = [f.result() for f in futs]

``shutdown(drain=True)`` (implicit at ``with`` exit) stops intake,
serves everything already queued, and joins the workers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import (Callable, Deque, Iterable, List, Optional, Tuple,
                    Union)

from ..errors import ServerShutdown
from ..eval.cache import CompileCache
from ..models import Workload, get_workload
from ..obs import trace as obs_trace
from .admission import SHED_PERCENTILE, AdmissionController
from .batching import (get_batch_spec, group_key, group_lane,
                       group_min_deadline, request_rows)
from .executor import BatchExecutor
from .policy import (DEADLINE_SLACK_S, DRAIN_TIMEOUT_S, SUBMIT_TIMEOUT_S,
                     ServePolicy)
from .request import (Request, Response, STATUS_CANCELLED, STATUS_ERROR,
                      STATUS_REJECTED, STATUS_SHED)
from .stats import ServerStats


#: capacity of a server's private compile cache (shard workers build
#: theirs with it too, before the server exists, to warm-start into)
CACHE_CAPACITY = 128

#: most group keys remembered as "its last flush coalesced"; the least
#: recently flushed is forgotten first, which costs that group one
#: un-lingered flush, never correctness
COALESCED_KEYS_MAX = 256


def flush_reason(length: int, max_batch: int, now: float,
                 wake: Tuple[float, str], executing: int, coalesced: bool,
                 closed: bool) -> Optional[str]:
    """Why a non-empty group of ``length`` requests may be claimed at
    ``now``, or None while it must keep waiting for peers.

    ``wake`` is the group's wake point and which bound set it
    (``"linger_expired"`` or ``"deadline"``, see
    ``Server._group_wake_at``).  ``full``, the wake point and
    ``closing`` hold whatever the load; ``idle`` is the one flush that
    needs no timer: nothing says a peer is coming — no batch is
    ``executing`` and the group's last flush was not ``coalesced`` — so
    lingering would only add ``batch_wait_s`` to a lone request.
    """
    if length >= max_batch:
        return "full"
    if closed:
        return "closing"
    wake_at, why = wake
    if now >= wake_at:
        return why
    if not executing and not coalesced:
        return "idle"
    return None


class Server:
    """Concurrent, dynamically-batched front door over the pipelines."""

    def __init__(self, policy: Optional[ServePolicy] = None,
                 cache: Optional[CompileCache] = None,
                 stats: Optional[ServerStats] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy or ServePolicy()
        #: private by default so server metrics don't interleave with
        #: figure sweeps; inject a cache to share compilations
        self.cache = cache if cache is not None \
            else CompileCache(capacity=CACHE_CAPACITY)
        self.stats = stats or ServerStats()
        self.executor = BatchExecutor(self.policy, self.cache, self.stats)
        self.stats.bind(self.cache, self.executor.breakers)
        #: injectable for deterministic scheduler/quota tests; the
        #: executor keeps real monotonic time, so only inject a fake
        #: clock when no request actually executes
        self._clock = clock
        self.admission = AdmissionController(self.policy, self.stats,
                                             clock=clock)
        #: re-entrant on purpose: ``submit_many`` holds it across its
        #: members' ``submit`` calls
        self._cond = threading.Condition(threading.RLock())
        #: insertion-ordered so equal-lane, equal-urgency groups drain
        #: oldest-first
        self._groups: "OrderedDict[tuple, Deque[Request]]" = OrderedDict()
        self._pending = 0
        #: the evidence ``flush_reason`` lingers on: batches claimed and
        #: not yet finished, and the (bounded, least-recently-flushed
        #: first out) keys whose last flush coalesced > 1 request
        self._executing = 0
        self._coalesced: "OrderedDict[tuple, None]" = OrderedDict()
        self._closed = False
        self._workers: List[threading.Thread] = []
        for i in range(self.policy.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._workers.append(t)

    # -- intake ---------------------------------------------------------

    def submit(self, workload: Union[str, Workload], args: tuple = None,
               *, pipeline: str = "tensorssa",
               platform: str = "datacenter", batch_size: int = 1,
               seq_len: int = 64, seed: int = 0,
               timeout_s: Optional[float] = None,
               priority: int = 0,
               tenant: str = "default") -> "Future[Response]":
        """Enqueue one request; returns a future for its Response.

        ``args`` are the request's input tensors; when omitted they are
        synthesized via the workload's ``make_inputs`` (handy for load
        generation).  ``timeout_s`` overrides the policy deadline
        (``None`` = policy default, ``0`` or negative = no deadline).
        ``priority`` picks the scheduling lane (higher drains first and
        is exempt from shedding above ``admission.SHED_PRIORITY_MAX``);
        ``tenant`` names the token-bucket quota the request draws from.
        """
        wl = get_workload(workload) if isinstance(workload, str) else workload
        if args is None:
            args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len,
                                  seed=seed)
        budget = self.policy.request_timeout_s if timeout_s is None \
            else timeout_s
        now = self._clock()
        deadline = now + budget if budget and budget > 0 else None
        spec = get_batch_spec(wl.name)
        req = Request(workload=wl, pipeline=pipeline, platform=platform,
                      args=tuple(args),
                      batch_rows=request_rows(spec, args),
                      deadline=deadline, priority=priority, tenant=tenant,
                      enqueued_at=now)
        self._enqueue(req)
        return req.future

    def submit_many(self, submissions: Iterable[dict]
                    ) -> List["Future[Response]"]:
        """Enqueue a list of ``submit`` keyword dicts atomically: one
        lock hold and one wake for all of them (admission, shedding and
        capacity are still checked per member), so no worker can claim
        the first member before the last is queued — same-group members
        ride one batch, up to ``max_batch_size``."""
        with self._cond:
            return [self.submit(**kwargs) for kwargs in submissions]

    def _enqueue(self, req: Request) -> None:
        with self._cond:
            if self._closed:
                raise ServerShutdown("server is shut down")
            # admission control runs before backpressure: a quota- or
            # shed-rejected request never occupies queue space
            if not self.admission.admit_quota(req.tenant):
                self._quota_reject(req)
                return
            if self.admission.should_shed(req.priority,
                                          pending=self._pending):
                self._shed(req)
                return
            waited: Optional[float] = None
            if self._pending >= self.policy.queue_capacity:
                if self.policy.reject_on_full:
                    self._reject(req)
                    return
                # req.enqueued_at was stamped at submit, so the time
                # spent blocked here stays visible in the queue-wait
                # percentiles the shedder reads; the wait itself is
                # additionally recorded as its own phase/metric
                wait_start = self._clock()
                deadline = wait_start + SUBMIT_TIMEOUT_S
                while self._pending >= self.policy.queue_capacity \
                        and not self._closed:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self._reject(req)
                        return
                if self._closed:
                    raise ServerShutdown(
                        "server shut down while the submit was waiting "
                        "for queue space")
                waited = self._clock() - wait_start
                self.stats.on_backpressure(waited)
            key = group_key(req)
            queue = self._groups.get(key)
            if queue is None:
                queue = deque()
                self._groups[key] = queue
            queue.append(req)
            self._pending += 1
            self.stats.on_submit(self._pending, priority=req.priority)
            req.mark("enqueue", queue_depth=self._pending,
                     group=f"{req.workload.name}/{req.pipeline}",
                     lane=req.priority)
            if waited is not None:
                req.mark("backpressure", wait_s=waited)
            self._cond.notify_all()

    def _reject(self, req: Request) -> None:
        self.stats.on_reject()
        req.future.set_result(req.answer(STATUS_REJECTED,
                                         error="queue full"))

    def _quota_reject(self, req: Request) -> None:
        self.stats.on_quota_reject(req.tenant)
        req.mark("quota_reject", tenant=req.tenant)
        req.future.set_result(req.answer(
            STATUS_REJECTED,
            error=f"tenant quota exceeded: {req.tenant!r}"))

    def _shed(self, req: Request) -> None:
        self.stats.on_shed(req.priority)
        with obs_trace.span("serve:shed", cat="serve", lane=req.priority,
                            tenant=req.tenant):
            req.mark("shed", lane=req.priority)
        req.future.set_result(req.answer(
            STATUS_SHED,
            error=f"shed: recent queue-wait p{SHED_PERCENTILE:g} over "
                  f"the deadline budget"))

    # -- scheduling -----------------------------------------------------

    def _group_wake_at(self, queue: "Deque[Request]") -> Tuple[float, str]:
        """When the scheduler must act on a group whatever the load,
        and why: the end of the oldest member's linger
        (``"linger_expired"``) or the *group's* earliest deadline minus
        slack (``"deadline"``), whichever lands first.  Using the group
        minimum (not just ``queue[0]``) fixes two scheduler bugs: a
        later member with a tighter deadline now triggers the urgent
        flush, and the condition-wait timeout wakes in time to serve
        it."""
        flush_at = queue[0].enqueued_at + self.policy.batch_wait_s
        min_deadline = group_min_deadline(queue)
        if min_deadline is not None:
            urgent_at = min_deadline - DEADLINE_SLACK_S
            if urgent_at < flush_at:
                return urgent_at, "deadline"
        return flush_at, "linger_expired"

    def _take_batch(self) -> Optional[List[Request]]:
        """Block until a group is ready to flush; None = shut down and
        drained.

        Readiness is :func:`flush_reason`: full, past the group's wake
        point, draining — or, with no batch executing and no coalesced
        last flush to say peers are coming, at once.  Among claimable
        groups the highest lane (max member priority) wins; ties break
        to the most urgent wake point.  The claim counts as an
        executing batch until ``_worker_loop`` is done with it.
        """
        with self._cond:
            while True:
                now = self._clock()
                next_wake: Optional[float] = None
                best_key: Optional[tuple] = None
                best_rank = None
                best_reason = ""
                for key, queue in self._groups.items():
                    if not queue:
                        continue
                    wake = self._group_wake_at(queue)
                    reason = flush_reason(
                        len(queue), self.policy.max_batch_size, now, wake,
                        self._executing, key in self._coalesced,
                        self._closed)
                    if reason is None:
                        next_wake = wake[0] if next_wake is None \
                            else min(next_wake, wake[0])
                        continue
                    rank = (group_lane(queue), -wake[0])
                    if best_rank is None or rank > best_rank:
                        best_rank, best_key, best_reason = rank, key, reason
                if best_key is not None:
                    queue = self._groups[best_key]
                    batch = [queue.popleft() for _ in range(
                        min(len(queue), self.policy.max_batch_size))]
                    if not queue:
                        del self._groups[best_key]
                    self._pending -= len(batch)
                    self._executing += 1
                    self._note_flush(best_key, len(batch))
                    self.stats.on_flush(best_reason)
                    self._cond.notify_all()
                    for member in batch:
                        member.mark("dequeue", batch=len(batch),
                                    reason=best_reason)
                    return batch
                if self._closed and self._pending == 0:
                    return None
                timeout = None if next_wake is None \
                    else max(0.0, next_wake - now)
                self._cond.wait(timeout)

    def _note_flush(self, key: tuple, requests: int) -> None:
        """Remember whether ``key``'s flush coalesced (caller holds the
        lock).  A flush of one forgets the key, so unbatchable (solo)
        keys never enter; the set never outgrows
        ``COALESCED_KEYS_MAX``."""
        if requests > 1:
            self._coalesced[key] = None
            self._coalesced.move_to_end(key)
            if len(self._coalesced) > COALESCED_KEYS_MAX:
                self._coalesced.popitem(last=False)
        else:
            self._coalesced.pop(key, None)

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                with obs_trace.span("serve:batch", cat="serve",
                                    requests=len(batch),
                                    workload=batch[0].workload.name,
                                    pipeline=batch[0].pipeline):
                    self.executor.execute(batch)
            except Exception as exc:
                # A worker must never die holding unresolved futures:
                # whatever slipped past the executor's own handling is
                # scattered to the batch as typed error responses, and
                # the worker survives to drain the next batch.
                self._scatter_failure(batch, exc)
            finally:
                # whoever lingered because of this batch is claimed
                # (reason "idle") by this very worker, which is on its
                # way back into ``_take_batch``; the only wake is for
                # a waiter on the server going idle
                with self._cond:
                    self._executing -= 1
                    if not self._executing:
                        self._cond.notify_all()

    def _scatter_failure(self, batch: List[Request], exc: Exception) -> None:
        for req in batch:
            if req.future.done():
                continue
            req.future.set_result(req.answer(
                STATUS_ERROR,
                error=f"executor crashed: {type(exc).__name__}: {exc}"))

    # -- lifecycle ------------------------------------------------------

    def queue_depth(self) -> int:
        with self._cond:
            return self._pending

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop intake; serve (``drain=True``) or reject what is queued,
        then join the workers.

        The drain is *bounded*: the whole worker join shares one
        deadline — ``timeout`` when given, else ``DRAIN_TIMEOUT_S`` —
        so a wedged worker thread can never make shutdown wait
        indefinitely.  Guarantee: no waiter blocks on a
        future that never resolves.  After the workers are joined (or
        the deadline expires), anything still queued — requests a
        dead/stuck worker would have served — is answered with a typed
        :class:`~repro.errors.ServerShutdown` rejection instead of
        being left pending forever; deadline-expired drains are counted
        in ``stats.drain_expired``.
        """
        with self._cond:
            if not drain:
                self._flush_queued(STATUS_CANCELLED, "server shut down")
            self._closed = True
            self._cond.notify_all()
        deadline = time.monotonic() + (
            DRAIN_TIMEOUT_S if timeout is None else timeout)
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))
        expired = any(t.is_alive() for t in self._workers)
        with self._cond:
            # drain=True normally leaves nothing here; a worker that
            # died or outlived the drain deadline does
            self._flush_queued(
                STATUS_CANCELLED,
                str(ServerShutdown("server shut down before the request "
                                   "was served")))
        if expired:
            self.stats.on_drain_expired()

    def _flush_queued(self, status: str, error: str) -> None:
        """Resolve every queued request's future (caller holds the
        lock)."""
        cancelled = 0
        for queue in self._groups.values():
            while queue:
                req = queue.popleft()
                cancelled += 1
                req.future.set_result(req.answer(status, error=error))
        self._groups.clear()
        self._pending = 0
        if cancelled:
            self.stats.on_cancel(cancelled)
            self._cond.notify_all()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

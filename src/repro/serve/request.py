"""Request/response types for the serving layer.

A :class:`Request` is one inference call: a workload, the pipeline and
platform to serve it on, and its input tensors.  The server answers
with a :class:`Response` carrying the outputs plus per-request
observability (queue wait, the batch it rode in, cache hit status,
which executor actually served it).

Responses are delivered through ``concurrent.futures.Future`` objects,
so callers can block (``future.result()``), poll, or attach callbacks.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..models import Workload
from ..obs import trace as obs_trace

#: Response status values.
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_REJECTED = "rejected"
STATUS_CANCELLED = "cancelled"
#: answered at intake by the overload shedder (low-priority work shed
#: while the recent queue-wait percentile exceeds the deadline budget)
STATUS_SHED = "shed"

_request_ids = itertools.count()


@dataclass(eq=False)  # identity semantics: args hold tensors
class Request:
    """One queued inference request (internal to the server)."""

    workload: Workload
    pipeline: str
    platform: str
    args: tuple
    #: rows this request contributes along its workload's batch axis
    batch_rows: int = 1
    #: absolute monotonic deadline; None = no deadline
    deadline: Optional[float] = None
    #: scheduling lane: higher priorities drain first and are exempt
    #: from load shedding above ``admission.SHED_PRIORITY_MAX``
    priority: int = 0
    #: tenant label for token-bucket quotas and lane-labeled metrics
    tenant: str = "default"
    id: int = field(default_factory=lambda: next(_request_ids))
    #: stamped at *submit* (construction), before any backpressure
    #: wait, so queue-wait percentiles include time blocked on a full
    #: queue — the very signal the overload shedder reads
    enqueued_at: float = field(default_factory=time.monotonic)
    future: "Future[Response]" = field(default_factory=Future)
    #: lifecycle timeline (only populated while a trace sink is
    #: installed — see :meth:`mark`); attached to the Response
    timeline: List[Dict[str, object]] = field(default_factory=list,
                                              repr=False)

    def mark(self, event: str, **attrs) -> None:
        """Stamp one lifecycle event (enqueue, dequeue, execute, ...)
        onto the request's timeline (grammar: DESIGN.md §13).  A no-op
        unless a trace sink is installed, so the serving hot path stays
        unchanged when observability is off."""
        if obs_trace.tracing_active():
            entry: Dict[str, object] = {"event": event,
                                        "t_s": time.perf_counter()}
            if attrs:
                entry.update(attrs)
            self.timeline.append(entry)

    def answer(self, status: str, **fields) -> "Response":
        """A :class:`Response` to this request: its identity, lane and
        tenant filled in, ``fields`` on top."""
        return Response(request_id=self.id, workload=self.workload.name,
                        pipeline=self.pipeline, platform=self.platform,
                        status=status, priority=self.priority,
                        tenant=self.tenant, **fields)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    def remaining(self, now: Optional[float] = None) -> float:
        """Seconds until the deadline (inf when none is set)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - (now if now is not None else time.monotonic())


@dataclass
class Response:
    """The server's answer to one request."""

    request_id: int
    workload: str
    pipeline: str
    platform: str
    status: str
    #: pipeline that actually produced the outputs: the requested one,
    #: or a lower ladder rung when the fallback policy kicked in
    served_by: str = ""
    #: how far down the degradation ladder the serving rung sat
    #: (0 = the requested pipeline served it)
    fallback_depth: int = 0
    #: True when a rung below the requested pipeline served the request
    degraded: bool = False
    #: scheduling lane and tenant the request carried (echoed back so
    #: load generators can slice latency by lane without bookkeeping)
    priority: int = 0
    tenant: str = "default"
    outputs: Tuple = field(default=(), repr=False)
    #: how many requests / total batch rows rode in the same executed batch
    batch_requests: int = 0
    batch_rows: int = 0
    queue_wait_s: float = 0.0
    exec_wall_s: float = 0.0
    cache_hit: bool = False
    #: True when the batch executed under a tuning-DB schedule instead
    #: of the default lowering; ``schedule_id`` names it either way
    tuned: bool = False
    schedule_id: str = "default"
    #: None = verification off; True/False = oracle verdict
    verified: Optional[bool] = None
    retries: int = 0
    error: str = ""
    #: sharded serving (repro.shard): the worker process that produced
    #: the outputs ("" when served in-process)
    worker: str = ""
    #: how many times the request was redelivered after a worker crash
    #: before this answer (0 = first delivery succeeded)
    redelivered: int = 0
    #: per-request lifecycle timeline (grammar: DESIGN.md §13);
    #: populated only when the request was served under an installed
    #: trace sink
    timeline: Tuple = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

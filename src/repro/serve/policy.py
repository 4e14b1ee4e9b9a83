"""Serving policy knobs: batching, queueing, deadlines, fallback.

One :class:`ServePolicy` object configures a :class:`~repro.serve.
server.Server`.  The defaults favor throughput (coalesce up to 8
requests; linger a few milliseconds for peers, but only while a batch
is executing or the group's last flush coalesced — an idle server
serves a lone request at once) while staying safe: a bounded queue exerts backpressure on submitters, expired requests are
answered with a timeout instead of occupying device time, and requests
that cannot be compiled (or whose deadline is too close for a cold
compile) descend the fallback chain to the eager pipeline.

A field is a setting some caller needs at two values; what every
caller ran at one value is a constant: :data:`SUBMIT_TIMEOUT_S`,
:data:`DEADLINE_SLACK_S` and :data:`DRAIN_TIMEOUT_S` here,
``admission.SHED_WINDOW``, ``bucketing.BUCKET_MIN``, and the ladder's
retry-and-breaker setting (``degrade.RETRY`` /
``degrade.BREAKER_RESET_S``).  The shedder's wait budget
(``request_timeout_s - DEADLINE_SLACK_S``) and work-conservation floor
(``workers * max_batch_size``) derive from the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Verification modes (see executor.py for the oracle semantics).
VERIFY_OFF = "off"
VERIFY_BATCH = "batch"
VERIFY_SOLO = "solo"

#: how long a submit() blocked on a full queue waits for space before
#: the request is rejected (seconds)
SUBMIT_TIMEOUT_S = 5.0
#: a group flushes this long before its earliest deadline, and a
#: request whose remaining budget is below it is served eagerly when
#: no compiled artifact is cached for it (a cold compile would blow
#: the deadline)
DEADLINE_SLACK_S = 0.25
#: default drain deadline of ``Server.shutdown(drain=True)``: how long
#: the whole worker join may take before requests still queued are
#: answered with a typed ``ServerShutdown`` cancellation (a wedged
#: worker thread never makes shutdown wait forever)
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServePolicy:
    """The tunables of the serving layer, in one immutable object."""

    #: worker threads draining the queues
    workers: int = 4
    #: most requests one executed batch may coalesce (1 = no batching)
    max_batch_size: int = 8
    #: upper bound of the linger (seconds): the longest the oldest
    #: queued request waits for peers before a partial batch is flushed
    #: anyway.  Paid only on evidence that peers are coming
    #: (``server.flush_reason``); an idle server skips it
    batch_wait_s: float = 0.002
    #: total requests the server will hold queued; submit() blocks
    #: (up to SUBMIT_TIMEOUT_S, or rejects, see ``reject_on_full``)
    #: beyond this
    queue_capacity: int = 256
    #: when True a full queue rejects immediately instead of blocking
    reject_on_full: bool = False
    #: default per-request deadline; None = requests never expire.
    #: The shedder's queue-wait budget is this minus DEADLINE_SLACK_S
    request_timeout_s: float = 30.0
    #: result oracle: "off", "batch" (bit-exact vs eager on the same
    #: coalesced batch), or "solo" (allclose vs eager per request;
    #: bit-exact when the request ran unbatched)
    verify: str = VERIFY_OFF
    #: graceful-degradation ladder (repro.degrade): a failed batch
    #: descends this chain rung by rung, each rung behind a
    #: per-(workload, rung) circuit breaker, retrying a retryable fault
    #: per ``degrade.RETRY``.  None = repro.degrade.DEFAULT_LADDER from
    #: the requested pipeline down; an explicit tuple is walked
    #: verbatim, so ``(pipeline,)`` means "no fallback"
    fallback_chain: Optional[Tuple[str, ...]] = None
    #: pad variable sequence lengths to power-of-two buckets
    #: (``serve.bucketing``, from ``BUCKET_MIN``) so near-miss lengths
    #: coalesce into one batch.  Requires ``verify`` "off" or "batch":
    #: the batch oracle runs eager on the identical padded inputs,
    #: whereas "solo" would compare against the unpadded request and
    #: flag legitimate padded-state differences (e.g. an LSTM's final
    #: h/c reflect the padded-length run) as divergence.
    dynamic_shapes: bool = False
    #: per-tenant token-bucket quotas: tenant name -> (tokens/s, burst).
    #: Tenants not listed are unlimited; a drained bucket rejects at
    #: intake with a "tenant quota exceeded" response.
    tenant_rates: Optional[Dict[str, Tuple[float, float]]] = None
    #: percentile-driven load shedding: when the recent queue-wait
    #: p99 crosses the deadline budget, requests with ``priority <=
    #: admission.SHED_PRIORITY_MAX`` are answered ``shed`` at intake
    #: instead of queueing (the overload response; reject-on-full
    #: remains only as the last-resort capacity backstop)
    shed_enabled: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.verify not in (VERIFY_OFF, VERIFY_BATCH, VERIFY_SOLO):
            raise ValueError(f"unknown verify mode {self.verify!r}")
        if self.fallback_chain is not None and not self.fallback_chain:
            raise ValueError("fallback_chain must name at least one rung")
        if self.dynamic_shapes and self.verify == VERIFY_SOLO:
            raise ValueError(
                "dynamic_shapes requires verify='batch' or 'off': the "
                "solo oracle compares against unpadded inputs and would "
                "flag padded recurrent state as divergence")
        for tenant, (rate, burst) in (self.tenant_rates or {}).items():
            if rate < 0 or burst <= 0:
                raise ValueError(
                    f"tenant_rates[{tenant!r}]: rate must be >= 0 and "
                    f"burst > 0, got ({rate}, {burst})")

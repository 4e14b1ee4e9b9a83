"""Serving policy knobs: batching, queueing, deadlines, fallback.

One :class:`ServePolicy` object configures a :class:`~repro.serve.
server.Server`.  The defaults favor throughput (coalesce up to 8
requests; linger a few milliseconds for peers, but only while a batch
is executing or the group's last flush coalesced — an idle server
serves a lone request at once) while staying safe: a bounded queue exerts backpressure on submitters, expired requests are
answered with a timeout instead of occupying device time, and requests
that cannot be compiled (or whose deadline is too close for a cold
compile) descend the fallback chain to the eager pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Verification modes (see executor.py for the oracle semantics).
VERIFY_OFF = "off"
VERIFY_BATCH = "batch"
VERIFY_SOLO = "solo"


@dataclass(frozen=True)
class ServePolicy:
    """All tunables of the serving layer, in one immutable object."""

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
    #: (or rejects, see ``reject_on_full``) beyond this
    queue_capacity: int = 256
    #: how long a blocked submit() waits for queue space before the
    #: request is rejected (seconds)
    submit_timeout_s: float = 5.0
    #: when True a full queue rejects immediately instead of blocking
    reject_on_full: bool = False
    #: default per-request deadline; None = requests never expire
    request_timeout_s: float = 30.0
    #: a group flushes this long before its earliest deadline, and a
    #: request whose remaining budget is below it is served eagerly
    #: when no compiled artifact is cached for its shape (a cold
    #: compile would blow the deadline)
    deadline_slack_s: float = 0.25
    #: retries of a *retryable* fault on one ladder rung after the
    #: first attempt (the eager floor retries per request, so a poison
    #: request fails alone)
    max_retries: int = 1
    #: result oracle: "off", "batch" (bit-exact vs eager on the same
    #: coalesced batch), or "solo" (allclose vs eager per request;
    #: bit-exact when the request ran unbatched)
    verify: str = VERIFY_OFF
    #: graceful-degradation ladder (repro.degrade): a failed batch
    #: descends this chain rung by rung, each rung behind a
    #: per-(workload, rung) circuit breaker.  None =
    #: repro.degrade.DEFAULT_LADDER from the requested pipeline down;
    #: an explicit tuple is walked verbatim, so ``(pipeline,)`` means
    #: "no fallback"
    fallback_chain: Optional[Tuple[str, ...]] = None
    #: how long an open breaker refuses a rung before its half-open
    #: probe (see repro.degrade.CircuitBreaker for the fixed rest)
    breaker_reset_s: float = 0.25
    #: retry backoff (see repro.degrade.RetryPolicy); the number of
    #: in-rung retries is ``max_retries`` above
    retry_base_delay_s: float = 0.001
    retry_max_delay_s: float = 0.05
    #: seed of the executor's jitter RNG (deterministic backoff in tests)
    retry_seed: int = 0
    #: key compiles on shape *families* (repro.symshape) instead of
    #: concrete signatures, and bucket variable sequence lengths into
    #: power-of-two pads so near-miss lengths share one batch and one
    #: artifact.  Requires ``verify`` "off" or "batch": the batch
    #: oracle runs eager on the identical padded inputs, whereas
    #: "solo" would compare against the unpadded request and flag
    #: legitimate padded-state differences (e.g. an LSTM's final
    #: h/c reflect the padded-length run) as divergence.
    dynamic_shapes: bool = False
    #: smallest padding bucket; buckets are ``bucket_min * 2^k``
    bucket_min: int = 8
    #: per-tenant token-bucket quotas: tenant name -> (tokens/s, burst).
    #: Tenants not listed are unlimited; a drained bucket rejects at
    #: intake with a "tenant quota exceeded" response.
    tenant_rates: Optional[Dict[str, Tuple[float, float]]] = None
    #: percentile-driven load shedding: when the recent queue-wait
    #: p99 crosses the deadline budget, requests with
    #: ``priority <= shed_priority_max`` are answered ``shed`` at
    #: intake instead of queueing (the overload response; reject-on-
    #: full remains only as the last-resort capacity backstop)
    shed_enabled: bool = True
    #: queue-wait budget (s) the percentile is compared against; None
    #: derives ``request_timeout_s - deadline_slack_s``
    shed_budget_s: Optional[float] = None
    #: only requests at or below this priority are sheddable (lanes
    #: above it ride through overload untouched)
    shed_priority_max: int = 0
    #: hysteresis: once shedding, recover only after the percentile
    #: falls below ``budget * shed_recover_fraction``
    shed_recover_fraction: float = 0.5
    #: work-conservation floor: never shed while fewer than this many
    #: requests are pending (the percentile signal lags the live queue,
    #: and shedding into a near-empty server trades goodput for
    #: nothing — a short queue already satisfies the wait bound).
    #: None derives ``workers * max_batch_size``, one in-flight wave.
    shed_min_pending: Optional[int] = None
    #: sliding-window size (responses) for the recent-percentile signal
    shed_window: int = 256
    #: root directory of a persistent :class:`repro.tune.db.TuningDB`;
    #: when set, the server's compile cache consults it per batch and
    #: executes under the best-known schedule for (workload, shape key,
    #: platform).  The serve path only *reads* the DB — tuning happens
    #: offline via ``tools/tune`` — so warm traffic pays zero searches.
    tuning_db_path: Optional[str] = None
    #: drain deadline for ``shutdown(drain=True)``: how long the whole
    #: worker join may take before requests still queued are answered
    #: with a typed ``ServerShutdown`` cancellation (a wedged worker
    #: thread must never make shutdown wait forever).  None = wait
    #: indefinitely (the pre-deadline behaviour, for tests that want it)
    drain_timeout_s: Optional[float] = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.verify not in (VERIFY_OFF, VERIFY_BATCH, VERIFY_SOLO):
            raise ValueError(f"unknown verify mode {self.verify!r}")
        if self.bucket_min < 1:
            raise ValueError("bucket_min must be >= 1")
        if self.fallback_chain is not None and not self.fallback_chain:
            raise ValueError("fallback_chain must name at least one rung")
        if self.dynamic_shapes and self.verify == VERIFY_SOLO:
            raise ValueError(
                "dynamic_shapes requires verify='batch' or 'off': the "
                "solo oracle compares against unpadded inputs and would "
                "flag padded recurrent state as divergence")
        if not 0.0 < self.shed_recover_fraction <= 1.0:
            raise ValueError("shed_recover_fraction must be in (0, 1]")
        if self.shed_window < 1:
            raise ValueError("shed_window must be >= 1")
        if self.shed_min_pending is not None and self.shed_min_pending < 0:
            raise ValueError("shed_min_pending must be >= 0")
        if self.drain_timeout_s is not None and self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0 (or None)")
        for tenant, (rate, burst) in (self.tenant_rates or {}).items():
            if rate < 0 or burst <= 0:
                raise ValueError(
                    f"tenant_rates[{tenant!r}]: rate must be >= 0 and "
                    f"burst > 0, got ({rate}, {burst})")

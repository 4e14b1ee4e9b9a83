"""Admission control for the serving layer: quotas and shedding.

Two mechanisms, both consulted at intake (``Server._enqueue``) before
a request may occupy queue space:

* :class:`TokenBucket` — per-tenant rate quotas.  A tenant named in
  ``ServePolicy.tenant_rates`` draws one token per request from a
  bucket refilled at ``rate`` tokens/s up to ``burst``; an empty
  bucket rejects the request before it can occupy queue space.
* :class:`AdmissionController` — percentile-driven load shedding.
  When the *recent* queue-wait p99 (:data:`SHED_PERCENTILE`, over a
  sliding window of responses) crosses the deadline budget,
  low-priority requests (``priority <= shed_priority_max``) are
  answered with a ``shed`` response instead of queueing — the
  overload response the paper-stack previously lacked (reject-on-full
  was the only lever).  Hysteresis (``shed_recover_fraction``) keeps
  the shedder from flapping: once shedding, it recovers only after
  the percentile falls below ``budget * fraction``.

Every clock is injectable so tests drive time explicitly (the same
discipline as :class:`repro.degrade.CircuitBreaker`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .policy import ServePolicy
    from .stats import ServerStats

#: the recent queue-wait percentile the shedder compares to its budget
SHED_PERCENTILE = 99.0


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s, ``burst`` cap.

    ``try_take`` refills lazily from the injectable ``clock`` and
    either debits ``n`` tokens (True) or leaves the bucket untouched
    (False).  A bucket starts full so a tenant's first burst is never
    penalized for server start-up time.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate < 0 or burst <= 0:
            raise ValueError("rate must be >= 0 and burst > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()

    def try_take(self, n: float = 1.0) -> bool:
        """Debit ``n`` tokens if available; False leaves state as-is."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        with self._lock:
            now = self._clock()
            return min(self.burst,
                       self._tokens + (now - self._last) * self.rate)


class AdmissionController:
    """Intake gatekeeper: per-tenant quotas + percentile load shedding.

    One controller per server.  ``admit_quota`` answers whether a
    tenant may enqueue one more request (tenants without a configured
    bucket are unlimited); ``should_shed`` answers whether a request of
    the given priority must be shed because the recent queue-wait
    percentile has crossed the deadline budget.
    """

    def __init__(self, policy: "ServePolicy", stats: "ServerStats",
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy
        self.stats = stats
        self._buckets: Dict[str, TokenBucket] = {
            tenant: TokenBucket(rate, burst, clock)
            for tenant, (rate, burst) in (policy.tenant_rates or {}).items()
        }
        #: work-conservation floor: below this many pending requests
        #: shedding never fires (None in the policy derives one
        #: in-flight wave, ``workers * max_batch_size``)
        self.keep_busy_floor = (
            policy.shed_min_pending if policy.shed_min_pending is not None
            else policy.workers * policy.max_batch_size)
        self._shedding = False
        self._lock = threading.Lock()

    def bucket(self, tenant: str) -> Optional[TokenBucket]:
        """The tenant's bucket, or None when the tenant is unlimited."""
        return self._buckets.get(tenant)

    def admit_quota(self, tenant: str) -> bool:
        """Debit one token from the tenant's bucket (True = admitted)."""
        bucket = self._buckets.get(tenant)
        return True if bucket is None else bucket.try_take(1.0)

    def shed_budget_s(self) -> Optional[float]:
        """The queue-wait budget the shedder compares against.

        Explicit ``shed_budget_s`` wins; otherwise the budget derives
        from the default deadline: ``request_timeout_s −
        deadline_slack_s`` (the point past which a queued request is
        all but guaranteed to blow its deadline).  None disables
        shedding (no deadline, nothing to protect).
        """
        if self.policy.shed_budget_s is not None:
            return self.policy.shed_budget_s
        timeout = self.policy.request_timeout_s
        if not timeout or timeout <= 0:
            return None
        return max(0.0, timeout - self.policy.deadline_slack_s)

    @property
    def shedding(self) -> bool:
        """True while the shedder is in its overloaded state."""
        with self._lock:
            return self._shedding

    def should_shed(self, priority: int,
                    pending: Optional[int] = None) -> bool:
        """Must a request of this priority be shed right now?

        High-priority requests (above ``shed_priority_max``) are never
        shed and never flip the hysteresis state; sheddable traffic
        trips the shedder when the recent queue-wait percentile
        exceeds the budget and recovers once it falls below
        ``budget * shed_recover_fraction``.  With ``pending`` given,
        shedding stays work-conserving: below ``keep_busy_floor``
        queued requests nothing is shed even while tripped — the
        percentile signal lags the live queue, and a near-empty queue
        already satisfies the wait bound shedding exists to protect.
        """
        if not self.policy.shed_enabled \
                or priority > self.policy.shed_priority_max:
            return False
        if pending is not None and pending < self.keep_busy_floor:
            return False
        budget = self.shed_budget_s()
        if budget is None or budget <= 0:
            return False
        p = self.stats.recent_queue_wait_percentile(SHED_PERCENTILE)
        with self._lock:
            if self._shedding:
                if p < budget * self.policy.shed_recover_fraction:
                    self._shedding = False
            elif p > budget:
                self._shedding = True
            return self._shedding

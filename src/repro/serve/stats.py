"""Thread-safe serving metrics (`ServerStats`).

Everything the load generator and the CI smoke gate read comes from
here: request counts by outcome, the batch-size histogram, latency
percentiles, queue-depth high-water, and the compile-cache snapshot
(hit rate *and* epoch, so readers can tell when the counters were
reset — see the counter-lifecycle note in ``eval/harness.py``).

Since the ``repro.obs`` refactor the counters live in a
:class:`~repro.obs.MetricsRegistry` instead of ad-hoc fields: every
outcome count is a :class:`~repro.obs.Counter`, the batch-size and
fallback-depth histograms are :class:`~repro.obs.LabeledCounter`
families, the queue-depth high-water is a :class:`~repro.obs.Gauge`
peak, and latency / queue-wait distributions are seeded
reservoir-sampled :class:`~repro.obs.Histogram` instruments (Algorithm
R), so percentiles keep tracking the *whole* run instead of freezing on
the first ``MAX_SAMPLES`` responses.  The legacy attribute API
(``stats.completed``, ``stats.batch_size_hist``, ...) is preserved as
read-only properties over the registry, and ``to_dict`` emits the same
keys as before the refactor.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

from ..eval.harness import CacheStats
from ..obs import Histogram, MetricsRegistry, percentile_nearest_rank


class ServerStats:
    """Counters for one server, safe to update from many workers.

    Backed by a :class:`~repro.obs.MetricsRegistry`; the historical
    attribute surface (``completed``, ``fallback_depth_hist``,
    ``queue_depth_peak``, ...) is exposed as properties so existing
    readers and tests keep working unchanged.
    """

    #: cap on retained latency samples (reservoir replaces beyond it)
    MAX_SAMPLES = 100_000

    def __init__(self, seed: int = 0, recent_window: int = 256) -> None:
        self._lock = threading.Lock()
        self.registry = MetricsRegistry(seed=seed)
        reg = self.registry
        self._submitted = reg.counter("serve.submitted")
        self._completed = reg.counter("serve.completed")
        self._errors = reg.counter("serve.errors")
        self._timeouts = reg.counter("serve.timeouts")
        self._rejected = reg.counter("serve.rejected")
        self._cancelled = reg.counter("serve.cancelled")
        self._fallbacks = reg.counter("serve.fallbacks")
        self._retries = reg.counter("serve.retries")
        self._diverged = reg.counter("serve.diverged")
        self._verified = reg.counter("serve.verified")
        self._degraded = reg.counter("serve.degraded")
        self._batches = reg.counter("serve.batches_executed")
        self._bucket_real = reg.counter("serve.bucket_real_units")
        self._bucket_padded = reg.counter("serve.bucket_padded_units")
        self._cache_hits = reg.counter("serve.request_cache_hits")
        self._cache_misses = reg.counter("serve.request_cache_misses")
        #: requests served under a tuning-DB schedule (autotuning)
        self._tuned = reg.counter("serve.tuned")
        self._schedules = reg.labeled_counter("serve.schedule")
        self._queue_depth = reg.gauge("serve.queue_depth")
        self._batch_sizes = reg.labeled_counter("serve.batch_size")
        self._fallback_depths = reg.labeled_counter("serve.fallback_depth")
        self._latency = reg.histogram("serve.latency_s",
                                      max_samples=self.MAX_SAMPLES)
        self._queue_wait = reg.histogram("serve.queue_wait_s",
                                         max_samples=self.MAX_SAMPLES)
        # -- admission control + lanes --------------------------------
        self._shed = reg.labeled_counter("serve.shed")
        self._quota_rejected = reg.labeled_counter("serve.quota_rejected")
        self._lane_submitted = reg.labeled_counter("serve.lane_submitted")
        self._lane_completed = reg.labeled_counter("serve.lane_completed")
        self._backpressure_waits = reg.counter("serve.backpressure_waits")
        self._drain_expired = reg.counter("serve.drain_expired")
        self._backpressure_wait = reg.histogram(
            "serve.backpressure_wait_s", max_samples=self.MAX_SAMPLES)
        #: per-lane latency reservoirs, created on first response of a
        #: lane (guarded by self._lock)
        self._lane_latency: Dict[int, Histogram] = {}
        #: sliding window of the most recent queue waits — the
        #: overload shedder's signal (the whole-run reservoir would
        #: recover far too slowly after a spike)
        self._recent_queue_wait: Deque[float] = deque(maxlen=recent_window)
        #: circuit-breaker transition counts ("closed->open": n), set
        #: by the executor at snapshot time
        self.breaker_transitions: Dict[str, int] = {}
        self.cache_snapshot: Optional[CacheStats] = None
        #: tuning-DB counter snapshot (hits/misses/searches...), set by
        #: the executor when a DB is attached; ``searches == 0`` is the
        #: proof that serving performed no tuning-time work
        self.tuning_snapshot: Optional[Dict[str, int]] = None

    # -- recording ------------------------------------------------------

    def on_submit(self, queue_depth: int, priority: int = 0) -> None:
        """One request entered the queue (at the given depth)."""
        self._submitted.inc()
        self._lane_submitted.inc(priority)
        self._queue_depth.set(queue_depth)

    def on_reject(self) -> None:
        """One request was rejected at intake (queue full)."""
        self._rejected.inc()

    def on_shed(self, priority: int = 0) -> None:
        """One request was shed at intake by the overload shedder."""
        self._shed.inc(priority)

    def on_quota_reject(self, tenant: str) -> None:
        """One request was rejected by its tenant's token bucket."""
        self._quota_rejected.inc(tenant)

    def on_backpressure(self, wait_s: float) -> None:
        """One submit spent ``wait_s`` blocked on a full queue."""
        self._backpressure_waits.inc()
        self._backpressure_wait.record(wait_s)

    def on_cancel(self, n: int = 1) -> None:
        """``n`` queued requests were cancelled at shutdown."""
        self._cancelled.inc(n)

    def on_drain_expired(self, flushed: int = 0) -> None:
        """One ``shutdown(drain=True)`` hit its drain deadline with a
        worker thread still alive; the ``flushed`` requests it answered
        with typed ``ServerShutdown`` cancellations are already counted
        by :meth:`on_cancel` — this records only the deadline event."""
        self._drain_expired.inc()

    def on_batch(self, n_requests: int) -> None:
        """One batch of ``n_requests`` was handed to the executor."""
        self._batches.inc()
        self._batch_sizes.inc(n_requests)

    def on_bucket(self, real_units: int, padded_units: int) -> None:
        """One bucketed plan executed: ``real_units`` requested
        sequence units ran as ``padded_units`` after power-of-two
        padding (their ratio is the pad efficiency)."""
        self._bucket_real.inc(real_units)
        self._bucket_padded.inc(padded_units)

    def on_response(self, status: str, latency_s: float,
                    queue_wait_s: float, cache_hit: bool,
                    fallback: bool, retries: int,
                    verified: Optional[bool],
                    fallback_depth: int = 0,
                    degraded: bool = False,
                    priority: int = 0,
                    tuned: bool = False,
                    schedule_id: str = "") -> None:
        """One request's future resolved; record its outcome."""
        if status == "ok":
            self._completed.inc()
            self._lane_completed.inc(priority)
            self._fallback_depths.inc(fallback_depth)
            with self._lock:
                hist = self._lane_latency.get(priority)
                if hist is None:
                    hist = self.registry.histogram(
                        f"serve.latency_s.lane{priority}",
                        max_samples=self.MAX_SAMPLES)
                    self._lane_latency[priority] = hist
            hist.record(latency_s)
        elif status == "timeout":
            self._timeouts.inc()
        else:
            self._errors.inc()
        if fallback:
            self._fallbacks.inc()
        if degraded:
            self._degraded.inc()
        if retries:
            self._retries.inc(retries)
        if cache_hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
        if tuned:
            self._tuned.inc()
        if schedule_id:
            self._schedules.inc(schedule_id)
        if verified is not None:
            self._verified.inc()
            if not verified:
                self._diverged.inc()
        self._latency.record(latency_s)
        self._queue_wait.record(queue_wait_s)
        self._recent_queue_wait.append(queue_wait_s)

    def set_cache_snapshot(self, snap: CacheStats) -> None:
        """Attach the compile-cache counter snapshot (executor calls)."""
        with self._lock:
            self.cache_snapshot = snap

    def set_breaker_transitions(self, transitions: Dict[str, int]) -> None:
        """Attach circuit-breaker transition counts (executor calls)."""
        with self._lock:
            self.breaker_transitions = dict(transitions)

    def set_tuning_snapshot(self, snap: Dict[str, int]) -> None:
        """Attach the tuning-DB counter snapshot (executor calls)."""
        with self._lock:
            self.tuning_snapshot = dict(snap)

    # -- legacy attribute surface over the registry ---------------------

    @property
    def submitted(self) -> int:
        """Requests accepted into the queue."""
        return self._submitted.value

    @property
    def completed(self) -> int:
        """Requests answered with status ``ok``."""
        return self._completed.value

    @property
    def errors(self) -> int:
        """Requests answered with a non-ok, non-timeout status."""
        return self._errors.value

    @property
    def timeouts(self) -> int:
        """Requests answered with status ``timeout``."""
        return self._timeouts.value

    @property
    def rejected(self) -> int:
        """Requests rejected at intake."""
        return self._rejected.value

    @property
    def cancelled(self) -> int:
        """Requests cancelled at shutdown."""
        return self._cancelled.value

    @property
    def fallbacks(self) -> int:
        """Responses served through a fallback path."""
        return self._fallbacks.value

    @property
    def retries(self) -> int:
        """Total retry attempts across all responses."""
        return self._retries.value

    @property
    def diverged(self) -> int:
        """Verified responses whose oracle verdict was False."""
        return self._diverged.value

    @property
    def verified(self) -> int:
        """Responses that carried an oracle verdict (True or False)."""
        return self._verified.value

    @property
    def degraded(self) -> int:
        """Requests served by a rung below the one they asked for."""
        return self._degraded.value

    @property
    def batches_executed(self) -> int:
        """Batches handed to the executor."""
        return self._batches.value

    @property
    def cache_hits(self) -> int:
        """Requests whose compile artifact was a cache hit."""
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        """Requests whose compile artifact was a cache miss."""
        return self._cache_misses.value

    @property
    def tuned(self) -> int:
        """Requests served under a tuning-DB schedule."""
        return self._tuned.value

    @property
    def schedule_hist(self) -> Dict[str, int]:
        """schedule id -> ok-response count served under it."""
        return self._schedules.as_dict()

    @property
    def bucket_real_units(self) -> int:
        """Sequence units requested across all bucketed plans."""
        return self._bucket_real.value

    @property
    def bucket_padded_units(self) -> int:
        """Sequence units executed after padding (>= real units)."""
        return self._bucket_padded.value

    @property
    def bucket_pad_efficiency(self) -> float:
        """real / padded sequence units (1.0 = no padding waste; 0.0
        when no bucketed plan has executed)."""
        padded = self._bucket_padded.value
        return self._bucket_real.value / padded if padded else 0.0

    @property
    def shed(self) -> int:
        """Requests shed at intake by the overload shedder."""
        return self._shed.total

    @property
    def shed_by_lane(self) -> Dict[int, int]:
        """priority lane -> shed-request count."""
        return self._shed.as_dict()

    @property
    def quota_rejected(self) -> int:
        """Requests rejected by a tenant token bucket."""
        return self._quota_rejected.total

    @property
    def quota_rejected_by_tenant(self) -> Dict[str, int]:
        """tenant -> quota-rejected request count."""
        return self._quota_rejected.as_dict()

    @property
    def lane_submitted(self) -> Dict[int, int]:
        """priority lane -> requests accepted into the queue."""
        return self._lane_submitted.as_dict()

    @property
    def lane_completed(self) -> Dict[int, int]:
        """priority lane -> requests answered ok."""
        return self._lane_completed.as_dict()

    @property
    def backpressure_waits(self) -> int:
        """Submits that spent time blocked on a full queue."""
        return self._backpressure_waits.value

    @property
    def drain_expired(self) -> int:
        """Shutdowns whose bounded drain hit its deadline with a
        worker thread still alive."""
        return self._drain_expired.value

    @property
    def queue_depth_peak(self) -> int:
        """Deepest the queue ever got (high-water mark)."""
        return int(self._queue_depth.peak)

    @property
    def batch_size_hist(self) -> Dict[int, int]:
        """batch size -> number of batches executed at that size."""
        return self._batch_sizes.as_dict()

    @property
    def fallback_depth_hist(self) -> Dict[int, int]:
        """fallback depth -> ok-response count (0 = requested rung)."""
        return self._fallback_depths.as_dict()

    # -- reading --------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Request-level compile-cache hit rate (0.0 when no requests)."""
        hits = self._cache_hits.value
        total = hits + self._cache_misses.value
        return hits / total if total else 0.0

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile over the reservoir (s)."""
        return self._latency.percentile(q)

    def recent_queue_wait_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the *recent* queue waits (s).

        Computed over the sliding window (``recent_window`` most recent
        responses), not the whole-run reservoir, so the overload
        shedder sees spikes quickly and recovers once they drain.
        Returns 0.0 before any response completes.
        """
        with self._lock:
            samples = list(self._recent_queue_wait)
        return percentile_nearest_rank(samples, q)

    def lane_latency_percentile(self, lane: int, q: float) -> float:
        """Nearest-rank latency percentile for one priority lane (s);
        0.0 when the lane has served nothing."""
        with self._lock:
            hist = self._lane_latency.get(lane)
        return hist.percentile(q) if hist is not None else 0.0

    def backpressure_wait_percentile(self, q: float) -> float:
        """Nearest-rank percentile of per-submit backpressure waits (s)."""
        return self._backpressure_wait.percentile(q)

    def to_dict(self) -> dict:
        """JSON-ready snapshot (what serve_bench writes to results/)."""
        with self._lock:
            snap = self.cache_snapshot
            transitions = dict(self.breaker_transitions)
            tuning = dict(self.tuning_snapshot) \
                if self.tuning_snapshot is not None else None
        out = {
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "fallbacks": self.fallbacks,
            "retries": self.retries,
            "verified": self.verified,
            "diverged": self.diverged,
            "degraded": self.degraded,
            "fallback_depth_hist": {str(k): v for k, v in
                                    sorted(self.fallback_depth_hist.items())},
            "breaker_transitions": transitions,
            "batches_executed": self.batches_executed,
            "batch_size_hist": {str(k): v for k, v in
                                sorted(self.batch_size_hist.items())},
            "queue_depth_peak": self.queue_depth_peak,
            "request_cache_hits": self.cache_hits,
            "request_cache_misses": self.cache_misses,
            "bucket_real_units": self.bucket_real_units,
            "bucket_padded_units": self.bucket_padded_units,
            "bucket_pad_efficiency": self.bucket_pad_efficiency,
            "shed": self.shed,
            "shed_by_lane": {str(k): v for k, v in
                             sorted(self.shed_by_lane.items())},
            "quota_rejected": self.quota_rejected,
            "quota_rejected_by_tenant": {
                str(k): v for k, v in
                sorted(self.quota_rejected_by_tenant.items())},
            "lane_submitted": {str(k): v for k, v in
                               sorted(self.lane_submitted.items())},
            "lane_completed": {str(k): v for k, v in
                               sorted(self.lane_completed.items())},
            "backpressure_waits": self.backpressure_waits,
            "drain_expired": self.drain_expired,
            "tuned": self.tuned,
            "schedule_hist": {str(k): v for k, v in
                              sorted(self.schedule_hist.items())},
        }
        out["cache_hit_rate"] = (
            out["request_cache_hits"] /
            max(1, out["request_cache_hits"] + out["request_cache_misses"]))
        out["latency_p50_ms"] = self._latency.percentile(50) * 1e3
        out["latency_p95_ms"] = self._latency.percentile(95) * 1e3
        out["queue_wait_p50_ms"] = self._queue_wait.percentile(50) * 1e3
        out["queue_wait_p95_ms"] = self._queue_wait.percentile(95) * 1e3
        out["queue_wait_p99_ms"] = self._queue_wait.percentile(99) * 1e3
        out["backpressure_wait_p95_ms"] = \
            self._backpressure_wait.percentile(95) * 1e3
        with self._lock:
            lanes = sorted(self._lane_latency)
        out["lane_latency_ms"] = {
            str(lane): {"p50": self.lane_latency_percentile(lane, 50) * 1e3,
                        "p99": self.lane_latency_percentile(lane, 99) * 1e3}
            for lane in lanes}
        if snap is not None:
            out["compile_cache"] = {
                "epoch": snap.epoch, "hits": snap.hits,
                "misses": snap.misses,
                "guard_misses": snap.guard_misses, "size": snap.size,
                "capacity": snap.capacity, "hit_rate": snap.hit_rate,
            }
        if tuning is not None:
            out["tune_db"] = tuning
        return out

"""Thread-safe serving metrics (`ServerStats`): one table, pulled snapshots.

Everything the load generators and the CI gates read about a server
comes from here.  Every instrument is declared exactly once, in
:data:`INSTRUMENTS`: that table creates the instrument in a
:class:`~repro.obs.MetricsRegistry` (as ``serve.<name>``), answers the
attribute read (``stats.completed``, ``stats.shed_by_lane``, ...) and
emits the ``to_dict`` entry under the same name.  Latency / queue-wait
distributions are seeded reservoir-sampled :class:`~repro.obs.Histogram`
instruments (Algorithm R), so percentiles keep tracking the *whole* run
instead of freezing on the first ``MAX_SAMPLES`` responses.

State owned elsewhere — the compile cache's counters (hit rate *and*
epoch, so readers can tell when they were reset — see the
counter-lifecycle note in ``eval/cache.py``) and the circuit
breakers' transition counts — is never copied in:
``to_dict`` *pulls* a snapshot from each bound source when asked
(:meth:`ServerStats.bind`), so a batch pays nothing for being
observable.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

from ..obs import Histogram, MetricsRegistry, percentile_nearest_rank
from .admission import SHED_WINDOW

#: how a row of :data:`INSTRUMENTS` is created in the registry and read
#: back: kind -> (MetricsRegistry constructor, reader)
_KINDS = {
    "count": ("counter", lambda c: c.value),
    "by_label": ("labeled_counter", lambda c: c.as_dict()),
    "peak": ("gauge", lambda g: int(g.peak)),
}

#: every instrument, once: (attribute == ``to_dict`` key == registry
#: metric ``serve.<attribute>``, kind, what it counts)
INSTRUMENTS = (
    ("submitted", "count", "requests accepted into the queue"),
    ("completed", "count", "requests answered with status ok"),
    ("errors", "count", "requests answered non-ok and not timed out"),
    ("timeouts", "count", "requests answered with status timeout"),
    ("rejected", "count", "requests rejected at intake (queue full)"),
    ("cancelled", "count", "requests cancelled at shutdown"),
    ("fallbacks", "count", "responses served through a fallback path"),
    ("retries", "count", "retry attempts across all responses"),
    ("verified", "count", "responses that carried an oracle verdict"),
    ("diverged", "count", "verified responses whose verdict was False"),
    ("degraded", "count", "requests served by a rung below the asked one"),
    ("fallback_depth_hist", "by_label",
     "fallback depth -> ok-response count (0 = requested rung)"),
    ("batches_executed", "count", "batches handed to the executor"),
    ("batch_size_hist", "by_label", "batch size -> batches at that size"),
    ("flushes_by_reason", "by_label",
     "why the scheduler flushed (full | idle | linger_expired | deadline "
     "| closing) -> batches claimed for it"),
    ("queue_depth_peak", "peak", "deepest the queue ever got"),
    ("request_cache_hits", "count", "requests whose artifact was cached"),
    ("request_cache_misses", "count", "requests whose artifact was not"),
    ("bucket_real_units", "count", "sequence units requested, bucketed"),
    ("bucket_padded_units", "count", "sequence units run after padding"),
    ("shed_by_lane", "by_label", "priority lane -> requests shed at intake"),
    ("quota_rejected_by_tenant", "by_label",
     "tenant -> requests rejected by its token bucket"),
    ("lane_submitted", "by_label", "priority lane -> requests queued"),
    ("lane_completed", "by_label", "priority lane -> requests answered ok"),
    ("backpressure_waits", "count", "submits blocked on a full queue"),
    ("drain_expired", "count",
     "shutdowns whose drain deadline passed with a worker still alive"),
)
_KIND_OF = {attr: kind for attr, kind, _ in INSTRUMENTS}

#: attribute == ``to_dict`` key -> the label family whose sum it reads
_TOTALS = {"shed": "shed_by_lane",
           "quota_rejected": "quota_rejected_by_tenant"}


class ServerStats:
    """Counters for one server, safe to update from many workers.

    Backed by a :class:`~repro.obs.MetricsRegistry`; every name in
    :data:`INSTRUMENTS` reads as an attribute and as a ``to_dict`` key.
    """

    #: cap on retained latency samples (reservoir replaces beyond it)
    MAX_SAMPLES = 100_000

    def __init__(self, seed: int = 0) -> None:
        self._lock = threading.Lock()
        self.registry = MetricsRegistry(seed=seed)
        self._inst = {
            attr: getattr(self.registry, _KINDS[kind][0])("serve." + attr)
            for attr, kind in _KIND_OF.items()}
        self._latency = self._histogram("serve.latency_s")
        self._queue_wait = self._histogram("serve.queue_wait_s")
        self._backpressure_wait = self._histogram(
            "serve.backpressure_wait_s")
        #: per-lane latency reservoirs, created on first response of a
        #: lane (guarded by self._lock)
        self._lane_latency: Dict[int, Histogram] = {}
        #: sliding window of the most recent queue waits — the
        #: overload shedder's signal (the whole-run reservoir would
        #: recover far too slowly after a spike)
        self._recent_queue_wait: Deque[float] = deque(maxlen=SHED_WINDOW)
        #: pulled at ``to_dict`` time, never pushed (see :meth:`bind`)
        self._cache = None
        self._breakers = None

    def _histogram(self, metric: str) -> Histogram:
        return self.registry.histogram(metric, max_samples=self.MAX_SAMPLES)

    def bind(self, cache, breakers) -> None:
        """Name the live sources ``to_dict`` pulls its ``compile_cache``
        / ``breaker_transitions`` sections from: the server's
        :class:`~repro.eval.cache.CompileCache` and its executor's
        :class:`~repro.degrade.BreakerRegistry`."""
        self._cache, self._breakers = cache, breakers

    def __getattr__(self, name: str):
        # only reached for names without a real attribute: the tables
        if name in _TOTALS:
            return self._inst[_TOTALS[name]].total
        if name not in _KIND_OF:
            raise AttributeError(name)
        return _KINDS[_KIND_OF[name]][1](self._inst[name])

    # -- recording ------------------------------------------------------

    def on_submit(self, queue_depth: int, priority: int = 0) -> None:
        """One request entered the queue (at the given depth)."""
        self._inst["submitted"].inc()
        self._inst["lane_submitted"].inc(priority)
        self._inst["queue_depth_peak"].set(queue_depth)

    def on_reject(self) -> None:
        """One request was rejected at intake (queue full)."""
        self._inst["rejected"].inc()

    def on_shed(self, priority: int = 0) -> None:
        """One request was shed at intake by the overload shedder."""
        self._inst["shed_by_lane"].inc(priority)

    def on_quota_reject(self, tenant: str) -> None:
        """One request was rejected by its tenant's token bucket."""
        self._inst["quota_rejected_by_tenant"].inc(tenant)

    def on_backpressure(self, wait_s: float) -> None:
        """One submit spent ``wait_s`` blocked on a full queue."""
        self._inst["backpressure_waits"].inc()
        self._backpressure_wait.record(wait_s)

    def on_cancel(self, n: int = 1) -> None:
        """``n`` queued requests were cancelled at shutdown."""
        self._inst["cancelled"].inc(n)

    def on_drain_expired(self) -> None:
        """One ``shutdown(drain=True)`` hit its drain deadline with a
        worker thread still alive (the requests it then cancelled are
        counted by :meth:`on_cancel`)."""
        self._inst["drain_expired"].inc()

    def on_flush(self, reason: str) -> None:
        """The scheduler claimed one batch, for ``reason`` (see
        ``server.flush_reason``)."""
        self._inst["flushes_by_reason"].inc(reason)

    def on_batch(self, n_requests: int) -> None:
        """One batch of ``n_requests`` was handed to the executor."""
        self._inst["batches_executed"].inc()
        self._inst["batch_size_hist"].inc(n_requests)

    def on_bucket(self, real_units: int, padded_units: int) -> None:
        """One bucketed plan executed: ``real_units`` requested
        sequence units ran as ``padded_units`` after power-of-two
        padding (their ratio is the pad efficiency)."""
        self._inst["bucket_real_units"].inc(real_units)
        self._inst["bucket_padded_units"].inc(padded_units)

    def on_response(self, status: str, latency_s: float,
                    queue_wait_s: float, cache_hit: bool,
                    fallback: bool, retries: int,
                    verified: Optional[bool],
                    fallback_depth: int = 0,
                    degraded: bool = False,
                    priority: int = 0) -> None:
        """One request's future resolved; record its outcome."""
        inst = self._inst
        if status == "ok":
            inst["completed"].inc()
            inst["lane_completed"].inc(priority)
            inst["fallback_depth_hist"].inc(fallback_depth)
            with self._lock:
                hist = self._lane_latency.get(priority)
                if hist is None:
                    hist = self._histogram(
                        f"serve.latency_s.lane{priority}")
                    self._lane_latency[priority] = hist
            hist.record(latency_s)
        elif status == "timeout":
            inst["timeouts"].inc()
        else:
            inst["errors"].inc()
        if fallback:
            inst["fallbacks"].inc()
        if degraded:
            inst["degraded"].inc()
        if retries:
            inst["retries"].inc(retries)
        inst["request_cache_hits" if cache_hit
             else "request_cache_misses"].inc()
        if verified is not None:
            inst["verified"].inc()
            if not verified:
                inst["diverged"].inc()
        self._latency.record(latency_s)
        self._queue_wait.record(queue_wait_s)
        self._recent_queue_wait.append(queue_wait_s)

    # -- reading --------------------------------------------------------

    @property
    def bucket_pad_efficiency(self) -> float:
        """real / padded sequence units (1.0 = no padding waste; 0.0
        when no bucketed plan has executed)."""
        padded = self.bucket_padded_units
        return self.bucket_real_units / padded if padded else 0.0

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile over the reservoir (s)."""
        return self._latency.percentile(q)

    def recent_queue_wait_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the *recent* queue waits (s).

        Computed over the sliding window (``SHED_WINDOW`` most recent
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

    def to_dict(self) -> dict:
        """JSON-ready snapshot (what serve_bench writes to results/):
        every :data:`INSTRUMENTS` row, the derived rates and
        percentiles, and a fresh pull from each bound source."""
        out = {}
        for attr, kind in _KIND_OF.items():
            value = getattr(self, attr)
            out[attr] = {str(k): v for k, v in sorted(value.items())} \
                if kind == "by_label" else value
        for attr in _TOTALS:
            out[attr] = getattr(self, attr)
        out["bucket_pad_efficiency"] = self.bucket_pad_efficiency
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
        out["breaker_transitions"] = self._breakers.transitions() \
            if self._breakers is not None else {}
        if self._cache is not None:
            out["compile_cache"] = self._cache.snapshot().to_dict()
        return out

"""The shard router: consistent hashing, redelivery, degraded floor.

:class:`ShardRouter` is the process-spanning counterpart of
:class:`repro.serve.server.Server`: the same ``submit() ->
Future[Response]`` contract, but requests are consistent-hashed by
their *shape-specialization key* (workload, pipeline, platform, input
shapes — exactly the things that select one compiled artifact) onto N
supervised worker processes.  Keying the ring on the specialization
key means every request that would share a compiled program and a
batch lands on the same worker, so process sharding never splits a
batchable population.

Crash handling is the router's whole reason to exist:

* the :class:`~repro.shard.supervisor.Supervisor` reports each worker
  death; the dead worker leaves the hash ring and its in-flight
  requests are **redelivered** to the surviving ring — at most
  :data:`REDELIVER_MAX` times per request, after which the caller gets a
  typed :class:`~repro.errors.WorkerCrashed` response instead of a
  hang;
* redelivery is **at-most-once** on the answer side: request ids are
  stable across redeliveries, the first RESULT wins, later duplicates
  are counted and dropped, and a redelivered request that actually
  completed on the dead worker's successor incarnation is answered
  from its replay cache (``duplicate=True``), never executed twice;
* when every worker is down (respawn budget exhausted) the router
  degrades to an **in-process eager floor** — answers stay correct and
  available, just slower and marked ``degraded``.

Large tensor arguments ship once per worker incarnation (see
:meth:`ShardRouter._encode`): functionalized programs never write their
inputs, so the weights a client passes on every request keep their
bytes, and a bitwise compare against the copy shipped earlier — no
content hash — decides that a ``("ref", token)`` may go instead.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..models import Workload, get_workload
from ..obs import MetricsRegistry
from ..obs import trace as obs_trace
from ..runtime.tensor import Tensor, as_tuple
from ..serve.request import (Response, STATUS_CANCELLED, STATUS_ERROR,
                             STATUS_OK)
from .ipc import (MSG_RESULT, MSG_SUBMIT, REF_MIN_BYTES, STATUS_REF_MISS,
                  ArrayLRU, decode_args, encode_args)
from .supervisor import Supervisor, WorkerHandle

__all__ = ["HashRing", "RouterStats", "ShardPolicy", "ShardRouter"]

#: per-request redelivery budget after worker deaths; exceeded => a
#: typed WorkerCrashed error response (never a hang)
REDELIVER_MAX = 2


class HashRing:
    """Consistent hash ring with virtual nodes.

    Each node owns ``virtual_nodes`` points on a sha256 ring; a key
    routes to the first node point at or after its own hash.  Removing
    a node moves only that node's keys (the property that makes
    crash-reroute cheap: the surviving workers keep their artifact
    working sets).
    """

    def __init__(self, nodes=(), virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._lock = threading.Lock()
        self._points: List[Tuple[int, str]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")

    def add(self, node: str) -> None:
        """Insert a node's virtual points (idempotent)."""
        with self._lock:
            if node in self._nodes:
                return
            self._nodes.add(node)
            for v in range(self.virtual_nodes):
                bisect.insort(self._points,
                              (self._hash(f"{node}#{v}"), node))

    def remove(self, node: str) -> None:
        """Remove a node's virtual points (idempotent)."""
        with self._lock:
            if node not in self._nodes:
                return
            self._nodes.discard(node)
            self._points = [p for p in self._points if p[1] != node]

    def lookup(self, key: str) -> Optional[str]:
        """The node owning ``key``; None when the ring is empty."""
        with self._lock:
            if not self._points:
                return None
            h = self._hash(key)
            idx = bisect.bisect_right(self._points, (h, "￿"))
            if idx == len(self._points):
                idx = 0
            return self._points[idx][1]

    @property
    def nodes(self) -> List[str]:
        """Current member nodes, sorted."""
        with self._lock:
            return sorted(self._nodes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)


@dataclass(frozen=True)
class ShardPolicy:
    """The settings of the sharded serving layer.  Liveness and crash
    budgets are constants: ``ipc.HEARTBEAT_INTERVAL_S`` /
    ``HEARTBEAT_TIMEOUT_S``, ``supervisor.MAX_RESPAWNS`` and
    :data:`REDELIVER_MAX`."""

    #: worker processes on the hash ring
    num_workers: int = 2
    #: default per-request deadline passed through to workers
    request_timeout_s: float = 30.0
    #: artifact store directory shared by all workers (None = each
    #: worker compiles cold and publishes nothing)
    store_root: Optional[str] = None
    #: ServePolicy kwargs for each worker's inner server
    worker_policy: Optional[dict] = None
    #: FaultPlan.to_spec() dict shipped to every worker (chaos drills);
    #: only a slot's first incarnation runs it — respawns come back
    #: healthy
    fault_spec: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")


class RouterStats:
    """The router's crash-handling counters: ``shard.<name>``
    :class:`~repro.obs.Counter` instruments in a
    :class:`~repro.obs.MetricsRegistry`, the same instrument type the
    workers' :class:`~repro.serve.stats.ServerStats` reports through."""

    _FIELDS = ("submitted", "answered", "ok", "errors", "redelivered",
               "duplicates_dropped", "replayed", "eager_floor",
               "parked", "crash_failures", "tensor_refs", "ref_misses",
               "submit_bytes")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._counters = {f: self.registry.counter("shard." + f)
                          for f in self._FIELDS}
        #: latest compile-event count each worker reported (the
        #: warm-restart "zero cold compiles" witness)
        self.worker_compiles: Dict[str, int] = {}
        #: warm-start artifact counts from worker HELLOs, by
        #: (worker_id, generation)
        self.worker_warmed: Dict[str, int] = {}

    def inc(self, name: str, by: int = 1) -> None:
        """Bump one counter."""
        self._counters[name].inc(by)

    def get(self, name: str) -> int:
        """Read one counter."""
        return self._counters[name].value

    def to_dict(self) -> Dict[str, object]:
        """Snapshot of every counter plus per-worker reports."""
        out: Dict[str, object] = {
            f: c.value for f, c in self._counters.items()}
        out["worker_compiles"] = dict(self.worker_compiles)
        out["worker_warmed"] = dict(self.worker_warmed)
        return out


@dataclass
class _Inflight:
    """Router-side record of one not-yet-answered request."""

    rid: int
    workload: str
    pipeline: str
    platform: str
    args_wire: list
    ring_key: str
    future: "Future[Response]"
    priority: int = 0
    tenant: str = "default"
    timeout_s: Optional[float] = None
    worker: str = ""
    generation: int = 0
    redelivered: int = 0
    submitted_at: float = field(default_factory=time.monotonic)


class ShardRouter:
    """Multi-process serving front door (see module docstring)."""

    def __init__(self, policy: Optional[ShardPolicy] = None) -> None:
        self.policy = policy or ShardPolicy()
        self.stats = RouterStats()
        self.ring = HashRing()
        worker_cfg = {
            "store_root": self.policy.store_root,
            "policy": dict(self.policy.worker_policy or {}),
            "fault_spec": self.policy.fault_spec,
        }
        self.supervisor = Supervisor(
            num_workers=self.policy.num_workers,
            worker_cfg=worker_cfg)
        self.supervisor.on_message = self._on_message
        self.supervisor.on_ready = self._on_ready
        self.supervisor.on_death = self._on_death
        self.supervisor.on_retired = self._on_retired
        self._lock = threading.Lock()
        self._inflight: Dict[int, _Inflight] = {}
        self._parked: List[_Inflight] = []
        self._rids = itertools.count()
        #: shipped copies of large tensor arguments: view key ->
        #: (read-only copy, ref token)
        self._kept = ArrayLRU()
        self._tokens = itertools.count()
        self._closed = False
        self.supervisor.start()

    # -- context management --------------------------------------------

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- readiness ------------------------------------------------------

    def wait_ready(self, min_workers: int = 1,
                   timeout: float = 60.0) -> int:
        """Block until ``min_workers`` are routable (or timeout);
        returns the ready count."""
        deadline = time.monotonic() + timeout
        while True:
            ready = len(self.ring)
            if ready >= min_workers or time.monotonic() >= deadline:
                return ready
            if not self.supervisor.handles():
                return ready  # every slot retired: nobody is coming
            time.sleep(0.02)

    # -- intake ---------------------------------------------------------

    @staticmethod
    def ring_key(workload: str, pipeline: str, platform: str,
                 args: tuple) -> str:
        """The shape key a request hashes on: every request sharing it
        shares one batch population, so they must share one worker."""
        sig = tuple(tuple(a.shape) if isinstance(a, Tensor) else repr(a)
                    for a in args)
        return f"{workload}/{pipeline}/{platform}/{sig}"

    def _encode(self, args: tuple) -> list:
        """The request's wire arguments: :func:`encode_args`, except
        that a tensor of at least ``REF_MIN_BYTES`` becomes
        ``("tensor", copy, token)`` with a kept read-only copy, keyed by
        its storage id and view — the copy shipped earlier when that
        view still holds bitwise-equal bytes."""
        wire = []
        for arg in args:
            if not isinstance(arg, Tensor) or arg.nbytes < REF_MIN_BYTES:
                wire.extend(encode_args((arg,)))
                continue
            arr = arg._array
            offset = (arr.__array_interface__["data"][0]
                      - arg.storage.buffer.__array_interface__["data"][0])
            key = (arg.storage.id, offset, arr.shape, arr.strides,
                   arr.dtype.str)
            kept = self._kept.get(key)
            if kept is None or not _same_bits(kept[0], arr):
                copy = np.array(arr, order="C")
                copy.flags.writeable = False
                kept = (copy, next(self._tokens))
                self._kept.put(key, kept, copy.nbytes)
            wire.append(("tensor",) + kept)
        return wire

    def submit(self, workload: Union[str, Workload], args: tuple = None,
               *, pipeline: str = "tensorssa",
               platform: str = "datacenter", batch_size: int = 1,
               seq_len: int = 64, seed: int = 0,
               timeout_s: Optional[float] = None, priority: int = 0,
               tenant: str = "default") -> "Future[Response]":
        """Enqueue one request; same contract as
        :meth:`repro.serve.server.Server.submit`."""
        wl = get_workload(workload) if isinstance(workload, str) \
            else workload
        if args is None:
            args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len,
                                  seed=seed)
        budget = self.policy.request_timeout_s if timeout_s is None \
            else timeout_s
        rec = _Inflight(
            rid=next(self._rids), workload=wl.name, pipeline=pipeline,
            platform=platform, args_wire=self._encode(tuple(args)),
            ring_key=self.ring_key(wl.name, pipeline, platform,
                                   tuple(args)),
            future=Future(), priority=priority, tenant=tenant,
            timeout_s=budget if budget and budget > 0 else None)
        self.stats.inc("submitted")
        with self._lock:
            if self._closed:
                rec.future.set_result(self._typed_error(
                    rec, STATUS_CANCELLED,
                    "ServerShutdown: router is shut down"))
                return rec.future
            self._inflight[rec.rid] = rec
        self._dispatch(rec)
        return rec.future

    # -- dispatch & redelivery ------------------------------------------

    def _dispatch(self, rec: _Inflight, full: bool = False) -> None:
        """Route one in-flight record: hash ring first, then the
        parked queue (workers respawning), then the eager floor.  A
        token the chosen incarnation already received travels as a
        ref unless ``full`` (the resend after a ref miss)."""
        with obs_trace.span("shard:route", cat="shard",
                            key=rec.ring_key,
                            redelivered=rec.redelivered):
            node = self.ring.lookup(rec.ring_key)
            if node is None:
                self._route_floor(rec)
                return
            handle = self.supervisor.get(node)
            if handle is None or not handle.alive:
                self._route_floor(rec)
                return
            rec.worker = handle.worker_id
            rec.generation = handle.generation
            held = () if full else handle.tokens
            args, tokens, refs = [], [], 0
            for item in rec.args_wire:
                if len(item) == 3:
                    tokens.append(item[2])
                    if item[2] in held:
                        item = ("ref", item[2])
                        refs += 1
                args.append(item)
            payload = {"rid": rec.rid, "workload": rec.workload,
                       "pipeline": rec.pipeline,
                       "platform": rec.platform, "args": args,
                       "timeout_s": rec.timeout_s,
                       "priority": rec.priority, "tenant": rec.tenant,
                       "redelivered": rec.redelivered}
            try:
                with obs_trace.span("shard:ipc", cat="shard",
                                    worker=handle.worker_id,
                                    rid=rec.rid):
                    sent = handle.channel.send(MSG_SUBMIT, payload)
                # writes are serialized: a ref sent after this returns
                # cannot overtake the full bytes it names
                handle.tokens.update(tokens)
                self.stats.inc("submit_bytes", sent)
                self.stats.inc("tensor_refs", refs)
            except ConnectionError:
                # the worker died under the send.  If its death is
                # already declared, the on_death redelivery sweep has
                # passed and this record must reroute itself; otherwise
                # it stays in flight, assigned, and rides the sweep —
                # retrying immediately would burn the whole redelivery
                # budget against the same corpse before the monitor
                # even removes it from the ring
                if handle.dead.is_set():
                    self._redeliver(rec, reason="send-failed")

    def _route_floor(self, rec: _Inflight) -> None:
        """No routable worker: park while respawns are pending, else
        degrade to the eager floor."""
        if self.supervisor.handles():
            with self._lock:
                if not self._closed:
                    self._parked.append(rec)
                    self.stats.inc("parked")
                    return
        self._serve_eager_floor(rec)

    def _redeliver(self, rec: _Inflight, reason: str) -> None:
        """One delivery attempt died with the worker; try again on the
        surviving ring, bounded by :data:`REDELIVER_MAX`."""
        rec.redelivered += 1
        if rec.redelivered > REDELIVER_MAX:
            with self._lock:
                self._inflight.pop(rec.rid, None)
            self.stats.inc("crash_failures")
            rec.future.set_result(self._typed_error(
                rec, STATUS_ERROR,
                f"WorkerCrashed: worker {rec.worker or '?'} died "
                f"({reason}); redelivery budget "
                f"({REDELIVER_MAX}) exhausted"))
            return
        self.stats.inc("redelivered")
        with obs_trace.span("shard:redeliver", cat="shard",
                            rid=rec.rid, attempt=rec.redelivered,
                            reason=reason):
            self._dispatch(rec)

    def _serve_eager_floor(self, rec: _Inflight) -> None:
        """Answer one request in-process with the eager pipeline — the
        availability floor when the whole fleet is gone."""
        with self._lock:
            self._inflight.pop(rec.rid, None)
        self.stats.inc("eager_floor")
        wl = get_workload(rec.workload)
        start = time.perf_counter()
        try:
            outputs = as_tuple(wl.model_fn(*decode_args(rec.args_wire)))
        except Exception as exc:  # keep the floor total: typed answer
            self.stats.inc("errors")
            self.stats.inc("answered")
            rec.future.set_result(self._typed_error(
                rec, STATUS_ERROR,
                f"{type(exc).__name__}: {exc}"))
            return
        self.stats.inc("ok")
        self.stats.inc("answered")
        rec.future.set_result(Response(
            request_id=rec.rid, workload=rec.workload,
            pipeline=rec.pipeline, platform=rec.platform,
            status=STATUS_OK, served_by="eager", degraded=True,
            fallback_depth=1, priority=rec.priority, tenant=rec.tenant,
            outputs=outputs, batch_requests=1, batch_rows=1,
            exec_wall_s=time.perf_counter() - start,
            redelivered=rec.redelivered))

    def _typed_error(self, rec: _Inflight, status: str,
                     error: str) -> Response:
        """A terminal non-OK response carrying a typed error string."""
        return Response(
            request_id=rec.rid, workload=rec.workload,
            pipeline=rec.pipeline, platform=rec.platform, status=status,
            priority=rec.priority, tenant=rec.tenant, error=error,
            worker=rec.worker, redelivered=rec.redelivered)

    # -- supervisor callbacks -------------------------------------------

    def _on_ready(self, handle: WorkerHandle) -> None:
        """A worker said HELLO: join the ring, record its warm-start
        report, drain anything parked."""
        hello = handle.hello
        self.stats.worker_warmed[
            f"{handle.worker_id}:g{handle.generation}"] = \
            int(hello.get("warmed", 0))
        self.stats.worker_compiles[handle.worker_id] = \
            int(hello.get("compiles", 0))
        self.ring.add(handle.worker_id)
        self._drain_parked()

    def _drain_parked(self) -> None:
        with self._lock:
            parked, self._parked = self._parked, []
        for rec in parked:
            self._dispatch(rec)

    def _on_death(self, handle: WorkerHandle, reason: str) -> None:
        """A worker incarnation died: leave the ring, redeliver its
        in-flight requests to the survivors."""
        self.ring.remove(handle.worker_id)
        with self._lock:
            doomed = [rec for rec in self._inflight.values()
                      if rec.worker == handle.worker_id
                      and rec.generation == handle.generation]
        for rec in doomed:
            self._redeliver(rec, reason=reason)

    def _on_retired(self, worker_id: str) -> None:
        """A slot exhausted its respawn budget: it never comes back, so
        parked requests must not wait for it."""
        self.ring.remove(worker_id)
        self._drain_parked()

    def _on_message(self, handle: WorkerHandle, msg_type: int,
                    payload) -> None:
        """RESULT frames resolve futures; the first answer wins."""
        if msg_type != MSG_RESULT or not isinstance(payload, dict):
            return
        rid = payload.get("rid")
        worker = str(payload.get("worker", handle.worker_id))
        if "compiles" in payload:
            self.stats.worker_compiles[worker] = int(payload["compiles"])
        if payload.get("status") == STATUS_REF_MISS:
            self._resend_full(handle, rid)
            return
        with self._lock:
            rec = self._inflight.pop(rid, None)
        if rec is None:
            self.stats.inc("duplicates_dropped")
            return
        if payload.get("duplicate"):
            self.stats.inc("replayed")
        status = str(payload.get("status", STATUS_ERROR))
        try:
            outputs = decode_args(payload.get("outputs", []))
        except Exception:
            outputs = ()
            status = STATUS_ERROR
        self.stats.inc("answered")
        self.stats.inc("ok" if status == STATUS_OK else "errors")
        rec.future.set_result(Response(
            request_id=rec.rid, workload=rec.workload,
            pipeline=rec.pipeline, platform=rec.platform, status=status,
            served_by=str(payload.get("served_by", "")),
            fallback_depth=int(payload.get("fallback_depth", 0)),
            degraded=bool(payload.get("degraded", False)),
            priority=rec.priority, tenant=rec.tenant, outputs=outputs,
            batch_requests=int(payload.get("batch_requests", 0)),
            batch_rows=int(payload.get("batch_rows", 0)),
            queue_wait_s=float(payload.get("queue_wait_s", 0.0)),
            exec_wall_s=float(payload.get("exec_wall_s", 0.0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            error=str(payload.get("error", "")), worker=worker,
            redelivered=rec.redelivered))

    def _resend_full(self, handle: WorkerHandle, rid) -> None:
        """A worker NACKed a ref it does not hold: forget everything
        that incarnation was sent and resend the request once with full
        bytes.  Not a redelivery — nothing died."""
        handle.tokens.clear()
        self.stats.inc("ref_misses")
        with self._lock:
            rec = self._inflight.get(rid)
        if rec is None or (rec.worker, rec.generation) != (
                handle.worker_id, handle.generation):
            return  # answered or redelivered meanwhile
        self._dispatch(rec, full=True)

    def report(self) -> Dict[str, object]:
        """One merged observability snapshot: router counters plus the
        supervisor's death/respawn ledger."""
        out = self.stats.to_dict()
        out["deaths"] = self.supervisor.deaths
        out["death_reasons"] = dict(self.supervisor.death_reasons)
        out["respawned"] = self.supervisor.respawned
        out["workers_ready"] = len(self.ring)
        return out

    # -- shutdown -------------------------------------------------------

    def shutdown(self, drain: bool = True,
                 timeout: float = 15.0) -> None:
        """Stop the fleet and answer everything still unresolved with
        a typed ``ServerShutdown`` cancellation (never a hang)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._inflight and not self._parked:
                        break
                time.sleep(0.02)
        self.supervisor.stop(drain=drain, timeout=max(1.0, timeout / 3))
        with self._lock:
            leftovers = list(self._inflight.values()) + self._parked
            self._inflight.clear()
            self._parked = []
        for rec in leftovers:
            if not rec.future.done():
                rec.future.set_result(self._typed_error(
                    rec, STATUS_CANCELLED,
                    "ServerShutdown: router shut down with the request "
                    "still in flight"))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two same-dtype, same-shape arrays: value
    ``==`` would equate -0.0 with 0.0 and never match a NaN."""
    bits = f"u{a.dtype.itemsize}"
    return np.array_equal(a.view(bits), b.view(bits))

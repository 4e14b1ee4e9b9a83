"""Shard worker process: one supervised serving shard.

``worker_main`` is the entry point the supervisor spawns (``spawn``
start method — a fresh interpreter, never a fork of the router's
threaded process).  Each worker:

1. installs its chaos fault plan (if the campaign shipped one as a
   :meth:`repro.faults.FaultPlan.to_spec` dict — live plans cannot
   cross the exec boundary);
2. warm-starts its private :class:`~repro.eval.cache.CompileCache`
   from the shared content-addressed
   :class:`~repro.shard.artifact.ArtifactStore`, so a restarted worker
   pays **zero** cold compiles for anything a previous incarnation
   compiled;
3. runs the existing continuous-batching
   :class:`~repro.serve.server.Server` in-process and answers framed
   ``SUBMIT`` messages with ``RESULT`` messages over the supervisor's
   UNIX socket;
4. beacons ``HEARTBEAT`` frames so the supervisor can distinguish
   *hung* from *dead*.

Crash semantics are deliberately brutal: the ``process_kill`` fault
site exits via ``os._exit(137)`` — no cleanup, no goodbye, exactly
what SIGKILL looks like from the outside — so the supervisor's crash
path is exercised honestly.  A fired ``heartbeat_stall`` fault stops
the beacon permanently while the serving loop keeps running, modeling
a wedged-but-alive process that only deadline detection can catch.

Every answered request id is remembered in a bounded result cache:
when the router redelivers a request that actually completed before
the crash was detected, the worker replays the recorded result with
``duplicate=True`` instead of executing it again (the at-most-once
guard's worker half).

A ``ref-miss`` NACK (a ``("ref", token)`` argument the worker does not
hold) never enters that cache: the router's full resend reuses the
request id and must execute.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import OrderedDict

from ..errors import ReproError
from ..eval.cache import CompileCache
from ..faults import (FaultPlan, SITE_HEARTBEAT_STALL, SITE_PROCESS_KILL,
                      global_fault_scope, maybe_inject)
from ..serve.policy import ServePolicy
from ..serve.server import CACHE_CAPACITY, Server
from .artifact import ArtifactError, ArtifactStore
from .ipc import (Channel, MSG_GOODBYE, MSG_HEARTBEAT, MSG_HELLO,
                  MSG_RESULT, MSG_SHUTDOWN, MSG_SUBMIT, STATUS_REF_MISS,
                  ArrayLRU, decode_args, encode_args)

__all__ = ["worker_main"]

#: remembered answered-request results (the redelivery replay cache)
_RESULT_CACHE_CAP = 1024


def _kill_checkpoint(point: str) -> None:
    """``process_kill`` fault site: under a scheduled fault, die the
    way SIGKILL dies — ``os._exit`` with status 137, skipping every
    finally block, atexit hook, and goodbye message."""
    try:
        maybe_inject(SITE_PROCESS_KILL, point)
    except ReproError:
        os._exit(137)


def _connect(path: str, timeout_s: float = 5.0) -> socket.socket:
    """Connect to the supervisor's UNIX socket, retrying briefly (the
    listener is up before spawn, but spawn startup is slow enough that
    we stay lenient)."""
    deadline = time.monotonic() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def _heartbeat_loop(chan: Channel, worker_id: str, interval_s: float,
                    stop: threading.Event) -> None:
    """Beacon liveness until told to stop.  A fired ``heartbeat_stall``
    fault silences the beacon *permanently* while the worker keeps
    serving — the hung-worker signature the router's deadline detector
    exists for."""
    seq = 0
    while not stop.wait(interval_s):
        try:
            maybe_inject(SITE_HEARTBEAT_STALL, worker_id)
        except ReproError:
            return  # stalled: alive but silent, forever
        try:
            chan.send(MSG_HEARTBEAT, {"worker": worker_id, "seq": seq,
                                      "t": time.monotonic()})
        except ConnectionError:
            return  # router is gone; the main loop will notice too
        seq += 1


def _resolve(spec: list, held: ArrayLRU):
    """Hold every token-tagged array of ``spec`` and swap each
    ``("ref", token)`` for the held array; None when a ref misses."""
    out = []
    for item in spec:
        if item[0] == "ref":
            arr = held.get(item[1])
            if arr is None:
                return None
            item = ("tensor", arr)
        elif len(item) == 3:
            held.put(item[2], item[1], item[1].nbytes)
        out.append(item)
    return out


def _publish(cache: CompileCache, store: ArtifactStore,
             published: set) -> int:
    """Persist every not-yet-published compiled entry into the shared
    artifact store, so the *next* incarnation of any worker warm-starts
    over this one's compilation work.  Family-keyed entries (forward
    or backward) ship the :class:`~repro.symshape.family.ShapeFamily`
    the cache keeps beside them.  Unserializable entries (eager,
    graph-free) are skipped silently — a missing artifact only costs a
    future cold compile."""
    count = 0
    for key, compiled, family in cache.entries():
        if key in published or getattr(compiled, "graph", None) is None:
            continue
        try:
            store.put(key, compiled, family=family)
        except (ArtifactError, OSError):
            published.add(key)  # don't retry a hopeless entry forever
            continue
        published.add(key)
        count += 1
    return count


def worker_main(cfg: dict) -> None:
    """Run one shard worker until shutdown, crash, or router loss.

    ``cfg`` keys (all plain picklable values — this dict crosses the
    spawn boundary):

    - ``worker_id``: stable label ("w0", ...) echoed in every message
    - ``socket_path``: the supervisor's UNIX-socket listener
    - ``store_root``: artifact store directory for warm start (None =
      cold cache)
    - ``policy``: :class:`~repro.serve.policy.ServePolicy` kwargs for
      the inner server
    - ``heartbeat_interval_s``: beacon period
    - ``fault_spec``: :meth:`~repro.faults.FaultPlan.to_spec` dict, or
      None for a fault-free worker
    - ``incarnation``: 1-based per-slot spawn count (supervisor-set)
    """
    worker_id = cfg["worker_id"]
    plan = None
    if cfg.get("fault_spec") and cfg.get("incarnation", 1) == 1:
        # only a slot's *first* incarnation runs the chaos schedule:
        # the drill's contract is that recovery succeeds, so respawned
        # workers come back healthy
        plan = FaultPlan.from_spec(cfg["fault_spec"])
    with global_fault_scope(plan):
        _serve(cfg, worker_id)


def _serve(cfg: dict, worker_id: str) -> None:
    """The worker body: warm start, hello, serve, goodbye."""
    cache = CompileCache(capacity=CACHE_CAPACITY)
    warmed = 0
    store = None
    published: set = set()
    if cfg.get("store_root"):
        store = ArtifactStore(cfg["store_root"])
        warmed = store.warm_start(cache)
        published.update(store.keys())
    # crash-during-warm-start drill point: the work above is done, the
    # HELLO below never happens — the supervisor sees a pre-ready death
    _kill_checkpoint("boot")

    chan = Channel(_connect(cfg["socket_path"]))
    policy = ServePolicy(**cfg.get("policy", {}))
    server = Server(policy=policy, cache=cache)
    chan.send(MSG_HELLO, {"worker": worker_id, "pid": os.getpid(),
                          "warmed": warmed,
                          "compiles": cache.snapshot().compiles})

    stop_beacon = threading.Event()
    beacon = threading.Thread(
        target=_heartbeat_loop,
        args=(chan, worker_id, cfg.get("heartbeat_interval_s", 0.1),
              stop_beacon),
        name=f"shard-heartbeat-{worker_id}", daemon=True)
    beacon.start()

    results: "OrderedDict[object, dict]" = OrderedDict()
    results_lock = threading.Lock()
    held = ArrayLRU()

    def reply(payload: dict) -> None:
        rid = payload["rid"]
        with results_lock:
            results[rid] = payload
            while len(results) > _RESULT_CACHE_CAP:
                results.popitem(last=False)
        # crash-before-reply drill point: the request *executed* but
        # the answer is lost — redelivery must hit the replay cache of
        # the respawned worker or count as the one allowed re-execution
        _kill_checkpoint("reply")
        try:
            chan.send(MSG_RESULT, payload)
        except ConnectionError:
            pass  # router gone; result stays cached for a redeliver

    def on_done(rid: object, fut) -> None:
        if store is not None:
            _publish(cache, store, published)
        exc = fut.exception()
        if exc is not None:
            reply({"rid": rid, "worker": worker_id, "status": "error",
                   "error": f"{type(exc).__name__}: {exc}",
                   "typed": isinstance(exc, ReproError),
                   "outputs": [], "compiles": cache.snapshot().compiles,
                   "duplicate": False})
            return
        resp = fut.result()
        reply({"rid": rid, "worker": worker_id, "status": resp.status,
               "outputs": encode_args(resp.outputs),
               "error": resp.error, "typed": True,
               "served_by": resp.served_by,
               "fallback_depth": resp.fallback_depth,
               "degraded": resp.degraded, "cache_hit": resp.cache_hit,
               "batch_requests": resp.batch_requests,
               "batch_rows": resp.batch_rows,
               "queue_wait_s": resp.queue_wait_s,
               "exec_wall_s": resp.exec_wall_s,
               "compiles": cache.snapshot().compiles,
               "duplicate": False})

    try:
        while True:
            try:
                msg_type, payload = chan.recv()
            except ConnectionError:
                break  # supervisor/router gone: die quietly
            if msg_type == MSG_SHUTDOWN:
                server.shutdown(drain=bool(payload.get("drain", True)),
                                timeout=payload.get("timeout"))
                try:
                    chan.send(MSG_GOODBYE, {
                        "worker": worker_id,
                        "compiles": cache.snapshot().compiles})
                except ConnectionError:
                    pass
                break
            if msg_type != MSG_SUBMIT:
                continue
            # crash-on-receipt drill point: request accepted, never
            # executed — the cleanest redelivery case
            _kill_checkpoint("submit")
            rid = payload["rid"]
            with results_lock:
                prior = results.get(rid)
            if prior is not None:
                dup = dict(prior)
                dup["duplicate"] = True
                try:
                    chan.send(MSG_RESULT, dup)
                except ConnectionError:
                    break
                continue
            args = _resolve(payload["args"], held)
            if args is None:
                try:
                    chan.send(MSG_RESULT, {"rid": rid, "worker": worker_id,
                                           "status": STATUS_REF_MISS})
                except ConnectionError:
                    break
                continue
            fut = server.submit(
                payload["workload"], args=decode_args(args),
                pipeline=payload.get("pipeline", "tensorssa"),
                platform=payload.get("platform", "datacenter"),
                timeout_s=payload.get("timeout_s"),
                priority=payload.get("priority", 0),
                tenant=payload.get("tenant", "default"))
            fut.add_done_callback(
                lambda f, _rid=rid: on_done(_rid, f))
    finally:
        stop_beacon.set()
        try:
            server.shutdown(drain=False, timeout=1.0)
        except Exception:
            pass
        chan.close()

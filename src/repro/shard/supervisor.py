"""Worker-process supervision: spawn, watch, detect death, respawn.

The :class:`Supervisor` owns N worker slots.  Each slot holds one live
:class:`WorkerHandle` — a spawned ``multiprocessing`` process (always
the ``spawn`` start method: the router is threaded, and forking a
threaded process inherits locks in unknowable states) plus the framed
UNIX-socket :class:`~repro.shard.ipc.Channel` it dialed back on.

Death is detected two ways, because crashed and hung are different
failures:

* **crash** — the process object reports a non-None exitcode (the
  sentinel fired).  SIGKILL, ``os._exit``, segfault: all land here.
* **hang** — the process is alive but its heartbeat beacon has been
  silent past ``heartbeat_timeout_s``.  The supervisor kills it
  (escalating terminate → kill) and treats it as a crash; a process
  that can't prove liveness doesn't get to keep its slot.

On death the supervisor invokes the router's ``on_death`` callback
(inflight redelivery happens there), then respawns the slot with
seeded, jittered exponential backoff — up to ``max_respawns`` times,
after which the slot is *retired* and ``on_retired`` fires (the router
drops it from the hash ring for good).  All spawning after the first
happens on a dedicated respawn thread so a backoff sleep never blocks
death detection on the other slots.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import tempfile
import threading
import time
import multiprocessing
from typing import Callable, Dict, List, Optional

from ..degrade import RetryPolicy
from ..obs import trace as obs_trace
from .ipc import (Channel, MSG_GOODBYE, MSG_HEARTBEAT, MSG_HELLO,
                  MSG_SHUTDOWN)
from .worker import worker_main

__all__ = ["Supervisor", "WorkerHandle"]

#: how long a spawned worker may take to dial back with HELLO
READY_TIMEOUT_S = 60.0
#: respawn backoff: seeded, jittered exponential
RESPAWN_BACKOFF = RetryPolicy(base_delay_s=0.05, max_delay_s=1.0)


class WorkerHandle:
    """One live (or dying) worker incarnation.

    Identity is ``(worker_id, generation)``: a respawned slot keeps
    its ``worker_id`` (and therefore its hash-ring position) but gets
    a fresh generation, so a stale result from a previous incarnation
    can never be mistaken for a live one.
    """

    def __init__(self, worker_id: str, slot: int, generation: int) -> None:
        self.worker_id = worker_id
        self.slot = slot
        self.generation = generation
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.channel: Optional[Channel] = None
        #: HELLO received and channel attached — routable
        self.ready = threading.Event()
        #: last heartbeat (or HELLO) arrival, monotonic
        self.last_beat = time.monotonic()
        self.spawned_at = time.monotonic()
        #: HELLO payload (pid, warm-start stats)
        self.hello: dict = {}
        #: set once the supervisor has declared this incarnation dead
        self.dead = threading.Event()
        #: set when the supervisor asked it to exit (a clean 0 exit
        #: after this is a shutdown, not a crash)
        self.stopping = threading.Event()

    @property
    def alive(self) -> bool:
        """Routable: ready, not declared dead, channel open."""
        return (self.ready.is_set() and not self.dead.is_set()
                and self.channel is not None and not self.channel.closed)

    def __repr__(self) -> str:
        state = ("dead" if self.dead.is_set()
                 else "ready" if self.ready.is_set() else "starting")
        return (f"WorkerHandle({self.worker_id} g{self.generation} "
                f"{state})")


class Supervisor:
    """Spawns and babysits the worker fleet for one router.

    Callbacks (set before :meth:`start`; all invoked from supervisor
    threads, so they must be thread-safe):

    - ``on_message(handle, msg_type, payload)`` — every non-heartbeat
      frame from a ready worker (RESULT, GOODBYE)
    - ``on_ready(handle)`` — worker sent HELLO and is routable
    - ``on_death(handle, reason)`` — incarnation declared dead
      (``reason`` in {"crash", "hang", "boot"}); fired before respawn
    - ``on_retired(worker_id)`` — respawn budget exhausted, slot gone
    """

    def __init__(self, num_workers: int,
                 worker_cfg: Optional[dict] = None,
                 heartbeat_interval_s: float = 0.1,
                 heartbeat_timeout_s: float = 1.0,
                 max_respawns: int = 2,
                 seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        #: template for worker_main cfg; per-spawn keys (worker_id,
        #: socket_path, heartbeat_interval_s) are filled in here
        self.worker_cfg = dict(worker_cfg or {})
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_respawns = max_respawns
        self._rng = random.Random(seed)
        self._ctx = multiprocessing.get_context("spawn")
        self._dir = tempfile.mkdtemp(prefix="repro-shard-")
        self._lock = threading.RLock()
        self._handles: Dict[str, WorkerHandle] = {}
        self._respawns: Dict[str, int] = {}
        self._retired: set = set()
        self._generation = 0
        self._closed = threading.Event()
        self._threads: List[threading.Thread] = []
        self._monitor: Optional[threading.Thread] = None
        # router-installed callbacks
        self.on_message: Callable = lambda handle, mt, payload: None
        self.on_ready: Callable = lambda handle: None
        self.on_death: Callable = lambda handle, reason: None
        self.on_retired: Callable = lambda worker_id: None
        #: respawn/death counters for stats
        self.deaths = 0
        self.respawned = 0
        #: deaths by reason ("crash" / "hang" / "boot") — how chaos
        #: campaigns in the parent observe faults that fired inside
        #: child processes (a child's fault log dies with it)
        self.death_reasons: Dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn every slot and start the monitor thread."""
        for slot in range(self.num_workers):
            self._spawn(f"w{slot}", slot)
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="shard-monitor", daemon=True)
        self._monitor.start()

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Shut the fleet down: SHUTDOWN to every live worker, bounded
        wait for exits, escalate to terminate/kill, clean the socket
        dir.  Idempotent."""
        if self._closed.is_set():
            return
        self._closed.set()
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            handle.stopping.set()
            if handle.channel is not None and not handle.channel.closed:
                try:
                    handle.channel.send(MSG_SHUTDOWN, {"drain": drain})
                except ConnectionError:
                    pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            proc = handle.proc
            if proc is None:
                continue
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
            if handle.channel is not None:
                handle.channel.close()
        if self._monitor is not None:
            self._monitor.join(2.0)
        shutil.rmtree(self._dir, ignore_errors=True)

    def handles(self) -> List[WorkerHandle]:
        """Snapshot of current slot handles (any state)."""
        with self._lock:
            return list(self._handles.values())

    def get(self, worker_id: str) -> Optional[WorkerHandle]:
        """The current incarnation for ``worker_id`` (None if retired)."""
        with self._lock:
            return self._handles.get(worker_id)

    # -- spawning -------------------------------------------------------

    def _spawn(self, worker_id: str, slot: int) -> WorkerHandle:
        """Spawn one incarnation: private listener socket, process,
        attach thread (accept + HELLO happens off-thread so a
        crash-at-boot never blocks anyone)."""
        with self._lock:
            self._generation += 1
            handle = WorkerHandle(worker_id, slot, self._generation)
            self._handles[worker_id] = handle
        path = os.path.join(self._dir,
                            f"{worker_id}-g{handle.generation}.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        cfg = dict(self.worker_cfg)
        cfg.update(worker_id=worker_id, socket_path=path,
                   heartbeat_interval_s=self.heartbeat_interval_s,
                   incarnation=self._respawns.get(worker_id, 0) + 1)
        proc = self._ctx.Process(target=worker_main, args=(cfg,),
                                 name=f"shard-{worker_id}", daemon=True)
        handle.proc = proc
        proc.start()
        t = threading.Thread(target=self._attach, args=(handle, listener),
                             name=f"shard-attach-{worker_id}", daemon=True)
        t.start()
        self._threads.append(t)
        return handle

    def _attach(self, handle: WorkerHandle, listener: socket.socket) -> None:
        """Accept the worker's dial-back, read HELLO, mark it ready,
        then become its reader thread."""
        try:
            listener.settimeout(READY_TIMEOUT_S)
            try:
                conn, _ = listener.accept()
            except (socket.timeout, OSError):
                return  # boot death/hang: the monitor handles it
            finally:
                listener.close()
            chan = Channel(conn)
            try:
                msg_type, payload = chan.recv(READY_TIMEOUT_S)
            except (socket.timeout, ConnectionError):
                chan.close()
                return
            if msg_type != MSG_HELLO:
                chan.close()
                return
            handle.channel = chan
            handle.hello = payload if isinstance(payload, dict) else {}
            handle.last_beat = time.monotonic()
            handle.ready.set()
            self.on_ready(handle)
            self._read_loop(handle, chan)
        except Exception:
            if handle.channel is not None:
                handle.channel.close()

    def _read_loop(self, handle: WorkerHandle, chan: Channel) -> None:
        """Drain one worker's frames until the connection dies."""
        while not handle.dead.is_set() and not self._closed.is_set():
            try:
                msg_type, payload = chan.recv()
            except (ConnectionError, socket.timeout, OSError):
                return  # monitor declares the death; we just stop
            if msg_type == MSG_HEARTBEAT:
                handle.last_beat = time.monotonic()
                continue
            if msg_type == MSG_GOODBYE:
                handle.stopping.set()
            self.on_message(handle, msg_type, payload)

    # -- death & respawn ------------------------------------------------

    def _monitor_loop(self) -> None:
        """Poll for crashes (exitcode set) and hangs (beacon silent
        past the deadline)."""
        tick = max(0.01, self.heartbeat_interval_s / 2)
        while not self._closed.is_set():
            time.sleep(tick)
            now = time.monotonic()
            for handle in self.handles():
                if handle.dead.is_set() or handle.stopping.is_set():
                    continue
                proc = handle.proc
                if proc is not None and proc.exitcode is not None:
                    reason = "crash" if handle.ready.is_set() else "boot"
                    self._declare_dead(handle, reason)
                    continue
                if handle.ready.is_set():
                    if now - handle.last_beat > self.heartbeat_timeout_s:
                        self._declare_dead(handle, "hang")
                elif now - handle.spawned_at > READY_TIMEOUT_S:
                    self._declare_dead(handle, "boot")

    def _declare_dead(self, handle: WorkerHandle, reason: str) -> None:
        """One incarnation is gone: kill what's left of it, notify the
        router, schedule the respawn."""
        if handle.dead.is_set():
            return
        handle.dead.set()
        self.deaths += 1
        with self._lock:
            self.death_reasons[reason] = \
                self.death_reasons.get(reason, 0) + 1
        with obs_trace.span("shard:heartbeat", cat="shard",
                            worker=handle.worker_id, reason=reason,
                            generation=handle.generation):
            proc = handle.proc
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(0.5)
                if proc.is_alive():
                    proc.kill()
                    proc.join(0.5)
            if handle.channel is not None:
                handle.channel.close()
        self.on_death(handle, reason)
        if self._closed.is_set():
            return
        count = self._respawns.get(handle.worker_id, 0)
        if count >= self.max_respawns:
            with self._lock:
                self._retired.add(handle.worker_id)
                self._handles.pop(handle.worker_id, None)
            self.on_retired(handle.worker_id)
            return
        self._respawns[handle.worker_id] = count + 1
        delay = RESPAWN_BACKOFF.delay_s(count, self._rng)
        t = threading.Thread(
            target=self._respawn_after,
            args=(handle.worker_id, handle.slot, delay),
            name=f"shard-respawn-{handle.worker_id}", daemon=True)
        t.start()
        self._threads.append(t)

    def _respawn_after(self, worker_id: str, slot: int,
                       delay: float) -> None:
        """Backoff then respawn (dedicated thread per death so a sleep
        never delays detecting the next death)."""
        time.sleep(delay)
        if self._closed.is_set():
            return
        with obs_trace.span("shard:respawn", cat="shard",
                            worker=worker_id, delay_s=round(delay, 4)):
            self.respawned += 1
            self._spawn(worker_id, slot)

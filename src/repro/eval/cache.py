"""The compile cache: one key, one fetch.

A compiled artifact is a pure value of what its compile reads: the
pipeline, the program, forward or backward.  A scripted compile reads
no input shapes, so one artifact serves every shape of its program;
only a pipeline that traces and specializes on its example inputs
(``Pipeline.needs_example_inputs``, the dynamo baseline) reads them,
and its key adds their shape signature.  :func:`compile_key` is the
only place the key is built and :func:`fetch` the only
compile-or-reuse path, for the harness, the serving executor and the
tools alike; :func:`fetch` hands example inputs only to a compile
whose key records them.  Nothing outside this module takes a key
apart.

Concurrency contract
--------------------

:class:`CompileCache` is safe to share across threads: every counter
and entry update happens under one lock, a miss registers an *in-flight*
slot so concurrent requests for the same key wait for one compilation
instead of duplicating it, and each ``get_or_compile`` call reports its
own hit/miss status (callers must never infer it by diffing the global
counters — that was racy, see tests/test_concurrency.py).

Counter lifecycle
-----------------

Hit/miss counters are **per-epoch**: ``clear()`` drops the entries,
zeroes the counters, and increments ``epoch``.  Anything that snapshots
the counters (``RunResult``, ``tools/inspect``, ``repro.serve``
metrics) records the epoch alongside them, so two snapshots are only
comparable when their epochs match.  ``snapshot()`` returns all of it
atomically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import repro.runtime as rt
from ..models import Workload
from ..obs import trace as obs_trace
from ..pipelines import Pipeline
from ..pipelines.base import Compiled


@dataclass(frozen=True)
class CacheStats:
    """Atomic snapshot of a cache's per-epoch counters."""

    epoch: int
    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """Plain-dict form for JSON reports: the fields plus the rate."""
        return {**asdict(self), "hit_rate": self.hit_rate}


class CompileCache:
    """Thread-safe LRU map of compile key -> Compiled.

    Bounded so sweeps over pipelines and workloads (and over the
    shapes a specializing pipeline keys on) cannot grow compilation
    state without limit; hit/miss counters are surfaced on
    ``RunResult`` so benchmarks can tell recompilations from cache
    replays.  All mutation happens under one
    lock; concurrent misses on the same key are deduplicated so exactly
    one thread compiles while the rest wait for its result.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Compiled]" = OrderedDict()
        self._lock = threading.RLock()
        #: key -> event set when that key's compilation ends
        self._inflight: dict = {}
        self.hits = 0
        self.misses = 0
        self.epoch = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def lookup(self, key: tuple) -> Tuple[Optional[Compiled], bool]:
        """Fetch and mark recently used; returns ``(entry, hit)`` and
        counts a hit or a miss.

        The per-call ``hit`` flag is the only correct way to learn the
        outcome under concurrency — other threads move the global
        counters between any two reads.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, False
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, True

    def put(self, key: tuple, compiled: Compiled) -> None:
        """Insert, evicting the least recently used beyond capacity."""
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def entries(self) -> List[Tuple[tuple, Compiled]]:
        """Snapshot of ``(key, compiled)`` pairs, LRU order (oldest
        first) — how shard workers discover what to publish into the
        artifact store without holding the cache lock while
        serializing."""
        with self._lock:
            return list(self._entries.items())

    def get_or_compile(self, key: tuple,
                       factory: Callable[[], Compiled]
                       ) -> Tuple[Compiled, bool]:
        """Return ``(compiled, hit)``, invoking ``factory`` on a miss.

        Concurrent misses on the same key coalesce: one caller owns the
        compilation, the others wait on its in-flight slot and then
        re-check the cache (re-counting as a hit on success).  If the
        owner's factory raises, waiters retry the compilation
        themselves rather than inheriting the owner's exception.
        """
        with obs_trace.span("cache:lookup", cat="cache",
                            key=str(key)) as lookup_sp:
            while True:
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        self.hits += 1
                        if lookup_sp is not None:
                            lookup_sp.args["hit"] = True
                        return entry, True
                    flight = self._inflight.get(key)
                    owner = flight is None
                    if owner:
                        flight = self._inflight[key] = threading.Event()
                        self.misses += 1
                if not owner:
                    flight.wait()
                    continue  # re-check: hit on success, own miss on error
                if lookup_sp is not None:
                    lookup_sp.args["hit"] = False
                # The in-flight slot is released and its event set on EVERY
                # exit path (including put() failing), or waiters would
                # block forever on an event that never fires — the torn
                # state the StateAuditor checks for.
                try:
                    with obs_trace.span("cache:compile", cat="cache",
                                        key=str(key)):
                        compiled = factory()
                    self.put(key, compiled)
                finally:
                    with self._lock:
                        self._inflight.pop(key, None)
                    flight.set()
                return compiled, False

    def inflight_count(self) -> int:
        """Compilations currently owned by some thread.  Zero at
        quiescence — a nonzero count with no compile running means a
        leaked slot (the StateAuditor asserts on this)."""
        with self._lock:
            return len(self._inflight)

    def snapshot(self) -> CacheStats:
        """All counters plus the epoch, read atomically."""
        with self._lock:
            return CacheStats(epoch=self.epoch, hits=self.hits,
                              misses=self.misses,
                              size=len(self._entries),
                              capacity=self.capacity)

    def clear(self) -> None:
        """Drop entries, reset the counters, and start a new epoch."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.epoch += 1


#: the process-wide cache every ``cache=None`` call shares (tests
#: isolate with ``process_cache.clear()``, which also starts a new epoch)
process_cache = CompileCache()


def clone_args(args) -> tuple:
    """Deep-copy tensor arguments so runs never share mutable inputs."""
    return tuple(a.clone() if isinstance(a, rt.Tensor) else a for a in args)


def shape_signature(example_args) -> tuple:
    """The batch/seq shape signature of a run's example inputs: per
    argument, a tensor's shape tuple or the scalar itself."""
    if example_args is None:
        return ()
    return tuple(
        tuple(a.shape) if isinstance(a, rt.Tensor) else a
        for a in example_args)


def compile_key(pipeline: Pipeline, workload: Workload,
                example_args=None, grad: bool = False) -> tuple:
    """The cache key an artifact lives under: ``(pipeline, workload)``,
    plus the inputs' :func:`shape_signature` only for a pipeline that
    specializes on them (``needs_example_inputs``).  Backward artifacts
    (``grad=True``) key separately from forward ones: same program,
    different graph."""
    key = (pipeline.name, workload.name)
    if pipeline.needs_example_inputs:
        key += (shape_signature(example_args),)
    return key + ("grad",) if grad else key


class Fetched(NamedTuple):
    """What one :func:`fetch` found or built: the artifact and this
    call's own cache verdict (never diff the global counters)."""

    compiled: Compiled
    hit: bool


def fetch(pipeline: Pipeline, workload: Workload, args=None,
          cache: Optional[CompileCache] = None, grad: bool = False,
          cold: bool = True) -> Optional[Fetched]:
    """Compile (or reuse) the artifact for one (pipeline, workload,
    inputs) — the stack's only compile-or-reuse path.

    ``cache`` defaults to the process-wide cache; the serving layer
    injects its own instance so server metrics are isolated from figure
    sweeps running in the same process.  ``grad=True`` fetches the
    backward graph instead of the forward one.  The compile sees
    ``args`` only when the pipeline specializes on them; every other
    compile gets ``None``, so an artifact keyed without shapes cannot
    have read them.

    ``cold=False`` never compiles: the result is None unless an
    artifact for these inputs is already resident (the serving
    executor's "don't start a compile the deadline cannot absorb").
    """
    cache = cache if cache is not None else process_cache
    key = compile_key(pipeline, workload, args, grad=grad)
    if not cold and key not in cache:
        return None
    example_args = args if pipeline.needs_example_inputs else None
    build = pipeline.compile_grad if grad else pipeline.compile
    return Fetched(*cache.get_or_compile(
        key, lambda: build(workload.model_fn, example_args=example_args)))


def compile_cached(pipeline: Pipeline, workload: Workload,
                   example_args=None,
                   cache: Optional[CompileCache] = None) -> Compiled:
    """Compile (or fetch) a pipeline/workload pair under its
    :func:`compile_key`: one artifact per program, one per input shape
    signature for a pipeline that specializes on shapes."""
    return fetch(pipeline, workload, example_args, cache=cache).compiled

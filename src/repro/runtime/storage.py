"""Tensor storage: the unit of memory ownership and mutation tracking.

Every concrete tensor owns (or views) exactly one ``Storage``.  A view
tensor shares the storage of its base; an in-place operator mutates the
storage and bumps its version counter.  The version counter is what lets
tests and the functionalization pass *prove* that a converted (pure)
program no longer mutates anything.

This module also hosts :class:`MemoryPool`, the arena allocator the
static memory planner (``repro.memplan``) executes against.  The pool
models a no-shrink caching allocator with size-bucketed free lists:
buffers released at their planned death point become reusable, so fresh
arena growth — the ``peak_bytes`` every profile reports — stays close to
the true working set instead of the sum of all intermediates.  While a
pool is installed (see :func:`pool_scope`), every ``Storage`` creation
is routed through it; otherwise creations are charged to the profiler
as fresh, unreusable allocations (what an unplanned run pays).  A
planned call installs a pool only when something listens — a profile,
a trace sink or a fault plan (``profiler.listening``): the pool is an
accounting arena, and its ``allocate`` is the ``alloc`` fault
checkpoint, so a call nobody observes has nothing to account.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import profiler
from ..faults import SITE_ALLOC, maybe_inject

_storage_ids = itertools.count()

#: the innermost installed pool; Storage creations route through it.
#: Context-local so concurrent planned runs on different threads never
#: allocate through each other's pools (see runtime/profiler.py for the
#: same discipline on profile stacks).
_active_pool: ContextVar[Tuple["MemoryPool", ...]] = ContextVar(
    "repro_pool_stack", default=())


class Storage:
    """A flat, owning buffer of elements plus a mutation version counter."""

    __slots__ = ("buffer", "version", "id")

    def __init__(self, buffer: np.ndarray) -> None:
        # The buffer is kept as the *owning* ndarray; views into it are
        # ordinary numpy views so aliasing semantics come for free.
        self.buffer = buffer
        self.version = 0
        self.id = next(_storage_ids)
        pool = current_pool()
        if pool is not None:
            pool.allocate(self.nbytes)
        else:
            profiler.record_alloc(self.nbytes, reused=False)

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes

    def bump(self) -> None:
        """Record that the underlying data was mutated in place."""
        self.version += 1

    def __repr__(self) -> str:
        return f"Storage(id={self.id}, nbytes={self.nbytes}, version={self.version})"


def _bucket(nbytes: int) -> int:
    """Size class of a block: the next power of two (min 256 bytes)."""
    size = 256
    while size < nbytes:
        size <<= 1
    return size


class MemoryPool:
    """A greedy best-fit arena allocator with size-bucketed free lists.

    The pool is an *accounting* arena for the simulated device: blocks
    are sizes, not host buffers (numpy owns the real memory either way).
    ``allocate`` serves a request from the smallest free block that fits
    — searching the request's power-of-two bucket and a few larger ones
    — splitting off any usable remainder; a miss grows the arena.
    ``release`` returns a dead buffer's bytes to its bucket.  The high-
    water mark of arena growth is the run's planned ``peak_bytes``.
    """

    #: how many buckets above the request's own to search before giving
    #: up and growing the arena (bounds internal fragmentation at ~8x)
    BUCKET_SEARCH_SPAN = 3
    #: split remainders smaller than this stay attached to the block
    MIN_SPLIT_BYTES = 256

    def __init__(self) -> None:
        self._free: Dict[int, List[int]] = {}
        self.arena_bytes = 0       # total fresh growth (never shrinks)
        self.in_use_bytes = 0
        self.bytes_reused = 0
        self.bytes_released = 0
        self.num_allocs = 0
        self.num_reuses = 0
        self.num_releases = 0

    # -- allocation ------------------------------------------------------

    def allocate(self, nbytes: int) -> bool:
        """Serve one request; returns True when a free block was reused.

        The ``alloc`` fault checkpoint: an injected simulated OOM
        (:class:`~repro.errors.OOMError`) raises before any accounting
        mutates, so a failed allocation never tears ``in_use_bytes`` or
        the free lists.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            return False
        maybe_inject(SITE_ALLOC, str(nbytes))
        block = self._take_block(nbytes)
        self.in_use_bytes += nbytes
        if block is not None:
            remainder = block - nbytes
            if remainder >= self.MIN_SPLIT_BYTES:
                self._free.setdefault(_bucket(remainder), []).append(remainder)
            self.bytes_reused += nbytes
            self.num_reuses += 1
            profiler.record_alloc(nbytes, reused=True)
            return True
        self.arena_bytes += nbytes
        self.num_allocs += 1
        profiler.record_alloc(nbytes, reused=False)
        return False

    def _take_block(self, nbytes: int) -> Optional[int]:
        """Best-fit: pop the smallest free block >= nbytes within the
        searched buckets, or None.  A block of size s lives in bucket
        ``_bucket(s)``, so the request's own bucket may hold both
        fitting and too-small blocks and must be scanned."""
        best_key = best_idx = best_size = None
        key = _bucket(nbytes)
        for _ in range(self.BUCKET_SEARCH_SPAN + 1):
            for idx, size in enumerate(self._free.get(key, ())):
                if size >= nbytes and (best_size is None or size < best_size):
                    best_key, best_idx, best_size = key, idx, size
            if best_size is not None:
                break  # larger buckets cannot hold a tighter fit
            key <<= 1
        if best_key is None:
            return None
        return self._free[best_key].pop(best_idx)

    def release(self, nbytes: int) -> None:
        """Return a dead buffer's bytes to the free lists."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        self._free.setdefault(_bucket(nbytes), []).append(nbytes)
        self.in_use_bytes = max(0, self.in_use_bytes - nbytes)
        self.bytes_released += nbytes
        self.num_releases += 1
        profiler.record_free(nbytes)

    # -- introspection ---------------------------------------------------

    @property
    def peak_bytes(self) -> int:
        """Arena high-water mark (the arena never shrinks)."""
        return self.arena_bytes

    @property
    def free_bytes(self) -> int:
        return sum(sum(blocks) for blocks in self._free.values())

    def stats(self) -> Dict[str, int]:
        """Counters for reports: arena growth, reuse, release traffic."""
        return {
            "peak_bytes": self.peak_bytes,
            "bytes_reused": self.bytes_reused,
            "bytes_released": self.bytes_released,
            "num_allocs": self.num_allocs,
            "num_reuses": self.num_reuses,
            "num_releases": self.num_releases,
        }

    def __repr__(self) -> str:
        return (f"MemoryPool(arena={self.arena_bytes}, "
                f"reused={self.bytes_reused}, free={self.free_bytes})")


def current_pool() -> Optional[MemoryPool]:
    """The innermost installed pool, or None outside any pool scope."""
    stack = _active_pool.get()
    return stack[-1] if stack else None


def active_pools() -> Tuple["MemoryPool", ...]:
    """The context's pool-scope stack, outermost first (read-only view;
    the :class:`repro.faults.StateAuditor` checks its depth returns to
    baseline after failures)."""
    return _active_pool.get()


@contextmanager
def pool_scope(pool: MemoryPool) -> Iterator[MemoryPool]:
    """Route every Storage allocation inside the body through ``pool``
    (context-local: only this thread/context sees the pool)."""
    token = _active_pool.set(_active_pool.get() + (pool,))
    try:
        yield pool
    finally:
        _active_pool.reset(token)

"""Benchmark-side spans: wrappers the traced pass installs around the
program's public entry points and removes again.

Nothing under ``src/`` changes: a wrapper replaces a module attribute
(every ``repro.*`` module that bound the same function object by
``from x import f`` is patched too) or an ``OpSchema.fn`` slot, opens a
span around the call, and :meth:`Tracer.uninstall` puts the originals
back.  Spans stay in memory — (name, start, end, parent, call id,
thread) — and are written out as one Chrome-trace file when the run
ends.

A span's *self time* is its duration minus what its child spans cover,
accumulated as children close, so ``backend.run_graph`` self time is
interpreter dispatch: the call minus kernel bodies and runtime ops.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: spans written per Chrome-trace file; the in-memory totals always
#: cover every span (a 12 s RNN round records several hundred thousand)
MAX_FILE_SPANS = 60000

_NAME, _T0, _T1, _PARENT, _CALL, _TID, _SELF = range(7)


class Tracer:
    """In-memory span recorder plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._calls = itertools.count(1)
        #: (owner, attribute, original) for every patched slot
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, call_id: Optional[object] = None) -> list:
        """Open a span; nested spans inherit the root's call id."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if call_id is None:
            call_id = parent[_CALL] if parent is not None \
                else next(self._calls)
        rec = [name, 0.0, 0.0, parent, call_id,
               threading.get_ident(), 0.0]
        stack.append(rec)
        rec[_T0] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        """Close ``rec``: its duration leaves the parent's self time."""
        rec[_T1] = t1 = time.perf_counter()
        self._local.stack.pop()
        dur = t1 - rec[_T0]
        rec[_SELF] += dur
        parent = rec[_PARENT]
        if parent is not None:
            parent[_SELF] -= dur
        self.spans.append(rec)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, name: str, call_id: Optional[object] = None
             ) -> Iterator[list]:
        """Record one span around the ``with`` body."""
        rec = self.begin(name, call_id)
        try:
            yield rec
        finally:
            self.end(rec)

    def wrapper(self, fn: Callable, name: str,
                id_fn: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call;
        ``id_fn(*args)`` names the call (e.g. a request id)."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = begin(name, id_fn(*args, **kwargs)
                        if id_fn is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        return traced

    # -- installing -----------------------------------------------------

    def patch(self, owner: object, attr: str, name: str,
              id_fn: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` and every ``repro.*`` module global bound
        to the same function object."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        wrapped = self.wrapper(original, name, id_fn)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner \
                    or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    targets.append((mod, key))
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapped)

    def patch_ops(self) -> None:
        """Wrap every registered ``OpSchema.fn`` (``runtime.op:<name>``)."""
        from repro.ops import registry
        for schema in registry.all_ops():
            if schema.fn is None:
                continue
            self._patches.append((schema, "fn", schema.fn))
            schema.fn = self.wrapper(schema.fn, "runtime.op:" + schema.name)

    def install(self) -> None:
        """The standard wrapper set: interpreter entry, kernel launch
        paths, runtime ops, backward-graph construction, and the
        serve/shard entry points reachable from this process."""
        import repro.grad as grad_pkg
        from repro.backend import fusion_runtime, interpreter
        from repro.serve import batching
        from repro.serve.executor import BatchExecutor
        from repro.serve.server import Server
        from repro.shard import ipc
        from repro.shard.router import HashRing, ShardRouter

        self.patch(interpreter, "run_graph", "backend.run_graph")
        self.patch(fusion_runtime, "execute_group", "backend.kernel:group")
        self.patch(fusion_runtime, "run_horizontal_loop",
                   "backend.kernel:hloop")
        self.patch(fusion_runtime, "run_parallel_map", "backend.kernel:pmap")
        self.patch_ops()
        self.patch(grad_pkg, "grad", "grad.build")
        self.patch(Server, "submit", "serve.submit")
        self.patch(BatchExecutor, "execute", "serve.execute_batch",
                   id_fn=lambda self_, reqs: f"req{reqs[0].id}")
        self.patch(batching, "coalesce", "serve.coalesce")
        self.patch(batching, "scatter", "serve.scatter")
        self.patch(ShardRouter, "submit", "shard.submit")
        self.patch(HashRing, "lookup", "shard.route")
        self.patch(ipc, "encode_args", "shard.encode_args")
        self.patch(ipc, "decode_args", "shard.decode_args")

    def uninstall(self) -> None:
        """Restore every patched slot (reverse order)."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading --------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list (pair with ``since=`` below)."""
        return len(self.spans)

    def totals(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """name -> {count, total_ms, self_ms} over spans after ``since``."""
        spans = self.spans[since:]
        out: Dict[str, Dict[str, float]] = {}
        for rec in spans:
            row = out.setdefault(rec[_NAME], {"count": 0, "total_ms": 0.0,
                                              "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (rec[_T1] - rec[_T0]) * 1e3
            row["self_ms"] += rec[_SELF] * 1e3
        return out

    def chrome_trace(self, meta: Optional[dict] = None) -> dict:
        """The first ``MAX_FILE_SPANS`` spans as a Chrome-trace object
        (``"X"`` complete events, microseconds from the first span)."""
        spans = sorted(self.spans, key=lambda r: r[_T0])
        total = len(spans)
        spans = spans[:MAX_FILE_SPANS]
        t_base = spans[0][_T0] if spans else 0.0
        tids: Dict[int, int] = {}
        index = {id(rec): i for i, rec in enumerate(spans)}
        events = []
        for i, rec in enumerate(spans):
            tid = tids.setdefault(rec[_TID], len(tids) + 1)
            parent = rec[_PARENT]  # id(None) is never a key of ``index``
            events.append({
                "name": rec[_NAME], "cat": rec[_NAME].split(".")[0],
                "ph": "X", "pid": 1, "tid": tid,
                "ts": (rec[_T0] - t_base) * 1e6,
                "dur": (rec[_T1] - rec[_T0]) * 1e6,
                # the repo's own schema (obs.export): a root span, or one
                # whose parent fell past the file cap, has parent_id null
                "args": {"span_id": i,
                         "parent_id": index.get(id(parent)),
                         "call_id": str(rec[_CALL]),
                         "self_us": rec[_SELF] * 1e6}})
        for ident, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"thread-{tid}"}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_recorded": total,
                              "spans_written": len(spans),
                              **(meta or {})}}

    def write_chrome(self, path: str, meta: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(meta), fh)

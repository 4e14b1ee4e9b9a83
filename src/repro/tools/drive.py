"""The one request driver under every serving drill and benchmark.

``serve_bench``, ``overload``, ``chaos``, ``sharddrill`` and ``trace
--serve`` all build request inputs (:func:`request_pool`), send them at
some arrival discipline (:func:`burst`, :func:`closed_loop`,
:func:`open_loop` — over *any* object with the ``submit`` signature
:class:`repro.serve.Server` and :class:`repro.shard.ShardRouter` share),
wait for every future under a hang timeout while classifying the
answers (:func:`tally`, so "wrong", "typed", "untyped" and "hang" mean
one thing everywhere) and write a JSON report (:func:`write_report`);
the flags their CLIs share are declared by :func:`common_args`.
This module is the only implementation of each.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout, wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError, names_typed_error
from ..models import Workload
from ..runtime import bit_exact
from ..serve import (Response, STATUS_CANCELLED, STATUS_REJECTED,
                     STATUS_SHED, STATUS_TIMEOUT, ServePolicy, Server,
                     get_batch_spec)

#: seed of the shared model state; per-request data seeds start above it
STATE_SEED = 0
DATA_SEED0 = 10_000

#: non-ok statuses that are answers by design (intake said no, the
#: deadline passed, the server closed): typed whatever the error text
TYPED_STATUSES = frozenset({STATUS_REJECTED, STATUS_SHED, STATUS_CANCELLED,
                            STATUS_TIMEOUT})


def request_pool(wl: Workload, lengths: Sequence[int],
                 seed0: int = DATA_SEED0) -> List[tuple]:
    """One request-input tuple per entry of ``lengths``, sharing state.

    Shared (non-batched) arguments — weights, priors, grids — come from
    one ``make_inputs`` call and are reused by every request, mirroring
    a server that loads a model once (they do not depend on the
    sequence length); batched arguments are freshly synthesized per
    request, at its own length, from data seed ``seed0 + i``.
    """
    base = wl.make_inputs(batch_size=1, seq_len=max(lengths),
                          seed=STATE_SEED)
    spec = get_batch_spec(wl.name)
    pool: List[tuple] = []
    for i, length in enumerate(lengths):
        fresh = wl.make_inputs(batch_size=1, seq_len=length, seed=seed0 + i)
        pool.append(tuple(fresh) if spec is None else tuple(
            fresh[k] if axis is not None else base[k]
            for k, axis in enumerate(spec.arg_axes)))
    return pool


class Load:
    """What one arrival discipline sent: per request, its future and
    the clock readings around it (``perf_counter`` seconds)."""

    def __init__(self, target, workload, requests: Sequence[dict],
                 common: dict) -> None:
        self._target, self._workload = target, workload
        self._requests, self._common = requests, common
        n = len(requests)
        self.futures: List[Optional[Future]] = [None] * n
        self.sent_at: List[float] = [0.0] * n
        self.done_at: List[Optional[float]] = [None] * n
        self.started_at = time.perf_counter()

    def send(self, i: int) -> Future:
        """Submit request ``i`` (its own kwargs over the common ones).
        A ``submit`` that raises yields a future holding the exception,
        so every request has exactly one future to tally."""
        def stamp(_fut, i=i) -> None:
            self.done_at[i] = time.perf_counter()

        self.sent_at[i] = time.perf_counter()
        try:
            fut = self._target.submit(
                self._workload, **{**self._common, **self._requests[i]})
        except Exception as exc:
            fut = Future()
            fut.set_exception(exc)
        fut.add_done_callback(stamp)
        self.futures[i] = fut
        return fut


def burst(target, workload, requests: Sequence[dict], **common) -> Load:
    """Submit every request back to back.  ``requests`` holds one
    ``submit`` kwargs dict per request; ``common`` kwargs apply to all."""
    load = Load(target, workload, requests, common)
    for i in range(len(requests)):
        load.send(i)
    return load


def closed_loop(target, workload, requests: Sequence[dict], clients: int,
                hang_timeout_s: float, **common) -> Load:
    """``clients`` threads each keep one request in flight until all
    are sent — callers that wait for a reply, so a slow system receives
    less load.  A client gives up on a future after ``hang_timeout_s``
    (``tally`` then counts it as the hang it is)."""
    load = Load(target, workload, requests, common)
    indices = itertools.count()  # next() is atomic under the GIL

    def client() -> None:
        for i in indices:
            if i >= len(requests):
                return
            wait([load.send(i)], timeout=hang_timeout_s)

    threads = [threading.Thread(target=client, name=f"client-{k}")
               for k in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return load


def open_loop(target, workload, requests: Sequence[dict], rate_rps: float,
              **common) -> Load:
    """Submit request ``i`` at ``i / rate_rps`` after the start whatever
    the target is doing — independent users, the shape that actually
    produces overload (the target must not block in ``submit``)."""
    load = Load(target, workload, requests, common)
    interval = 1.0 / rate_rps if rate_rps > 0 else 0.0
    for i in range(len(requests)):
        delay = load.started_at + i * interval - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        load.send(i)
    return load


def tally(load: Load, hang_timeout_s: float,
          refs: Optional[Sequence] = None
          ) -> Tuple[Dict[str, object], List[Optional[Response]]]:
    """Wait for every future of ``load`` and classify each outcome once.

    Returns ``(counts, responses)``; ``responses[i]`` is None where the
    future hung or raised.  The rule, the same for every tool:

    * **hang** — unresolved ``hang_timeout_s`` after this call began;
    * **ok** — ``resp.ok``, not contradicted by ``resp.verified`` and
      bit-exact against ``refs[i]`` when references are given
      (``degraded`` and ``fallback_depth_hist`` are counted over these);
    * **wrong** — ``resp.ok`` but failing either oracle;
    * **typed error** — a status in :data:`TYPED_STATUSES`, an error
      string naming a :class:`~repro.errors.ReproError` subclass
      (:func:`~repro.errors.names_typed_error`), or a future that
      raised one;
    * **untyped error** — any other failure; the offending strings are
      kept in ``untyped_error_strings`` so a red gate names its cause.
    """
    out: Dict[str, object] = {
        "requests": len(load.futures), "ok": 0, "degraded": 0, "wrong": 0,
        "typed_errors": 0, "untyped_errors": 0, "hangs": 0,
        "fallback_depth_hist": {}}
    untyped = set()
    responses: List[Optional[Response]] = []
    deadline = time.monotonic() + hang_timeout_s
    for i, fut in enumerate(load.futures):
        resp = None
        try:
            resp = fut.result(timeout=max(0.0, deadline - time.monotonic()))
        except FutureTimeout:
            out["hangs"] += 1
        except ReproError:
            out["typed_errors"] += 1
        except Exception as exc:
            untyped.add(f"raised {type(exc).__name__}: {exc}")
            out["untyped_errors"] += 1
        responses.append(resp)
        if resp is None:
            continue
        if load.done_at[i] is None:
            # a waiter can wake before the future's callbacks have run
            load.done_at[i] = time.perf_counter()
        if resp.ok:
            if resp.verified is False or (
                    refs is not None
                    and not bit_exact(resp.outputs, refs[i])):
                out["wrong"] += 1
                continue
            out["ok"] += 1
            out["degraded"] += bool(resp.degraded)
            hist = out["fallback_depth_hist"]
            hist[resp.fallback_depth] = hist.get(resp.fallback_depth, 0) + 1
        elif resp.status in TYPED_STATUSES \
                or names_typed_error(resp.error):
            out["typed_errors"] += 1
        else:
            untyped.add(f"{resp.status}: {resp.error}")
            out["untyped_errors"] += 1
    out["untyped_error_strings"] = sorted(untyped)
    return out, responses


def serve_closed_loop(wl: Workload, pool: List[tuple], policy: ServePolicy,
                      requests: int, clients: int, warmup: int,
                      hang_timeout_s: float = 120.0,
                      **common) -> Dict[str, object]:
    """One measured closed-loop run of ``requests`` (cycling ``pool``)
    against a fresh :class:`~repro.serve.Server`.  Untimed before it:
    a ``warmup`` burst, then one atomic ``submit_many`` of every size
    1…``max_batch_size`` — each rides one batch, so every batch shape
    the steady state can form has run, and every artifact it needs has
    compiled, before the clock starts.  Returns the :func:`tally` counts plus, over the timed run
    alone, throughput, mean batch size and the compiles that still
    landed inside it (``timed_compiles``), and the server's stats."""
    def cycle(n: int) -> List[dict]:
        return [{"args": pool[i % len(pool)]} for i in range(n)]

    server = Server(policy)
    try:
        tally(burst(server, wl, cycle(warmup), **common), hang_timeout_s)
        for rows in range(1, policy.max_batch_size + 1):
            wait(server.submit_many({"workload": wl, **common, **request}
                                    for request in cycle(rows)),
                 timeout=hang_timeout_s)
        warm_compiles = server.cache.snapshot().misses
        warm_batches = server.stats.batches_executed
        load = closed_loop(server, wl, cycle(requests), clients,
                           hang_timeout_s, **common)
        wall = time.perf_counter() - load.started_at
        counts, _ = tally(load, hang_timeout_s)
    finally:
        server.shutdown(drain=True)
    stats = server.stats.to_dict()
    return {
        **counts,
        "wall_s": wall,
        "throughput_rps": requests / wall if wall > 0 else 0.0,
        "dropped": requests - counts["ok"] - counts["wrong"],
        "diverged": counts["wrong"],
        "timed_compiles": server.cache.snapshot().misses - warm_compiles,
        "mean_batch_requests": (
            requests / max(1, stats["batches_executed"] - warm_batches)),
        "server": stats,
    }


#: the flags two or more tool CLIs share (``--seq-len`` for
#: ``seq_len``) and their types; each tool brings its own default and
#: help text
COMMON_ARGS = {"seed": int, "workloads": str, "requests": int,
               "seq_len": int, "hang_timeout_s": float, "out": str,
               "pipeline": str, "platform": str, "batch_size": int,
               "campaigns": int, "workers": int, "max_batch": int,
               "batch_wait_ms": float, "concurrency": int, "warmup": int,
               "distinct_inputs": int, "timeout_s": float}


def common_args(parser, **flags) -> None:
    """Declare on ``parser`` the shared flags a tool takes: one
    ``name=default`` or ``name=(default, help)`` per flag."""
    for name, spec in flags.items():
        default, text = spec if isinstance(spec, tuple) else (spec, None)
        parser.add_argument("--" + name.replace("_", "-"),
                            type=COMMON_ARGS[name], default=default,
                            help=text)


def write_report(report: Dict[str, object], args, failures: int) -> int:
    """The tail of every tool's ``main``: write ``report`` — under an
    echo of the parsed CLI ``args`` (``config``) and with ``failures``
    recorded — to ``args.out`` as JSON and say so; returns ``failures``
    (the exit status)."""
    config = {k: v for k, v in vars(args).items() if k != "out"}
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"config": config, **report, "failures": failures}, indent=2) + "\n")
    print(f"{failures} failure(s); wrote {path}")
    return failures

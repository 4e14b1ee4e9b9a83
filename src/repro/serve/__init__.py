"""``repro.serve`` — concurrent, dynamically-batched model serving.

The production-facing layer over the compilation pipelines: a
:class:`Server` accepts many concurrent requests, coalesces compatible
ones along each workload's batch axis (``batching.BatchSpec``),
executes them as single kernel-launch-profiled runs through the shared
compile cache, and answers with per-request :class:`Response` objects.
Policies (deadlines, backpressure, fallback chain, bounded retry) live
in :class:`ServePolicy`; observability in :class:`ServerStats`.

There is one scheduler: a request waits for peers in its group queue
until the group is full, past its deadline-aware wake point, or the
server is closing — and not at all while nothing says peers are coming
(no batch executing, the group's last flush a lone request); whatever
arrived by then rides the batch.  Requests
carry a ``priority`` lane and a ``tenant`` label;
:class:`AdmissionController` enforces per-tenant token-bucket quotas
and sheds low-priority work while the recent queue-wait percentile
exceeds the deadline budget (see ``serve.admission``).

Quick start::

    from repro.serve import Server, ServePolicy

    with Server(ServePolicy(workers=4, max_batch_size=8)) as srv:
        fut = srv.submit("attention", pipeline="tensorssa", seq_len=32)
        resp = fut.result()
        assert resp.ok

Load-test it with ``python -m repro.tools.serve_bench``.
"""

from ..degrade import (CircuitBreaker, DEFAULT_LADDER, RetryPolicy,
                       fallback_chain)
from ..errors import (CompileError, DeadlineExceeded, KernelError,
                      OOMError, ServerShutdown)
from .admission import AdmissionController, TokenBucket
from .batching import (BATCH_SPECS, BatchPlan, BatchSpec, coalesce,
                       get_batch_spec, group_key, group_lane,
                       group_min_deadline, scatter)
from .executor import BatchExecutor
from .policy import (ServePolicy, VERIFY_BATCH, VERIFY_OFF, VERIFY_SOLO)
from .request import (Request, Response, STATUS_CANCELLED, STATUS_ERROR,
                      STATUS_OK, STATUS_REJECTED, STATUS_SHED,
                      STATUS_TIMEOUT)
from .server import Server
from .stats import ServerStats

__all__ = [
    "Server", "ServePolicy", "ServerStats",
    "Request", "Response", "BatchExecutor",
    "AdmissionController", "TokenBucket",
    "BatchSpec", "BatchPlan", "BATCH_SPECS", "get_batch_spec",
    "group_key", "group_lane", "group_min_deadline",
    "coalesce", "scatter",
    "STATUS_OK", "STATUS_TIMEOUT", "STATUS_ERROR", "STATUS_REJECTED",
    "STATUS_CANCELLED", "STATUS_SHED",
    "VERIFY_OFF", "VERIFY_BATCH", "VERIFY_SOLO",
    "CircuitBreaker", "DEFAULT_LADDER", "RetryPolicy", "fallback_chain",
    "CompileError", "DeadlineExceeded", "KernelError", "OOMError",
    "ServerShutdown",
]

"""Serving-layer throughput: dynamic batching vs one-at-a-time.

The serving claim mirrors the paper's horizontal-parallelization
argument (§4.2.2, §5) applied across users: coalescing compatible
requests along the batch axis amortizes graph interpretation and
kernel launches, so request throughput must beat batch-size-1 serving.
These are wall-clock measurements through the real ``repro.serve``
stack (queues, workers, scatter) — the same path serve_bench drives,
at a smaller scale so the suite stays quick.
"""

from __future__ import annotations

import pytest

from repro.models import get_workload
from repro.serve import ServePolicy
from repro.tools.drive import request_pool, serve_closed_loop

REQUESTS = 48
CONCURRENCY = 8
SEQ_LEN = 16


def _serve(workload: str, max_batch: int):
    wl = get_workload(workload)
    pool = request_pool(wl, [SEQ_LEN] * 16)
    policy = ServePolicy(workers=4, max_batch_size=max_batch,
                         batch_wait_s=0.004, verify="batch")
    return serve_closed_loop(wl, pool, policy, REQUESTS, CONCURRENCY,
                             warmup=max_batch * 2, pipeline="tensorssa",
                             platform="datacenter")


@pytest.mark.parametrize("workload", ["lstm", "attention"])
def test_batched_serving_beats_serial(workload):
    batched = _serve(workload, max_batch=8)
    baseline = _serve(workload, max_batch=1)
    assert batched["dropped"] == 0 and baseline["dropped"] == 0
    assert batched["diverged"] == 0 and baseline["diverged"] == 0
    # wall-clock throughput with a healthy margin below serve_bench's
    # observed 2.0-3.3x so scheduler jitter cannot flake the suite
    assert (batched["throughput_rps"]
            >= 1.3 * baseline["throughput_rps"]), (
        f"{workload}: batched {batched['throughput_rps']:.0f} req/s "
        f"vs baseline {baseline['throughput_rps']:.0f} req/s")
    assert batched["mean_batch_requests"] > 1.5

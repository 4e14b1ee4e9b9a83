"""Shared fixtures and helpers for the figure-shape assertions.

Every assertion here runs against the deterministic analytical cost
model that regenerates the paper's figures: who wins, how the curves
bend.  Wall-clock measurement lives in ``bench/`` (one measurement
loop), not here.
"""

from __future__ import annotations

import pytest

from repro.eval.cache import process_cache
from repro.eval.harness import run_workload
from repro.models import WORKLOADS

#: smaller-than-default shapes so the modeled grids stay quick
BENCH_SIZES = {"batch_size": 1, "seq_len": 32}

PIPELINES = ["eager", "dynamo_inductor", "ts_nvfuser", "ts_nnc",
             "tensorssa"]
BASELINES = ["dynamo_inductor", "ts_nvfuser", "ts_nnc"]


@pytest.fixture(scope="session")
def modeled_fig5():
    """Speedups over eager for every workload x pipeline (datacenter)."""
    grid = {}
    for name in WORKLOADS:
        eager = run_workload(name, "eager", **BENCH_SIZES)
        grid[name] = {}
        for pipe in PIPELINES[1:]:
            res = run_workload(name, pipe, **BENCH_SIZES)
            grid[name][pipe] = eager.latency_us / res.latency_us
    return grid


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    process_cache.clear()
    yield


def launches_of(workload_name: str, pipeline_name: str) -> int:
    return run_workload(workload_name, pipeline_name,
                        **BENCH_SIZES).kernel_launches


__all__ = ["BENCH_SIZES", "PIPELINES", "BASELINES", "launches_of"]

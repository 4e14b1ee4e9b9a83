"""Shared benchmark fixtures and helpers.

Two kinds of measurements live here:

* **wall-clock** (pytest-benchmark) — real execution time of each
  pipeline on the simulated runtime; fusion genuinely removes Python
  dispatch, so relative ordering is meaningful;
* **modeled** — the deterministic analytical cost model used to
  regenerate the paper's figures; shape assertions (who wins, how the
  curves bend) run against this.
"""

from __future__ import annotations

import pytest

import repro.runtime as rt
from repro.eval.cache import clone_args, process_cache
from repro.eval.harness import run_workload
from repro.models import WORKLOADS, get_workload
from repro.pipelines import get_pipeline

#: smaller-than-default shapes so wall-clock benches stay quick
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


def compiled_runner(workload_name: str, pipeline_name: str):
    """A zero-arg callable executing one inference (compile excluded)."""
    wl = get_workload(workload_name)
    pipe = get_pipeline(pipeline_name)
    args = wl.make_inputs(**BENCH_SIZES)
    compiled = pipe.compile(wl.model_fn, example_args=args)

    def run():
        return compiled(*clone_args(args))

    run()  # warm the kernel caches outside the timed region
    return run


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    process_cache.clear()
    yield


def launches_of(workload_name: str, pipeline_name: str) -> int:
    return run_workload(workload_name, pipeline_name,
                        **BENCH_SIZES).kernel_launches


__all__ = ["BENCH_SIZES", "PIPELINES", "BASELINES", "compiled_runner",
           "launches_of", "rt"]

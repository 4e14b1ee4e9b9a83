"""repro.eval — compile cache, measurement harness, cost model, figure
regenerators."""

from .harness import RunResult, profiled_call, run_workload
from .platforms import CONSUMER, DATACENTER, PLATFORMS, Platform, get_platform

__all__ = ["run_workload", "profiled_call", "RunResult", "Platform",
           "PLATFORMS", "CONSUMER", "DATACENTER", "get_platform"]

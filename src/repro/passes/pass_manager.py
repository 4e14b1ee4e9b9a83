"""A tiny pass manager: named passes, optional verification between.

Each run also records per-pass telemetry — wall time, the node-count
delta the pass caused, and the time the verify after it took — returned
under the ``"__pass_metrics__"`` key of the results dict (a list of
:class:`PassMetric`), which the pipelines forward to their stats and
``tools/inspect`` prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from ..faults import SITE_PASS, maybe_inject
from ..ir import verify
from ..ir.graph import Graph
from ..obs import trace as obs_trace

#: results-dict key holding the list of :class:`PassMetric`
PASS_METRICS_KEY = "__pass_metrics__"


@dataclass
class PassMetric:
    """Telemetry for one pass execution."""

    name: str
    wall_ms: float
    nodes_before: int
    nodes_after: int
    #: the ``verify`` after the pass (0.0 when ``verify_each`` is off)
    verify_ms: float = 0.0

    @property
    def node_delta(self) -> int:
        """Change in graph node count (negative means nodes removed)."""
        return self.nodes_after - self.nodes_before

    def __repr__(self) -> str:
        sign = "+" if self.node_delta >= 0 else ""
        return (f"PassMetric({self.name}: {self.wall_ms:.2f}ms, "
                f"{self.nodes_before}->{self.nodes_after} nodes "
                f"({sign}{self.node_delta}), verify {self.verify_ms:.2f}ms)")


def _count_nodes(graph: Graph) -> int:
    return sum(1 for _ in graph.walk())


@dataclass
class PassManager:
    """Runs a sequence of graph passes, verifying after each."""

    passes: List[Tuple[str, Callable[[Graph], object]]] = field(
        default_factory=list)
    verify_each: bool = True

    def add(self, name: str, fn: Callable[[Graph], object]) -> "PassManager":
        self.passes.append((name, fn))
        return self

    def run(self, graph: Graph) -> dict:
        """Run all passes; returns {pass_name: pass_result} plus the
        per-pass telemetry list under :data:`PASS_METRICS_KEY`."""
        results = {}
        metrics: List[PassMetric] = []
        with obs_trace.span("pass_manager:run", cat="compile",
                            graph=graph.name, num_passes=len(self.passes)):
            # verifying does not mutate: a pass starts from the count the
            # previous one ended at
            nodes_after = _count_nodes(graph)
            for name, fn in self.passes:
                # the "pass" fault checkpoint: an injected CompileError
                # raises before the pass mutates the graph, so the caller
                # sees a clean compile failure, not a half-transformed IR
                maybe_inject(SITE_PASS, name)
                nodes_before = nodes_after
                with obs_trace.span(f"pass:{name}", cat="compile") as sp:
                    start = time.perf_counter()
                    results[name] = fn(graph)
                    wall_ms = (time.perf_counter() - start) * 1e3
                nodes_after = _count_nodes(graph)
                if sp is not None:
                    sp.args["nodes_before"] = nodes_before
                    sp.args["nodes_after"] = nodes_after
                verify_ms = 0.0
                if self.verify_each:
                    with obs_trace.span(f"pass:verify:{name}",
                                        cat="compile"):
                        start = time.perf_counter()
                        try:
                            verify(graph)
                        except AssertionError as exc:
                            raise AssertionError(
                                f"IR verification failed after pass "
                                f"{name!r}: {exc}") from exc
                        verify_ms = (time.perf_counter() - start) * 1e3
                metrics.append(PassMetric(name=name, wall_ms=wall_ms,
                                          nodes_before=nodes_before,
                                          nodes_after=nodes_after,
                                          verify_ms=verify_ms))
        results[PASS_METRICS_KEY] = metrics
        return results

"""Compiler pipeline interface.

A pipeline takes a Python model function and produces a ``Compiled``
callable.  All pipelines execute on the same simulated device runtime,
so kernel-launch counts (Figure 6) and modeled latencies (Figures 5/7/8)
are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..backend.interpreter import run_graph
from ..ir.graph import Graph, runs_as_kernel


@dataclass
class Compiled:
    """A model function compiled by one pipeline."""

    pipeline: str
    fn: Callable
    graph: Optional[Graph] = None
    stats: Dict[str, object] = field(default_factory=dict)

    def __call__(self, *args):
        return self.fn(*args)


def graph_runner(graph: Graph, plan=None) -> Callable:
    """The ``Compiled.fn`` of a graph-bearing pipeline: run ``graph``
    (under ``plan`` when given), a lone output unwrapped, several as a
    tuple.  The runner carries its ``graph`` so the artifact codec can
    ship a graph that is only reachable through a runner (the backward
    reference in ``stats["grad_reference"]``)."""
    def run(*args):
        outs = run_graph(graph, args, plan=plan)
        return outs[0] if len(outs) == 1 else tuple(outs)
    run.graph = graph
    return run


class Pipeline:
    """Base class: subclasses implement :meth:`compile`."""

    #: short identifier used in figures ("eager", "tensorssa", ...)
    name: str = "base"
    #: display label matching the paper's legend
    label: str = "base"
    #: host-overhead class used by the analytical cost model:
    #: per-launch dispatch cost and per-control-flow-step cost keys
    host_profile: str = "interpreter"
    #: tracing pipelines specialize on example input shapes and must be
    #: recompiled when shapes change
    needs_example_inputs: bool = False
    #: multiplier on per-kernel device work time: >1 models less
    #: efficient generated kernels (strided/gather layouts); the paper
    #: credits functionalization with dense layouts (S5.3)
    device_penalty: float = 1.0

    #: can this pipeline build backward graphs (reverse-mode autodiff)?
    #: Only functionalizing pipelines can: the gradient pass requires
    #: the mutation-free TensorSSA form.
    supports_grad: bool = False

    def compile(self, model_fn: Callable, example_args=None) -> Compiled:
        raise NotImplementedError

    def compile_grad(self, model_fn: Callable, example_args=None,
                     wrt=None, out=None) -> Compiled:
        """Compile the *backward* of ``model_fn`` (gradients of the
        sum-of-outputs loss w.r.t. its tensor inputs).  Pipelines that
        cannot functionalize raise a typed GradError."""
        from ..errors import GradError
        raise GradError(f"pipeline {self.name!r} cannot build backward "
                        "graphs: reverse-mode differentiation requires "
                        "the functionalized TensorSSA form "
                        "(use the tensorssa pipeline)")

    def __repr__(self) -> str:
        return f"<Pipeline {self.name}>"


def count_graph_stats(graph: Graph) -> Dict[str, int]:
    """Node / fusion-group / horizontal-loop / mutation counts for a graph."""
    stats = {"nodes": 0, "fusion_groups": 0, "horizontal_loops": 0,
             "mutating_ops": 0}
    for node in graph.walk():
        stats["nodes"] += 1
        if runs_as_kernel(node):
            stats["fusion_groups" if node.op == "prim::FusionGroup"
                  else "horizontal_loops"] += 1
        if node.schema.is_mutating:
            stats["mutating_ops"] += 1
    return stats

"""TorchDynamo + TorchInductor-style baseline.

Models the tracing pipeline of PyTorch 2.x as the paper characterizes
it (§5.1, §5.3):

* **shape specialization + loop unrolling** — Dynamo executes Python
  control flow at trace time, so loops with (specialized-)constant trip
  counts up to an inlining budget appear unrolled in the captured graph;
* **data-flow functionalization** — mutations are removed within
  straight-line code (functorch-style); a mutation whose effect crosses
  a *remaining* control-flow boundary stays imperative;
* **graph breaks** — loops that survive (dynamic or over-budget trip
  counts) execute in the Python interpreter, charged per iteration at
  the cost model's ``graph_break`` rate — the overhead the paper calls
  out in §5.3;
* within mutation-free regions the fuser may fuse views, so per-block
  fusion quality is high — the weakness is *scope*, not strength.

Because it specializes on shapes, this pipeline is recompiled whenever
input shapes change (``needs_example_inputs``).
"""

from __future__ import annotations

from typing import Callable

from ..frontend import script
from ..ir import verify
from ..ir.clone import clone_graph
from ..passes import (FuserConfig, PassManager, canonicalize, constant_fold,
                      cse, dce, fuse)
from ..passes.specialize import specialize_shapes
from ..passes.unroll import unroll_loops
from ..tensorssa import convert_to_tensorssa
from .base import Compiled, Pipeline, count_graph_stats, graph_runner

#: Dynamo-style loop inlining budget: beyond this many iterations the
#: loop is left to the Python interpreter (a graph break per iteration).
UNROLL_BUDGET = 64


class DynamoInductorPipeline(Pipeline):
    """Tracing baseline: specialize + unroll, data-flow functionalization, graph breaks for residual control flow."""
    name = "dynamo_inductor"
    label = "TorchDynamo + TorchInductor"
    host_profile = "python"  # graph breaks run in the Python interpreter
    device_penalty = 1.18     # strided/gather layouts in traced kernels
    needs_example_inputs = True

    def __init__(self, unroll_budget: int = UNROLL_BUDGET) -> None:
        self.unroll_budget = unroll_budget

    def compile(self, model_fn: Callable, example_args=None) -> Compiled:
        scripted = script(model_fn)
        graph = clone_graph(scripted.graph, name=self.name)
        if example_args is not None:
            specialize_shapes(graph, example_args)
        pm = (PassManager()
              .add("constant_fold", constant_fold)
              .add("cse", cse)
              .add("unroll", lambda g: unroll_loops(
                  g, max_trip=self.unroll_budget))
              .add("fold2", constant_fold)
              .add("canonicalize", canonicalize)
              .add("cse2", cse))
        pm.run(graph)
        report = convert_to_tensorssa(graph, intra_block_only=True)
        pm2 = (PassManager()
               .add("dce", dce)
               .add("cse", cse)
               .add("fuse", lambda g: fuse(
                   g, FuserConfig(name="inductor", fuse_views=True,
                               max_group_size=48)))
               .add("dce2", dce))
        pm2.run(graph)
        verify(graph)
        stats = count_graph_stats(graph)
        stats["functionalized"] = report.num_rewritten
        stats["skipped_mutations"] = len(report.skipped)

        run_compiled = graph_runner(graph)

        def run(*args):
            from ..runtime import record_python
            record_python("guard_eval")  # shape/type guards, every call
            return run_compiled(*args)

        return Compiled(pipeline=self.name, fn=run, graph=graph,
                        stats=stats)

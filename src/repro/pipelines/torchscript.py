"""TorchScript-style baselines: script + fuse, *without*
functionalization.

Both treat tensor mutation as a fusion barrier / graph-breaking point
(paper §1-2), which is the limitation TensorSSA removes:

* ``TorchScriptNNCPipeline`` — the stronger default fuser (elementwise
  + comparisons + where/clamp/clone).
* ``TorchScriptNvFuserPipeline`` — a narrower op coverage, modelling
  nvFuser's historically smaller fusable set on these workloads.
"""

from __future__ import annotations

from typing import Callable

from ..frontend import script
from ..ir import verify
from ..ir.clone import clone_graph
from ..passes import FuserConfig, PassManager, constant_fold, cse, dce, fuse
from .base import Compiled, Pipeline, count_graph_stats, graph_runner


def _compile_torchscript(model_fn: Callable, pipeline_name: str,
                         fuser: FuserConfig) -> Compiled:
    scripted = script(model_fn)
    graph = clone_graph(scripted.graph, name=f"{pipeline_name}")
    pm = (PassManager()
          .add("cse", cse)
          .add("constant_fold", constant_fold)
          .add("fuse", lambda g: fuse(g, fuser))
          .add("dce", dce))
    pm.run(graph)
    verify(graph)
    stats = count_graph_stats(graph)
    return Compiled(pipeline=pipeline_name, fn=graph_runner(graph),
                    graph=graph, stats=stats)


class TorchScriptNNCPipeline(Pipeline):
    """Script + NNC-style fusion; mutation is a fusion barrier."""
    name = "ts_nnc"
    label = "TorchScript + NNC"
    host_profile = "interpreter"

    def compile(self, model_fn: Callable, example_args=None) -> Compiled:
        return _compile_torchscript(
            model_fn, self.name, FuserConfig(name="nnc", fuse_views=False, max_group_size=48))


class TorchScriptNvFuserPipeline(Pipeline):
    """Script + narrower nvFuser-style fusion; mutation is a fusion barrier."""
    name = "ts_nvfuser"
    label = "TorchScript + nvFuser"
    host_profile = "interpreter"

    def compile(self, model_fn: Callable, example_args=None) -> Compiled:
        config = FuserConfig(
            name="nvfuser", fuse_views=False, max_group_size=24,
            excluded_ops={"aten::where", "aten::masked_fill", "aten::to",
                          "aten::clamp", "aten::clone"})
        return _compile_torchscript(model_fn, self.name, config)

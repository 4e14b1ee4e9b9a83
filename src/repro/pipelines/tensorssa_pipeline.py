"""The TensorSSA pipeline — the paper's system.

script -> TensorSSA conversion (Algorithm 1, holistic: crosses control
flow) -> cleanup -> horizontal parallelization (§4.2.2) -> vertical
fusion (§4.2.1) -> cleanup.

Ablation switches let the benchmarks quantify each technique:
``horizontal=False`` disables loop parallelization; ``vertical=False``
disables fusion; ``intra_block_only=True`` degrades the conversion to
data-flow-only functionalization (what tracing compilers achieve).
"""

from __future__ import annotations

from typing import Callable

from ..frontend import script
from ..ir import verify
from ..ir.clone import clone_graph
from ..memplan import get_or_build_plan
from ..obs import trace as obs_trace
from ..passes import (FuserConfig, PassManager, canonicalize, constant_fold,
                      cse, dce, fuse, parallelize_loops)
from ..passes.revert import revert_unfused_assigns
from ..tensorssa import convert_to_tensorssa
from .base import Compiled, Pipeline, count_graph_stats, graph_runner


class TensorSSAPipeline(Pipeline):
    """The paper's pipeline: holistic functionalization, horizontal parallelization, vertical fusion (each ablatable)."""
    name = "tensorssa"
    label = "TensorSSA (ours)"
    host_profile = "interpreter"

    def __init__(self, vertical: bool = True, horizontal: bool = True,
                 intra_block_only: bool = False, revert_unfused: bool = True,
                 plan_memory: bool = True, name: str = None) -> None:
        self.vertical = vertical
        self.horizontal = horizontal
        self.intra_block_only = intra_block_only
        self.revert_unfused = revert_unfused
        self.plan_memory = plan_memory
        if name is not None:
            self.name = name

    supports_grad = True

    def compile(self, model_fn: Callable, example_args=None) -> Compiled:
        with obs_trace.span("pipeline:compile", cat="compile",
                            pipeline=self.name):
            return self._compile(model_fn, example_args)

    def compile_grad(self, model_fn: Callable, example_args=None,
                     wrt=None, out=None) -> Compiled:
        """Compile the backward of ``model_fn``.

        Functionalize, run the cleanup passes, differentiate
        (``grad()`` — a plain graph-to-graph pass, timed as
        ``pass:grad``), then push the backward graph through the *same*
        optimization pipeline and memory planner as any forward graph.
        The returned artifact's ``stats["grad_reference"]`` is a
        callable interpreting the raw (pre-optimization) backward
        clone — the harness's correctness oracle for the optimized
        backward.
        """
        from ..grad import grad

        with obs_trace.span("pipeline:compile", cat="compile",
                            pipeline=self.name, grad=True):
            graph, converted = self._functionalize(model_fn,
                                                   f"{self.name}_fwd")
            (PassManager()
             .add("dce", dce)
             .add("cse", cse)
             .add("constant_fold", constant_fold)
             .add("canonicalize", canonicalize)
             .run(graph))
            with obs_trace.span("pass:grad", cat="compile",
                                graph=graph.name):
                bwd = grad(graph, wrt=wrt, out=out)
                verify(bwd)
            reference = clone_graph(bwd, name=f"{self.name}_grad_ref")
            stats, plan = self._optimize(bwd)
            stats.update(converted)
            stats["grad_reference"] = graph_runner(reference)
            return Compiled(pipeline=self.name, fn=graph_runner(bwd, plan),
                            graph=bwd, stats=stats)

    def _compile(self, model_fn: Callable, example_args=None) -> Compiled:
        graph, converted = self._functionalize(model_fn, self.name)
        stats, plan = self._optimize(graph)
        stats.update(converted)
        return Compiled(pipeline=self.name, fn=graph_runner(graph, plan),
                        graph=graph, stats=stats)

    def _functionalize(self, model_fn: Callable, name: str):
        """The shared head: script ``model_fn`` into a fresh graph
        called ``name`` and convert it to TensorSSA.  Returns the graph
        and the conversion's three stats."""
        graph = clone_graph(script(model_fn).graph, name=name)
        with obs_trace.span("tensorssa:convert", cat="compile"):
            report = convert_to_tensorssa(
                graph, intra_block_only=self.intra_block_only)
        return graph, {"functionalized": report.num_rewritten,
                       "skipped_mutations": len(report.skipped),
                       "skip_reasons": report.skipped}

    def _optimize(self, graph):
        """The shared optimize-and-plan tail: cleanup passes,
        parallelization/fusion/revert per the ablation switches, then
        (symbolic) memory planning.  Returns ``(stats, plan)``."""
        pm = (PassManager()
              .add("dce", dce)
              .add("cse", cse)
              .add("constant_fold", constant_fold)
              .add("canonicalize", canonicalize))
        if self.horizontal:
            pm.add("parallelize", parallelize_loops)
        if self.vertical:
            pm.add("fuse", lambda g: fuse(
                g, FuserConfig(name="tensorssa", fuse_views=True)))
        if self.revert_unfused:
            # paper S3.2: unfused Assigns may be converted back to the
            # original mutable operators (in-place buffer reuse)
            pm.add("revert", revert_unfused_assigns)
        pm.add("dce2", dce)
        results = pm.run(graph)
        verify(graph)
        stats = count_graph_stats(graph)
        stats["pass_results"] = {k: v for k, v in results.items()
                                 if isinstance(v, (int, bool))}
        if "__pass_metrics__" in results:
            stats["pass_metrics"] = results["__pass_metrics__"]

        plan = None
        if self.plan_memory:
            plan = get_or_build_plan(graph)
            stats.update(plan.summary())
        return stats, plan

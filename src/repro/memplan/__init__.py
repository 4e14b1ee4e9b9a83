"""repro.memplan — static memory planning for functionalized graphs.

Functionalization trades mutation for fresh result buffers, and the
standing critique of that trade is memory inflation: every ``immut::``
access op and loop-carried copy materializes a new tensor.  This
package refutes the critique *statically*: because TensorSSA graphs are
pure, the lifetime of every intermediate is decidable, so a planner can
prove when each buffer dies and recycle it through an arena allocator
— recovering (and often beating) the in-place program's working set.

Three layers:

* :mod:`repro.memplan.liveness` — interval liveness over ``Graph``
  values, nested into ``prim::If``/``prim::Loop`` bodies, with
  view-aliased values merged into shared lifetime classes.
* :mod:`repro.memplan.planner` — slot assignment (greedy linear scan),
  donation/reuse edges, and the cached per-graph :class:`MemoryPlan`.
* executor integration — ``backend.program`` lowers a planned graph to
  one generated function whose release statements return buffers to a
  :class:`repro.runtime.storage.MemoryPool` at their planned death
  points (``run_graph(graph, args, plan=plan)`` runs it).
"""

from .liveness import LifetimeClass, Liveness, compute_liveness
from .planner import (MemoryPlan, PlanSlot, ReuseEdge, donated_args,
                      format_plan, get_or_build_plan, plan_graph,
                      plans_built)

__all__ = [
    "LifetimeClass",
    "Liveness",
    "compute_liveness",
    "MemoryPlan",
    "PlanSlot",
    "ReuseEdge",
    "plan_graph",
    "get_or_build_plan",
    "format_plan",
    "plans_built",
    "donated_args",
]

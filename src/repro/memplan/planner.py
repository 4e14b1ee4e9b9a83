"""Static buffer planning over liveness intervals.

Assigns every releasable lifetime class to an arena *slot* by greedy
linear-scan interval allocation: classes are visited in order of their
definition point; a class whose interval does not overlap a previously
assigned class inherits the first slot that expired.  The slot table is
the plan's observable skeleton and a function of the graph alone — it
carries no sizes.  Bytes are sized in one place, the runtime
:class:`~repro.runtime.storage.MemoryPool`, which best-fits the actual
buffers with size-bucketed free lists (IR tensor types carry no shapes;
the backend JIT-specializes, see ``repro.ir.types``).

The plan also records *reuse edges* — statically provable donations
where a node's fresh output can take over a dying operand's buffer
(legal because TensorSSA removed the aliasing hazards that make
in-place rewriting unsound on the imperative form) — and the rotating
loop-carried slots discovered by the liveness pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.alias import AliasGraph
from ..ir.graph import Graph, Node, Value
from ..obs import trace as obs_trace
from .liveness import LifetimeClass, Liveness, compute_liveness, kernel_input

__all__ = ["MemoryPlan", "PlanSlot", "ReuseEdge", "plan_graph",
           "get_or_build_plan", "format_plan", "plans_built",
           "donated_args"]


@dataclass
class PlanSlot:
    """One arena slot: a buffer identity shared by non-overlapping classes."""

    index: int
    classes: List[LifetimeClass] = field(default_factory=list)

    def occupants(self) -> List[str]:
        """Origin names of every class assigned to this slot."""
        return [f"%{c.origin.name}" for c in self.classes]


@dataclass
class ReuseEdge:
    """A statically provable donation: ``consumer``'s output may take
    over ``donor``'s buffer because the donor dies at that node."""

    node: Node
    donor: Value
    output: Value

    def __repr__(self) -> str:
        return (f"%{self.output.name} <- %{self.donor.name} "
                f"[{self.node.op}]")


@dataclass
class MemoryPlan:
    """The planner's result for one graph: slots, schedules, rotation."""

    graph: Graph
    liveness: Liveness
    slots: List[PlanSlot] = field(default_factory=list)
    reuse_edges: List[ReuseEdge] = field(default_factory=list)
    #: max simultaneously-live planned classes in any one block scan
    static_peak_slots: int = 0
    #: the generated callable executing ``graph`` under this plan, set
    #: on first run (or artifact restore) by :mod:`repro.backend.program`
    program: Optional[Callable] = field(default=None, repr=False,
                                        compare=False)

    # -- convenience views over the liveness schedule -------------------

    @property
    def release_before(self) -> Dict[int, List[LifetimeClass]]:
        """id(node) -> classes whose buffers are donated before it runs."""
        return self.liveness.release_before

    @property
    def release_after(self) -> Dict[int, List[LifetimeClass]]:
        """id(node) -> classes released once the node completes."""
        return self.liveness.release_after

    @property
    def rotating_slots(self) -> Dict[int, List[int]]:
        """id(loop node) -> carried slots recycled at each back-edge."""
        return self.liveness.rotating_slots

    @property
    def num_planned_classes(self) -> int:
        """How many lifetime classes the plan can release early."""
        return sum(1 for c in self.liveness.classes if c.plannable)

    @property
    def num_classes(self) -> int:
        """Total lifetime classes the liveness analysis discovered."""
        return len(self.liveness.classes)

    def summary(self) -> Dict[str, int]:
        """Small integer summary for pipeline stats and reports."""
        return {
            "mem_slots": len(self.slots),
            "mem_planned_classes": self.num_planned_classes,
            "mem_total_classes": self.num_classes,
            "mem_reuse_edges": len(self.reuse_edges),
            "mem_rotating_loops": len(self.liveness.rotating_slots),
            "mem_static_peak_slots": self.static_peak_slots,
        }


def plan_graph(graph: Graph, alias: Optional[AliasGraph] = None
               ) -> MemoryPlan:
    """Compute liveness and assign slots; the full planning entry point."""
    liveness = compute_liveness(graph, alias=alias)
    plan = MemoryPlan(graph=graph, liveness=liveness)
    _assign_slots(plan)
    _collect_reuse_edges(plan)
    return plan


_plan_lock = threading.Lock()
_plans_built = 0


def plans_built() -> int:
    """How many plans this process has actually computed (memoized
    replays do not count) — the observable the warm-shape acceptance
    check reads: a cache hit at a new input shape must add 0 to this."""
    return _plans_built


def get_or_build_plan(graph: Graph) -> MemoryPlan:
    """The memoized plan for a graph (cached on the graph object, so a
    compiled artifact plans exactly once — the lock keeps that true
    when concurrent serving workers share the artifact)."""
    global _plans_built
    plan = getattr(graph, "_memplan", None)
    if plan is None or plan.graph is not graph:
        with _plan_lock:
            plan = getattr(graph, "_memplan", None)
            if plan is None or plan.graph is not graph:
                with obs_trace.span("memplan:plan", cat="compile",
                                    graph=graph.name):
                    plan = plan_graph(graph)
                _plans_built += 1
                graph._memplan = plan
    return plan


def donated_args(node: Node) -> Tuple[int, ...]:
    """Argument positions of the kernel ``node`` runs whose dying buffer
    the plan of ``node``'s graph donates (() when the graph is
    unplanned: its kernels copy every input they write)."""
    plan = getattr(node.graph, "_memplan", None)
    if plan is None:
        return ()
    return plan.liveness.donated.get(id(node), ())


def _assign_slots(plan: MemoryPlan) -> None:
    """Greedy linear scan, per home block (lifetimes in different blocks
    use block-local coordinates and are not comparable)."""
    by_block: Dict[int, List[LifetimeClass]] = {}
    for cls in plan.liveness.classes:
        if cls.plannable and cls.home is not None:
            by_block.setdefault(id(cls.home), []).append(cls)

    for classes in by_block.values():
        classes.sort(key=lambda c: c.interval)
        active: List[LifetimeClass] = []
        free: List[PlanSlot] = []
        for cls in classes:
            start, _ = cls.interval
            for other in list(active):
                if other.interval[1] < start:
                    active.remove(other)
                    free.append(plan.slots[other.slot])
            if free:
                slot = free.pop(0)
            else:
                slot = PlanSlot(index=len(plan.slots))
                plan.slots.append(slot)
            slot.classes.append(cls)
            cls.slot = slot.index
            active.append(cls)
            plan.static_peak_slots = max(plan.static_peak_slots,
                                         len(active))


def _collect_reuse_edges(plan: MemoryPlan) -> None:
    """Pair each donation — a class released before its consumer runs,
    or an input the consumer's kernel writes in place — with the
    consumer's outputs."""
    live = plan.liveness
    donors = [(cls.release_node, cls.origin)
              for classes in live.release_before.values()
              for cls in classes if cls.release_node is not None]
    for node in plan.graph.walk():
        donors += [(node, kernel_input(node, arg))
                   for arg in live.donated.get(id(node), ())]
    for node, donor in donors:
        cls = live.class_of.get(id(donor))
        for out in node.outputs:
            out_cls = live.class_of.get(id(out))
            if out_cls is not None and out_cls is not cls:
                plan.reuse_edges.append(
                    ReuseEdge(node=node, donor=donor, output=out))
                break  # one representative edge per donation


def format_plan(plan: MemoryPlan) -> str:
    """Human-readable plan: slot table, reuse edges, rotation, peak."""
    lines = [f"memory plan for graph {plan.graph.name!r}:",
             f"  classes: {plan.num_classes} total, "
             f"{plan.num_planned_classes} planned, "
             f"static peak {plan.static_peak_slots} slots"]
    lines.append(f"  slot table ({len(plan.slots)} slots):")
    for slot in plan.slots:
        lines.append(f"    s{slot.index:<3} {' -> '.join(slot.occupants())}")
    if plan.reuse_edges:
        lines.append(f"  reuse edges ({len(plan.reuse_edges)}):")
        for edge in plan.reuse_edges:
            lines.append(f"    {edge!r}")
    if plan.rotating_slots:
        lines.append("  rotating loop slots:")
        for node_id, slots in plan.rotating_slots.items():
            lines.append(f"    loop@{node_id & 0xffff:04x}: "
                         f"carried {slots}")
    unplanned = [c for c in plan.liveness.classes if not c.plannable]
    if unplanned:
        lines.append(f"  resident ({len(unplanned)} classes): " + ", ".join(
            f"%{c.origin.name}" for c in unplanned[:12]) +
            (" ..." if len(unplanned) > 12 else ""))
    return "\n".join(lines)

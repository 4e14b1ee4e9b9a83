"""Alias analysis (paper §2.3).

Builds the alias graph of a program: points-to edges from derived values
to their bases, labelled with the three dependency kinds of the paper —

* **memory** — ``p`` is a view of ``q`` (``p = q[i]``); also the output
  of a mutating op, which is an *identity* view of its target;
* **control-flow** — ``p`` is a block argument of ``q`` or ``q`` is a
  block return of ``p`` (values threaded through ``prim::If``/``Loop``);
* **container** — a list/tuple ``q`` contains ``p``.

From this graph we extract the paper's ``T`` sets (Equation 1/2):
``T = (t, V, M)`` with origin tensor ``t``, its view closure ``V``
(memory edges only — must-alias), and the mutations ``M`` that hit any
member of ``V``.  ``TSet.eligible`` implements the "sub-graphs which
solely consist of memory dependencies" restriction, extended with the
safety rules documented in DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir import types as T
from ..ir.graph import Block, Graph, Node, Value
from ..ops.schema import OpKind

MEMORY = "memory"
CONTROL = "control"
CONTAINER = "container"

_CONTAINER_OPS = {"prim::ListConstruct", "prim::TupleConstruct",
                  "prim::ListIndex", "prim::TupleUnpack", "aten::append"}
_CONTROL_OPS = {"prim::If", "prim::Loop", "prim::FusionGroup",
                "prim::ParallelMap"}


@dataclass
class Mutation:
    """One Mutate statement: ``node`` writes through view ``target``."""

    node: Node
    target: Value  # the mutated view (node input 0)


@dataclass
class TSet:
    """The paper's ``T := (t, V, M)``."""

    origin: Value
    views: List[Value] = field(default_factory=list)     # V (excludes t)
    mutations: List[Mutation] = field(default_factory=list)  # M
    eligible: bool = True
    reason: str = ""

    @property
    def values(self) -> List[Value]:
        return [self.origin] + self.views


def _is_tensor(value: Value) -> bool:
    return isinstance(value.type, (T.TensorType, T.AnyType))


class AliasGraph:
    """Alias information for one Graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        #: union-find over every edge kind: ``may_alias`` is undirected
        #: connectivity in the alias graph
        self._component: Dict[int, int] = {}
        #: memory-dependency parent: value -> (base value, view node)
        self.view_base: Dict[int, Value] = {}
        self.view_node: Dict[int, Node] = {}
        #: value -> list of view nodes using it as a base
        self.view_children: Dict[int, List[Node]] = {}
        self.mutations: List[Mutation] = []
        self.by_id: Dict[int, Value] = {}
        #: (container value, element value) for list/tuple construction
        self.container_puts: List[tuple] = []
        #: (container value, extracted value) for indexing/unpacking
        self.container_gets: List[tuple] = []
        #: (new container alias, old container) e.g. append's return
        self.container_forwards: List[tuple] = []
        #: (derived, base) pairs for control-flow value threading
        self.control_links: List[tuple] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _add_value(self, v: Value) -> None:
        if id(v) not in self.by_id:
            self.by_id[id(v)] = v
            self._component[id(v)] = id(v)

    def _find(self, vid: int) -> int:
        parent = self._component
        while parent[vid] != vid:
            parent[vid] = parent[parent[vid]]  # path halving
            vid = parent[vid]
        return vid

    def _edge(self, derived: Value, base: Value, kind: str) -> None:
        self._add_value(derived)
        self._add_value(base)
        self._component[self._find(id(derived))] = self._find(id(base))
        if kind == CONTROL:
            self.control_links.append((derived, base))

    def _build(self) -> None:
        for p in self.graph.inputs:
            self._add_value(p)
        self._build_block(self.graph.block)

    def _build_block(self, block: Block) -> None:
        for node in block.nodes:
            self._build_node(node)

    def _build_node(self, node: Node) -> None:
        kind = node.kind
        for out in node.outputs:
            self._add_value(out)
        if kind is OpKind.VIEW:
            out, base = node.output(), node.input(0)
            self._edge(out, base, MEMORY)
            self.view_base[id(out)] = base
            self.view_node[id(out)] = node
            self.view_children.setdefault(id(base), []).append(node)
        elif kind is OpKind.MUTATING and node.op != "aten::append":
            target = node.input(0)
            self.mutations.append(Mutation(node, target))
            if node.outputs:
                # the in-place op returns its (mutated) target: an
                # identity view in the alias graph
                out = node.output()
                self._edge(out, target, MEMORY)
                self.view_base[id(out)] = target
                self.view_node[id(out)] = node
                self.view_children.setdefault(id(target), []).append(node)
        elif node.op in _CONTAINER_OPS:
            if node.op in ("prim::ListConstruct", "prim::TupleConstruct"):
                for v in node.inputs:
                    if _is_tensor(v):
                        self._edge(v, node.output(), CONTAINER)
                        self.container_puts.append((node.output(), v))
            elif node.op == "aten::append":
                self._edge(node.input(1), node.input(0), CONTAINER)
                self.container_puts.append((node.input(0), node.input(1)))
                if node.outputs:
                    self._edge(node.output(), node.input(0), CONTAINER)
                    self.container_forwards.append((node.output(),
                                                    node.input(0)))
            else:  # ListIndex / TupleUnpack: outputs may alias contents
                for out in node.outputs:
                    self._edge(out, node.input(0), CONTAINER)
                    self.container_gets.append((node.input(0), out))
        elif node.op in _CONTROL_OPS:
            # control-flow dependencies: node inputs <-> block params,
            # block returns <-> node outputs
            if node.op == "prim::Loop":
                carried_in = node.inputs[2:]
                body = node.blocks[0]
                for v, p in zip(carried_in, body.params[1:]):
                    if _is_tensor(p):
                        self._edge(p, v, CONTROL)
                for r, o in zip(body.returns[1:], node.outputs):
                    if _is_tensor(o):
                        self._edge(o, r, CONTROL)
                    # next-iteration aliasing: return feeds the param
                for r, p in zip(body.returns[1:], body.params[1:]):
                    if _is_tensor(p):
                        self._edge(p, r, CONTROL)
            else:
                for b in node.blocks:
                    for v, p in zip(node.inputs, b.params):
                        if _is_tensor(p):
                            self._edge(p, v, CONTROL)
                    for r, o in zip(b.returns, node.outputs):
                        if _is_tensor(o):
                            self._edge(o, r, CONTROL)
            for b in node.blocks:
                self._build_block(b)

    # -- queries -----------------------------------------------------------

    def view_root(self, value: Value) -> Value:
        """Follow memory edges to the origin tensor (must-alias chain)."""
        seen = set()
        current = value
        while id(current) in self.view_base:
            if id(current) in seen:  # defensive; view chains are acyclic
                break
            seen.add(id(current))
            current = self.view_base[id(current)]
        return current

    def view_closure(self, origin: Value) -> List[Value]:
        """All values reachable from ``origin`` through memory edges
        (the paper's V), in discovery order."""
        out: List[Value] = []
        stack = [origin]
        seen = {id(origin)}
        while stack:
            base = stack.pop()
            for node in self.view_children.get(id(base), []):
                for o in node.outputs:
                    if id(o) in self.view_base and \
                            self.view_base[id(o)] is base and \
                            id(o) not in seen:
                        seen.add(id(o))
                        out.append(o)
                        stack.append(o)
        return out

    def must_alias(self, a: Value, b: Value) -> bool:
        """True when a and b are provably views of the same origin."""
        return self.view_root(a) is self.view_root(b)

    def may_alias(self, a: Value, b: Value) -> bool:
        """True unless a and b are in disjoint alias components."""
        if id(a) not in self.by_id or id(b) not in self.by_id:
            return a is b
        return self._find(id(a)) == self._find(id(b))

    # -- T-set extraction ----------------------------------------------------

    def _owns_storage(self, v: Value) -> bool:
        if v.is_param:
            return v.param_block.owning_node is None  # graph input
        assert v.node is not None
        return v.node.kind in (OpKind.PURE, OpKind.CONSTANT)

    def storage_set(self, v: Value) -> Set[int]:
        """The set of storage-owning origins ``v`` may alias (a
        points-to fixpoint over view, control, and container flows)."""
        self._ensure_storage_sets()
        return self._ssets.get(id(v), set())

    def _ensure_storage_sets(self) -> None:
        if hasattr(self, "_ssets"):
            return
        sets: Dict[int, Set[int]] = {}
        contents: Dict[int, Set[int]] = {}

        def sset(v: Value) -> Set[int]:
            return sets.setdefault(id(v), set())

        def cset(v: Value) -> Set[int]:
            return contents.setdefault(id(v), set())

        for vid, v in self.by_id.items():
            if self._owns_storage(v):
                sets.setdefault(vid, set()).add(vid)

        changed = True
        while changed:
            changed = False

            def flow(dst: Set[int], src: Set[int]) -> None:
                nonlocal changed
                before = len(dst)
                dst |= src
                if len(dst) != before:
                    changed = True

            for derived_id, base in self.view_base.items():
                derived = self.by_id[derived_id]
                flow(sset(derived), sset(base))
            for derived, base in self.control_links:
                flow(sset(derived), sset(base))
                flow(cset(derived), cset(base))
            for container, elem in self.container_puts:
                flow(cset(container), sset(elem))
            for container, out in self.container_gets:
                flow(sset(out), cset(container))
            for alias, container in self.container_forwards:
                flow(cset(alias), cset(container))
                flow(cset(container), cset(alias))
        self._ssets = sets

    def tsets(self) -> List[TSet]:
        """Group mutations by origin tensor and judge eligibility."""
        by_origin: Dict[int, TSet] = {}
        order: List[int] = []
        for mut in self.mutations:
            origin = self.view_root(mut.target)
            key = id(origin)
            if key not in by_origin:
                by_origin[key] = TSet(origin=origin,
                                      views=self.view_closure(origin))
                order.append(key)
            by_origin[key].mutations.append(mut)
        tsets = [by_origin[k] for k in order]
        for tset in tsets:
            self._judge(tset)
        return tsets

    # -- program-order helpers (lazily built) ---------------------------

    def _ensure_positions(self) -> None:
        if hasattr(self, "_entry_index"):
            return
        # pre-order => a node's subtree occupies a contiguous range, so
        # both indices come out of a single recursive pass
        self._entry_index: Dict[int, int] = {}
        self._exit_index: Dict[int, int] = {}
        counter = 0

        def visit(node: Node) -> None:
            nonlocal counter
            self._entry_index[id(node)] = counter
            counter += 1
            for block in node.blocks:
                for inner in block.nodes:
                    visit(inner)
            self._exit_index[id(node)] = counter - 1

        for top in self.graph.block.nodes:
            visit(top)

    def _loop_ancestors(self, node: Node) -> Set[int]:
        out: Set[int] = set()
        block = node.owning_block
        while block is not None and block.owning_node is not None:
            owner = block.owning_node
            if owner.op == "prim::Loop":
                out.add(id(owner))
            block = owner.owning_block
        return out

    def _judge(self, tset: TSet) -> None:
        from ..ops import registry

        def fail(reason: str) -> None:
            tset.eligible = False
            tset.reason = reason

        o = tset.origin
        self._ensure_positions()
        if not self._owns_storage(o):
            if not self._is_safe_accumulator_param(tset):
                return fail(f"origin %{o.name} does not own storage "
                            f"(control-flow or container alias)")
        if not o.is_param and o.node is not None and \
                o.node.kind is OpKind.CONSTANT:
            return fail(f"origin %{o.name} is a constant (weights must "
                        f"not be functionalized away)")
        for mut in tset.mutations:
            schema = registry.get(mut.node.op)
            if mut.node.op != "aten::copy_" and \
                    schema.functional_op is None:
                return fail(f"mutation {mut.node.op} has no functional "
                            f"equivalent")
        for v in tset.views:
            vnode = self.view_node.get(id(v))
            if vnode is not None and vnode.kind is OpKind.VIEW and \
                    registry.get(vnode.op).assign_op is None:
                return fail(f"view op {vnode.op} has no Assign inverse "
                            f"(mutation through it is not invertible)")

        # Escape analysis with program positions: an alias escaping into
        # a container / control-flow slot / inner block return is safe
        # when the escape happens *after* the last mutation (renaming
        # rewrites the escaping use to the final pure version), and no
        # loop wraps both the escape and a mutation (iteration
        # wrap-around would interleave them).
        last_mut = max(self._entry_index[id(m.node)]
                       for m in tset.mutations)
        mut_loops: Set[int] = set()
        for m in tset.mutations:
            mut_loops |= self._loop_ancestors(m.node)

        def escape_is_unsafe(pos: int, user_node: Node) -> bool:
            if pos < last_mut:
                return True
            return bool(self._loop_ancestors(user_node) & mut_loops) \
                if user_node is not None else False

        for v in tset.values:
            for use in v.uses:
                if isinstance(use.user, Block):
                    owner = use.user.owning_node
                    if owner is None:
                        continue  # graph return: runs last, gets renamed
                    if escape_is_unsafe(self._exit_index[id(owner)],
                                        owner):
                        return fail(f"%{v.name} escapes through a block "
                                    f"return before the last mutation")
                elif use.user.op in _CONTROL_OPS:
                    if escape_is_unsafe(self._entry_index[id(use.user)],
                                        use.user):
                        return fail(f"%{v.name} is carried into control "
                                    f"flow interleaved with mutations")
                elif use.user.op in _CONTAINER_OPS:
                    if escape_is_unsafe(self._entry_index[id(use.user)],
                                        use.user):
                        return fail(f"%{v.name} escapes into a container "
                                    f"before the last mutation")
        # Cross-contamination: a mutation reached through a *different*
        # view-root but whose points-to set may include our origin's
        # storage would observe (or miss) our functionalized versions.
        for mut in self.mutations:
            root = self.view_root(mut.target)
            if root is not o and id(o) in self.storage_set(mut.target):
                return fail(f"storage may-aliased by mutation "
                            f"{mut.node.op} rooted at %{root.name}")

    def _is_safe_accumulator_param(self, tset: TSet) -> bool:
        """Whole-mutation of a loop-carried accumulator is
        functionalizable when the carried slot's initializer owns its
        storage and flows nowhere else (``acc += x`` inside a loop)."""
        o = tset.origin
        if not o.is_param:
            return False
        block = o.param_block
        node = block.owning_node
        if node is None or node.op != "prim::Loop":
            return False
        # every mutation must hit the param itself (whole mutation) and
        # every alias must be a mutate-output, not a true view
        for mut in tset.mutations:
            if mut.target is not o:
                return False
        for v in tset.views:
            vnode = self.view_node.get(id(v))
            if vnode is None or vnode.kind is OpKind.VIEW:
                return False
        try:
            k = block.params.index(o) - 1
        except ValueError:
            return False
        if k < 0:
            return False
        init = node.inputs[2 + k]
        if not self._owns_storage(init) or len(init.uses) != 1:
            return False
        return True

"""TensorSSA conversion — the paper's Algorithm 1.

Three phases over a graph in TorchScript-style IR:

1. **RewriteMutation** (paper §4.1.1) — for each Mutate statement, in
   program order:

   * *pass-up*: walk the view chain from the mutated view ``v`` up to
     the origin tensor ``t``, inserting ``immut::*_assign`` operators
     that build a new version of ``t``;
   * *pass-down*: re-derive every view of ``t`` whose definition
     dominates the mutation as an ``immut::*`` Access from the new
     version, emitting ``tssa::update(new, old)`` annotations.

2. **BlockPropagation** (paper §4.1.2) — every update whose new value is
   defined in a deeper block than its old value is threaded out through
   the control-flow nodes: block returns + node outputs (and, for loops,
   carried inputs + block params), with fresh updates marking each hop.

3. **Renaming** — an environment-threading walk replaces every use of
   ``old`` with ``new`` after each ``tssa::update(new, old)``, resolves
   block returns to the latest version, then deletes the annotations and
   the original Mutate statements.

Mutated *graph inputs* keep their caller-visible semantics through an
epilogue ``aten::copy_(input, final_version)`` appended at graph end
(outside any fusion region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.alias import AliasGraph, Mutation, TSet
from ..ir import types as T
from ..ir.graph import Block, Graph, Node, Value
from ..ops import registry
from ..ops.schema import OpKind


@dataclass
class ConversionReport:
    """What the conversion did (and did not) functionalize."""

    rewritten: List[str] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)  # (origin, why)
    copied_back_inputs: List[str] = field(default_factory=list)

    @property
    def num_rewritten(self) -> int:
        return len(self.rewritten)


class _Converter:
    def __init__(self, graph: Graph, intra_block_only: bool = False) -> None:
        self.graph = graph
        self.alias = AliasGraph(graph)
        self.report = ConversionReport()
        self.intra_block_only = intra_block_only
        self._mutants_to_remove: List[Node] = []
        # Program order over the *original* graph: inserted pure ops
        # never consult it (they reference explicit values), so the
        # snapshot stays valid throughout the rewrite.
        self.order = self.alias.order
        # view value -> later mutations whose pass-up chain passes
        # through it (those chains reference the original name)
        self._chain_users: Dict[int, List[Node]] = {}
        for mut in self.alias.mutations:
            cur = mut.target
            while id(cur) in self.alias.view_base:
                self._chain_users.setdefault(id(cur), []).append(mut.node)
                cur = self.alias.view_base[id(cur)]

    def _def_loop_set(self, value: Value) -> frozenset:
        if value.is_param:
            owner = value.param_block.owning_node
            if owner is None:
                return frozenset()
            loops = self.order.loops(owner)
            if owner.op == "prim::Loop":
                loops |= {id(owner)}  # body params rebind per iteration
            return loops
        if value.node is None or value.node.owning_block is None:
            return frozenset()
        return self.order.loops(value.node)

    def _runs_after(self, user: Node, N: Node,
                    value_def_loops: frozenset) -> bool:
        """Can ``user`` observe ``N``'s effect on a *stale* value?

        True when the user is later in program order, or when a shared
        loop re-executes it after ``N``'s iteration *and* the value was
        computed outside that loop (in-loop values are recomputed fresh
        each iteration, so their earlier uses never see stale data).

        Nodes inserted by earlier rewrites (no recorded position) sit at
        earlier mutation sites and reference values that renaming
        resolves via their own preceding updates — never ours."""
        pos = self.order.entry.get(id(user))
        if pos is None:
            return False  # inserted by an earlier rewrite
        if pos > self.order.entry[id(N)]:
            return True
        common = self.order.loops(user) & self.order.loops(N)
        return bool(common - value_def_loops)

    def _used_after(self, value: Value, N: Node) -> bool:
        """Does ``value`` have any consumer that may run after mutation
        ``N`` (block returns, later nodes, loop wrap-around, or later
        mutations' pass-up chains)?  If not, re-accessing it at ``N``
        would be dead code."""
        def_loops = self._def_loop_set(value)
        for use in value.uses:
            user = use.user
            if isinstance(user, Block):
                return True  # block/graph returns run after everything
            if self._runs_after(user, N, def_loops):
                return True
        for chain_user in self._chain_users.get(id(value), ()):
            if chain_user is not N and \
                    self._runs_after(chain_user, N, def_loops):
                return True
        return False

    def _subtree_needed(self, x: Value, N: Node) -> bool:
        if self._used_after(x, N):
            return True
        for vnode in self.alias.view_children.get(id(x), []):
            if vnode is N:
                continue
            if vnode.owning_block is None or \
                    not self.order.dominates(vnode, N):
                continue
            if self._subtree_needed(vnode.output(), N):
                return True
        return False

    # ------------------------------------------------------------------
    # Phase 1: RewriteMutation
    # ------------------------------------------------------------------

    def rewrite_all(self) -> None:
        tsets = self.alias.tsets()
        eligible_by_node: Dict[int, TSet] = {}
        for tset in tsets:
            if not tset.eligible:
                self.report.skipped.append((tset.origin.name, tset.reason))
                continue
            if self.intra_block_only and any(
                    tset.origin.defining_block() is not m.node.owning_block
                    for m in tset.mutations):
                # Data-flow-only functionalization (functorch/Inductor
                # style): a mutation crossing control flow stays
                # imperative — and then the *whole* T-set must stay
                # imperative, because functionalizing only some writes
                # to a storage while others still hit the old buffer
                # would desynchronize the versions.
                self.report.skipped.append(
                    (tset.origin.name, "crosses a control-flow boundary "
                     "(intra-block mode)"))
                continue
            for mut in tset.mutations:
                eligible_by_node[id(mut.node)] = tset
        # program order over all mutations
        for node in list(self.graph.walk()):
            tset = eligible_by_node.get(id(node))
            if tset is not None:
                self.rewrite_mutation(Mutation(node, node.input(0)), tset)

    def _insert_before(self, anchor: Node, node: Node) -> Node:
        # cursor-based insertion: rewrite_mutation resolves the anchor's
        # index once and bumps it per insert (list.index is O(n) and the
        # rewrite inserts thousands of nodes into unrolled blocks)
        block = anchor.owning_block
        block.insert(self._cursor, node)
        self._cursor += 1
        return node

    def _emit_update(self, anchor: Node, new: Value, old: Value) -> None:
        upd = self.graph.create("tssa::update", [new, old])
        self._insert_before(anchor, upd)

    def rewrite_mutation(self, mut: Mutation, tset: TSet) -> None:
        N = mut.node
        v = mut.target
        origin = tset.origin
        self._cursor = N.owning_block.nodes.index(N)

        # --- the functional value of the mutation -----------------------
        if N.op == "aten::copy_":
            source = N.input(1)
        else:
            fop = registry.get(N.op).functional_op
            fnode = self.graph.create(fop, list(N.inputs), ["fv"],
                                      [T.TensorType()])
            self._insert_before(N, fnode)
            source = fnode.output()

        # --- pass-up ------------------------------------------------------
        # innermost: a fresh version of the view itself
        assign = self.graph.create("immut::assign", [v, source],
                                   [v.name.split(".")[0]], [T.TensorType()])
        self._insert_before(N, assign)
        cur, cur_new = v, assign.output()
        while cur is not origin:
            base = self.alias.view_base[id(cur)]
            vnode = self.alias.view_node[id(cur)]
            if vnode.kind is OpKind.VIEW:
                op = registry.get(vnode.op).assign_op
                node = self.graph.create(
                    op, [base, cur_new] + list(vnode.inputs[1:]),
                    [base.name.split(".")[0]], [T.TensorType()])
            else:
                # identity alias (output of another mutating op): the new
                # content of `cur` becomes the whole new content of base
                node = self.graph.create("immut::assign", [base, cur_new],
                                         [base.name.split(".")[0]],
                                         [T.TensorType()])
            self._insert_before(N, node)
            cur, cur_new = base, node.output()

        # --- pass-down ------------------------------------------------------
        self._traversal(origin, cur_new, N)

        self._mutants_to_remove.append(N)
        self.report.rewritten.append(N.op)

    def _traversal(self, x: Value, x_new: Value, N: Node) -> None:
        """Paper Algorithm 1, ``Traversal``: update + re-access the view
        tree under ``x`` at the mutation site ``N``."""
        self._emit_update(N, x_new, x)
        for vnode in self.alias.view_children.get(id(x), []):
            out = vnode.output()
            if vnode is N:
                # the mutate statement's own output: identity alias of
                # the freshly assigned view
                self._traversal(out, x_new, N)
                continue
            if vnode.owning_block is None or \
                    not self.order.dominates(vnode, N):
                continue
            if vnode.kind is OpKind.VIEW:
                if not self._subtree_needed(out, N):
                    continue  # nothing downstream reads this view again
                op = registry.get(vnode.op).access_op
                acc = self.graph.create(
                    op, [x_new] + list(vnode.inputs[1:]),
                    [out.name.split(".")[0]], [T.TensorType()])
                self._insert_before(N, acc)
                self._traversal(out, acc.output(), N)
            else:
                # an earlier mutating op's output: identity of x
                self._traversal(out, x_new, N)

    # ------------------------------------------------------------------
    # Phase 2: BlockPropagation
    # ------------------------------------------------------------------

    def propagate_blocks(self) -> None:
        propagated: Dict[Tuple[int, int], Value] = {}
        for upd in [n for n in self.graph.walk() if n.op == "tssa::update"]:
            new, old = upd.input(0), upd.input(1)
            block = new.defining_block()
            end_block = old.defining_block()
            while block is not end_block:
                node = block.owning_node
                if node is None:
                    raise RuntimeError(
                        f"update({new.name}, {old.name}): old value's "
                        f"block is not an ancestor of new value's block")
                key = (id(node), id(old))
                if key not in propagated:
                    propagated[key] = self._thread_through(node, block, old)
                block = node.owning_block

    def _thread_through(self, node: Node, block: Block,
                        old: Value) -> Value:
        """Thread ``old``'s new version out of ``node`` via ``block``."""
        base = old.name.split(".")[0]
        if node.op == "prim::Loop":
            # carried slot: input / param / return / output stay aligned
            # because each list is appended at the end.
            node.add_input(old)
            param = node.blocks[0].add_param(base, old.type)
            head = self.graph.create("tssa::update", [param, old])
            node.blocks[0].insert(0, head)
            block.add_return(old)
        elif node.op == "prim::If":
            for b in node.blocks:
                # Both branches return `old`; renaming resolves each to
                # that branch's latest version (paper line 31's "if not
                # mutated in the sibling" falls out automatically).
                b.add_return(old)
        else:
            raise RuntimeError(f"cannot propagate updates through "
                               f"{node.op}")
        out = node.add_output(base, old.type)
        tail = self.graph.create("tssa::update", [out, old])
        node.owning_block.insert_after(node, tail)
        return out

    # ------------------------------------------------------------------
    # Phase 3: Renaming
    # ------------------------------------------------------------------

    def rename(self) -> Dict[int, Value]:
        top_env: Dict[int, Value] = {}
        self._rename_block(self.graph.block, top_env)
        # drop the annotations, then the (now unused) mutate statements
        from ..ir.graph import bulk_destroy
        bulk_destroy([n for n in self.graph.walk()
                      if n.op == "tssa::update"])
        bulk_destroy(self._mutants_to_remove)
        return top_env

    @staticmethod
    def _resolve(env: Dict[int, Value], v: Value) -> Value:
        seen = set()
        while id(v) in env and env[id(v)] is not v:
            if id(v) in seen:
                break
            seen.add(id(v))
            v = env[id(v)]
        return v

    def _rename_block(self, block: Block, env: Dict[int, Value]) -> None:
        for node in list(block.nodes):
            if node.op == "tssa::update":
                new = self._resolve(env, node.input(0))
                old = node.input(1)
                env[id(old)] = new
                continue
            for i, inp in enumerate(node.inputs):
                r = self._resolve(env, inp)
                if r is not inp:
                    node.set_input(i, r)
            for inner in node.blocks:
                self._rename_block(inner, dict(env))
        for i, ret in enumerate(list(block.returns)):
            r = self._resolve(env, ret)
            if r is not ret:
                block.set_return(i, r)

    # ------------------------------------------------------------------
    # Epilogue: preserve caller-visible input mutation
    # ------------------------------------------------------------------

    def copy_back_inputs(self, top_env: Dict[int, Value]) -> None:
        for inp in self.graph.inputs:
            final = self._resolve(top_env, inp)
            if final is not inp:
                sink = self.graph.create("aten::copy_", [inp, final],
                                         [inp.name.split(".")[0]],
                                         [T.TensorType()])
                self.graph.block.append(sink)
                self.report.copied_back_inputs.append(inp.name)

    # ------------------------------------------------------------------

    def run(self) -> ConversionReport:
        self.rewrite_all()
        if self.report.rewritten:
            self.propagate_blocks()
        top_env = self.rename()
        self.copy_back_inputs(top_env)
        return self.report


def convert_to_tensorssa(graph: Graph,
                         intra_block_only: bool = False) -> ConversionReport:
    """Functionalize ``graph`` in place (paper Algorithm 1).

    ``intra_block_only=True`` restricts the rewrite to mutations whose
    origin tensor lives in the same block — the data-flow-only
    functionalization that tracing compilers (functorch / TorchInductor)
    achieve, used by the Dynamo baseline pipeline."""
    return _Converter(graph, intra_block_only=intra_block_only).run()

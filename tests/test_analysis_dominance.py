"""Program order and dominance on block-structured IR: the snapshot the
TensorSSA conversion and the alias analysis run on."""

import pytest

from repro.analysis import AliasGraph, ProgramOrder
from repro.frontend import script
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import materialize
from repro.ir import Graph
from repro.ir import types as T
from repro.models import get_workload, workload_names


def build_nested():
    """graph { a; loop { b; if { c }{ d }; e }; f }, its nodes, and the
    program-order snapshot the alias analysis and the conversion read"""
    g = Graph("dom")
    x = g.add_input("x", T.TensorType())
    n = g.add_input("n", T.IntType())
    a = g.create("aten::neg", [x], ["a"], [T.TensorType()])
    g.block.append(a)
    true = g.constant(True)
    g.block.append(true)
    loop = g.create("prim::Loop", [n, true.output()])
    g.block.append(loop)
    body = loop.add_block()
    body.add_param("i", T.IntType())
    b = g.create("aten::neg", [a.output()], ["b"], [T.TensorType()])
    body.append(b)
    cond = g.create("aten::Bool", [b.output()], ["c"], [T.BoolType()])
    body.append(cond)
    branch = g.create("prim::If", [cond.output()])
    body.append(branch)
    then_b, else_b = branch.add_block(), branch.add_block()
    c = g.create("aten::neg", [b.output()], ["c"], [T.TensorType()])
    then_b.append(c)
    d = g.create("aten::neg", [b.output()], ["d"], [T.TensorType()])
    else_b.append(d)
    then_b.add_return(c.output())
    else_b.add_return(d.output())
    branch.add_output("o", T.TensorType())
    e = g.create("aten::neg", [branch.output()], ["e"], [T.TensorType()])
    body.append(e)
    body.add_return(true.output())
    f = g.create("aten::neg", [a.output()], ["f"], [T.TensorType()])
    g.block.append(f)
    g.add_output(f.output())
    return AliasGraph(g).order, dict(a=a, loop=loop, b=b, branch=branch, c=c,
                                     d=d, e=e, f=f, x=x)


class TestNodeDominance:
    def test_same_block_order(self):
        order, n = build_nested()
        assert order.dominates(n["a"], n["loop"])
        assert not order.dominates(n["loop"], n["a"])

    def test_outer_dominates_inner(self):
        order, n = build_nested()
        assert order.dominates(n["a"], n["b"])
        assert order.dominates(n["a"], n["c"])

    def test_inner_does_not_dominate_outer(self):
        order, n = build_nested()
        assert not order.dominates(n["b"], n["f"])
        assert not order.dominates(n["c"], n["f"])

    def test_siblings_do_not_dominate(self):
        order, n = build_nested()
        assert not order.dominates(n["c"], n["d"])
        assert not order.dominates(n["d"], n["c"])

    def test_within_loop_body(self):
        order, n = build_nested()
        assert order.dominates(n["b"], n["e"])
        assert order.dominates(n["b"], n["c"])
        assert not order.dominates(n["e"], n["b"])

    def test_branch_does_not_dominate_after(self):
        order, n = build_nested()
        # c is inside one branch; e comes after the If
        assert not order.dominates(n["c"], n["e"])

    def test_containment_counts(self):
        order, n = build_nested()
        assert order.dominates(n["loop"], n["b"])
        assert order.dominates(n["branch"], n["c"])

    def test_self(self):
        order, n = build_nested()
        assert order.dominates(n["a"], n["a"])


class TestValueDominance:
    def test_graph_input_dominates_everything(self):
        order, n = build_nested()
        for key in ("a", "b", "c", "e", "f"):
            assert order.available(n["x"], n[key])

    def test_node_output_dominates_later_uses(self):
        order, n = build_nested()
        assert order.available(n["a"].output(), n["b"])
        assert not order.available(n["e"].output(), n["b"])
        assert not order.available(n["a"].output(), n["a"])
        # an If's output exists after the If, not inside its branches
        assert order.available(n["branch"].output(), n["e"])
        assert not order.available(n["branch"].output(), n["c"])

    def test_loop_param_scope(self):
        order, n = build_nested()
        i_param = n["loop"].blocks[0].params[0]
        assert order.available(i_param, n["b"])
        assert order.available(i_param, n["c"])
        assert not order.available(i_param, n["f"])


# -- the snapshot against the structural definition ------------------------

GRAPHS = workload_names() + [f"fuzz{seed}" for seed in range(20)]


def _scripted(name):
    if name.startswith("fuzz"):
        prog = generate_program(int(name[len("fuzz"):]))
        return script(materialize(prog.source, prog.name)).graph
    return script(get_workload(name).model_fn).graph


def _chain(node):
    """``[(block, node of that block containing node)]``, innermost
    first, up to the graph's top block."""
    out = []
    while node is not None:
        out.append((node.owning_block, node))
        node = node.owning_block.owning_node
    return out


@pytest.mark.parametrize("name", GRAPHS)
def test_snapshot_matches_structural_definition(name):
    """For every node pair, ``dominates(a, b)`` is the textbook rule:
    ``a`` contains (or is) ``b``, or ``a``'s block is ``b``'s block or
    an ancestor of it and ``a`` precedes ``b``'s enclosing node there;
    ``loops(n)`` is the set of ``prim::Loop`` nodes around ``n``."""
    graph = _scripted(name)
    order = ProgramOrder(graph)
    nodes = list(graph.walk())
    index = {}
    for node in nodes:
        for block in node.blocks:
            index.update((id(m), i) for i, m in enumerate(block.nodes))
    index.update((id(m), i) for i, m in enumerate(graph.block.nodes))
    chains = {id(n): _chain(n) for n in nodes}
    for b in nodes:
        chain = chains[id(b)]
        assert order.loops(b) == frozenset(
            id(m) for _, m in chain[1:] if m.op == "prim::Loop"), name
        contains = {id(m) for _, m in chain}
        anchor_in = {id(blk): m for blk, m in chain}
        for a in nodes:
            anchor = anchor_in.get(id(a.owning_block))
            expected = id(a) in contains or (
                anchor is not None and index[id(a)] < index[id(anchor)])
            assert order.dominates(a, b) == expected, (name, a, b)

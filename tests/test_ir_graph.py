"""Graph-level IR data structure invariants."""

import time

import pytest

from repro.ir import (Graph, VerificationError, clone_graph, print_graph,
                      verify)
from repro.ir import types as T
from repro.ir.graph import Block, Use, bulk_destroy
from repro.ir.parser import parse_graph


def make_simple_graph():
    g = Graph("simple")
    a = g.add_input("a", T.TensorType())
    b = g.add_input("b", T.TensorType())
    add = g.create("aten::add", [a, b], ["s"], [T.TensorType()])
    g.block.append(add)
    mul = g.create("aten::mul", [add.output(), a], ["m"], [T.TensorType()])
    g.block.append(mul)
    g.add_output(mul.output())
    return g, a, b, add, mul


class TestConstruction:
    def test_uses_are_tracked(self):
        g, a, b, add, mul = make_simple_graph()
        assert len(a.uses) == 2  # add input 0, mul input 1
        assert len(add.output().uses) == 1
        assert mul.output().uses[0].user is g.block

    def test_verify_ok(self):
        g, *_ = make_simple_graph()
        verify(g)

    def test_print_contains_ops(self):
        g, *_ = make_simple_graph()
        text = print_graph(g)
        assert "aten::add" in text and "aten::mul" in text
        assert text.startswith("graph simple(")

    def test_constant_node(self):
        g = Graph()
        c = g.constant(3.5)
        g.block.append(c)
        assert c.attrs["value"] == 3.5
        assert isinstance(c.output().type, T.FloatType)

    def test_unknown_op_rejected(self):
        g = Graph()
        with pytest.raises(KeyError):
            g.create("aten::definitely_not_an_op", [])


class TestMutationAPI:
    def test_replace_all_uses(self):
        g, a, b, add, mul = make_simple_graph()
        add.output().replace_all_uses_with(b)
        assert mul.input(0) is b
        assert not add.output().uses
        verify(g)

    def test_replace_updates_block_returns(self):
        g, a, b, add, mul = make_simple_graph()
        mul.output().replace_all_uses_with(add.output())
        assert g.outputs[0] is add.output()
        verify(g)

    def test_set_input(self):
        g, a, b, add, mul = make_simple_graph()
        mul.set_input(1, b)
        assert not any(u.user is mul for u in a.uses if u.index == 1)
        assert any(u.user is mul and u.index == 1 for u in b.uses)
        verify(g)

    def test_remove_input_reindexes_uses(self):
        g, a, b, add, mul = make_simple_graph()
        add.remove_input(0)
        assert add.inputs == (b,)
        assert b.uses[0].index == 0
        # verify() would fail arity checks only for control ops; the use
        # records themselves must still be consistent:
        verify(g)

    def test_destroy_requires_no_uses(self):
        g, a, b, add, mul = make_simple_graph()
        with pytest.raises(RuntimeError):
            add.destroy()
        mul.set_input(0, b)
        add.destroy()
        assert add not in g.block.nodes
        verify(g)

    def test_bulk_destroy_drops_nested_block_return_uses(self):
        g = parse_graph("""
graph g(%c.0 : Bool, %x.0 : Tensor):
  %v.0 = aten::neg(%x.0)
  %o.0 = prim::If(%c.0)
    block0():
      -> (%v.0)
    block1():
      %w.0 = aten::exp(%v.0)
      -> (%x.0)
  return (%v.0)
""")
        neg, branch = g.block.nodes
        x, v = g.inputs[1], neg.output()
        bulk_destroy([branch])
        # the branches' returns died with the If: only the graph's own
        # return and neg's input are left, no phantom record on v or x
        assert [(u.user, u.index) for u in v.uses] == [(g.block, 0)]
        assert [(u.user, u.index) for u in x.uses] == [(neg, 0)]
        assert g.inputs[0].uses == []
        verify(g)

    def test_insert_before_after_and_is_before(self):
        g, a, b, add, mul = make_simple_graph()
        neg = g.create("aten::neg", [a], ["n"], [T.TensorType()])
        g.block.insert_before(mul, neg)
        assert add.is_before(neg) and neg.is_before(mul)
        neg2 = g.create("aten::neg", [a], ["n"], [T.TensorType()])
        g.block.insert_after(add, neg2)
        assert neg2.is_before(neg)
        verify(g)


class TestControlFlowStructure:
    def make_loop_graph(self):
        g = Graph("loopy")
        n = g.add_input("n", T.IntType())
        x = g.add_input("x", T.TensorType())
        true = g.constant(True)
        g.block.append(true)
        loop = g.create("prim::Loop", [n, true.output(), x])
        g.block.append(loop)
        body = loop.add_block()
        body.add_param("i", T.IntType())
        xc = body.add_param("x", T.TensorType())
        one = g.constant(1)
        body.append(one)
        add = g.create("aten::add", [xc, one.output()], ["x"],
                       [T.TensorType()])
        body.append(add)
        body.add_return(true.output())
        body.add_return(add.output())
        out = loop.add_output("x", T.TensorType())
        g.add_output(out)
        return g, loop

    def test_loop_verifies(self):
        g, loop = self.make_loop_graph()
        verify(g)

    def test_loop_arity_checked(self):
        g, loop = self.make_loop_graph()
        loop.blocks[0].params.pop()  # corrupt
        with pytest.raises(VerificationError):
            verify(g)

    def test_scope_violation_detected(self):
        g, loop = self.make_loop_graph()
        inner_add = loop.blocks[0].nodes[-1]
        # A top-level node using a loop-local value is out of scope.
        bad = g.create("aten::neg", [inner_add.output()], ["bad"],
                       [T.TensorType()])
        g.block.append(bad)
        with pytest.raises(VerificationError):
            verify(g)

    def test_walk_covers_nested(self):
        g, loop = self.make_loop_graph()
        ops = [n.op for n in g.walk()]
        assert "aten::add" in ops and "prim::Loop" in ops

    def test_nodes_of(self):
        g, loop = self.make_loop_graph()
        assert g.nodes_of("prim::Loop") == [loop]


class TestClone:
    def test_clone_is_deep_and_verifies(self):
        g, a, b, add, mul = make_simple_graph()
        g2 = clone_graph(g)
        verify(g2)
        assert len(list(g2.walk())) == len(list(g.walk()))
        # mutating the clone leaves the original intact
        g2.block.nodes[0].op = "aten::sub"
        assert g.block.nodes[0].op == "aten::add"

    def test_clone_control_flow(self):
        g, loop = TestControlFlowStructure().make_loop_graph()
        g2 = clone_graph(g)
        verify(g2)
        loops = g2.nodes_of("prim::Loop")
        assert len(loops) == 1
        assert loops[0] is not loop
        assert len(loops[0].blocks[0].nodes) == 2


# -- verifier negative table --------------------------------------------------
#
# One hand-corrupted graph per failure branch of ``verify``.  Each case is
# an IR literal (well-formed unless the literal itself is the corruption)
# plus an optional in-memory corruption, and the exact message ``verify``
# must raise.

BASE = """
graph g(%a.0 : Tensor, %b.0 : Tensor):
  %s.0 = aten::add(%a.0, %b.0)
  %m.0 = aten::mul(%s.0, %a.0)
  return (%m.0)
"""

LOOP = """
graph g(%n.0 : Int, %x.0 : Tensor):
  %t.0 = prim::Constant[value=True]()
  %o.0 = prim::Loop(%n.0, %t.0, %x.0)
    block0(%i.0 : Int, %acc.0 : Tensor):
      %nx.0 = aten::mul(%acc.0, %acc.0)
      -> (%t.0, %nx.0)
  return (%o.0)
"""

IF = """
graph g(%c.0 : Bool, %x.0 : Tensor):
  %o.0 = prim::If(%c.0)
    block0():
      %p.0 = aten::neg(%x.0)
      -> (%p.0)
    block1():
      %q.0 = aten::exp(%x.0)
      -> (%q.0)
  return (%o.0)
"""

FUSION = """
graph g(%x.0 : Tensor, %y.0 : Tensor):
  %o.0 = prim::FusionGroup(%x.0, %y.0)
    block0(%fx.0 : Tensor, %fy.0 : Tensor):
      %z.0 = aten::add(%fx.0, %fy.0)
      -> (%z.0)
  return (%o.0)
"""

UPDATE = """
graph g(%a.0 : Tensor):
  %s.0 = aten::neg(%a.0)
  tssa::update(%s.0, %a.0)
  return (%s.0)
"""


def _value(g, name):
    for p in g.inputs:
        if p.name == name:
            return p
    for node in g.walk():
        for v in list(node.outputs) + [p for b in node.blocks
                                        for p in b.params]:
            if v.name == name:
                return v
    raise KeyError(name)


def _node(g, op):
    return g.nodes_of(op)[0]


def _stale_input_use(g, index):
    _value(g, "b.0").uses.append(Use(_node(g, "aten::mul"), index))


def _drop_mul_use(g):
    a = _value(g, "a.0")
    a.uses = [u for u in a.uses if u.user is not _node(g, "aten::mul")]


def _use_later_value(g):
    _node(g, "aten::add").set_input(1, _value(g, "m.0"))


def _add_block(g, op):
    _node(g, op).add_block()


def _drop_constant_value(g):
    del _node(g, "prim::Constant").attrs["value"]


VERIFIER_CASES = [
    # use lists
    ("stale-use-input", BASE, lambda g: _stale_input_use(g, 0),
     "use-list of %b.0 names input 0 of aten::mul, which holds something "
     "else"),
    ("stale-use-input-out-of-range", BASE, lambda g: _stale_input_use(g, 7),
     "use-list of %b.0 names input 7 of aten::mul, which holds something "
     "else"),
    ("stale-use-return", BASE,
     lambda g: _value(g, "a.0").uses.append(Use(g.block, 0)),
     "use-list of %a.0 names a block return slot that does not reference "
     "it"),
    ("missing-use-input", BASE, _drop_mul_use,
     "%a.0 lacks a use record for aten::mul input 1"),
    ("missing-use-return", BASE, lambda g: _value(g, "m.0").uses.clear(),
     "%m.0 lacks a use record for block return 0"),
    # scope
    ("input-defined-later", BASE, _use_later_value,
     "node aten::add input 1 (%m.0) is not in scope (defined later, or in "
     "a sibling block)"),
    ("input-from-sibling-if-block", IF.replace("aten::exp(%x.0)",
                                               "aten::exp(%p.0)"), None,
     "node aten::exp input 0 (%p.0) is not in scope (defined later, or in "
     "a sibling block)"),
    ("input-from-inner-block", LOOP.replace(
        "  return (%o.0)", "  %bad.0 = aten::neg(%nx.0)\n  return (%bad.0)"),
     None,
     "node aten::neg input 0 (%nx.0) is not in scope (defined later, or in "
     "a sibling block)"),
    ("return-out-of-scope", LOOP.replace("return (%o.0)",
                                         "return (%o.0, %nx.0)"), None,
     "block return 1 (%nx.0) is not in scope"),
    # backrefs
    ("param-backref", BASE,
     lambda g: setattr(g.inputs[0], "param_block", Block(g)),
     "param %a.0 does not point back to its block"),
    ("owning-block", BASE,
     lambda g: setattr(_node(g, "aten::mul"), "owning_block", None),
     "node aten::mul owning_block backref is wrong"),
    ("owning-node", LOOP,
     lambda g: setattr(_node(g, "prim::Loop").blocks[0], "owning_node",
                       None),
     "block of prim::Loop has wrong owning_node"),
    ("output-backref", BASE,
     lambda g: setattr(_value(g, "s.0"), "node", _node(g, "aten::mul")),
     "output %s.0 does not point back to aten::add"),
    # prim::Loop
    ("loop-blocks", LOOP, lambda g: _add_block(g, "prim::Loop"),
     "prim::Loop must own exactly one block"),
    ("loop-inputs", """
graph g(%n.0 : Int):
  %t.0 = prim::Constant[value=True]()
  prim::Loop(%n.0)
    block0(%i.0 : Int):
      -> (%t.0)
  return ()
""", None, "prim::Loop needs (max_trip, init_cond, *carried) inputs"),
    ("loop-params", LOOP.replace(", %acc.0 : Tensor", "").replace(
        "aten::mul(%acc.0, %acc.0)", "aten::neg(%x.0)"), None,
     "prim::Loop body must have 1+1 params, has 1"),
    ("loop-returns", LOOP.replace("-> (%t.0, %nx.0)", "-> (%t.0)"), None,
     "prim::Loop body must return 1+1 values, returns 1"),
    ("loop-outputs", LOOP.replace("%o.0 = prim::Loop",
                                  "%o.0, %o.1 = prim::Loop"), None,
     "prim::Loop outputs must match carried values"),
    # prim::If
    ("if-blocks", IF.split("    block1")[0] + "  return (%o.0)\n", None,
     "prim::If must own exactly two blocks"),
    ("if-inputs", IF.replace("prim::If(%c.0)", "prim::If(%c.0, %x.0)"), None,
     "prim::If takes exactly one input (the condition)"),
    ("if-params", IF.replace("block1():", "block1(%z.0 : Tensor):"), None,
     "prim::If blocks take no params"),
    ("if-returns", IF.replace("-> (%q.0)", "-> ()"), None,
     "prim::If block returns 0 values, node has 1 outputs"),
    # prim::FusionGroup
    ("fusion-blocks", FUSION, lambda g: _add_block(g, "prim::FusionGroup"),
     "prim::FusionGroup must own exactly one block"),
    ("fusion-params", FUSION.replace(", %fy.0 : Tensor", "").replace(
        "aten::add(%fx.0, %fy.0)", "aten::neg(%fx.0)"), None,
     "FusionGroup params must mirror node inputs"),
    ("fusion-returns", FUSION.replace("-> (%z.0)", "-> (%z.0, %z.0)"), None,
     "FusionGroup returns must mirror node outputs"),
    # prim::Constant / tssa::update
    ("constant-value", LOOP, _drop_constant_value,
     "prim::Constant without a value attribute"),
    ("update-arity", UPDATE.replace("(%s.0, %a.0)", "(%s.0)"), None,
     "tssa::update must be update(new, old) with no outputs"),
    ("update-outputs", UPDATE.replace("  tssa::update", "  %u.0 = "
                                      "tssa::update"), None,
     "tssa::update must be update(new, old) with no outputs"),
]


class TestVerifierNegatives:
    @pytest.mark.parametrize("text", [BASE, LOOP, IF, FUSION, UPDATE])
    def test_base_graphs_verify(self, text):
        verify(parse_graph(text))

    @pytest.mark.parametrize("text,corrupt,message",
                             [c[1:] for c in VERIFIER_CASES],
                             ids=[c[0] for c in VERIFIER_CASES])
    def test_corruption_is_reported(self, text, corrupt, message):
        g = parse_graph(text)
        if corrupt is not None:
            corrupt(g)
        with pytest.raises(VerificationError) as info:
            verify(g)
        assert str(info.value) == message

    def test_wide_use_list_is_linear(self):
        # a constant with 20,000 uses: one scan of its use list, not one
        # per use (a rescan per use is 2e8 steps, far over the bound)
        g = Graph("wide")
        x = g.add_input("x", T.TensorType())
        c = g.constant(1.0)
        g.block.append(c)
        v = x
        for _ in range(20000):
            v = g.block.append(g.create("aten::add", [v, c.output()], ["v"],
                                        [T.TensorType()])).output()
        g.add_output(v)
        assert len(c.output().uses) == 20000
        start = time.perf_counter()
        verify(g)
        assert time.perf_counter() - start < 1.0

"""Textual IR parser: literals and printer round-trips."""

import pytest

import repro.runtime as rt
from repro.backend import run_graph
from repro.frontend import script
from repro.fuzz.oracle import graph_structure
from repro.ir import IRParseError, parse_graph, print_graph, verify
from repro.models import get_workload, workload_names
from repro.pipelines.registry import get_pipeline


SIMPLE = """
graph demo(%x.0 : Tensor, %n.0 : Int):
  %c.0 = prim::Constant[value=1.0]()
  %a.0 = aten::add(%x.0, %c.0)
  %b.0 = aten::mul(%a.0, %a.0)
  return (%b.0)
"""

LOOPY = """
graph loopy(%x.0 : Tensor, %n.0 : Int):
  %t.0 = prim::Constant[value=True]()
  %y.0 = aten::clone(%x.0)
  %y.2 = prim::Loop(%n.0, %t.0, %y.0)
    block0(%i.0 : Int, %y.1 : Tensor):
      %c.1 = prim::Constant[value=1.0]()
      %z.0 = aten::add(%y.1, %c.1)
      -> (%t.0, %z.0)
  return (%y.2)
"""

BRANCHY = """
graph branchy(%x.0 : Tensor, %f.0 : Bool):
  %o.0 = prim::If(%f.0)
    block0():
      %c.0 = prim::Constant[value=2.0]()
      %a.0 = aten::mul(%x.0, %c.0)
      -> (%a.0)
    block1():
      %c.1 = prim::Constant[value=3.0]()
      %b.0 = aten::mul(%x.0, %c.1)
      -> (%b.0)
  return (%o.0)
"""


SCALARS = """
graph scalars(%x.0 : Tensor<int64>, %y.0 : Tensor, %n.0 : Int):
  %s.0 = aten::size(%x.0, %n.0)
  %m.0 = prim::mul(%s.0, %n.0)
  %q.0 = prim::truediv(%s.0, %n.0)
  %i.0 = aten::item(%x.0)
  %f.0 = aten::item(%y.0)
  %l.0 = prim::ListConstruct(%s.0, %m.0)
  %t.0 = prim::TupleConstruct(%y.0, %f.0)
  %u.0, %u.1 = prim::TupleUnpack(%t.0)
  %b.0 = prim::lt(%q.0, %f.0)
  %o.0 = prim::If(%b.0)
    block0():
      -> (%i.0)
    block1():
      -> (%m.0)
  return (%l.0, %t.0, %o.0)
"""


class TestParse:
    def test_simple(self):
        g = parse_graph(SIMPLE)
        verify(g)
        assert [n.op for n in g.block.nodes] == [
            "prim::Constant", "aten::add", "aten::mul"]
        out = run_graph(g, [rt.tensor([2.0]), 0])[0]
        assert out.item() == 9.0

    def test_loop(self):
        g = parse_graph(LOOPY)
        verify(g)
        out = run_graph(g, [rt.tensor([0.0]), 5])[0]
        assert out.item() == 5.0

    def test_branch(self):
        g = parse_graph(BRANCHY)
        verify(g)
        assert run_graph(g, [rt.tensor([1.0]), True])[0].item() == 2.0
        assert run_graph(g, [rt.tensor([1.0]), False])[0].item() == 3.0

    def test_constants_payloads(self):
        g = parse_graph("""
graph c(%x.0 : Tensor):
  %a.0 = prim::Constant[value=None]()
  %b.0 = prim::Constant[value=[1, 2, 3]]()
  %c.0 = prim::Constant[value='hi']()
  %d.0 = prim::Constant[value=-1.5]()
  return (%x.0)
""")
        payloads = [n.attrs["value"] for n in
                    g.nodes_of("prim::Constant")]
        assert payloads == [None, [1, 2, 3], "hi", -1.5]

    def test_errors(self):
        with pytest.raises(IRParseError):
            parse_graph("nonsense")
        with pytest.raises(IRParseError):
            parse_graph("graph g(%x.0 : Tensor):\n  %a.0 = "
                        "aten::add(%nope.0, %x.0)\n  return (%a.0)")
        with pytest.raises(IRParseError):
            parse_graph("graph g(%x.0 : Wat):\n  return (%x.0)")
        with pytest.raises(IRParseError, match="unknown op"):
            parse_graph("graph g(%x.0 : Tensor):\n  %a.0 = "
                        "aten::nope(%x.0)\n  return (%a.0)")
        with pytest.raises(IRParseError, match="redefinition"):
            parse_graph("graph g(%x.0 : Tensor):\n  %x.0 = "
                        "aten::neg(%x.0)\n  return (%x.0)")
        with pytest.raises(IRParseError, match="return"):
            parse_graph("graph g(%x.0 : Tensor):\n  %a.0 = "
                        "aten::neg(%x.0)")

    def test_output_types_are_derived(self):
        """Output types are not in the text: the parser derives them
        with the rule the frontend types nodes by."""
        g = parse_graph(SCALARS)
        verify(g)
        types = [[repr(o.type) for o in n.outputs] for n in g.block.nodes]
        assert types == [["Int"], ["Int"], ["Float"], ["Int"], ["Float"],
                         ["List[Int]"], ["Tuple[Tensor, Float]"],
                         ["Any", "Any"], ["Bool"], ["Int"]]

    def test_fresh_names_skip_parsed_names(self):
        g = parse_graph("graph f(%x.0 : Tensor):\n  %x.2 = aten::neg(%x.0)"
                        "\n  return (%x.2)")
        assert g.fresh_name("x") == "x.3"
        assert g.fresh_name("y") == "y.0"

    def test_attributes_round_trip(self):
        text = """
graph h(%x.0 : Tensor, %n.0 : Int):
  %t.0 = prim::Constant[value=True]()
  %y.0 = prim::Loop[horizontal=True](%n.0, %t.0, %x.0)
    block0(%i.0 : Int, %y.1 : Tensor):
      %z.0 = aten::neg(%y.1)
      -> (%t.0, %z.0)
  return (%y.0)
"""
        g = parse_graph(text)
        loop, = g.nodes_of("prim::Loop")
        assert loop.attrs == {"horizontal": True}
        assert print_graph(g) == text.strip()


class TestRoundTrip:
    def _roundtrip(self, graph):
        text = print_graph(graph)
        reparsed = parse_graph(text)
        verify(reparsed)
        assert print_graph(reparsed) == text

    def test_literals_round_trip(self):
        for text in (SIMPLE, LOOPY, BRANCHY):
            g = parse_graph(text)
            self._roundtrip(g)

    def test_scripted_models_round_trip(self):
        from repro.models import WORKLOADS
        for name in ("ssd", "lstm", "attention"):
            graph = script(WORKLOADS[name].model_fn).graph
            self._roundtrip(graph)

    def test_converted_graph_round_trips(self):
        from repro.ir import clone_graph
        from repro.passes import dce
        from repro.tensorssa import convert_to_tensorssa

        def f(b, n: int):
            b = b.clone()
            for i in range(n):
                b[i] = b[i] + 1.0
            return b
        g = clone_graph(script(f).graph)
        convert_to_tensorssa(g)
        dce(g)
        self._roundtrip(g)

    def test_frontend_types_item_by_the_same_rule(self):
        """``x.item()`` on a tensor of unknown dtype is a Float, as the
        parser derives it (an int dtype gives Int: see SCALARS)."""
        def f(x):
            return x.sum().item() + 1.0
        graph = script(f).graph
        item, = [n for n in graph.walk() if n.op == "aten::item"]
        assert repr(item.output().type) == "Float"
        assert graph_structure(parse_graph(print_graph(graph))) == \
            graph_structure(graph)

    def test_parsed_graph_executes_like_original(self):
        import numpy as np
        from repro.models import WORKLOADS
        wl = WORKLOADS["lstm"]
        graph = script(wl.model_fn).graph
        reparsed = parse_graph(print_graph(graph))
        args = wl.make_inputs(batch_size=1, seq_len=4)
        a = run_graph(graph, list(args))
        b = run_graph(reparsed, list(args))
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.numpy(), y.numpy())


def _structural_cases():
    """(id, workload, form) for every graph the text must keep whole."""
    cases = []
    for name in workload_names():
        for pipeline in ("tensorssa", "dynamo_inductor", "ts_nvfuser",
                         "ts_nnc"):
            cases.append((f"{name}-{pipeline}", name, pipeline))
    for name in ("lstm", "nasrnn", "attention"):
        cases.append((f"{name}-grad", name, "grad"))
        cases.append((f"{name}-grad_reference", name, "grad_reference"))
    cases.append(("literal-scalars", None, "literal"))
    return cases


def _build(name, form):
    if form == "literal":
        return parse_graph(SCALARS)
    wl = get_workload(name)
    if form in ("grad", "grad_reference"):
        args = wl.make_inputs(batch_size=2, seq_len=8, seed=0)
        compiled = get_pipeline("tensorssa").compile_grad(
            wl.model_fn, example_args=args)
        return compiled.graph if form == "grad" \
            else compiled.stats["grad_reference"].graph
    args = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
    compiled = get_pipeline(form).compile(wl.model_fn, example_args=args)
    compiled.fn(*args)  # kernels attach to their nodes as they run
    return compiled.graph


@pytest.mark.parametrize("name,form",
                         [c[1:] for c in _structural_cases()],
                         ids=[c[0] for c in _structural_cases()])
def test_structural_round_trip(name, form):
    """print -> parse keeps every name, op, output type, block param
    and attribute (the compiled kernel aside) of compiled forwards,
    backwards, their reference graphs and a scalar-typed literal."""
    graph = _build(name, form)
    text = print_graph(graph)
    reparsed = parse_graph(text)
    verify(reparsed)
    assert print_graph(reparsed) == text
    assert graph_structure(reparsed) == graph_structure(graph)

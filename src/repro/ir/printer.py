"""Textual IR printer, TorchScript-dump style (cf. paper Figures 2/4).

Example output::

    graph f(%b.0 : Tensor, %n.0 : Int):
      %b.1 = aten::clone(%b.0)
      %b.4 = prim::Loop[horizontal=True](%n.0, %true.0, %b.1)
        block0(%i.0 : Int, %b.3 : Tensor):
          %bi.0 = immut::select(%b.3, %c0.0, %i.0)
          ...
          -> (%true.0, %b.2)
      return (%b.4)

Node attributes print as ``[key=repr(value), ...]`` (a constant's
payload is its ``value``); output types are not printed, because
:mod:`repro.ir.parser` derives them, so the text is lossless.
"""

from __future__ import annotations

from typing import List

from .graph import Block, Graph, Node


def _print_node(node: Node, lines: List[str], indent: int) -> None:
    pad = "  " * indent
    ins = ", ".join(f"%{v.name}" for v in node.inputs)
    outs = ", ".join(f"%{o.name}" for o in node.outputs)
    head = f"{outs} = " if outs else ""
    # every attribute but the compiled kernel, which is rebuilt from
    # the graph and never printed
    attrs = ", ".join(f"{key}={val!r}" for key, val in node.attrs.items()
                      if key != "kernel")
    attrs = f"[{attrs}]" if attrs else ""
    lines.append(f"{pad}{head}{node.op}{attrs}({ins})")
    for i, block in enumerate(node.blocks):
        params = ", ".join(f"%{p.name} : {p.type!r}" for p in block.params)
        lines.append(f"{pad}  block{i}({params}):")
        for inner in block.nodes:
            _print_node(inner, lines, indent + 2)
        rets = ", ".join(f"%{r.name}" for r in block.returns)
        lines.append(f"{pad}    -> ({rets})")


def print_block(block: Block, indent: int = 0) -> str:
    """Render a block's nodes as indented text."""
    lines: List[str] = []
    for node in block.nodes:
        _print_node(node, lines, indent)
    return "\n".join(lines)


def print_graph(graph: Graph) -> str:
    """Render a whole graph in TorchScript-dump style."""
    params = ", ".join(f"%{p.name} : {p.type!r}" for p in graph.inputs)
    lines = [f"graph {graph.name}({params}):"]
    for node in graph.block.nodes:
        _print_node(node, lines, 1)
    rets = ", ".join(f"%{r.name}" for r in graph.outputs)
    lines.append(f"  return ({rets})")
    return "\n".join(lines)

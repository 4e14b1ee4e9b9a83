"""Parser for the textual IR format emitted by :mod:`repro.ir.printer`.

The inverse of the printer: ``parse_graph(print_graph(g))`` rebuilds
``g`` exactly — value names, ops, node attributes, block parameters
and every type — so text is the one saved form of a graph, for IR
literals in tests, the fuzz corpus and shipped artifacts alike.

The text spells out parameter types only.  Output types are derived
(:func:`_output_types`) with the rule the frontend and the gradient
builder type the nodes they emit with: ``ir.types.infer_types`` over
the op's ``OpSchema.result_types``; a constant has its payload's type,
``prim::If`` / ``prim::FusionGroup`` outputs have their first block's
return types, and ``prim::Loop`` outputs have its block's returns
after the continue condition.

Grammar (line-oriented, indentation-insensitive except block structure):

    graph NAME(%p : Type, ...):
      %out, ... = ns::op(%in, ...)
      %c = prim::Constant[value=<python literal>]()
      %outs = prim::Loop[key=<python literal>, ...](%ins)
        block0(%params : Type, ...):
          ...
          -> (%returns)
      return (%outs)

Value names are kept exactly, and the graph's fresh-name counters start
past every parsed ``base.N`` name, so later construction on a parsed
graph never reuses one.  Tensor-valued constants cannot be expressed
textually and raise.
"""

from __future__ import annotations

import ast as pyast
import itertools
import re
from typing import Dict, Iterable, List

from ..ops import registry
from . import types as T
from .graph import Graph, Node, Value


class IRParseError(ValueError):
    """Raised on malformed textual IR."""
    pass


_TYPE_ATOMS = {
    "Tensor": T.TensorType, "Int": T.IntType, "Float": T.FloatType,
    "Bool": T.BoolType, "Str": T.StrType, "None": T.NoneType,
    "Any": T.AnyType,
}

_HEADER_RE = re.compile(r"^graph\s+(\S+)\((.*)\):$")
_NODE_RE = re.compile(
    r"^(?:(?P<outs>%[^=]+?)\s*=\s*)?(?P<op>[\w:]+)"
    r"(?:\[(?P<attrs>.*)\])?\((?P<ins>.*)\)$")
_BLOCK_RE = re.compile(r"^block\d+\((?P<params>.*)\):$")
_RETURNS_RE = re.compile(r"^->\s*\((?P<rets>.*)\)$")
_GRAPH_RETURN_RE = re.compile(r"^return\s*\((?P<rets>.*)\)$")


def _parse_type(text: str) -> T.Type:
    text = text.strip()
    if text.startswith("Tensor"):
        m = re.match(r"Tensor(?:<(\w+)>)?(\[[\d,\s]*\])?$", text)
        if not m:
            raise IRParseError(f"bad tensor type: {text!r}")
        dtype = m.group(1)
        shape = tuple(pyast.literal_eval(m.group(2))) if m.group(2) \
            else None
        return T.TensorType(dtype, shape)
    if text.startswith("List["):
        return T.ListType(_parse_type(text[5:-1]))
    if text.startswith("Tuple["):
        inner = text[6:-1]
        elems = [_parse_type(e) for e in _split_commas(inner)] \
            if inner else []
        return T.TupleType(elems)
    if text in _TYPE_ATOMS:
        return _TYPE_ATOMS[text]()
    raise IRParseError(f"unknown type: {text!r}")


def _parse_literal(text: str):
    """An attribute payload: a Python literal, a ``repro.<dtype>``, or
    a non-finite float (whose ``repr`` is not a Python literal)."""
    text = text.strip()
    try:
        return pyast.literal_eval(text)
    except (SyntaxError, ValueError, TypeError):
        pass
    from ..runtime.dtype import DType
    dtype = re.match(r"repro\.(\w+)$", text)
    if dtype and dtype.group(1) in DType._registry:
        return DType._registry[dtype.group(1)]
    if text in ("inf", "-inf", "nan"):
        return float(text)
    raise IRParseError(f"unsupported attribute payload: {text!r}")


def _parse_attrs(op: str, text: str) -> Dict[str, object]:
    if op == "prim::Constant":
        # the payload is one literal, top-level commas and all
        if not text.startswith("value="):
            raise IRParseError("prim::Constant without [value=...]")
        return {"value": _parse_literal(text[len("value="):])}
    attrs = {}
    for item in _split_commas(text):
        key, eq, literal = item.partition("=")
        if not eq or not key.strip().isidentifier():
            raise IRParseError(f"bad node attribute: {item!r}")
        attrs[key.strip()] = _parse_literal(literal)
    return attrs


def _split_commas(text: str) -> List[str]:
    """Split on top-level commas (respects [] and () nesting)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    tail = text[start:].strip()
    if tail:
        parts.append(tail)
    return [p.strip() for p in parts]


def _value_names(text: str) -> List[str]:
    names = []
    for part in _split_commas(text):
        if not part.startswith("%"):
            raise IRParseError(f"expected %value, got {part!r}")
        names.append(part[1:])
    return names


def _output_types(node: Node, count: int) -> List[T.Type]:
    """The types of ``node``'s ``count`` outputs, derived from its op,
    attributes, input types and block returns."""
    op = node.op
    if op == "prim::Constant":
        types = [T.type_of_constant(node.attrs["value"])]
    elif op in ("prim::If", "prim::FusionGroup", "prim::Loop"):
        returns = node.blocks[0].returns if node.blocks else []
        types = [v.type for v in (returns[1:] if op == "prim::Loop"
                                  else returns)]
    else:
        schema = node.schema
        templates = schema.result_types[:max(schema.num_outputs, 1)]
        if schema.num_outputs == 0:  # variadic: one template for all
            templates = tuple(templates) * count
        types = T.infer_types(templates, [v.type for v in node.inputs])
    # an output count the op does not define is the verifier's to report
    return (types + [T.AnyType()] * count)[:count]


def _advance_name_counters(graph: Graph, names: Iterable[str]) -> None:
    """Start each fresh-name counter past every parsed ``base.N``."""
    highest: Dict[str, int] = {}
    for name in names:
        base, _, suffix = name.partition(".")
        if suffix.isdecimal():
            highest[base] = max(highest.get(base, -1), int(suffix))
    for base, top in highest.items():
        graph._name_counts[base] = itertools.count(top + 1)


class _Parser:
    def __init__(self, text: str) -> None:
        self.lines = [ln.strip() for ln in text.strip().splitlines()
                      if ln.strip()]
        self.pos = 0
        self.values: Dict[str, Value] = {}

    def peek(self) -> str:
        return self.lines[self.pos] if self.pos < len(self.lines) else ""

    def advance(self) -> str:
        if self.pos >= len(self.lines):
            raise IRParseError("unexpected end of IR text")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def lookup(self, name: str) -> Value:
        try:
            return self.values[name]
        except KeyError:
            raise IRParseError(f"use of undefined value %{name}") from None

    def bind(self, value: Value) -> Value:
        if value.name in self.values:
            raise IRParseError(f"redefinition of %{value.name}")
        self.values[value.name] = value
        return value

    def parse(self) -> Graph:
        header = _HEADER_RE.match(self.advance())
        if not header:
            raise IRParseError("expected `graph name(...):` header")
        graph = Graph(header.group(1))
        self.parse_params(graph.block, header.group(2))
        self.parse_block_body(graph.block, graph, top=True)
        if self.pos != len(self.lines):
            raise IRParseError(f"text after the graph's return: "
                               f"{self.peek()!r}")
        _advance_name_counters(graph, self.values)
        return graph

    def parse_params(self, block, text: str) -> None:
        for param in _split_commas(text):
            name_part, _, type_part = param.partition(":")
            value = Value(name_part.strip().lstrip("%"),
                          _parse_type(type_part), param_block=block)
            block.params.append(self.bind(value))

    def parse_block_body(self, block, graph: Graph, top: bool) -> None:
        end_re = _GRAPH_RETURN_RE if top else _RETURNS_RE
        while self.pos < len(self.lines):
            m = end_re.match(self.peek())
            if m:
                self.advance()
                for name in _value_names(m.group("rets")):
                    block.add_return(self.lookup(name))
                return
            self.parse_node(block, graph)
        raise IRParseError("graph without `return (...)`" if top
                           else "block without `-> (...)` terminator")

    def parse_node(self, block, graph: Graph) -> None:
        line = self.advance()
        m = _NODE_RE.match(line)
        if not m:
            raise IRParseError(f"cannot parse node line: {line!r}")
        op = m.group("op")
        if not registry.has(op):
            raise IRParseError(f"unknown op {op!r}")
        node = Node(op, graph)
        attrs = m.group("attrs")
        if attrs is not None or op == "prim::Constant":
            node.attrs = _parse_attrs(op, attrs or "")
        for name in _value_names(m.group("ins")):
            node.add_input(self.lookup(name))
        block.append(node)

        out_names = _value_names(m.group("outs") or "")
        # nested blocks come before outputs are usable
        while _BLOCK_RE.match(self.peek()):
            bm = _BLOCK_RE.match(self.advance())
            inner = node.add_block()
            self.parse_params(inner, bm.group("params"))
            self.parse_block_body(inner, graph, top=False)
        for name, typ in zip(out_names,
                             _output_types(node, len(out_names))):
            node.outputs.append(self.bind(Value(name, typ, node=node)))


def parse_graph(text: str) -> Graph:
    """Parse printer-format IR text into a Graph."""
    return _Parser(text).parse()

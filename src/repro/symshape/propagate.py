"""Best-effort symbolic shape propagation over the graph IR.

:func:`annotate_symbolic_shapes` pushes a family's symbolic input
shapes (:meth:`~repro.symshape.family.ShapeFamily.input_symshapes`)
forward through the graph and stores the result in a side table
``graph._symshapes`` (``id(value) -> tuple of dims``, each dim a
:class:`~repro.symshape.symbols.SymInt` or a plain int, or None when
that dim is unknown).  The table is deliberately *not* written into
``Value.type``: IR types round-trip through the printer/parser, and
symbolic dims would not survive the trip.

The rules are conservative — anything not understood simply stays
unannotated.  That is sound because the only consumer that prices
bytes, the memory planner's best-fit hint
(:func:`repro.memplan.planner._static_nbytes`), treats a missing or
partial shape as "size unknown" and the runtime pool re-fits by actual
bytes; symbolic hints can only improve slot packing, never correctness.

Scalar integer values are propagated through the same table (as
0-d "shapes" are not: scalars live in their own map) so that
``aten::size``/``prim::ListConstruct``/``aten::zeros`` chains produce
symbolic allocation shapes — the main source of intermediate-buffer
extents in the TensorSSA pipelines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.graph import Block, Graph, Node, Value
from ..ops import registry
from ..runtime.dtype import itemsize_of
from .symbols import DimLike, SymInt

__all__ = ["annotate_symbolic_shapes", "symbolic_shape_of",
           "symbolic_nbytes"]

#: a propagated shape: per-dim SymInt | int | None (unknown dim)
SymShape = Tuple[Optional[DimLike], ...]

#: output shape == (common) input shape; scalars ride along free: every
#: row the registry marks ``elementwise``, plus the few ops that keep
#: their input's shape without being row-independent compute
_SAME_SHAPE_OPS = frozenset(s.name for s in registry.all_ops()
                            if s.elementwise) | {
    "aten::softmax", "aten::to", "aten::alias", "immut::alias"}

#: functional assignment forms: output shape == destination (input 0) —
#: every view's ``assign_op`` link, and the in-place store they revert to
_DEST_SHAPE_OPS = frozenset(s.assign_op for s in registry.all_ops()
                            if s.assign_op) | {"aten::copy_"}


def annotate_symbolic_shapes(graph: Graph,
                             input_shapes: Sequence[Optional[SymShape]]
                             ) -> Dict[int, SymShape]:
    """Propagate symbolic input shapes; returns and caches the table.

    ``input_shapes`` has one entry per graph input: a tuple of dims
    for tensor inputs, None for scalars.  The result is stored as
    ``graph._symshapes`` for the memory planner.
    """
    shapes: Dict[int, SymShape] = {}
    scalars: Dict[int, DimLike] = {}
    for value, shape in zip(graph.inputs, input_shapes):
        if shape is not None:
            shapes[id(value)] = tuple(shape)
    _walk_block(graph.block, shapes, scalars)
    graph._symshapes = shapes
    return shapes


def symbolic_shape_of(graph: Graph, value: Value) -> Optional[SymShape]:
    """The propagated shape of one value, if any was recorded."""
    table = getattr(graph, "_symshapes", None)
    if table is None:
        return None
    return table.get(id(value))


def symbolic_nbytes(shape: Optional[SymShape], dtype: Optional[str],
                    env: Dict[str, int]) -> Optional[int]:
    """Concrete byte size of a propagated shape under a symbol binding
    (e.g. a family's max-extent bounds); None when any dim is unknown
    or a symbol is unbound."""
    if shape is None:
        return None
    numel = 1
    for dim in shape:
        if dim is None:
            return None
        if isinstance(dim, SymInt):
            try:
                dim = dim.evaluate(env)
            except (KeyError, ZeroDivisionError):
                return None
        numel *= int(dim)
    return numel * itemsize_of(dtype)


# -- propagation engine -------------------------------------------------


def _walk_block(block: Block, shapes: Dict[int, SymShape],
                scalars: Dict[int, DimLike]) -> None:
    for node in block.nodes:
        _infer_node(node, shapes, scalars)


def _infer_node(node: Node, shapes: Dict[int, SymShape],
                scalars: Dict[int, DimLike]) -> None:
    op = node.op
    if op == "prim::Constant":
        _infer_constant(node, shapes, scalars)
        return
    if op in ("prim::Loop", "prim::If", "prim::FusionGroup",
              "prim::ParallelMap"):
        _infer_control(node, shapes, scalars)
        return
    outs = node.outputs
    if not outs:
        return
    rule = _RULES.get(op)
    if rule is not None:
        rule(node, shapes, scalars)
        return
    if op in _DEST_SHAPE_OPS and node.inputs:
        dest = shapes.get(id(node.input(0)))
        if dest is not None:
            shapes[id(outs[0])] = dest
        return
    if op in _SAME_SHAPE_OPS:
        known = [shapes[id(v)] for v in node.inputs
                 if id(v) in shapes]
        if known and all(k == known[0] for k in known):
            shapes[id(outs[0])] = known[0]


def _infer_constant(node: Node, shapes, scalars) -> None:
    value = node.attrs.get("value")
    out = node.output()
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        scalars[id(out)] = value
    elif hasattr(value, "shape"):
        shapes[id(out)] = tuple(int(d) for d in value.shape)


def _const_or_scalar(value: Value, scalars) -> Optional[DimLike]:
    """An input's integer value: a tracked scalar, or a Constant."""
    got = scalars.get(id(value))
    if got is not None:
        return got
    node = value.node
    if node is not None and node.op == "prim::Constant":
        payload = node.attrs.get("value")
        if isinstance(payload, int) and not isinstance(payload, bool):
            return payload
    return None


def _as_int(dim: Optional[DimLike]) -> Optional[int]:
    if isinstance(dim, SymInt):
        return dim.value if dim.is_const else None
    return dim


def _infer_control(node: Node, shapes, scalars) -> None:
    op = node.op
    if op == "prim::Loop":
        # inputs (max_trip, init_cond, *carried);
        # params (i, *carried); returns (next_cond, *carried)
        body = node.block()
        carried = list(node.inputs[2:])
        for param, init in zip(body.params[1:], carried):
            shape = shapes.get(id(init))
            if shape is not None:
                shapes[id(param)] = shape
        _walk_block(body, shapes, scalars)
        for i, out in enumerate(node.outputs):
            init_shape = shapes.get(id(carried[i])) \
                if i < len(carried) else None
            ret = body.returns[i + 1] if i + 1 < len(body.returns) \
                else None
            ret_shape = shapes.get(id(ret)) if ret is not None else None
            # only trust a loop-stable shape: the body must hand back
            # the same shape it received (or one we could not track)
            if init_shape is not None and ret_shape == init_shape:
                shapes[id(out)] = init_shape
        return
    if op == "prim::If":
        for blk in node.blocks:
            _walk_block(blk, shapes, scalars)
        for i, out in enumerate(node.outputs):
            branch = [shapes.get(id(blk.returns[i]))
                      for blk in node.blocks
                      if i < len(blk.returns)]
            if branch and all(b is not None and b == branch[0]
                              for b in branch):
                shapes[id(out)] = branch[0]
        return
    # FusionGroup: params mirror inputs; ParallelMap adds a leading
    # trip-count input and a leading index param
    body = node.block()
    offset = 1 if op == "prim::ParallelMap" else 0
    for param, arg in zip(body.params[offset:], node.inputs[offset:]):
        shape = shapes.get(id(arg))
        if shape is not None:
            shapes[id(param)] = shape
    _walk_block(body, shapes, scalars)
    for out, ret in zip(node.outputs, body.returns):
        shape = shapes.get(id(ret))
        if shape is not None:
            shapes[id(out)] = shape


# -- per-op rules -------------------------------------------------------


def _rule_size(node, shapes, scalars) -> None:
    shape = shapes.get(id(node.input(0)))
    if shape is None:
        return
    if len(node.inputs) > 1:
        dim = _as_int(_const_or_scalar(node.input(1), scalars))
        if dim is None:
            return
        if -len(shape) <= dim < len(shape):
            got = shape[dim]
            if got is not None:
                scalars[id(node.output())] = got


def _rule_list_construct(node, shapes, scalars) -> None:
    dims: List[Optional[DimLike]] = [
        _const_or_scalar(v, scalars) for v in node.inputs]
    if all(d is not None for d in dims):
        # a list of ints is itself a candidate allocation shape
        shapes[id(node.output())] = tuple(dims)


def _rule_alloc(node, shapes, scalars) -> None:
    # aten::zeros/ones/empty(shape_list): the list input carries the
    # shape we propagated through ListConstruct
    if not node.inputs:
        return
    shape = shapes.get(id(node.input(0)))
    if shape is not None:
        shapes[id(node.output())] = shape


def _rule_matmul(node, shapes, scalars) -> None:
    a = shapes.get(id(node.input(0)))
    b = shapes.get(id(node.input(1)))
    if a is None or b is None or len(a) < 2 or len(b) < 2:
        return
    if len(a) == len(b) and a[:-2] != b[:-2]:
        return  # batch dims must agree for this simple rule
    shapes[id(node.output())] = a[:-1] + (b[-1],)


def _rule_linear(node, shapes, scalars) -> None:
    # aten::linear(x, w, b): (..., in) x (out, in) -> (..., out)
    x = shapes.get(id(node.input(0)))
    w = shapes.get(id(node.input(1)))
    if x is None or w is None or len(w) != 2 or not x:
        return
    shapes[id(node.output())] = x[:-1] + (w[0],)


def _rule_transpose(node, shapes, scalars) -> None:
    shape = shapes.get(id(node.input(0)))
    d0 = _as_int(_const_or_scalar(node.input(1), scalars)) \
        if len(node.inputs) > 1 else None
    d1 = _as_int(_const_or_scalar(node.input(2), scalars)) \
        if len(node.inputs) > 2 else None
    if shape is None or d0 is None or d1 is None:
        return
    dims = list(shape)
    if not (-len(dims) <= d0 < len(dims) and -len(dims) <= d1 < len(dims)):
        return
    dims[d0], dims[d1] = dims[d1], dims[d0]
    shapes[id(node.output())] = tuple(dims)


def _rule_select(node, shapes, scalars) -> None:
    shape = shapes.get(id(node.input(0)))
    dim = _as_int(_const_or_scalar(node.input(1), scalars)) \
        if len(node.inputs) > 1 else None
    if shape is None or dim is None:
        return
    if not -len(shape) <= dim < len(shape):
        return
    dim = dim % len(shape)
    shapes[id(node.output())] = shape[:dim] + shape[dim + 1:]


def _rule_slice(node, shapes, scalars) -> None:
    # aten::slice(t, dim, start, end, step): only the fully-constant
    # in-bounds case is priced; anything else leaves that dim unknown
    shape = shapes.get(id(node.input(0)))
    if shape is None:
        return
    args = [_as_int(_const_or_scalar(node.input(i), scalars))
            if i < len(node.inputs) else None for i in range(1, 5)]
    dim, start, end, step = args
    if dim is None or not -len(shape) <= dim < len(shape):
        return
    dim = dim % len(shape)
    dims = list(shape)
    start = 0 if start is None else start
    step = 1 if step is None else step
    extent = _as_int(dims[dim]) if not isinstance(dims[dim], SymInt) \
        else (dims[dim].value if dims[dim].is_const else None)
    if (end is not None and start >= 0 and step > 0 and end >= start
            and (extent is None or end <= extent)):
        dims[dim] = max(0, (end - start + step - 1) // step)
    else:
        dims[dim] = None
    shapes[id(node.output())] = tuple(dims)


def _rule_unsqueeze(node, shapes, scalars) -> None:
    shape = shapes.get(id(node.input(0)))
    dim = _as_int(_const_or_scalar(node.input(1), scalars)) \
        if len(node.inputs) > 1 else None
    if shape is None or dim is None:
        return
    if not -len(shape) - 1 <= dim <= len(shape):
        return
    dim = dim % (len(shape) + 1)
    shapes[id(node.output())] = shape[:dim] + (1,) + shape[dim:]


def _rule_scalar_arith(node, shapes, scalars) -> None:
    # prim::add/sub/mul on tracked ints -> SymInt arithmetic
    a = _const_or_scalar(node.input(0), scalars)
    b = _const_or_scalar(node.input(1), scalars) \
        if len(node.inputs) > 1 else None
    if a is None or b is None:
        return
    sa = a if isinstance(a, SymInt) else SymInt.const(a)
    result = {"prim::add": sa.__add__, "prim::sub": sa.__sub__,
              "prim::mul": sa.__mul__}.get(node.op)
    if result is not None:
        scalars[id(node.output())] = result(b)


_RULES = {
    "aten::size": _rule_size,
    "prim::ListConstruct": _rule_list_construct,
    "aten::zeros": _rule_alloc,
    "aten::ones": _rule_alloc,
    "aten::empty": _rule_alloc,
    "aten::matmul": _rule_matmul,
    "aten::linear": _rule_linear,
    "aten::transpose": _rule_transpose,
    "immut::transpose": _rule_transpose,
    "aten::select": _rule_select,
    "immut::select": _rule_select,
    "aten::slice": _rule_slice,
    "immut::slice": _rule_slice,
    "aten::unsqueeze": _rule_unsqueeze,
    "prim::add": _rule_scalar_arith,
    "prim::sub": _rule_scalar_arith,
    "prim::mul": _rule_scalar_arith,
}

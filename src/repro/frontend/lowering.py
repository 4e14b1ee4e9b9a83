"""Python AST -> graph-level IR lowering (the "scripting" frontend).

Supported subset (documented in README):

* positional tensor/scalar/list arguments with annotations
* assignments, tuple unpacking, augmented assignment
* subscript loads (views) and subscript stores (mutations!)
* tensor method calls and ``repro.runtime`` free-function calls
* ``for i in range(...)``, ``while``, ``if``/``else``
* inlining of plain Python helper functions
* a single ``return`` as the final statement

Whole-variable rebinding is resolved to SSA here (the paper notes this
is the classic scalar-SSA part); *partial* mutation through views is
deliberately left in the IR as ``aten::copy_`` / ``aten::add_`` / ...
nodes on view chains — removing it is TensorSSA's job.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
import types as pytypes
from typing import Dict, List, Optional, Sequence, Union

from ..ir import types as T
from ..ir.graph import Block, Graph, Node, Value
from ..ops import registry
from ..runtime.kernels import SUGAR
from .errors import ScriptError, unsupported

MAX_WHILE_TRIP = 2 ** 31 - 1
_MAX_INLINE_DEPTH = 8

# Reverse map: runtime function object -> op name (the registry holds the
# very same function objects, so identity lookup is exact).
_OP_BY_FN = {}
for _schema in registry.all_ops():
    if _schema.fn is not None:
        _OP_BY_FN.setdefault(id(_schema.fn), _schema.name)


def assigned_names(stmts: Sequence[ast.stmt]) -> set:
    """Names (re)bound anywhere in ``stmts`` (excludes subscript stores,
    which are mutations, not bindings)."""
    names = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                raise ScriptError("nested function definitions are not "
                                  "scriptable", node)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


def _annotation_to_type(annotation: Optional[ast.expr]) -> T.Type:
    if annotation is None:
        return T.TensorType()
    if isinstance(annotation, ast.Name):
        return {
            "Tensor": T.TensorType(), "int": T.IntType(),
            "float": T.FloatType(), "bool": T.BoolType(),
            "list": T.ListType(),
        }.get(annotation.id, T.TensorType())
    if isinstance(annotation, ast.Subscript) and \
            isinstance(annotation.value, ast.Name) and \
            annotation.value.id == "List":
        return T.ListType(_annotation_to_type(annotation.slice))
    if isinstance(annotation, ast.Attribute):
        return _annotation_to_type(ast.Name(id=annotation.attr,
                                            ctx=ast.Load()))
    return T.TensorType()


class Lowerer:
    """Lowers one Python function into a Graph."""

    def __init__(self, fn, name: Optional[str] = None) -> None:
        self.fn = fn
        self.graph = Graph(name or fn.__name__)
        self.block: Block = self.graph.block
        self.env: Dict[str, Value] = {}
        self.source_name = getattr(fn, "__name__", "<scripted>")
        self._context_stack: List[Dict[str, object]] = []
        self._const_cache: Dict[tuple, Value] = {}
        self._inline_depth = 0
        self._push_fn_context(fn)

    # -- context (globals/closure of the function being lowered) ---------

    def _push_fn_context(self, fn) -> None:
        scope: Dict[str, object] = dict(fn.__globals__)
        if fn.__closure__:
            scope.update(zip(fn.__code__.co_freevars,
                             (c.cell_contents for c in fn.__closure__)))
        self._context_stack.append(scope)

    def _pop_fn_context(self) -> None:
        self._context_stack.pop()

    def _lookup_static(self, name: str):
        scope = self._context_stack[-1]
        if name in scope:
            return True, scope[name]
        if hasattr(builtins, name):
            return True, getattr(builtins, name)
        return False, None

    def _resolve_static(self, expr: ast.expr):
        """Resolve an expression to a Python object without emitting IR
        (modules, module functions, dtypes, numeric globals)."""
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return False, None  # shadowed by a scripted local
            return self._lookup_static(expr.id)
        if isinstance(expr, ast.Attribute):
            found, base = self._resolve_static(expr.value)
            if found and hasattr(base, expr.attr):
                return True, getattr(base, expr.attr)
        return False, None

    # -- IR emission helpers ----------------------------------------------

    def emit(self, op: str, inputs: Sequence[Value],
             out_types: Sequence[T.Type] = (),
             out_name: str = "v") -> Node:
        node = self.graph.create(op, inputs)
        for typ in out_types:
            node.add_output(out_name, typ)
        self.block.append(node)
        return node

    def const(self, value, name: str = "c") -> Value:
        from ..runtime.tensor import Tensor
        if not isinstance(value, Tensor):
            try:
                key = (id(self.block), type(value).__name__, value)
                cached = self._const_cache.get(key)
                if cached is not None:
                    return cached
            except TypeError:
                key = None
        else:
            key = None
        node = self.graph.constant(value, name)
        self.block.append(node)
        if key is not None:
            self._const_cache[key] = node.output()
        return node.output()

    def as_value(self, x) -> Value:
        return x if isinstance(x, Value) else self.const(x)

    def emit_op(self, op: str, operands: Sequence[Value],
                out_name: str = "v"):
        """Emit op; returns its single output Value, or a list for
        multi-output ops."""
        schema = registry.get(op)
        types_ = T.infer_types(
            schema.result_types[:max(schema.num_outputs, 1)],
            [v.type for v in operands])
        node = self.emit(op, operands, types_, out_name)
        if schema.num_outputs == 1:
            return node.output()
        return list(node.outputs)

    def bind_call(self, op: str, args: list, kwargs: dict,
                  out_name: str = "v"):
        """Bind python-style args/kwargs against the runtime kernel's
        signature, producing the flat positional operand list."""
        schema = registry.get(op)
        if schema.fn is None:
            raise ScriptError(f"{op} is not directly callable")
        sig = inspect.signature(schema.fn)
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError as exc:
            raise ScriptError(f"bad arguments for {op}: {exc}") from None
        bound.apply_defaults()
        operands: List[Value] = []
        for name, param in sig.parameters.items():
            arg = bound.arguments[name]
            if param.kind is inspect.Parameter.VAR_POSITIONAL:
                operands.extend(self.as_value(a) for a in arg)
            elif param.kind is inspect.Parameter.VAR_KEYWORD:
                raise ScriptError(f"{op} has **kwargs; not scriptable")
            else:
                operands.append(self.as_value(arg))
        return self.emit_op(op, operands, out_name)

    # -- entry point ------------------------------------------------------

    def run(self) -> Graph:
        source = textwrap.dedent(inspect.getsource(self.fn))
        tree = ast.parse(source)
        fndef = tree.body[0]
        if not isinstance(fndef, ast.FunctionDef):
            raise ScriptError("script() expects a plain function")
        for arg in fndef.args.args:
            self.env[arg.arg] = self.graph.add_input(
                arg.arg, _annotation_to_type(arg.annotation))
        if fndef.args.vararg or fndef.args.kwarg or fndef.args.kwonlyargs:
            raise ScriptError("*args/**kwargs are not scriptable")
        returned = self.lower_body(fndef.body, allow_return=True)
        if returned is not None:
            for v in returned:
                self.graph.add_output(v)
        return self.graph

    # -- statements -------------------------------------------------------

    def lower_body(self, stmts: Sequence[ast.stmt],
                   allow_return: bool = False) -> Optional[List[Value]]:
        """Lower statements; a Return may appear only as the final
        statement of a function body (never inside control flow).
        Returns the returned values (or None)."""
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Return):
                if not allow_return or i != len(stmts) - 1:
                    raise ScriptError("return must be the final statement "
                                      "of the function", stmt,
                                      self.source_name)
                return self.lower_return(stmt)
            self.lower_stmt(stmt)
        return None

    def lower_return(self, stmt: ast.Return) -> List[Value]:
        if stmt.value is None:
            return []
        if isinstance(stmt.value, ast.Tuple):
            return [self.lower_expr(e) for e in stmt.value.elts]
        result = self.lower_expr(stmt.value, multi_ok=True)
        return result if isinstance(result, list) else [result]

    def lower_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.lower_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                raise ScriptError("annotation without value", stmt)
            self.bind_target(stmt.target, self.lower_expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.lower_aug_assign(stmt)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.Expr):
            self.lower_expr(stmt.value, multi_ok=True)
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Return):
            raise ScriptError("early return (inside control flow) is not "
                              "scriptable", stmt, self.source_name)
        else:
            raise unsupported(type(stmt).__name__, stmt, self.source_name)

    # -- assignment ------------------------------------------------------

    def lower_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            raise ScriptError("chained assignment is not scriptable", stmt)
        target = stmt.targets[0]
        if isinstance(target, ast.Tuple):
            values = self.lower_expr(stmt.value, multi_ok=True)
            values = self._as_value_list(values, len(target.elts))
            for t, v in zip(target.elts, values):
                self.bind_target(t, v)
        else:
            self.bind_target(target, self.lower_expr(stmt.value))

    def _as_value_list(self, values, n: int) -> List[Value]:
        if isinstance(values, list):
            if len(values) != n:
                raise ScriptError(f"cannot unpack {len(values)} values "
                                  f"into {n} targets")
            return values
        value = values
        if value.node is not None and \
                value.node.op == "prim::TupleConstruct":
            return list(value.node.inputs)
        node = self.graph.create("prim::TupleUnpack", [value])
        for _ in range(n):
            node.add_output("u", T.AnyType())
        self.block.append(node)
        return list(node.outputs)

    def bind_target(self, target: ast.expr, value: Value) -> None:
        if isinstance(target, ast.Name):
            renamed = self.graph.fresh_name(target.id)
            _ = renamed  # naming handled at creation; env rebinding is SSA
            self.env[target.id] = value
        elif isinstance(target, ast.Subscript):
            self.lower_subscript_store(target, value)
        else:
            raise unsupported(f"assignment target {type(target).__name__}",
                              target, self.source_name)

    def lower_aug_assign(self, stmt: ast.AugAssign) -> None:
        """``x op= v`` as Python runs it: ``x = x.__iop__(v)`` — the
        operator's in-place op on a tensor when it has one, else
        ``x op v`` — then, for a subscript target, ``x[k] = result``."""
        rhs = self.lower_expr(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Name):
            cur = self.lookup(target.id, stmt)
        elif isinstance(target, ast.Subscript):
            cur = self.lower_expr(target)  # a view chain or a gathered copy
            if not cur.type.is_tensor:
                raise ScriptError("list item assignment is not scriptable",
                                  target, self.source_name)
        else:
            raise unsupported("augmented assignment target", stmt,
                              self.source_name)
        sugar = SUGAR.get(type(stmt.op))
        inplace = sugar.inplace if sugar and cur.type.is_tensor else None
        out = self.emit_op(
            inplace or self._operator(stmt.op, [cur, rhs], stmt), [cur, rhs],
            out_name=target.id if isinstance(target, ast.Name) else "v")
        if isinstance(target, ast.Name):
            self.env[target.id] = out
            return
        # ``x[k] = result``: a tensor key gathered a copy, scattered back
        # here; an in-place op has already written through a view
        load = cur.node
        if load.op == "aten::masked_select":
            self.emit_op("aten::masked_scatter_", [*load.inputs, out])
        elif load.op == "aten::index_select":
            self.emit_op("aten::index_put_", [load.inputs[0], load.inputs[2],
                                              out])
        elif inplace is None:
            self._emit_store(cur, out)

    # -- subscripts ------------------------------------------------------

    def _key_elements(self, key: ast.expr) -> List[ast.expr]:
        if isinstance(key, ast.Tuple):
            return list(key.elts)
        return [key]

    def lower_view_chain(self, obj: Value, key: ast.expr) -> Value:
        """Apply a subscript key as a chain of view ops."""
        cur = obj
        dim = 0
        for part in self._key_elements(key):
            if isinstance(part, ast.Slice):
                start = (self.lower_expr(part.lower)
                         if part.lower is not None else self.const(0))
                end = (self.lower_expr(part.upper)
                       if part.upper is not None else self.const(None))
                step = (self.lower_expr(part.step)
                        if part.step is not None else self.const(1))
                cur = self.emit_op("aten::slice",
                                   [cur, self.const(dim), start, end, step])
                dim += 1
            elif isinstance(part, ast.Constant) and part.value is None:
                cur = self.emit_op("aten::unsqueeze",
                                   [cur, self.const(dim)])
                dim += 1
            else:
                idx = self.lower_expr(part)
                if idx.type.is_tensor:
                    raise ScriptError("tensor subscripts are only allowed "
                                      "as the sole key", part,
                                      self.source_name)
                cur = self.emit_op("aten::select",
                                   [cur, self.const(dim), idx])
        return cur

    def lower_subscript_load(self, expr: ast.Subscript) -> Value:
        # `t.shape[i]` sugar
        if isinstance(expr.value, ast.Attribute) and \
                expr.value.attr == "shape":
            obj = self.lower_expr(expr.value.value)
            return self.emit_op("aten::size",
                                [obj, self.lower_expr(expr.slice)])
        obj = self.lower_expr(expr.value)
        if isinstance(obj.type, (T.ListType, T.TupleType)):
            idx = self.lower_expr(expr.slice)
            node = self.emit("prim::ListIndex", [obj, idx],
                             [obj.type.elem if isinstance(obj.type,
                                                          T.ListType)
                              else T.AnyType()])
            return node.output()
        # single tensor key?
        parts = self._key_elements(expr.slice)
        if len(parts) == 1 and not isinstance(parts[0], (ast.Slice,)):
            maybe = parts[0]
            if not isinstance(maybe, ast.Constant):
                v = self.lower_expr(maybe)
                if v.type.is_tensor:
                    return self.emit_op("aten::masked_select", [obj, v]) \
                        if self._is_bool_tensor(v) else \
                        self.emit_op("aten::index_select",
                                     [obj, self.const(0), v])
                return self.emit_op("aten::select",
                                    [obj, self.const(0), v])
        return self.lower_view_chain(obj, expr.slice)

    @staticmethod
    def _is_bool_tensor(v: Value) -> bool:
        return isinstance(v.type, T.TensorType) and v.type.dtype == "bool"

    def lower_subscript_store(self, target: ast.Subscript,
                              value: Value) -> None:
        obj = self.lower_expr(target.value)
        if isinstance(obj.type, (T.ListType, T.TupleType)):
            raise ScriptError("list item assignment is not scriptable",
                              target, self.source_name)
        parts = self._key_elements(target.slice)
        if len(parts) == 1 and not isinstance(parts[0], ast.Slice) and \
                not isinstance(parts[0], ast.Constant):
            key = self.lower_expr(parts[0])
            if key.type.is_tensor:
                if self._is_bool_tensor(key):
                    if value.type.is_tensor:
                        self.emit_op("aten::masked_scatter_",
                                     [obj, key, value])
                    else:
                        self.emit_op("aten::masked_fill_",
                                     [obj, key, value])
                else:
                    self.emit_op("aten::index_put_", [obj, key, value])
                return
            view = self.emit_op("aten::select", [obj, self.const(0), key])
            self._emit_store(view, value)
            return
        view = self.lower_view_chain(obj, target.slice)
        self._emit_store(view, value)

    def _emit_store(self, view: Value, value: Value) -> None:
        if value.type.is_tensor:
            self.emit_op("aten::copy_", [view, value])
        else:
            self.emit_op("aten::fill_", [view, value])

    # -- control flow ------------------------------------------------------

    def _to_bool(self, v: Value, where: ast.AST) -> Value:
        if isinstance(v.type, T.BoolType):
            return v
        if v.type.is_tensor:
            return self.emit_op("aten::Bool", [v])
        if v.type.is_scalar:
            return self.emit_op("prim::ne", [v, self.const(0)])
        raise ScriptError("condition must be bool/scalar/0-d tensor",
                          where, self.source_name)

    def lower_if(self, stmt: ast.If) -> None:
        cond = self._to_bool(self.lower_expr(stmt.test), stmt)
        then_assigned = assigned_names(stmt.body)
        else_assigned = assigned_names(stmt.orelse)
        candidates = sorted(then_assigned | else_assigned)
        carried = [n for n in candidates
                   if n in self.env or (n in then_assigned
                                        and n in else_assigned)]
        dropped = [n for n in candidates if n not in carried]

        node = self.graph.create("prim::If", [cond])
        self.block.append(node)
        branch_envs = []
        for body in (stmt.body, stmt.orelse):
            block = node.add_block()
            saved_env, saved_block = self.env, self.block
            self.env, self.block = dict(saved_env), block
            self.lower_body(body)
            branch_envs.append(self.env)
            self.env, self.block = saved_env, saved_block

        for name in carried:
            then_v = branch_envs[0].get(name) or self.env[name]
            else_v = branch_envs[1].get(name) or self.env[name]
            node.blocks[0].add_return(then_v)
            node.blocks[1].add_return(else_v)
            out = node.add_output(name, then_v.type)
            self.env[name] = out
        for name in dropped:
            self.env.pop(name, None)

    def lower_for(self, stmt: ast.For) -> None:
        if stmt.orelse:
            raise ScriptError("for/else is not scriptable", stmt)
        if not (isinstance(stmt.iter, ast.Call)
                and isinstance(stmt.iter.func, ast.Name)
                and stmt.iter.func.id == "range"):
            raise ScriptError("only `for i in range(...)` loops are "
                              "scriptable", stmt, self.source_name)
        if not isinstance(stmt.target, ast.Name):
            raise ScriptError("loop target must be a name", stmt)
        range_args = [self.lower_expr(a) for a in stmt.iter.args]
        start: Optional[Value] = None
        if len(range_args) == 1:
            trip = range_args[0]
        elif len(range_args) == 2:
            start = range_args[0]
            trip = self.emit_op("prim::sub", [range_args[1], range_args[0]],
                                out_name="trip")
        else:
            raise ScriptError("range() with step is not scriptable", stmt)
        self._lower_loop(trip_count=trip, cond_expr=None,
                         induction_name=stmt.target.id,
                         induction_offset=start, body=stmt.body)

    def lower_while(self, stmt: ast.While) -> None:
        if stmt.orelse:
            raise ScriptError("while/else is not scriptable", stmt)
        self._lower_loop(trip_count=self.const(MAX_WHILE_TRIP),
                         cond_expr=stmt.test, induction_name=None,
                         induction_offset=None, body=stmt.body)

    def _lower_loop(self, trip_count: Value, cond_expr: Optional[ast.expr],
                    induction_name: Optional[str],
                    induction_offset: Optional[Value],
                    body: Sequence[ast.stmt]) -> None:
        carried = sorted(assigned_names(body) & set(self.env))
        if induction_name in carried:
            carried.remove(induction_name)

        if cond_expr is not None:
            init_cond = self._to_bool(self.lower_expr(cond_expr), cond_expr)
        else:
            init_cond = self.const(True)

        node = self.graph.create(
            "prim::Loop",
            [trip_count, init_cond] + [self.env[n] for n in carried])
        self.block.append(node)
        block = node.add_block()
        iter_param = block.add_param("i", T.IntType())

        saved_env, saved_block = self.env, self.block
        self.env, self.block = dict(saved_env), block
        for name in carried:
            self.env[name] = block.add_param(name, saved_env[name].type)
        if induction_name is not None:
            if induction_offset is not None:
                self.env[induction_name] = self.emit_op(
                    "prim::add", [iter_param, induction_offset],
                    out_name=induction_name)
            else:
                self.env[induction_name] = iter_param
        self.lower_body(body)
        if cond_expr is not None:
            next_cond = self._to_bool(self.lower_expr(cond_expr), cond_expr)
        else:
            next_cond = init_cond
        block.add_return(next_cond)
        body_env = self.env
        self.env, self.block = saved_env, saved_block

        for name in carried:
            block.add_return(body_env[name])
            out = node.add_output(name, self.env[name].type)
            self.env[name] = out

    # -- expressions -------------------------------------------------------

    def lookup(self, name: str, where: ast.AST) -> Value:
        if name in self.env:
            return self.env[name]
        found, value = self._lookup_static(name)
        if found and isinstance(value, (int, float, bool)):
            return self.const(value, name)
        from ..runtime.tensor import Tensor
        if found and isinstance(value, Tensor):
            return self.const(value, name)
        raise ScriptError(f"name {name!r} is not defined in scripted scope",
                          where, self.source_name)

    def lower_expr(self, expr: ast.expr, multi_ok: bool = False):
        result = self._lower_expr_inner(expr, multi_ok)
        if isinstance(result, list) and not multi_ok:
            node = self.emit("prim::TupleConstruct", result,
                             [T.TupleType([v.type for v in result])])
            return node.output()
        return result

    def _lower_expr_inner(self, expr: ast.expr, multi_ok: bool):
        if isinstance(expr, ast.Constant):
            return self.const(expr.value)
        if isinstance(expr, ast.Name):
            return self.lookup(expr.id, expr)
        if isinstance(expr, ast.BinOp):
            return self.lower_binop(expr)
        if isinstance(expr, ast.UnaryOp):
            return self.lower_unaryop(expr)
        if isinstance(expr, ast.BoolOp):
            op = "prim::and" if isinstance(expr.op, ast.And) else "prim::or"
            values = [self._to_bool(self.lower_expr(v), expr)
                      for v in expr.values]
            acc = values[0]
            for v in values[1:]:
                acc = self.emit_op(op, [acc, v])
            return acc
        if isinstance(expr, ast.Compare):
            return self.lower_compare(expr)
        if isinstance(expr, ast.Call):
            return self.lower_call(expr, multi_ok)
        if isinstance(expr, ast.Subscript):
            return self.lower_subscript_load(expr)
        if isinstance(expr, ast.List):
            elems = [self.lower_expr(e) for e in expr.elts]
            elem_t = elems[0].type if elems else T.AnyType()
            return self.emit("prim::ListConstruct", elems,
                             [T.ListType(elem_t)]).output()
        if isinstance(expr, ast.Tuple):
            elems = [self.lower_expr(e) for e in expr.elts]
            if multi_ok:
                return elems
            return self.emit("prim::TupleConstruct", elems,
                             [T.TupleType([v.type for v in elems])]).output()
        if isinstance(expr, ast.Attribute):
            found, value = self._resolve_static(expr)
            if found:
                from ..runtime.dtype import DType
                if isinstance(value, (int, float, bool, DType)):
                    return self.const(value)
            if expr.attr == "T" or expr.attr == "shape":
                raise unsupported(f".{expr.attr} outside supported sugar",
                                  expr, self.source_name)
            raise unsupported(f"attribute {expr.attr!r}", expr,
                              self.source_name)
        if isinstance(expr, ast.IfExp):
            # Ternary on scalars/tensors -> lower as prim::If
            cond = self._to_bool(self.lower_expr(expr.test), expr)
            node = self.graph.create("prim::If", [cond])
            self.block.append(node)
            results = []
            for sub in (expr.body, expr.orelse):
                block = node.add_block()
                saved = self.block
                self.block = block
                v = self.lower_expr(sub)
                block.add_return(v)
                results.append(v)
                self.block = saved
            out = node.add_output("v", results[0].type)
            return out
        raise unsupported(type(expr).__name__, expr, self.source_name)

    def _operator(self, op: ast.AST, operands: Sequence[Value],
                  where: ast.AST) -> str:
        """The op Python operator ``op`` means on ``operands``
        (:data:`~repro.runtime.kernels.SUGAR`): its tensor op if any
        operand is a tensor, else its ``prim::`` scalar op."""
        on_tensor = any(v.type.is_tensor for v in operands)
        sugar = SUGAR.get(type(op))
        name = sugar and (sugar.tensor if on_tensor else sugar.scalar)
        if name is None:
            raise unsupported(f"{'tensor' if on_tensor else 'scalar'} "
                              f"operator {type(op).__name__}", where,
                              self.source_name)
        return name

    def lower_binop(self, expr: ast.BinOp) -> Value:
        operands = [self.lower_expr(expr.left), self.lower_expr(expr.right)]
        return self.emit_op(self._operator(expr.op, operands, expr),
                            operands)

    def lower_unaryop(self, expr: ast.UnaryOp) -> Value:
        # fold negative numeric literals straight into constants
        if isinstance(expr.op, ast.USub) and \
                isinstance(expr.operand, ast.Constant) and \
                isinstance(expr.operand.value, (int, float)) and \
                not isinstance(expr.operand.value, bool):
            return self.const(-expr.operand.value)
        operand = self.lower_expr(expr.operand)
        if isinstance(expr.op, ast.UAdd):
            return operand
        if isinstance(expr.op, ast.Not):  # a truth test, tensors included
            operand = self._to_bool(operand, expr)
        return self.emit_op(self._operator(expr.op, [operand], expr),
                            [operand])

    def lower_compare(self, expr: ast.Compare) -> Value:
        if len(expr.ops) != 1:
            raise ScriptError("chained comparisons are not scriptable",
                              expr, self.source_name)
        operands = [self.lower_expr(expr.left),
                    self.lower_expr(expr.comparators[0])]
        return self.emit_op(self._operator(expr.ops[0], operands, expr),
                            operands)

    # -- calls -------------------------------------------------------------

    _METHOD_ALIASES = {"slice": "aten::slice"}

    def lower_call(self, expr: ast.Call, multi_ok: bool):
        kwargs = {}
        for kw in expr.keywords:
            if kw.arg is None:
                raise ScriptError("**kwargs in call is not scriptable",
                                  expr, self.source_name)
            kwargs[kw.arg] = self.lower_expr(kw.value)

        # 1) statically resolvable callee (module fn, helper, builtin)
        found, target = self._resolve_static(expr.func)
        if found:
            from ..runtime.tensor import Tensor
            if inspect.ismethod(target) and \
                    isinstance(target.__self__, Tensor):
                # method on a closure/global tensor: embed the tensor as
                # a constant and lower as an ordinary method call
                obj = self.const(target.__self__)
                args = [self.lower_expr(a) for a in expr.args]
                return self.lower_method_call(
                    expr, obj, expr.func.attr, args, kwargs, multi_ok)
            return self.lower_static_call(expr, target, kwargs, multi_ok)

        # 2) method call on a lowered value
        if isinstance(expr.func, ast.Attribute):
            obj = self.lower_expr(expr.func.value)
            args = [self.lower_expr(a) for a in expr.args]
            return self.lower_method_call(expr, obj, expr.func.attr, args,
                                          kwargs, multi_ok)
        raise unsupported("call form", expr, self.source_name)

    def lower_method_call(self, expr: ast.Call, obj: Value, method: str,
                          args: list, kwargs: dict, multi_ok: bool):
        if isinstance(obj.type, T.ListType):
            if method == "append":
                return self.emit_op("aten::append", [obj] + args)
            raise unsupported(f"list method {method}", expr,
                              self.source_name)
        op = self._METHOD_ALIASES.get(method, f"aten::{method}")
        if not registry.has(op):
            raise ScriptError(f"unknown tensor method {method!r}", expr,
                              self.source_name)
        return self.bind_call(op, [obj] + args, kwargs)

    def lower_static_call(self, expr: ast.Call, target, kwargs: dict,
                          multi_ok: bool):
        args = [self.lower_expr(a) for a in expr.args]

        # runtime functions registered as ops (builtins min/max double
        # as prim:: kernels — route them to the builtin handling below,
        # which supports variadic forms and tensor overloads)
        op = _OP_BY_FN.get(id(target))
        if op is not None and target not in (builtins.min, builtins.max,
                                             builtins.len, builtins.abs):
            return self.bind_call(op, args, kwargs)

        # builtins with scripted meanings
        if target is builtins.len:
            (arg,) = args
            if isinstance(arg.type, (T.ListType, T.TupleType)):
                return self.emit_op("aten::len", [arg])
            return self.emit_op("aten::size", [arg, self.const(0)])
        if target is builtins.int:
            return self.emit_op("aten::Int", args)
        if target is builtins.float:
            return self.emit_op("aten::Float", args)
        if target is builtins.bool:
            return self._to_bool(args[0], expr)
        if target in (builtins.min, builtins.max):
            name = "min" if target is builtins.min else "max"
            if len(args) == 1:
                return self.emit_op(f"aten::{name}", args)
            if any(a.type.is_tensor for a in args):
                return self.emit_op(
                    "aten::minimum" if name == "min" else "aten::maximum",
                    args)
            acc = args[0]
            for a in args[1:]:
                acc = self.emit_op(f"prim::{name}", [acc, a])
            return acc
        if target is builtins.abs:
            (arg,) = args
            if arg.type.is_tensor:
                return self.emit_op("aten::abs", [arg])
            zero = self.const(0)
            neg = self.emit_op("prim::neg", [arg])
            lt = self.emit_op("prim::lt", [arg, zero])
            node = self.graph.create("prim::If", [lt])
            self.block.append(node)
            b0, b1 = node.add_block(), node.add_block()
            b0.add_return(neg)
            b1.add_return(arg)
            return node.add_output("abs", arg.type)
        if target is builtins.range:
            raise ScriptError("range() only supported as a for-loop "
                              "iterator", expr, self.source_name)

        # user helper function -> inline
        if isinstance(target, pytypes.FunctionType):
            return self.inline_call(expr, target, args, kwargs)
        from .script import ScriptedFunction
        if isinstance(target, ScriptedFunction):
            return self.inline_call(expr, target.fn, args, kwargs)
        raise ScriptError(f"cannot script call to {target!r}", expr,
                          self.source_name)

    def inline_call(self, expr: ast.Call, pyfn, args: list, kwargs: dict):
        if self._inline_depth >= _MAX_INLINE_DEPTH:
            raise ScriptError("helper inlining too deep (recursion?)",
                              expr, self.source_name)
        try:
            source = textwrap.dedent(inspect.getsource(pyfn))
        except (OSError, TypeError):
            raise ScriptError(f"cannot fetch source of {pyfn!r} for "
                              f"inlining", expr, self.source_name) from None
        fndef = ast.parse(source).body[0]
        if not isinstance(fndef, ast.FunctionDef):
            raise ScriptError("inlined helper must be a plain function",
                              expr, self.source_name)
        sig = inspect.signature(pyfn)
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError as exc:
            raise ScriptError(f"bad arguments for {pyfn.__name__}: {exc}",
                              expr, self.source_name) from None
        bound.apply_defaults()

        saved_env = self.env
        self.env = {name: self.as_value(v)
                    for name, v in bound.arguments.items()}
        self._push_fn_context(pyfn)
        self._inline_depth += 1
        try:
            returned = self.lower_body(fndef.body, allow_return=True)
        finally:
            self._inline_depth -= 1
            self._pop_fn_context()
            self.env = saved_env
        if returned is None:
            return self.const(None)
        if len(returned) == 1:
            return returned[0]
        return returned

"""The operator table: one numpy kernel per compilable operator, and
every way to run it.

:data:`KERNELS` holds one row per operator: its numpy-level kernel
(arrays and Python scalars in, array out — no Tensor wrapping, no launch
recording) and the accounting ``record_op`` needs.  A row is the only
place an operator is declared; every other layer derives from it, so
imperative, functionalized and fused programs agree bit for bit by
construction:

* :data:`EAGER` holds each row's eager form — :func:`view_op` for an
  ``aten::`` row that ``aliases`` its operand 0 (a view), the kernel
  itself for a ``prim::`` host-scalar row, :func:`eager_op` (one launch,
  a fresh tensor) for the rest — plus the in-place ``op_`` form
  (:func:`inplace_op`) of every :data:`INPLACE` entry.
  ``repro.runtime`` binds its functional API and Tensor's methods from
  it, and ``repro.ops.registry`` registers one schema per row from it.
* The fused call: ``backend/codegen.py`` runs ``OpSchema.kernel``, the
  row's own kernel, or a binary row's ``out=`` form (:data:`INTO`) into
  a dying operand.
* :data:`SUGAR` maps Python operator syntax to ops: Tensor's dunders
  and the frontend's operator lowering both read it.
* :data:`BATCH` says how a row runs once for all trips of a loop
  (``passes/parallelize.py``), through the ``batch::`` trip-axis rows.

Adding an operator is one row (plus an :data:`INPLACE` entry for its
``op_`` form, a :data:`SUGAR` entry if Python syntax spells it, and a
VJP in ``repro.grad.vjp`` if it is differentiable).

Scalar promotion: Python scalars reach numpy as Python scalars, so NEP 50
weak promotion — PyTorch's rule — decides (``int32 + 2`` stays int32,
``float64 * 0.1`` uses the double); a float64 result is kept only when an
array operand was float64 (:func:`_f32`: the default float is float32).
Argument checks (dim and index range, slice step, permutation) live here
and nowhere else, so the fused path raises what eager raises.
"""

from __future__ import annotations

import ast
import inspect
import operator
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .tensor import Tensor, record_op, wrap, write_through


def _f32(out, *ins):
    if out.dtype == np.float64 and not any(
            getattr(i, "dtype", None) == np.float64 for i in ins):
        return out.astype(np.float32)
    return out


def _binary(ufunc):
    return lambda a, b: _f32(ufunc(a, b), a, b)


def _unary(ufunc):
    return lambda a: _f32(ufunc(a), a)


def _clamp(a, min_val=None, max_val=None):
    return np.clip(a, -np.inf if min_val is None else min_val,
                   np.inf if max_val is None else max_val)


def _masked_fill(t, mask, value):
    return np.where(np.broadcast_to(mask, np.shape(t)),
                    np.asarray(value, dtype=np.asarray(t).dtype), t)


# -- views: the rules ``[.]`` TensorSSA inverts (paper Definition 3.1) ------

def _norm_dim(dim, ndim: int) -> int:
    """Normalize a possibly-negative dim index."""
    dim = int(dim)
    if not -ndim <= dim < ndim:
        raise IndexError(f"dim {dim} out of range for ndim {ndim}")
    return dim + ndim if dim < 0 else dim


def alias(t):
    """The identity view: a new Tensor aliasing all of ``t``."""
    return t[...]


def select(t, dim, index):
    """``t[..., index, ...]`` at dimension ``dim`` (rank reduces by one)."""
    dim, index = _norm_dim(dim, t.ndim), int(index)
    size = t.shape[dim]
    if not -size <= index < size:
        raise IndexError(f"select index {index} out of range for size {size}")
    if t.ndim == 1:  # an integer subscript would return a numpy scalar
        return t[index % size:index % size + 1].reshape(())
    return t[(slice(None),) * dim + (index,)]


def slice_(t, dim, start=0, end=None, step=1):
    """``t[..., start:end:step, ...]`` at dimension ``dim``."""
    if step <= 0:
        raise ValueError("slice step must be positive")
    return t[(slice(None),) * _norm_dim(dim, t.ndim)
             + (slice(start, end, step),)]


def narrow(t, dim, start, length):
    """A length-``length`` window starting at ``start`` along ``dim``."""
    return slice_(t, dim, int(start), int(start) + int(length))


def reshape(t, shape):
    """Reshape; returns a view when the data layout allows, else a copy
    (PyTorch ``reshape`` semantics)."""
    return np.reshape(t, tuple(shape))


def view(t, shape):
    """Reshape that *must* alias; raises when the layout cannot."""
    if not t.flags["C_CONTIGUOUS"]:
        raise RuntimeError("view() requires a contiguous tensor; "
                           "use reshape()")
    return np.reshape(t, tuple(shape))


def permute(t, dims):
    """Reorder dimensions (aliasing view)."""
    dims = tuple(_norm_dim(d, t.ndim) for d in dims)
    if sorted(dims) != list(range(t.ndim)):
        raise ValueError(f"invalid permutation {dims} for ndim {t.ndim}")
    return np.transpose(t, dims)


def transpose(t, dim0, dim1):
    """Swap two dimensions (aliasing view)."""
    return np.swapaxes(t, _norm_dim(dim0, t.ndim), _norm_dim(dim1, t.ndim))


def squeeze(t, dim=None):
    """Drop size-1 dimension(s) (aliasing view)."""
    if dim is None:
        return t.squeeze()
    dim = _norm_dim(dim, t.ndim)
    return t.squeeze(dim) if t.shape[dim] == 1 else t[...]


def unsqueeze(t, dim):
    """Insert a size-1 dimension at ``dim`` (aliasing view)."""
    return np.expand_dims(t, _norm_dim(dim, t.ndim + 1))


def expand(t, shape):
    """Broadcast size-1 dims to ``shape`` without copying (stride-0 view)."""
    return np.broadcast_to(t, tuple(t.shape[i] if s == -1 else s
                                    for i, s in enumerate(shape)))


def flatten(t, start_dim=0, end_dim=-1):
    """Merge a dim range into one dimension (view when layout allows)."""
    start, end = _norm_dim(start_dim, t.ndim), _norm_dim(end_dim, t.ndim)
    merged = 1
    for s in t.shape[start:end + 1]:
        merged *= s
    return t.reshape(t.shape[:start] + (merged,) + t.shape[end + 1:])


# -- Assign: a new version of ``base`` with one window replaced by ``src`` --

def _assign(view: Callable) -> Callable:
    """The Assign twin of a view kernel (paper Def. 3.4), by definition:
    a copy of ``base`` written through that view of it — so the window,
    and every argument check, are the view's own.  The store casts to
    the base dtype (a Python float is a double until then: one rounding)."""
    def kernel(base, src, *params):
        out = np.array(base, copy=True)
        view(out, *params)[...] = src
        return out
    base, *params = inspect.signature(view).parameters.values()
    kernel.__signature__ = inspect.Signature(
        [base.replace(name="base"), base.replace(name="src"), *params])
    return kernel


def _shape_assign(base, src):
    # the reshape family: only the geometry (and the dtype) changes
    return np.asarray(src).astype(base.dtype, copy=False).reshape(base.shape)


# -- the trip axis: a loop's trips stacked on a new leading axis -------------
# (``passes/parallelize.py`` runs a loop's carried-independent slice once
# over it; entry ``j`` is trip ``j``'s value, bit for bit)

def trip_select(t, dim, start, length):
    """``select(t, dim, start + j)`` for ``j`` in ``range(length)``,
    stacked on a leading trip axis: one view of the whole window.
    Raises the ``IndexError`` of the first trip whose ``select`` would
    fail; zero trips read nothing, so check nothing: an empty stack of
    the entry's shape, or of none when ``dim`` names no dim."""
    length = int(length)
    if length <= 0 and not -t.ndim <= int(dim) < t.ndim:
        return np.empty((0,), t.dtype)
    dim, start, length = _norm_dim(dim, t.ndim), int(start), max(length, 0)
    size = t.shape[dim]
    if length and start + length > size:
        raise IndexError(f"select index {max(start, size)} out of range "
                         f"for size {size}")
    window = t[(slice(None),) * dim + (slice(start, start + length),)]
    return np.moveaxis(window, dim, 0)


def trip_align(t, like, like_stacked):
    """A trip-axis stack ``t`` whose entries broadcast against ``like``
    as they would one trip at a time: size-1 dims go in after the trip
    axis up to ``like``'s per-trip rank (``like_stacked``: ``like`` has
    a trip axis too).  A map row's operands only ever gain dims."""
    pad = np.ndim(like) - bool(like_stacked) - (t.ndim - 1)
    if pad <= 0:
        return t
    return t.reshape(t.shape[:1] + (1,) * pad + t.shape[1:])


def trip_fit(t, window):
    """A trip-axis stack ``t`` to store into ``window`` (a
    :func:`trip_select`): its entries padded as :func:`trip_align` pads
    them, since each trip's store broadcasts its source into its entry.
    Zero trips store nothing, whatever ``t`` is."""
    if not window.shape[0]:
        return np.empty(window.shape, window.dtype)
    return trip_align(t, window, True)


# -- the reverse pass's glue (``grad::``): each may return its operand -------

def unbroadcast(g, template):
    """Reduce a broadcast gradient back to ``template``'s shape and dtype.

    The adjoint of numpy-style broadcasting: extra leading dims are
    summed away and stretched size-1 dims are summed with ``keepdims``,
    then the result is cast to ``template``'s dtype (the adjoint of an
    implicit up-cast is the matching down-cast).  Where nothing was
    broadcast or cast, the result is ``g`` itself."""
    shape = np.shape(template)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if g.shape[axis] != size:
            g = g.sum(axis=axis, keepdims=True)
    g = g.astype(np.asarray(template).dtype, copy=False)
    return g if g.flags.c_contiguous else np.ascontiguousarray(g)


def reshape_like(src, template):
    """``src`` reshaped to ``template``'s shape: the adjoint of every
    reshape-family op (reshape / view / squeeze / unsqueeze / flatten and
    their Assign duals) — the gradient flows back with the original
    geometry restored."""
    return np.reshape(src, np.shape(template))


class Kernel(NamedTuple):
    """One operator's row: its kernel and how a launch of it is charged."""

    kernel: Callable
    #: flops charged per output element
    flops: int = 1
    #: KernelEvent name; "" = the op's own (``add``, ``immut::select``)
    launch: str = ""
    #: are the tensor operands' bytes read (a ``*_like`` template is not)?
    reads: bool = True
    #: the operand whose memory the kernel's result may share (None: the
    #: result is always a new array) — what a compiled kernel must know
    #: before it stores into a buffer (``analysis/ownership.py``)
    aliases: Optional[int] = None


def _rows(prefix: str, fns: dict, **meta) -> Dict[str, Kernel]:
    return {prefix + n: Kernel(f, **meta) for n, f in fns.items()}


#: the correctly-rounded binary rows: written into an operand's buffer
#: (``out=``) they give the bits they give into a fresh one
_INTO_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
                "div": np.true_divide, "maximum": np.maximum,
                "minimum": np.minimum}

_VIEWS = {"alias": alias, "select": select, "slice": slice_,
          "narrow": narrow, "reshape": reshape, "permute": permute,
          "transpose": transpose, "squeeze": squeeze,
          "unsqueeze": unsqueeze, "expand": expand, "flatten": flatten}

KERNELS: Dict[str, Kernel] = {
    # host-side scalar arithmetic (free inside a compiled kernel)
    **_rows("prim::", {
        "add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "truediv": operator.truediv, "floordiv": operator.floordiv,
        "mod": operator.mod, "pow": operator.pow, "neg": operator.neg,
        "gt": operator.gt, "lt": operator.lt, "ge": operator.ge,
        "le": operator.le, "eq": operator.eq, "ne": operator.ne,
        "and": lambda a, b: a and b, "or": lambda a, b: a or b,
        "not": operator.not_, "min": min, "max": max}),
    **_rows("aten::", {n: _binary(u) for n, u in {
        **_INTO_UFUNCS, "pow": np.power, "remainder": np.remainder,
        "gt": np.greater, "lt": np.less, "ge": np.greater_equal,
        "le": np.less_equal, "eq": np.equal, "ne": np.not_equal,
        "logical_and": np.logical_and, "logical_or": np.logical_or,
    }.items()}),
    **{"aten::" + n: Kernel(_unary(u), flops) for n, (u, flops) in {
        "neg": (np.negative, 1), "abs": (np.abs, 1), "exp": (np.exp, 4),
        "log": (np.log, 4), "sqrt": (np.sqrt, 2), "tanh": (np.tanh, 6),
        "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), 6),
        "relu": (lambda x: np.maximum(x, 0), 1), "floor": (np.floor, 1),
        "ceil": (np.ceil, 1), "logical_not": (np.logical_not, 1),
    }.items()},
    "aten::clamp": Kernel(_clamp, flops=2),
    "aten::where": Kernel(
        lambda cond, a, b: _f32(np.where(cond, a, b), a, b)),
    "aten::clone": Kernel(lambda a: _f32(np.array(a, copy=True), a),
                          flops=0),
    "aten::to": Kernel(lambda a, dtype: np.asarray(a).astype(dtype.np),
                       flops=0),
    "aten::masked_fill": Kernel(_masked_fill),
    # shape-propagating fills (functional forms of fill_/zero_): the
    # dtype follows the template exactly, whatever float promotion
    # ``creation.promoting_f32_to`` sets
    "aten::zeros_like": Kernel(
        lambda t: np.zeros(np.shape(t), dtype=np.asarray(t).dtype),
        0, "zeros", False),
    "aten::ones_like": Kernel(
        lambda t: np.ones(np.shape(t), dtype=np.asarray(t).dtype),
        0, "ones", False),
    "aten::full_like": Kernel(
        lambda t, value: np.full(np.shape(t), value,
                                 dtype=np.asarray(t).dtype),
        0, "full", False),
    # views (pure inside a functionalized region) and their Access forms
    **_rows("aten::", {**_VIEWS, "view": view}, aliases=0),
    **_rows("immut::", _VIEWS, flops=0, aliases=0),
    # window Assigns: a fresh copy of the base here, by definition; a
    # compiled kernel that owns the base's buffer runs the same store
    # into it instead (``backend/codegen.py``)
    **_rows("immut::", {
        "assign": _assign(alias), "select_assign": _assign(select),
        "slice_assign": _assign(slice_), "narrow_assign": _assign(narrow),
        "permute_assign": _assign(permute),
        "transpose_assign": _assign(transpose)}, flops=0),
    **_rows("immut::", {
        "reshape_assign": lambda base, src, shape: _shape_assign(base, src),
        "squeeze_assign":
            lambda base, src, dim=None: _shape_assign(base, src),
        "unsqueeze_assign": lambda base, src, dim: _shape_assign(base, src),
        "flatten_assign": lambda base, src, start_dim=0, end_dim=-1:
            _shape_assign(base, src)}, flops=0, aliases=1),
    # the trip axis: a whole window read or written back at once
    "batch::select": Kernel(trip_select, flops=0, aliases=0),
    "batch::select_assign": Kernel(_assign(trip_select), flops=0),
    "batch::align": Kernel(trip_align, flops=0, aliases=0),
    "batch::fit": Kernel(trip_fit, flops=0, aliases=0),
    "grad::unbroadcast": Kernel(unbroadcast, launch="unbroadcast",
                                aliases=0),
    "grad::reshape_like": Kernel(reshape_like, launch="reshape_like",
                                 aliases=0),
}


#: ``op_`` -> the row whose value it writes through its target (operand 0)
INPLACE: Dict[str, str] = {
    **{f"aten::{n}_": f"aten::{n}" for n in (
        "add", "sub", "mul", "div", "pow", "maximum", "minimum", "neg",
        "exp", "sigmoid", "tanh", "relu", "sqrt", "clamp", "masked_fill")},
    "aten::fill_": "aten::full_like", "aten::zero_": "aten::zeros_like"}


class Batch(NamedTuple):
    """How a row runs once for every trip of a loop, on a leading trip
    axis: a ``"map"`` row broadcasts its operands over it, a ``"view"``
    row shifts its dim operands (at ``dims``) past it."""

    kind: str
    dims: Tuple[int, ...] = ()


#: row -> its batching rule: what ``passes/parallelize.py`` may run once
#: for all trips.  Only rows whose every entry is the per-trip bits by
#: construction have one: correctly rounded elementwise math, casts,
#: fills and views.  Transcendentals (numpy may pick another SIMD path
#: for another layout), reductions and matmul (another summation order)
#: have none, and a trip that runs one stays a trip.
BATCH: Dict[str, Batch] = {
    **{"aten::" + n: Batch("map") for n in (
        *_INTO_UFUNCS, "gt", "lt", "ge", "le", "eq", "ne", "logical_and",
        "logical_or", "logical_not", "neg", "abs", "relu", "floor", "ceil",
        "sqrt", "clamp", "where", "clone", "to", "zeros_like", "ones_like",
        "full_like")},
    **{ns + n: Batch("view", dims) for ns in ("aten::", "immut::")
       for n, dims in {"alias": (), "select": (1,), "slice": (1,),
                       "narrow": (1,), "unsqueeze": (1,),
                       "transpose": (1, 2)}.items()}}


class Sugar(NamedTuple):
    """What one Python operator means: on a tensor operand, on host
    scalars, and as ``x op= y`` on a tensor (PyTorch's meanings)."""

    #: the op when any operand is a tensor (None: no tensor meaning)
    tensor: Optional[str]
    #: the ``prim::`` op on host scalars — Python's own operator
    #: function, so its name is the dunder's (None: no scalar meaning)
    scalar: Optional[str]
    #: the in-place op (None: ``x op= y`` rebinds ``x`` to ``x op y``)
    inplace: Optional[str] = None
    #: the reflected dunder keeps the tensor first (``2 + t`` runs
    #: ``add(t, 2)``); otherwise it swaps (``2 - t`` runs ``sub(2, t)``)
    commutes: bool = False

    @property
    def dunder(self) -> str:
        """The dunder stem: ``add`` names ``__add__`` / ``__radd__`` /
        ``__iadd__``."""
        return (self.scalar or self.tensor).split("::")[1]


#: Python operator (its ``ast`` class) -> what it means.  ``Tensor``'s
#: dunders and the frontend's BinOp / Compare / UnaryOp / AugAssign
#: lowering both derive from this table, so eager and compiled code
#: read an operator the same way.  ``not`` has no tensor meaning: it
#: tests truth (``bool(t)``), as it does in Python.
SUGAR: Dict[type, Sugar] = {
    ast.Add: Sugar("aten::add", "prim::add", "aten::add_", commutes=True),
    ast.Sub: Sugar("aten::sub", "prim::sub", "aten::sub_"),
    ast.Mult: Sugar("aten::mul", "prim::mul", "aten::mul_", commutes=True),
    ast.Div: Sugar("aten::div", "prim::truediv", "aten::div_"),
    ast.Pow: Sugar("aten::pow", "prim::pow", "aten::pow_"),
    ast.Mod: Sugar("aten::remainder", "prim::mod"),
    ast.FloorDiv: Sugar(None, "prim::floordiv"),
    ast.MatMult: Sugar("aten::matmul", None),
    ast.Gt: Sugar("aten::gt", "prim::gt"),
    ast.Lt: Sugar("aten::lt", "prim::lt"),
    ast.GtE: Sugar("aten::ge", "prim::ge"),
    ast.LtE: Sugar("aten::le", "prim::le"),
    ast.Eq: Sugar("aten::eq", "prim::eq"),
    ast.NotEq: Sugar("aten::ne", "prim::ne"),
    ast.USub: Sugar("aten::neg", "prim::neg"),
    ast.Not: Sugar(None, "prim::not"),
}


# -- the derived executions --------------------------------------------------

def _positional(kernel: Callable, args, kwargs) -> tuple:
    """Keyword arguments (rare) bound to their positions."""
    bound = inspect.signature(kernel).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.args


def _raw(args) -> list:
    return [a._array if isinstance(a, Tensor) else a for a in args]


def _publish(op: Callable, name: str, doc: str, like: Callable,
             first: str = "") -> Callable:
    params = list(inspect.signature(like).parameters.values())
    if first:
        params[0] = params[0].replace(name=first)
    op.__signature__ = inspect.Signature(params)
    op.__name__ = op.__qualname__ = name.split("::")[1]
    op.__doc__ = doc
    return op


def eager_op(name: str) -> Callable:
    """The eager form of the ``name`` row: one launch, a fresh tensor
    (copied when the kernel hands back the operand it ``aliases``)."""
    kernel, flops, launch, reads, aliases = KERNELS[name]
    launch = launch or name.replace("aten::", "")

    def op(*args, **kwargs):
        if kwargs:
            args = _positional(kernel, args, kwargs)
        raw = _raw(args)
        res = kernel(*raw)
        if aliases is not None and res is raw[aliases]:
            res = np.array(res, copy=True)
        out = wrap(res)
        record_op(launch, args if reads else (), (out,),
                  flops=out._array.size * flops)
        return out
    return _publish(op, name, kernel.__doc__ or f"``{name}``, eagerly: one "
                    "kernel launch, a fresh tensor.", kernel)


def view_op(name: str) -> Callable:
    """The aliasing form of the ``name`` row: metadata only, no launch."""
    kernel = KERNELS[name].kernel

    def op(t, *params, **kwargs):
        arr = t._array
        new = kernel(arr, *params, **kwargs)
        # ``new.base`` alone does not say "view": under numpy >= 2 a
        # copying reshape returns an array based on its temporary copy.
        # A view's base is the operand or the operand's own base; past
        # that cheap test, ask numpy (an empty view shares no bytes, and
        # is a view all the same)
        base = new.base
        if base is not None and (
                base is arr or base is arr.base or new.size == 0
                or np.may_share_memory(new, arr)):
            return t._view(new)
        # layout prevented a view: materialize a copy (owns new storage)
        out = Tensor.from_array(new, copy=False)
        record_op("reshape_copy", [t], [out])
        return out
    return _publish(op, name, kernel.__doc__, kernel)


def _into(ufunc, row: Callable, k: int) -> Callable:
    def kernel(a, b):
        out, other = (a, b) if k == 0 else (b, a)
        if out.__class__ is np.ndarray and out.dtype.kind == "f" and (
                other.__class__ is float or (
                    other.__class__ is np.ndarray
                    and other.dtype == out.dtype
                    and other.shape == out.shape)):
            return ufunc(a, b, out=out)
        return row(a, b)
    return kernel


#: ``(name, k) ->`` the ``out=`` form of binary row ``name`` into operand
#: ``k``'s buffer, for a compiled kernel that proved that buffer dead
#: (``analysis/ownership.py::plan_outs``).  It writes in place only where
#: that gives the row's own value, dtype and shape — a float buffer, the
#: other operand a Python float or an array of the same shape and dtype
#: — and otherwise runs the row's kernel, leaving the operand untouched.
INTO: Dict[tuple, Callable] = {
    ("aten::" + n, k): _into(u, KERNELS["aten::" + n].kernel, k)
    for n, u in _INTO_UFUNCS.items() for k in (0, 1)}


def inplace_op(name: str) -> Callable:
    """``op_`` from its :data:`INPLACE` row: the kernel's value is written
    through the target's storage (cast to its dtype by the store), which
    is exactly TensorSSA's ``immut::assign(x, aten::op(x, ...))``."""
    kernel, flops = KERNELS[INPLACE[name]][:2]
    method = name.split("::")[1]

    def op(*args, **kwargs):
        if kwargs:
            args = _positional(kernel, args, kwargs)
        target = args[0]
        write_through(target, kernel(*_raw(args)))
        record_op(method, args, (target,),
                  flops=target._array.size * flops)
        return target
    return _publish(op, name, f"In-place ``{method[:-1]}``: writes through "
                    "the target's storage (and all its aliases).",
                    kernel, first="target")


#: op name -> its eager form: every row (views alias, ``prim::`` rows run
#: on host scalars, the rest launch once) and every :data:`INPLACE` op
EAGER: Dict[str, Callable] = {
    **{name: (view_op(name) if name.startswith("aten::") and aliases == 0
              else kernel if name.startswith("prim::") else eager_op(name))
       for name, (kernel, *_, aliases) in KERNELS.items()},
    **{name: inplace_op(name) for name in INPLACE}}

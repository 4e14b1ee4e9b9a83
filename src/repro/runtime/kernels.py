"""One numpy kernel per compilable operator, and every way to run it.

:data:`KERNELS` holds one row per operator: its numpy-level kernel
(arrays and Python scalars in, array out — no Tensor wrapping, no launch
recording) and the accounting ``record_op`` needs.  Every execution is
*derived* from that row, so imperative, functionalized and fused
programs agree bit for bit by construction: :func:`eager_op` (the
``aten::*`` / ``immut::*`` op), :func:`view_op` (the aliasing view),
:func:`inplace_op` (``op_``), and the fused call — ``backend/codegen.py``
runs ``OpSchema.kernel``, which ``ops.registry`` fills from this table.

Scalar promotion: Python scalars reach numpy as Python scalars, so NEP 50
weak promotion — PyTorch's rule — decides (``int32 + 2`` stays int32,
``float64 * 0.1`` uses the double); a float64 result is kept only when an
array operand was float64 (:func:`_f32`: the default float is float32).
Argument checks (dim and index range, slice step, permutation) live here
and nowhere else, so the fused path raises what eager raises.
"""

from __future__ import annotations

import inspect
import operator
from typing import Callable, Dict, NamedTuple, Optional

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


class Kernel(NamedTuple):
    """One operator's row: its kernel and how a launch of it is charged."""

    kernel: Callable
    #: outputs are independent per element (given same-shape array
    #: operands), so row-slicing every array input and concatenating
    #: the outputs is exact — what licenses ``tile_elems`` row tiling
    elementwise: bool = False
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
        "not": operator.not_, "min": min, "max": max}, elementwise=True),
    **_rows("aten::", {n: _binary(u) for n, u in {
        "add": np.add, "sub": np.subtract, "mul": np.multiply,
        "div": np.true_divide, "pow": np.power, "maximum": np.maximum,
        "minimum": np.minimum, "remainder": np.remainder,
        "gt": np.greater, "lt": np.less, "ge": np.greater_equal,
        "le": np.less_equal, "eq": np.equal, "ne": np.not_equal,
        "logical_and": np.logical_and, "logical_or": np.logical_or,
    }.items()}, elementwise=True),
    **{"aten::" + n: Kernel(_unary(u), True, flops) for n, (u, flops) in {
        "neg": (np.negative, 1), "abs": (np.abs, 1), "exp": (np.exp, 4),
        "log": (np.log, 4), "sqrt": (np.sqrt, 2), "tanh": (np.tanh, 6),
        "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), 6),
        "relu": (lambda x: np.maximum(x, 0), 1), "floor": (np.floor, 1),
        "ceil": (np.ceil, 1), "logical_not": (np.logical_not, 1),
    }.items()},
    "aten::clamp": Kernel(_clamp, True, flops=2),
    "aten::where": Kernel(
        lambda cond, a, b: _f32(np.where(cond, a, b), a, b), True),
    "aten::clone": Kernel(lambda a: _f32(np.array(a, copy=True), a), True,
                          flops=0),
    "aten::to": Kernel(lambda a, dtype: np.asarray(a).astype(dtype.np),
                       flops=0),
    "aten::masked_fill": Kernel(_masked_fill),
    # shape-propagating fills (functional forms of fill_/zero_)
    "aten::zeros_like": Kernel(
        lambda t: np.zeros(np.shape(t), dtype=np.asarray(t).dtype),
        True, 0, "zeros", False),
    "aten::ones_like": Kernel(
        lambda t: np.ones(np.shape(t), dtype=np.asarray(t).dtype),
        True, 0, "ones", False),
    "aten::full_like": Kernel(
        lambda t, value: np.full(np.shape(t), value,
                                 dtype=np.asarray(t).dtype),
        True, 0, "full", False),
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
}


# -- the derived executions --------------------------------------------------

#: op name -> its derived callable; ``aten::`` entries become Tensor methods
EAGER: Dict[str, Callable] = {}


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
    op.__doc__ = doc or like.__doc__
    EAGER[name] = op
    return op


def eager_op(name: str, doc: str = "") -> Callable:
    """The eager form of the ``name`` row: one launch, a fresh tensor."""
    kernel, _, flops, launch, reads, _ = KERNELS[name]
    launch = launch or name.replace("aten::", "")

    def op(*args, **kwargs):
        if kwargs:
            args = _positional(kernel, args, kwargs)
        out = wrap(kernel(*_raw(args)))
        record_op(launch, args if reads else (), (out,),
                  flops=out._array.size * flops)
        return out
    return _publish(op, name, doc, kernel)


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
    return _publish(op, name, "", kernel)


def inplace_op(name: str, functional: str) -> Callable:
    """``op_`` from the ``functional`` row: the kernel's value is written
    through the target's storage (cast to its dtype by the store), which
    is exactly TensorSSA's ``immut::assign(x, aten::op(x, ...))``."""
    kernel, flops = KERNELS[functional].kernel, KERNELS[functional].flops
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

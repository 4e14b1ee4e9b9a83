"""repro.runtime — the imperative tensor substrate.

A deliberately PyTorch-flavoured tensor library over numpy with *real*
aliasing semantics: view ops share storage, in-place ops mutate through
views, and a profiler counts simulated kernel launches.  This is the
"eager mode" every compiler pipeline in the reproduction is compared
against, and the executor its interpreters bottom out in.
"""

from . import creation, elementwise, inplace, linalg, reduction, shape_ops, views
from .dtype import ALL_DTYPES, DType, bool_, float32, float64, int32, int64, promote
from .profiler import (AllocEvent, KernelEvent, Profile, PythonEvent,
                       current_profile, profile, record_alloc, record_free,
                       record_launch, record_python)
from .storage import MemoryPool, Storage, current_pool, pool_scope
from .tensor import (Scalar, Tensor, all_close, as_tensor, as_tuple,
                     bit_exact)

# Creation
tensor = creation.tensor
from_numpy = creation.from_numpy
zeros = creation.zeros
ones = creation.ones
full = creation.full
empty = creation.empty
arange = creation.arange
zeros_like = creation.zeros_like
ones_like = creation.ones_like
full_like = creation.full_like
rand = creation.rand
randn = creation.randn

# Elementwise / shape / reduction / linalg functional API
add = elementwise.add
sub = elementwise.sub
mul = elementwise.mul
div = elementwise.div
neg = elementwise.neg
exp = elementwise.exp
log = elementwise.log
sqrt = elementwise.sqrt
sigmoid = elementwise.sigmoid
tanh = elementwise.tanh
relu = elementwise.relu
clamp = elementwise.clamp
where = elementwise.where
clone = elementwise.clone
maximum = elementwise.maximum
minimum = elementwise.minimum
floor = elementwise.floor
ceil = elementwise.ceil
logical_and = elementwise.logical_and
logical_or = elementwise.logical_or
logical_not = elementwise.logical_not

sum = reduction.sum  # noqa: A001
mean = reduction.mean
max = reduction.max  # noqa: A001
min = reduction.min  # noqa: A001
argmax = reduction.argmax
argmin = reduction.argmin
cumsum = reduction.cumsum
softmax = reduction.softmax
log_softmax = reduction.log_softmax

matmul = linalg.matmul
bmm = linalg.bmm
linear = linalg.linear

cat = shape_ops.cat
stack = shape_ops.stack
index_select = shape_ops.index_select
gather = shape_ops.gather
masked_select = shape_ops.masked_select
topk = shape_ops.topk
sort = shape_ops.sort
nonzero = shape_ops.nonzero
embedding = shape_ops.embedding
masked_fill = shape_ops.masked_fill
masked_scatter = shape_ops.masked_scatter
index_put = shape_ops.index_put
index_fill = shape_ops.index_fill
chunk = shape_ops.chunk


def _attach_tensor_methods() -> None:
    """Give Tensor the PyTorch-style method surface the workloads use."""
    method_table = {
        # views
        "select": views.select,
        "slice": views.slice_,
        "narrow": views.narrow,
        "reshape": views.reshape,
        "view": views.view,
        "permute": views.permute,
        "transpose": views.transpose,
        "squeeze": views.squeeze,
        "unsqueeze": views.unsqueeze,
        "expand": views.expand,
        "flatten": views.flatten,
        # pure compute
        "add": elementwise.add,
        "sub": elementwise.sub,
        "mul": elementwise.mul,
        "div": elementwise.div,
        "pow": elementwise.pow,
        "neg": elementwise.neg,
        "abs": elementwise.abs,
        "exp": elementwise.exp,
        "log": elementwise.log,
        "sqrt": elementwise.sqrt,
        "sigmoid": elementwise.sigmoid,
        "tanh": elementwise.tanh,
        "relu": elementwise.relu,
        "clamp": elementwise.clamp,
        "clone": elementwise.clone,
        "to": elementwise.to,
        "floor": elementwise.floor,
        "ceil": elementwise.ceil,
        "maximum": elementwise.maximum,
        "minimum": elementwise.minimum,
        # reductions
        "sum": reduction.sum,
        "mean": reduction.mean,
        "max": reduction.max,
        "min": reduction.min,
        "argmax": reduction.argmax,
        "argmin": reduction.argmin,
        "cumsum": reduction.cumsum,
        "softmax": reduction.softmax,
        # linalg / movement
        "matmul": linalg.matmul,
        "gather": shape_ops.gather,
        "index_select": shape_ops.index_select,
        "masked_select": shape_ops.masked_select,
        "masked_fill": shape_ops.masked_fill,
        "masked_scatter": shape_ops.masked_scatter,
        "index_put": shape_ops.index_put,
        "index_fill": shape_ops.index_fill,
        "topk": shape_ops.topk,
        "sort": shape_ops.sort,
        "chunk": shape_ops.chunk,
        # in-place
        "copy_": inplace.copy_,
        "fill_": inplace.fill_,
        "zero_": inplace.zero_,
        "add_": inplace.add_,
        "sub_": inplace.sub_,
        "mul_": inplace.mul_,
        "div_": inplace.div_,
        "pow_": inplace.pow_,
        "neg_": inplace.neg_,
        "exp_": inplace.exp_,
        "sqrt_": inplace.sqrt_,
        "sigmoid_": inplace.sigmoid_,
        "tanh_": inplace.tanh_,
        "relu_": inplace.relu_,
        "clamp_": inplace.clamp_,
        "maximum_": inplace.maximum_,
        "minimum_": inplace.minimum_,
        "masked_fill_": inplace.masked_fill_,
        "masked_scatter_": inplace.masked_scatter_,
        "index_put_": inplace.index_put_,
        "index_fill_": inplace.index_fill_,
    }
    for name, fn in method_table.items():
        setattr(Tensor, name, fn)


_attach_tensor_methods()

__all__ = [name for name in dir() if not name.startswith("_")]

"""repro.runtime — the imperative tensor substrate.

A deliberately PyTorch-flavoured tensor library over numpy with *real*
aliasing semantics: view ops share storage, in-place ops mutate through
views, and a profiler counts simulated kernel launches.  This is the
"eager mode" every compiler pipeline in the reproduction is compared
against, and the executor its interpreters bottom out in.
"""

from . import (creation, elementwise, inplace, kernels, linalg, reduction,
               shape_ops, views)
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
    """Give Tensor the PyTorch-style method surface the workloads use:
    every ``aten::`` row of the kernel table under its own name (views,
    pure elementwise ops and their ``op_`` forms alike), then the
    operators that have no row."""
    for name, fn in kernels.EAGER.items():
        if name.startswith("aten::"):
            setattr(Tensor, name.split("::")[1], fn)
    for module, names in (
            (reduction, "sum mean max min argmax argmin cumsum softmax"),
            (linalg, "matmul"),
            (shape_ops, "gather index_select masked_select masked_scatter "
                        "index_put index_fill topk sort chunk"),
            (inplace, "copy_ zero_ masked_scatter_ index_put_ index_fill_")):
        for name in names.split():
            setattr(Tensor, name, getattr(module, name))


_attach_tensor_methods()

__all__ = [name for name in dir() if not name.startswith("_")]

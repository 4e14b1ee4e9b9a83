"""In-place (mutating) operators — the paper's ``Mutate`` set.

Every function here writes through its first argument's storage (and
therefore through *every alias* of it), bumps the storage version, and
returns the mutated tensor, mirroring PyTorch's ``op_`` convention.
These are exactly the operators TensorSSA rewrites into pure
``immut::*_assign`` forms — and the regular ones *are* that rewrite:
:func:`repro.runtime.kernels.inplace_op` writes the functional row's
kernel value through the target.  Only the irregular, non-fusable
stores keep a body here.
"""

from __future__ import annotations

import numpy as np

from .kernels import inplace_op
from .tensor import Scalar, Tensor, as_tensor, record_op, write_through


def copy_(target: Tensor, src) -> Tensor:
    """``target.copy_(src)``: overwrite target's data with (broadcast)
    ``src``.  The canonical partial-mutation op of the paper (Fig. 1)."""
    t, s = as_tensor(target), as_tensor(src)
    write_through(t, np.broadcast_to(
        s._array.astype(t.dtype.np, copy=False), t.shape))
    record_op("copy_", [t, s], [t], flops=0)
    return t


fill_ = inplace_op("aten::fill_", "aten::full_like")
add_ = inplace_op("aten::add_", "aten::add")
sub_ = inplace_op("aten::sub_", "aten::sub")
mul_ = inplace_op("aten::mul_", "aten::mul")
div_ = inplace_op("aten::div_", "aten::div")
pow_ = inplace_op("aten::pow_", "aten::pow")
maximum_ = inplace_op("aten::maximum_", "aten::maximum")
minimum_ = inplace_op("aten::minimum_", "aten::minimum")
neg_ = inplace_op("aten::neg_", "aten::neg")
exp_ = inplace_op("aten::exp_", "aten::exp")
sigmoid_ = inplace_op("aten::sigmoid_", "aten::sigmoid")
tanh_ = inplace_op("aten::tanh_", "aten::tanh")
relu_ = inplace_op("aten::relu_", "aten::relu")
sqrt_ = inplace_op("aten::sqrt_", "aten::sqrt")
clamp_ = inplace_op("aten::clamp_", "aten::clamp")
masked_fill_ = inplace_op("aten::masked_fill_", "aten::masked_fill")


def zero_(target: Tensor) -> Tensor:
    """In-place ``zero``: writes through the target's storage (and all its aliases)."""
    return fill_(target, 0)


def masked_scatter_(target: Tensor, mask: Tensor, src: Tensor) -> Tensor:
    """In-place ``masked_scatter``: writes through the target's storage (and all its aliases)."""
    t, m, s = as_tensor(target), as_tensor(mask), as_tensor(src)
    new = np.array(t._array, copy=True)
    bmask = np.broadcast_to(m._array, t.shape)
    n = int(bmask.sum())
    new[bmask] = s._array.reshape(-1)[:n].astype(t.dtype.np, copy=False)
    write_through(t, new)
    record_op("masked_scatter_", [t, m, s], [t])
    return t


def index_put_(target: Tensor, index: Tensor, src: Tensor) -> Tensor:
    """``target[index] = src`` with an integer index tensor on dim 0."""
    t, i, s = as_tensor(target), as_tensor(index), as_tensor(src)
    new = np.array(t._array, copy=True)
    new[i._array] = s._array.astype(t.dtype.np, copy=False)
    write_through(t, new)
    record_op("index_put_", [t, i, s], [t])
    return t


def index_fill_(target: Tensor, dim: int, index: Tensor,
                value: Scalar) -> Tensor:
    """In-place ``index_fill``: writes through the target's storage (and all its aliases)."""
    t, i = as_tensor(target), as_tensor(index)
    new = np.array(t._array, copy=True)
    key = (slice(None),) * int(dim) + (i._array,)
    new[key] = value
    write_through(t, new)
    record_op("index_fill_", [t, i], [t])
    return t

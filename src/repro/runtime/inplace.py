"""The irregular in-place stores of the paper's ``Mutate`` set.

An in-place op writes through its first argument's storage (and
therefore through *every alias* of it), bumps the storage version, and
returns the mutated tensor, mirroring PyTorch's ``op_`` convention.
TensorSSA rewrites each into a pure ``immut::*_assign`` form.  The
regular ones *are* that rewrite and have no body anywhere:
:func:`repro.runtime.kernels.inplace_op` writes a row's kernel value
through the target for every :data:`~repro.runtime.kernels.INPLACE`
entry.  Only the four stores no row describes live here.
"""

from __future__ import annotations

import numpy as np

from .tensor import Scalar, Tensor, as_tensor, record_op, write_through


def copy_(target: Tensor, src) -> Tensor:
    """``target.copy_(src)``: overwrite target's data with (broadcast)
    ``src``.  The canonical partial-mutation op of the paper (Fig. 1)."""
    t, s = as_tensor(target), as_tensor(src)
    write_through(t, np.broadcast_to(
        s._array.astype(t.dtype.np, copy=False), t.shape))
    record_op("copy_", [t, s], [t], flops=0)
    return t


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

"""Data-movement operators: concatenation, gather/scatter, sorting.

All of these launch one kernel and produce fresh storage (none alias
their inputs), which makes them fusion *barriers* in every pipeline but
still cheap, memory-bound work.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .kernels import eager_op
from .tensor import Tensor, as_tensor, record_op


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    """Concatenate tensors along ``dim`` (fresh storage)."""
    ts = [as_tensor(t) for t in tensors]
    out = Tensor.from_array(
        np.concatenate([t._array for t in ts], axis=int(dim)), copy=False)
    record_op("cat", ts, [out], flops=0)
    return out


def stack(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    """Stack tensors along a new ``dim`` (fresh storage)."""
    ts = [as_tensor(t) for t in tensors]
    out = Tensor.from_array(
        np.stack([t._array for t in ts], axis=int(dim)), copy=False)
    record_op("stack", ts, [out], flops=0)
    return out


def index_select(t: Tensor, dim: int, index: Tensor) -> Tensor:
    """Select rows/slices along ``dim`` by an int index tensor (copy)."""
    tt, ti = as_tensor(t), as_tensor(index)
    out = Tensor.from_array(np.take(tt._array, ti._array, axis=int(dim)),
                            copy=False)
    record_op("index_select", [tt, ti], [out], flops=0)
    return out


def gather(t: Tensor, dim: int, index: Tensor) -> Tensor:
    """Gather elements along ``dim`` by an index tensor of equal rank."""
    tt, ti = as_tensor(t), as_tensor(index)
    out = Tensor.from_array(
        np.take_along_axis(tt._array, ti._array, axis=int(dim)), copy=False)
    record_op("gather", [tt, ti], [out], flops=0)
    return out


def masked_select(t: Tensor, mask: Tensor) -> Tensor:
    """1-D copy of elements where ``mask`` is true."""
    tt, tm = as_tensor(t), as_tensor(mask)
    out = Tensor.from_array(tt._array[np.broadcast_to(tm._array, tt.shape)],
                            copy=False)
    record_op("masked_select", [tt, tm], [out], flops=0)
    return out


def topk(t: Tensor, k: int, dim: int = -1, largest: bool = True):
    """Values and indices of the top-``k`` entries along ``dim``."""
    tt = as_tensor(t)
    axis = int(dim)
    arr = tt._array
    if largest:
        idx = np.argsort(-arr, axis=axis, kind="stable")
    else:
        idx = np.argsort(arr, axis=axis, kind="stable")
    idx = np.take(idx, np.arange(k), axis=axis)
    vals = np.take_along_axis(arr, idx, axis=axis)
    values = Tensor.from_array(vals, copy=False)
    indices = Tensor.from_array(idx.astype(np.int64), copy=False)
    record_op("topk", [tt], [values, indices],
              flops=tt.numel * max(1, int(np.log2(max(tt.numel, 2)))))
    return values, indices


def sort(t: Tensor, dim: int = -1, descending: bool = False):
    """Sorted values and indices along ``dim``."""
    tt = as_tensor(t)
    axis = int(dim)
    arr = tt._array
    idx = np.argsort(-arr if descending else arr, axis=axis, kind="stable")
    vals = np.take_along_axis(arr, idx, axis=axis)
    values = Tensor.from_array(vals, copy=False)
    indices = Tensor.from_array(idx.astype(np.int64), copy=False)
    record_op("sort", [tt], [values, indices],
              flops=tt.numel * max(1, int(np.log2(max(tt.numel, 2)))))
    return values, indices


def nonzero(t: Tensor) -> Tensor:
    """Indices of nonzero elements, shape ``(n, ndim)`` — dynamic shape."""
    tt = as_tensor(t)
    out = Tensor.from_array(
        np.stack(np.nonzero(tt._array), axis=-1).astype(np.int64)
        if tt._array.any() else np.zeros((0, max(tt.ndim, 1)), np.int64),
        copy=False)
    record_op("nonzero", [tt], [out], flops=tt.numel)
    return out


def embedding(weight: Tensor, index: Tensor) -> Tensor:
    """Row lookup (``aten::embedding``)."""
    return index_select(weight, 0, index)


def chunk(t: Tensor, chunks: int, dim: int = 0) -> List[Tensor]:
    """Split into equal views along ``dim`` (views, no kernels)."""
    from .views import narrow
    tt = as_tensor(t)
    size = tt.shape[int(dim)]
    if size % chunks != 0:
        raise ValueError(f"chunk: size {size} not divisible by {chunks}")
    step = size // chunks
    return [narrow(tt, int(dim), i * step, step) for i in range(chunks)]


# ---------------------------------------------------------------------------
# Pure counterparts of the indexed/masked mutation ops (used by the
# TensorSSA rewrite to materialize a mutation's value functionally).
# ---------------------------------------------------------------------------

masked_fill = eager_op("aten::masked_fill",
                       "Pure masked fill: where(mask, value, t).")


def masked_scatter(t: Tensor, mask: Tensor, src: Tensor) -> Tensor:
    """Pure masked scatter: copy of ``t`` with masked slots taken from ``src``."""
    tt, tm, ts = as_tensor(t), as_tensor(mask), as_tensor(src)
    new = np.array(tt._array, copy=True)
    bmask = np.broadcast_to(tm._array, tt.shape)
    n = int(bmask.sum())
    new[bmask] = ts._array.reshape(-1)[:n].astype(tt.dtype.np, copy=False)
    out = Tensor.from_array(new, copy=False)
    record_op("masked_scatter", [tt, tm, ts], [out])
    return out


def index_put(t: Tensor, index: Tensor, src: Tensor) -> Tensor:
    """Pure indexed store on dim 0: copy of ``t`` with ``t[index] = src``."""
    tt, ti, ts = as_tensor(t), as_tensor(index), as_tensor(src)
    new = np.array(tt._array, copy=True)
    new[ti._array] = ts._array.astype(tt.dtype.np, copy=False)
    out = Tensor.from_array(new, copy=False)
    record_op("index_put", [tt, ti, ts], [out])
    return out


def index_fill(t: Tensor, dim: int, index: Tensor, value) -> Tensor:
    """Pure indexed fill along ``dim``."""
    tt, ti = as_tensor(t), as_tensor(index)
    new = np.array(tt._array, copy=True)
    key = (slice(None),) * int(dim) + (ti._array,)
    new[key] = value
    out = Tensor.from_array(new, copy=False)
    record_op("index_fill", [tt, ti], [out])
    return out


def unbroadcast(g: Tensor, template: Tensor) -> Tensor:
    """Reduce a broadcast gradient back to ``template``'s shape/dtype.

    The adjoint of numpy-style broadcasting: extra leading dims are
    summed away and stretched size-1 dims are summed with ``keepdims``,
    then the result is cast to ``template``'s dtype (the adjoint of an
    implicit up-cast is the matching down-cast).  Identity shapes pass
    through as a cheap copy-free cast.
    """
    gg, tt = as_tensor(g), as_tensor(template)
    arr = gg._array
    while arr.ndim > tt.ndim:
        arr = arr.sum(axis=0)
    for axis, size in enumerate(tt.shape):
        if arr.shape[axis] != size:
            arr = arr.sum(axis=axis, keepdims=True)
    arr = np.ascontiguousarray(arr.astype(tt.dtype.np, copy=False))
    out = Tensor.from_array(arr, copy=arr is gg._array)
    record_op("unbroadcast", [gg], [out])
    return out


def reshape_like(src: Tensor, template: Tensor) -> Tensor:
    """``src`` reshaped to ``template``'s shape (fresh storage).

    The adjoint of every metadata-only reshape-family op (reshape /
    view / squeeze / unsqueeze / flatten and their Assign duals): the
    gradient just flows back with the original geometry restored.
    """
    ss, tt = as_tensor(src), as_tensor(template)
    out = Tensor.from_array(ss._array.reshape(tt.shape), copy=True)
    record_op("reshape_like", [ss], [out])
    return out

"""Dense linear algebra: the compute-intensive operators.

These are *not* fusion candidates in any of the compared pipelines (the
paper delegates them to vendor libraries); they matter to the evaluation
because CV workloads are dominated by them, which is why CV speedups are
smaller than NLP speedups (paper §5.2).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, record_op


def _matmul_flops(a_shape, b_shape) -> int:
    # 2*M*N*K for the trailing two dims, times the broadcast batch.
    if len(a_shape) == 1 and len(b_shape) == 1:
        return 2 * a_shape[0]
    m = a_shape[-2] if len(a_shape) >= 2 else 1
    k = a_shape[-1]
    n = b_shape[-1] if len(b_shape) >= 2 else 1
    if len(a_shape) <= 2 and len(b_shape) <= 2:
        return 2 * m * n * k
    batch = 1
    for s in np.broadcast_shapes(tuple(a_shape[:-2]), tuple(b_shape[:-2])):
        batch *= s
    return 2 * batch * m * n * k


def matmul(a, b) -> Tensor:
    """Batched matrix multiply (one library kernel)."""
    ta, tb = as_tensor(a), as_tensor(b)
    out = Tensor.from_array(np.matmul(ta._array, tb._array), copy=False)
    record_op("matmul", [ta, tb], [out],
              flops=_matmul_flops(ta.shape, tb.shape))
    return out


def bmm(a, b) -> Tensor:
    """Batched matmul over rank-3 tensors."""
    ta, tb = as_tensor(a), as_tensor(b)
    if ta.ndim != 3 or tb.ndim != 3:
        raise ValueError("bmm expects rank-3 tensors")
    return matmul(ta, tb)


#: ``linear`` runs as ``(weight @ x.T).T`` for 2..SWAP_MAX_ROWS rows:
#: OpenBLAS then packs the few activation rows, not the whole weight
#: (~2x at 8 rows); past 64 rows the transposing copy eats that gain
#: (EXPERIMENTS.md "`linear` as (W·xᵀ)ᵀ").
SWAP_MAX_ROWS = 64


def linear(x, weight, bias=None) -> Tensor:
    """``x @ weight.T + bias`` as one library kernel (like cuBLAS GEMM
    with epilogue).

    With 2..``SWAP_MAX_ROWS`` rows the GEMM runs in the other
    orientation, ``swapaxes(weight @ swapaxes(x))``: each element is
    the same sum of the same products, bit for bit that of
    ``np.matmul(x, weight.T)`` (pinned by ``tests/test_runtime_ops.py``),
    and the result is handed back C-contiguous.  One row is a GEMV and
    costs the same either way.  No state is kept between calls.
    """
    tx, tw = as_tensor(x), as_tensor(weight)
    xa, wa = tx._array, tw._array
    swap = wa.ndim == 2 and xa.ndim >= 2 and 1 < xa.shape[-2] <= SWAP_MAX_ROWS
    out_arr = (np.matmul(wa, np.swapaxes(xa, -1, -2)).swapaxes(-1, -2)
               if swap else np.matmul(xa, wa.T))
    inputs = [tx, tw]
    if bias is not None:
        tb = as_tensor(bias)
        out_arr = np.add(out_arr, tb._array, order="C")
        inputs.append(tb)
    elif swap:
        out_arr = np.ascontiguousarray(out_arr)
    out = Tensor.from_array(out_arr, copy=False)
    record_op("linear", inputs, [out],
              flops=_matmul_flops(tx.shape, tw.shape[::-1]))
    return out
